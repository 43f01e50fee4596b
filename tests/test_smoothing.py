import numpy as np
import pytest

import manismooth as ms
from manismooth.checks import grid_argmin_1d, random_terms
from manismooth.errors import ParameterError
from manismooth.smoothing import IndicatorTerm


def test_prox_soft_threshold_example():
    # grid oracle value for y = 2, mu = 1, lam = 1 is 1 (computed below)
    h = ms.ScaledL1(1.0, 3)
    got = ms.prox(h, 1.0, np.array([2.0, -0.5, 0.0]))
    for y, expect in zip([2.0, -0.5, 0.0], [1.0, 0.0, 0.0]):
        oracle = grid_argmin_1d(lambda z: np.abs(z), 1.0, y, y - 5, y + 5)
        assert abs(oracle - expect) <= 1e-3
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-12)


def test_prox_fixed_point_and_ball():
    h = ms.ScaledL1(1.0, 2)
    np.testing.assert_allclose(ms.prox(h, 0.3, np.zeros(2)), np.zeros(2))
    ball = ms.IndicatorBall(np.zeros(2), 1.0)
    np.testing.assert_allclose(ms.prox(ball, 2.0, np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)


def test_prox_rejects_bad_mu():
    with pytest.raises(ParameterError):
        ms.prox(ms.ScaledL2(1.0), 0.0, np.ones(2))
    with pytest.raises(ParameterError):
        ms.moreau_eval(ms.ScaledL2(1.0), -1.0, np.ones(2))


def test_moreau_eval_examples():
    e = ms.moreau_eval(ms.IndicatorBall(np.zeros(2), 1.0), 0.5, np.array([2.0, 0.0]))
    assert e.value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(e.grad, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(e.prox_point, [1.0, 0.0], atol=1e-12)

    # envelope value via the grid oracle: min_z |z| + (2 - z)^2 / 2
    zs = np.arange(-4, 8, 1e-4)
    oracle_val = np.min(np.abs(zs) + (2.0 - zs) ** 2 / 2.0)
    e2 = ms.moreau_eval(ms.ScaledL1(1.0, 1), 1.0, np.array([2.0]))
    assert e2.value == pytest.approx(oracle_val, abs=1e-7)
    assert e2.value == pytest.approx(1.5, abs=1e-12)
    assert e2.grad[0] == pytest.approx(1.0, abs=1e-12)


def test_moreau_inside_set_is_zero():
    box = ms.IndicatorBox(-np.ones(3), np.ones(3))
    e = ms.moreau_eval(box, 0.7, np.array([0.2, -0.5, 0.9]))
    assert e.value == 0.0
    np.testing.assert_allclose(e.grad, np.zeros(3))


def test_envelope_inequality_worked_examples():
    h = ms.ScaledL1(1.0, 1)
    y = np.array([2.0])
    # LHS h_{0.5}(2) = 1.75 vs generic RHS 2.0, both from closed forms
    assert ms.moreau_eval(h, 0.5, y).value == pytest.approx(1.75, abs=1e-12)
    assert ms.moreau_envelope_inequality_check(h, 1.0, 0.5, y)

    ball = ms.IndicatorBall(np.zeros(2), 1.0)
    yb = np.array([2.0, 0.0])
    assert ms.moreau_eval(ball, 0.25, yb).value == pytest.approx(2.0, abs=1e-12)
    assert ms.moreau_eval(ball, 1.0, yb).value == pytest.approx(0.5, abs=1e-12)
    assert ms.moreau_envelope_inequality_check(ball, 1.0, 0.25, yb)


def test_envelope_inequality_equal_mu():
    h = ms.ScaledL2(1.3)
    assert ms.moreau_envelope_inequality_check(h, 0.8, 0.8, np.array([1.0, -2.0]))


def test_envelope_inequality_rejects_bad_order():
    with pytest.raises(ParameterError):
        ms.moreau_envelope_inequality_check(ms.ScaledL2(1.0), 0.5, 1.0, np.ones(2))


def test_subgradient_membership_scaled_l1():
    h = ms.ScaledL1(0.7, 3)
    y = np.array([2.0, 0.0, -1.0])
    z = np.array([0.7, 0.3, -0.7])
    assert h.in_subdifferential(y, z)
    assert not h.in_subdifferential(y, np.array([0.7, 0.9, -0.7]))
    assert not h.in_subdifferential(y, np.array([-0.7, 0.0, -0.7]))


def test_subgradient_membership_scaled_l2():
    # away from 0 the subdifferential is lam y / ||y||; at 0 it is the ball of radius lam
    h = ms.ScaledL2(0.5)
    assert h.in_subdifferential(np.array([3.0, 4.0]), np.array([0.3, 0.4]))
    assert h.in_subdifferential(np.zeros(2), np.array([0.3, 0.4]))
    assert not h.in_subdifferential(np.zeros(2), np.array([0.3, 0.5]))


def test_normal_cone_membership_ball():
    rng = np.random.default_rng(3)
    ball = ms.IndicatorBall(np.zeros(3), 1.0)
    y = np.array([1.0, 0.0, 0.0])
    assert ball.in_subdifferential(y, 2.5 * y, rng=rng)
    assert not ball.in_subdifferential(y, np.array([-1.0, 0.0, 0.0]), rng=rng)


def test_smoothed_objective_grad_reduces_to_smooth():
    p = ms.make_sparse_pca(8, 2, 5, 0.0, seed=1)
    rng = np.random.default_rng(2)
    x = ms.random_point(p.manifold, rng)
    val, g, infeas = ms.smoothed_objective_grad(p, x, 0.5)
    assert infeas == 0.0
    expected = ms.tangent_project(x, p.full_egrad(x.data))
    np.testing.assert_allclose(g.data, expected.data, atol=1e-13)
    assert val == pytest.approx(p.full_value(x.data), abs=1e-12)


def test_smoothed_objective_grad_finite_differences():
    p = ms.make_sparse_pca(6, 2, 4, 0.3, seed=5)
    rng = np.random.default_rng(6)
    x = ms.random_point(p.manifold, rng)
    t = 1e-5
    for mu in (1.0, 0.2):
        _, g, _ = ms.smoothed_objective_grad(p, x, mu)
        errs = []
        for _ in range(20):
            u = ms.random_tangent(x, rng, norm=1.0)
            fp = ms.smoothed_objective_grad(p, ms.retract(x, t * u), mu)[0]
            fm = ms.smoothed_objective_grad(p, ms.retract(x, (-t) * u), mu)[0]
            errs.append(float(np.sum(g.data * u.data)) - (fp - fm) / (2 * t))
        assert np.linalg.norm(errs) / g.norm() <= 1e-5


def test_smoothed_objective_feasible_indicator():
    ball = ms.IndicatorBall(np.zeros(4), 10.0)  # image of the sphere map stays inside
    p = ms.make_constrained_sphere(6, 4, 3, ball, seed=7, quad_weight=0.0, linear_map=np.eye(6)[:4])
    rng = np.random.default_rng(8)
    x = ms.random_point(p.manifold, rng)
    _, g, infeas = ms.smoothed_objective_grad(p, x, 0.3)
    assert infeas == 0.0
    expected = ms.tangent_project(x, p.full_egrad(x.data))
    np.testing.assert_allclose(g.data, expected.data, atol=1e-13)


def test_indicator_projection_of_a_stack_equals_per_row():
    center = np.array([0.5, -0.2, 0.1])
    sets = [ms.IndicatorBall(center, 0.7), ms.IndicatorBox(center - 0.3, center + 0.4),
            ms.IndicatorSingleton(center)]
    rows = np.random.default_rng(11).standard_normal((8, 3))
    rows[2] = center  # at the ball's center: zero distance, inside
    rows[5] = center + 0.01
    for h in sets:
        proj, dist = h.project(rows), h.distance(rows)
        inside, value = h.contains(rows), h.value(rows)
        for s, y in enumerate(rows):
            assert np.array_equal(proj[s], h.project(y))
            assert dist[s] == h.distance(y)
            assert inside[s] == h.contains(y) and value[s] == h.value(y)
        assert inside.any() and not inside.all()  # the center row is in every set


def test_value_of_a_stack_equals_per_row():
    # every term (and l2 at lam = 0), at member and non-member rows, a zero
    # row, a row the l2 prox maps to 0, and a one-row stack: each row of
    # value and prox is the one-vector call bit for bit, and one vector's
    # value is a Python scalar
    rng = np.random.default_rng(12)
    mu = 0.7
    for dim in (1, 3, 5):
        for h in [*random_terms(rng, dim), ms.ScaledL2(0.0)]:
            rows = 2 * rng.standard_normal((7, dim))
            rows[3] = 0.0
            rows[4] *= 1e-3
            if isinstance(h, IndicatorTerm):
                rows[:3] = [h.sample_member(rng) for _ in range(3)]
                assert type(h.contains(rows[0])) is bool and np.array_equal(h.contains(rows[:1]), [True])
            values, proxes = h.value(rows), h.prox(mu, rows)
            assert values.shape == (7,) and np.array_equal(h.value(rows[:1]), values[:1])
            assert proxes.shape == rows.shape and np.array_equal(h.prox(mu, rows[:1]), proxes[:1])
            for y, got, prox_row in zip(rows, values, proxes):
                assert type(h.value(y)) is float and got == h.value(y)
                assert np.array_equal(prox_row, h.prox(mu, y))
