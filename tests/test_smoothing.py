import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import manismooth as ms
from manismooth.checks import (
    GRID_BLOCK,
    ORACLE_KINDS,
    check_smoothing,
    grid_argmin_1d,
    oracle_cases,
    prox_oracle_gap,
    random_terms,
)
from manismooth.errors import ParameterError, ShapeMismatchError
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
    # every non-finite or non-positive mu, as a scalar, a 0-d array or one entry of a per-row mu
    h, y, rows = ms.ScaledL1(1.0, 2), np.ones(2), np.ones((3, 2))
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf, np.float64(np.nan), np.array(np.inf)):
        per_row = np.array([0.5, bad, 0.5])
        for call in (
            lambda: ms.prox(h, bad, y), lambda: ms.prox(h, per_row, rows),
            lambda: ms.moreau_eval(h, bad, y), lambda: ms.moreau_eval(h, per_row, rows),
            lambda: ms.moreau_envelope_inequality_check(h, bad, 0.5, y),
            lambda: ms.moreau_envelope_inequality_check(h, 1.0, bad, y),
            lambda: ms.moreau_envelope_inequality_check(h, per_row, 0.1, rows),
            lambda: ms.moreau_envelope_inequality_check(h, 1.0, per_row, rows),
        ):
            with pytest.raises(ParameterError) as err:
                call()
            assert err.value.field == "mu"


def test_moreau_eval_rejects_a_non_finite_input_as_prox_does():
    for y in ([np.nan, 1.0], [np.inf, 0.0], [[1.0, 2.0], [0.0, -np.inf]]):
        for call in (ms.prox, ms.moreau_eval):
            with pytest.raises(ParameterError, match="input must be finite"):
                call(ms.ScaledL2(1.0), 0.5, y)


def test_per_row_mu_must_have_the_stack_leading_shape():
    with pytest.raises(ShapeMismatchError):
        ms.prox(ms.ScaledL1(1.0, 2), np.full(3, 0.5), np.ones((2, 2)))
    with pytest.raises(ShapeMismatchError):
        ms.moreau_eval(ms.ScaledL2(1.0), np.full(2, 0.5), np.ones(2))


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
    ball = ms.IndicatorBall(np.zeros(3), 1.0)
    y = np.array([1.0, 0.0, 0.0])
    assert ball.in_subdifferential(y, 2.5 * y)
    assert not ball.in_subdifferential(y, np.array([-1.0, 0.0, 0.0]))


@pytest.mark.parametrize("h, y, z, member", [
    # inside the box in coordinate 0, so N_C(y) is 0 there; a sampled test missed z_0 = 1e-6,
    # since the box's width 1.1e-3 in that coordinate keeps every <z, w - y> below 1e-8
    (ms.IndicatorBox([0.4999, -1.0], [0.501, 1.0]), [0.5, 1.0], [1e-6, 3.0], False),
    (ms.IndicatorBox([0.4999, -1.0], [0.501, 1.0]), [0.5, 1.0], [0.0, 3.0], True),
    # a boundary point of the ball whose z has a tangential part
    (ms.IndicatorBall(np.zeros(3), 1.0), [0.0, 1.0, 0.0], [1e-6, 2.5, 0.0], False),
    (ms.IndicatorBall(np.zeros(3), 1.0), [2.0, 0.0, 0.0], [1.0, 0.0, 0.0], False),  # y outside C
    (ms.IndicatorSingleton([0.3, -0.2]), [0.3, -0.2], [5.0, -7.0], True),  # N_C(y) is all of R^m
])
def test_normal_cone_membership_is_exact(h, y, z, member):
    assert h.in_subdifferential(np.array(y), np.array(z)) is member


def test_smoothed_objective_grad_reduces_to_smooth():
    p = ms.make_sparse_pca(8, 2, 5, 0.0, seed=1)
    rng = np.random.default_rng(2)
    x = ms.random_point(p.manifold, rng)
    val, g, infeas = ms.smoothed_objective_grad(p, x, 0.5)
    assert infeas == 0.0
    expected = ms.tangent_project(x, p.full_egrad(x.data))
    np.testing.assert_allclose(g.data, expected.data, atol=1e-13)
    assert val == pytest.approx(p.full_value_egrad(x.data)[0], abs=1e-12)


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


def test_smoothed_objective_grad_names_a_non_finite_c_x():
    # a finite linear map whose products overflow c(x) = B x to inf; a bad mu beside it still names c(x),
    # and a bad mu at a finite c(x) names mu
    ball = ms.IndicatorBall(np.zeros(2), 1.0)
    wide = ms.make_constrained_sphere(4, 2, 3, ball, seed=7, quad_weight=0.0, linear_map=np.full((2, 4), 1e308))
    x = ms.ManifoldPoint(wide.manifold, np.full(wide.manifold.shape, 0.5))
    for mu in (0.3, 0.0, np.nan):
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match=r"^c\(x\) must be finite$"):
            ms.smoothed_objective_grad(wide, x, mu)
    with pytest.raises(ParameterError) as err:
        ms.smoothed_objective_grad(ms.make_constrained_sphere(4, 2, 3, ball, seed=7), x, 0.0)
    assert err.value.field == "mu"


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


def test_ball_projection_of_one_vector_is_its_row_of_a_stack_bit_for_bit():
    # one vector takes Python-float tests, a stack its masks; both scale d by radius / ||d||
    # with one formula, so a row projects to the same bytes alone as in any stack
    m, radius = 10, 0.5
    center = np.full(m, 0.25)
    ball = ms.IndicatorBall(center, radius)
    rng = np.random.default_rng(21)
    on = center.copy()
    on[0] += radius  # ||d|| = radius exactly: the boundary is inside
    past = on.copy()
    past[0] = np.nextafter(past[0], np.inf)
    rows = {"inside": center + 0.1 * rng.standard_normal(m) / np.sqrt(m), "boundary": on, "centre": center.copy(),
            "just outside": past, "outside": center + 3.0 * rng.standard_normal(m),
            "far": center + 1e150 * rng.standard_normal(m)}
    assert [math.sqrt((y - center) @ (y - center)) <= radius for y in rows.values()] == [True] * 3 + [False] * 3
    mixed = np.stack(list(rows.values()))
    stacks = [mixed, mixed[3:], mixed[:3], mixed.reshape(2, 3, m)[::-1]]
    for stack in stacks:
        projected = ball.project(stack)
        for index in np.ndindex(stack.shape[:-1]):
            alone = ball.project(stack[index])
            assert alone.dtype == projected.dtype and alone.tobytes() == projected[index].tobytes(), index
    for name in ("boundary", "centre"):
        assert ball.project(rows[name]).tobytes() == rows[name].tobytes()
    assert np.linalg.norm(ball.project(rows["outside"]) - center) == pytest.approx(radius, rel=1e-15)


@pytest.mark.parametrize("case", ["all inside", "mixed", "all outside"])
def test_ball_projection_of_a_stack_is_a_new_array_of_the_one_vector_rows(case):
    # one np.where for every mix of rows: the centre row (zero norm) is never divided by,
    # and the result never shares the input's memory, whose rows are the one-vector calls' bytes
    center = np.array([0.3, -0.1, 0.2, 0.0])
    ball = ms.IndicatorBall(center, 0.6)
    rng = np.random.default_rng(31)
    inside = np.vstack([center, center + 0.1 * rng.standard_normal((2, 4))])
    outside = center + 2.0 * rng.standard_normal((3, 4))
    stack = {"all inside": inside, "mixed": np.vstack([inside, outside])[[3, 0, 4, 1, 5, 2]],
             "all outside": outside}[case]
    assert list(ball.contains(stack)) == {"all inside": [True] * 3, "mixed": [False, True] * 3,
                                          "all outside": [False] * 3}[case]
    projected = ball.project(stack)
    assert not np.shares_memory(projected, stack)
    for y, got in zip(stack, projected):
        assert got.tobytes() == ball.project(y).tobytes()


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
                rows[:3] = h.project(rows[:3])
                assert type(h.contains(rows[0])) is bool and np.array_equal(h.contains(rows[:1]), [True])
            values, proxes = h.value(rows), h.prox(mu, rows)
            assert values.shape == (7,) and np.array_equal(h.value(rows[:1]), values[:1])
            assert proxes.shape == rows.shape and np.array_equal(h.prox(mu, rows[:1]), proxes[:1])
            for y, got, prox_row in zip(rows, values, proxes):
                assert type(h.value(y)) is float and got == h.value(y)
                assert np.array_equal(prox_row, h.prox(mu, y))


def test_stacks_with_one_mu_per_row_equal_the_one_row_calls():
    # every term (and l2 at lam = 0), at member rows, a zero row and a row the l2 prox maps to 0: each row
    # of prox, moreau_eval and the inequality check with one mu per row is the one-row call bit for bit,
    # and a scalar mu over the stack gives the same as before
    rng = np.random.default_rng(13)
    for dim in (1, 3, 5):
        for h in [*random_terms(rng, dim), ms.ScaledL2(0.0)]:
            rows = 2 * rng.standard_normal((7, dim))
            rows[3] = 0.0
            rows[4] *= 1e-3
            if isinstance(h, IndicatorTerm):
                rows[:3] = h.project(rows[:3])
            mu1 = rng.uniform(0.05, 2.0, 7)
            mu2 = rng.uniform(0.01, 1.0, 7) * mu1
            proxes, env = ms.prox(h, mu1, rows), ms.moreau_eval(h, mu1, rows)
            verdicts = ms.moreau_envelope_inequality_check(h, mu1, mu2, rows)
            assert env.value.shape == verdicts.shape == (7,) and verdicts.dtype == bool
            for i, y in enumerate(rows):
                one = ms.moreau_eval(h, float(mu1[i]), y)
                assert type(one.value) is float and env.value[i] == one.value
                assert np.array_equal(env.grad[i], one.grad) and np.array_equal(env.prox_point[i], one.prox_point)
                assert np.array_equal(proxes[i], ms.prox(h, float(mu1[i]), y))
                one_verdict = ms.moreau_envelope_inequality_check(h, float(mu1[i]), float(mu2[i]), y)
                assert type(one_verdict) is bool and verdicts[i] == one_verdict
            scalar, scalar_proxes = ms.moreau_eval(h, 0.7, rows), ms.prox(h, 0.7, rows)
            for i, y in enumerate(rows):
                one = ms.moreau_eval(h, 0.7, y)
                assert scalar.value[i] == one.value and np.array_equal(scalar.grad[i], one.grad)
                assert np.array_equal(scalar_proxes[i], h.prox(0.7, y))


def whole_grid_argmin(h_value, mu, y, lo, hi, res=1e-4):
    """The grid oracle by its definition: one evaluation over the whole grid z_i = lo + i res."""
    zs = lo + np.arange(math.ceil((hi + res - lo) / res)) * res
    return zs[np.argmin(h_value(zs) + (zs - y) ** 2 / (2 * mu))]


def assert_same_grid_point(h_value, mu, y, lo, hi, res=1e-4):
    got = grid_argmin_1d(h_value, mu, y, lo, hi, res)
    assert got.tobytes() == whole_grid_argmin(h_value, mu, y, lo, hi, res).tobytes()
    return got


def test_grid_oracle_is_the_whole_grid_argmin_on_the_battery_draws():
    # the smoothing battery's 300 oracle cases, spans up to 13
    for _, h_value, mu, y, span in oracle_cases(np.random.default_rng(54321), 300, (ms.ScaledL1,)):
        assert_same_grid_point(h_value, mu, y, y - span, y + span)


@pytest.mark.parametrize("kind", [ms.IndicatorBox, ms.IndicatorBall], ids=["box", "ball"])
def test_grid_oracle_is_the_whole_grid_argmin_on_indicators(kind):
    # acceptance criterion 02's oracle cases of this kind: h is +inf on the part of the grid off the set
    for h, h_value, mu, y, span in oracle_cases(np.random.default_rng(202), 1000, ORACLE_KINDS):
        if type(h) is kind:
            assert_same_grid_point(h_value, mu, y, y - span, y + span)


def test_grid_oracle_on_an_all_infinite_grid_gives_its_first_point():
    lo = -1.0
    got = assert_same_grid_point(lambda z: np.full_like(z, np.inf), 1.0, 0.0, lo, lo + 3 * GRID_BLOCK * 1e-4)
    assert got == lo


@pytest.mark.parametrize("nans, y", [
    ((GRID_BLOCK + 5,), 3.0),  # the minimum in an earlier block than the NaN
    ((3,), GRID_BLOCK + 5.0),  # the NaN in an earlier block than the minimum
    ((2 * GRID_BLOCK + 7, GRID_BLOCK + 1), 2.0),  # two NaNs, in two blocks
])
def test_grid_oracle_returns_the_first_nan(nans, y):
    got = assert_same_grid_point(lambda z: np.where(np.isin(z, nans), np.nan, 0.0), 1.0, y, 0.0, 3 * GRID_BLOCK, 1.0)
    assert got == min(nans)


def test_grid_oracle_tie_across_a_block_seam_gives_the_first_point():
    # on the integer grid, z = GRID_BLOCK - 1 and z = GRID_BLOCK are 0.5 from y: equal values, one per block
    got = assert_same_grid_point(lambda z: np.zeros_like(z), 1.0, GRID_BLOCK - 0.5, 0.0, 2 * GRID_BLOCK, 1.0)
    assert got == GRID_BLOCK - 1


@pytest.mark.parametrize("length", [1, GRID_BLOCK - 1, GRID_BLOCK, GRID_BLOCK + 1, 3 * GRID_BLOCK])
def test_grid_oracle_is_the_whole_grid_argmin_at_every_length(length):
    hi = 0.25 * (length - 1)
    assert math.ceil((hi + 0.25) / 0.25) == length
    rng = np.random.default_rng(length)
    for y in [-1.0, 0.0, hi / 2, hi, hi + 1.0, *rng.uniform(0.0, hi, 5)]:
        # sin(z) puts local minima in every block of the longer grids
        assert_same_grid_point(lambda z: 0.5 * np.abs(z - hi / 3) + np.sin(z), 0.5, y, 0.0, hi, 0.25)


@pytest.mark.parametrize("lo, hi, res", [
    (1.0, 0.0, 1e-4), (0.0, 1.0, 0.0), (0.0, 1.0, -1e-4), (0.0, 1.0, np.nan),
    (0.0, np.inf, 1e-4), (-np.inf, 0.0, 1e-4), (0.0, 1.0, np.inf),
])
def test_grid_oracle_rejects_an_empty_grid(lo, hi, res):
    with pytest.raises(ParameterError, match="res > 0 and lo <= hi"):
        grid_argmin_1d(np.abs, 1.0, 0.0, lo, hi, res)


@pytest.mark.parametrize("mu", [np.nan, 0.0, -1.0, np.inf])
def test_grid_oracle_rejects_a_bad_mu(mu):
    with pytest.raises(ParameterError, match="finite mu > 0"):
        grid_argmin_1d(np.abs, mu, 0.0, -1.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1e296, 1e296), (0.0, 1e4 + 0.5)])
def test_grid_oracle_rejects_a_grid_beyond_its_bound(lo, hi):
    # the span overflows to inf, is finite but ~1e300 points, or is just over GRID_MAX
    with pytest.raises(ParameterError, match="more than GRID_MAX"):
        grid_argmin_1d(np.abs, 1.0, 0.0, lo, hi)


def test_grid_oracle_rejects_a_step_lost_in_rounding():
    # hi + res == hi at 1e20, so np.arange(lo, hi + res, res) is empty
    with pytest.raises(ParameterError, match="grid is empty"):
        grid_argmin_1d(np.abs, 1.0, 0.0, 1e20, 1e20, 1e-4)


@pytest.mark.parametrize("span", [1, 13])
def test_grid_oracle_holds_blocks_not_whole_grid_temporaries(span):
    # beside its grid the oracle holds a few blocks' temporaries (~0.3 MB); at span 13, the battery's
    # largest, the whole-grid evaluation held about 4 MB of them beside a 2 MB grid
    h_value, mu, y = lambda z: 2.0 * np.abs(z), 2.0, 0.3
    grid = np.arange(y - span, y + span + 1e-4, 1e-4).nbytes
    grid_argmin_1d(h_value, mu, y, y - span, y + span)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        grid_argmin_1d(h_value, mu, y, y - span, y + span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - grid < 1_000_000


@pytest.mark.parametrize("cls, nan, failing", [
    (ms.ScaledL1, False, {"prox vs 1-D grid oracle", "prox optimality", "envelope gradient bound"}),
    (ms.ScaledL2, False, {"prox optimality", "envelope gradient bound"}),
    (ms.ScaledL2, True, {"prox optimality", "envelope gradient bound", "envelope monotone in mu",
                         "envelope gradient 1/mu-Lipschitz", "two-parameter envelope inequality"}),
])
def test_smoothing_battery_catches_a_prox_with_its_threshold_scaled_by_1_01(monkeypatch, cls, nan, failing):
    # a prox 1% off, or NaN in one row of each stack, fails exactly these properties; the battery's oracle
    # draws l1 only, and criterion 02's, over every 1-D kind, catches all three (a NaN gap fails its limit)
    exact = cls.prox

    def patched(h, mu, y):
        if not nan:
            return exact(dataclasses.replace(h, lam=1.01 * h.lam), mu, y)
        z = exact(h, mu, y)
        z[0] = np.nan  # the first row of a stack, the first entry of one vector
        return z

    monkeypatch.setattr(cls, "prox", patched)
    assert {r.name for r in check_smoothing() if not r.passed} == failing
    assert not prox_oracle_gap(np.random.default_rng(202), 1000, ORACLE_KINDS) <= 1e-3
