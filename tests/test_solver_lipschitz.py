import numpy as np
import pytest

import manismooth as ms
from manismooth import driver
from manismooth import solver_lipschitz as sl
from manismooth.errors import InsufficientDataError, ParameterError
from manismooth.manifolds import tangent_project, vector_transport
from manismooth.smoothing import moreau_eval, smoothed_objective_grad


@pytest.fixture(scope="module")
def pca():
    return ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)


def test_init_single_sample_equals_full_gradient():
    p = ms.make_sparse_pca(6, 1, 1, 0.0, seed=1)
    x0 = ms.random_point(p.manifold, np.random.default_rng(0))
    state = driver.start(p, x0, 3, sl.POLICY)
    full = tangent_project(x0, p.full_egrad(x0.data))
    np.testing.assert_allclose(state.delta, full.data, atol=1e-14)
    assert state.k == 1 and state.energy == 0.0


def test_init_deterministic(pca):
    x0 = ms.random_point(pca.manifold, np.random.default_rng(1))
    a = driver.start(pca, x0, 9, sl.POLICY)
    b = driver.start(pca, x0, 9, sl.POLICY)
    np.testing.assert_array_equal(a.delta, b.delta)


def test_stepsize_rule_first_iteration():
    # ||G_1||^2 = 4 gives a_2 = 1 and tau_1 = 4^{-1/3}
    p = ms.make_sparse_pca(4, 1, 1, 0.0, seed=7)
    x0 = ms.random_point(p.manifold, np.random.default_rng(3))
    state = driver.start(p, x0, 1, sl.POLICY)
    # rescale delta so that ||G_1|| = 2 exactly (h contributes nothing at lam=0)
    state.delta = (2.0 / np.linalg.norm(state.delta)) * state.delta
    report = sl.step(state, p)
    assert report.a == 1.0
    assert report.tau == pytest.approx(4.0 ** (-1.0 / 3.0), rel=1e-15)
    assert report.mu == 1.0


def test_schedules_at_k8(pca):
    state, trace = sl.run(pca, None, seed=4, K=10, trace_every=1)
    rec = next(r for r in trace if r.k == 8)
    assert rec.mu == pytest.approx(0.5, rel=1e-15)
    assert rec.a == pytest.approx(0.25, rel=1e-15)


def test_zero_direction_takes_zero_step():
    # stationary start for the smooth problem: gradient vanishes identically
    A = np.zeros((1, 4))

    p = ms.StochasticProblem(
        manifold=ms.sphere(4),
        num_samples=1,
        sample_egrad=lambda xd, i: np.zeros((4, 1)),
        full_value_egrad=lambda xd: (0.0, np.zeros((4, 1))),
        c_eval=lambda xd: xd.ravel().copy(),
        c_jac_t=lambda xd, v: v.reshape(4, 1),
        m=4,
        h=ms.ScaledL1(0.0, 4),
        name="flat",
    )
    x0 = ms.random_point(p.manifold, np.random.default_rng(4))
    state = driver.start(p, x0, 0, sl.POLICY)
    report = sl.step(state, p)
    assert report.tau == 0.0
    np.testing.assert_array_equal(state.x, x0.data)


def test_deterministic_momentum_collapse():
    # N = 1 and lam = 0: delta_k equals the full gradient at every iterate, so
    # G_k is exactly the smoothed-objective gradient
    p = ms.make_sparse_pca(8, 2, 1, 0.0, seed=11)
    x0 = ms.random_point(p.manifold, np.random.default_rng(5))
    state = driver.start(p, x0, 6, sl.POLICY)
    for _ in range(100):
        x_before = ms.ManifoldPoint(p.manifold, state.x)
        k_before = state.k
        full = tangent_project(x_before, p.full_egrad(x_before.data))
        np.testing.assert_allclose(state.delta, full.data, atol=1e-12)
        report = sl.step(state, p)
        mu = float(k_before) ** (-1.0 / 3.0)
        _, gF, _ = smoothed_objective_grad(p, x_before, mu)
        assert report.norm_G == pytest.approx(gF.norm(), abs=1e-12)


def test_momentum_error_recursion_by_enumeration():
    # exhaustive enumeration over the N = 4 sample draws at a fixed state
    # verifies the one-step estimation-error recursion with empirical
    # sigma-hat and L-hat and slack factor 1.1
    p = ms.make_sparse_pca(6, 1, 4, 0.1, seed=13)
    rng = np.random.default_rng(8)
    x_prev = ms.random_point(p.manifold, rng)
    delta_prev = ms.sample_riemannian_grad(p, x_prev, 1) + 0.3 * ms.random_tangent(x_prev, rng)

    k_prev = 5
    a_k = float(k_prev) ** (-2.0 / 3.0)
    mu = float(k_prev) ** (-1.0 / 3.0)
    env = moreau_eval(p.h, mu, p.c_eval(x_prev.data))
    G_prev = delta_prev + tangent_project(x_prev, p.c_jac_t(x_prev.data, env.grad))
    tau = 0.05
    x_next = ms.retract(x_prev, (-tau) * G_prev)

    full_prev = tangent_project(x_prev, p.full_egrad(x_prev.data))
    full_next = tangent_project(x_next, p.full_egrad(x_next.data))
    eps_prev_sq = (delta_prev - full_prev).norm() ** 2

    eps_sq, dev_sq, drift_sq = [], [], []
    for xi in range(p.num_samples):
        g_new = ms.sample_riemannian_grad(p, x_next, xi)
        g_old = ms.sample_riemannian_grad(p, x_prev, xi)
        delta_k = g_new + (1.0 - a_k) * vector_transport(x_prev, x_next, delta_prev - g_old)
        eps_sq.append((delta_k - full_next).norm() ** 2)
        dev_sq.append((g_new - full_next).norm() ** 2)
        drift_sq.append((g_new - vector_transport(x_prev, x_next, g_old)).norm() ** 2)

    sigma_hat_sq = float(np.mean(dev_sq))
    step_sq = (tau * G_prev.norm()) ** 2
    L_hat_sq = float(np.mean(drift_sq)) / step_sq
    bound = (1.0 - a_k) * eps_prev_sq + 2.0 * a_k**2 * sigma_hat_sq + 2.0 * L_hat_sq * step_sq
    assert float(np.mean(eps_sq)) <= 1.1 * bound


def test_run_rejects_bad_arguments(pca):
    with pytest.raises(ParameterError):
        sl.run(pca, None, seed=0, K=0)
    with pytest.raises(ParameterError, match=r"K must be in \[1, 2\*\*62\]"):  # past it no exact int64 draw
        sl.run(pca, None, seed=0, K=2**62 + 1)
    with pytest.raises(ParameterError):
        sl.run(pca, None, seed=0, K=10, trace_every=0)


def test_run_rejects_x0_on_another_manifold(pca):
    x0 = ms.random_point(ms.stiefel(7, 2), np.random.default_rng(0))  # the problem lives on St(10, 2)
    with pytest.raises(ParameterError, match="x0 does not live on the problem manifold"):
        sl.run(pca, x0, seed=0, K=5)


def test_trace_length_and_determinism(pca):
    _, t1 = sl.run(pca, None, seed=3, K=100, trace_every=10)
    assert len(t1) == 100 // 10 + 1
    assert [r.k for r in t1] == sorted({r.k for r in t1})
    _, t2 = sl.run(pca, None, seed=3, K=100, trace_every=10)
    assert t1 == t2


def test_run_single_iteration(pca):
    state, trace = sl.run(pca, None, seed=31, K=1, trace_every=1)
    assert len(trace) == 1 and trace[0].k == 1
    assert state.kept is not None and state.kept[0] == 1


def test_certificate_membership_and_bound(pca):
    state, _ = sl.run(pca, None, seed=13, K=400, trace_every=20)
    cert = sl.certificate(state, pca)
    assert 200 <= cert.i_K <= 400
    assert cert.membership_ok
    mu = float(cert.i_K) ** (-1.0 / 3.0)
    assert cert.feas_residual <= mu * pca.h.lipschitz_const + 1e-10
    # z components lie in [-lam, lam] and hit lam * sign(y) on the support
    lam = pca.h.lam
    assert np.all(np.abs(cert.z) <= lam + 1e-8)
    active = np.abs(cert.y) > 1e-8
    np.testing.assert_allclose(cert.z[active], lam * np.sign(cert.y[active]), atol=1e-8)


def test_certificate_requires_snapshots(pca):
    x0 = ms.random_point(pca.manifold, np.random.default_rng(6))
    state = driver.start(pca, x0, 1, sl.POLICY)
    with pytest.raises(InsufficientDataError):
        sl.certificate(state, pca)


def test_certificate_smooth_problem_zero_witness():
    p = ms.make_sparse_pca(6, 2, 3, 0.0, seed=17)
    state, _ = sl.run(p, None, seed=2, K=50, trace_every=5)
    cert = sl.certificate(state, p)
    np.testing.assert_allclose(cert.y, p.c_eval(cert.x.data), atol=1e-14)
    np.testing.assert_allclose(cert.z, np.zeros_like(cert.z), atol=1e-14)
    assert cert.feas_residual <= 1e-14


def test_unregularized_pca_finds_top_eigenvector():
    # eigendecomposition oracle: with lam = 0 and p = 1, minimizing the
    # smooth part aligns the iterate with the dominant eigenvector of the
    # sample covariance (instance chosen with a clear spectral gap)
    n, N = 10, 30
    p = ms.make_sparse_pca(n, 1, N, 0.0, seed=23)
    cov = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        cov[:, j] = -p.full_egrad(eye[:, j:j + 1]).ravel()
    top = np.linalg.eigh(cov)[1][:, -1]
    state, _ = sl.run(p, None, seed=3, K=15_000, trace_every=5000)
    cos = abs(float(top @ state.x.ravel()))
    assert cos >= 0.99

