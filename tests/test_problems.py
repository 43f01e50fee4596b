import numpy as np
import pytest

import manismooth as ms
from manismooth.errors import ParameterError


@pytest.fixture(scope="module")
def pca():
    return ms.make_sparse_pca(10, 2, 40, 0.2, seed=3)


@pytest.fixture(scope="module")
def csphere():
    ball = ms.IndicatorBall(np.full(4, 0.3), 0.9)
    return ms.make_constrained_sphere(8, 4, 30, ball, seed=4)


@pytest.mark.parametrize("which", ["pca", "csphere"])
def test_unbiasedness_finite_sum(which, request):
    p = request.getfixturevalue(which)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = ms.random_point(p.manifold, rng)
        mean = np.mean([p.sample_egrad(x.data, i) for i in range(p.num_samples)], axis=0)
        assert np.linalg.norm(mean - p.full_egrad(x.data)) <= 1e-10 * p.num_samples


def test_sample_riemannian_grad_single_sample():
    p = ms.make_sparse_pca(6, 1, 1, 0.0, seed=9)
    rng = np.random.default_rng(2)
    x = ms.random_point(p.manifold, rng)
    g = ms.sample_riemannian_grad(p, x, 0)
    np.testing.assert_allclose(g.data, ms.tangent_project(x, p.full_egrad(x.data)).data, atol=1e-14)


def test_sample_index_out_of_range(pca):
    x = ms.random_point(pca.manifold, np.random.default_rng(0))
    with pytest.raises(IndexError):
        ms.sample_riemannian_grad(pca, x, pca.num_samples)


def test_normal_gradient_projects_to_zero():
    d = ms.sphere(4)
    x = ms.random_point(d, np.random.default_rng(5))
    # a gradient parallel to x is normal to the sphere
    g = ms.tangent_project(x, 3.0 * x.data)
    assert g.norm() <= 1e-14


def test_map_c_identity(pca):
    rng = np.random.default_rng(3)
    x = ms.random_point(pca.manifold, rng)
    np.testing.assert_array_equal(pca.c_eval(x.data), x.data.ravel())
    v = rng.standard_normal(pca.m)
    np.testing.assert_array_equal(pca.c_jac_t(x.data, v), v.reshape(x.data.shape))


def test_map_c_linear_adjoint():
    B = np.arange(12.0).reshape(3, 4) / 10.0
    p = ms.make_constrained_sphere(4, 3, 2, ms.IndicatorBall(np.zeros(3), 1.0), seed=1,
                                   quad_weight=0.0, linear_map=B)
    x = ms.random_point(p.manifold, np.random.default_rng(4))
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(p.c_jac_t(x.data, v).ravel(), B.T @ v, atol=1e-14)


@pytest.mark.parametrize("which", ["pca", "csphere"])
def test_adjoint_matches_central_differences(which, request):
    p = request.getfixturevalue(which)
    rng = np.random.default_rng(6)
    t = 1e-5
    for _ in range(100):
        x = ms.random_point(p.manifold, rng)
        u = rng.standard_normal(x.data.shape)
        v = rng.standard_normal(p.m)
        lhs = float(np.sum(p.c_jac_t(x.data, v) * u))
        jvp = (p.c_eval(x.data + t * u) - p.c_eval(x.data - t * u)) / (2 * t)
        rhs = float(v @ jvp)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_sparse_pca_determinism():
    a = ms.make_sparse_pca(7, 2, 9, 0.1, seed=77)
    b = ms.make_sparse_pca(7, 2, 9, 0.1, seed=77)
    x = ms.random_point(a.manifold, np.random.default_rng(7))
    assert a.full_value(x.data) == b.full_value(x.data)
    np.testing.assert_array_equal(a.sample_egrad(x.data, 3), b.sample_egrad(x.data, 3))


def test_constrained_sphere_requires_indicator():
    with pytest.raises(ParameterError):
        ms.make_constrained_sphere(5, 2, 3, ms.ScaledL1(0.1, 2), seed=0)


def test_constrained_sphere_feasible_everywhere():
    # q = 0, B = I, ball radius >= 1: every sphere point maps inside the set
    p = ms.make_constrained_sphere(5, 5, 3, ms.IndicatorBall(np.zeros(5), 1.5), seed=2,
                                   quad_weight=0.0, linear_map=np.eye(5))
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = ms.random_point(p.manifold, rng)
        assert p.h.distance(p.c_eval(x.data)) == 0.0


def test_feasibility_residual_matches_projection(csphere):
    rng = np.random.default_rng(9)
    x = ms.random_point(csphere.manifold, rng)
    y = csphere.c_eval(x.data)
    direct = np.linalg.norm(y - csphere.h.project(y))
    assert csphere.h.distance(y) == pytest.approx(direct, abs=1e-15)


def test_estimate_constants_identity_map(pca):
    consts = ms.estimate_constants(pca, 100, seed=11)
    assert consts.L_grad_c == 0.0  # identity map has constant Jacobian
    assert consts.L_c == pytest.approx(1.0, abs=1e-12)
    assert consts.L_f > 0 and consts.sigma > 0 and consts.L_tilde > 0


def test_estimate_constants_deterministic(csphere):
    a = ms.estimate_constants(csphere, 100, seed=12)
    b = ms.estimate_constants(csphere, 100, seed=12)
    assert a == b


def linear_objective_sphere(n, N, seed):
    """Per-sample linear objective f_i(x) = a_i^T x on the sphere.

    The evaluators follow the stacked contract: point data ``(..., n, 1)``,
    an index array for ``sample_egrad``, one result per point.
    """
    A = np.random.default_rng(seed).standard_normal((N, n))
    a_mean = A.mean(axis=0)

    def c_eval(xd):
        return xd[..., 0].copy()

    def c_jac_t(xd, v):
        return v[..., None]

    return A, ms.StochasticProblem(
        manifold=ms.sphere(n),
        num_samples=N,
        sample_egrad=lambda xd, i: A[i][..., None].copy(),
        full_value=lambda xd: np.vecdot(a_mean, xd[..., 0]),
        full_egrad=lambda xd: np.broadcast_to(a_mean[:, None], xd.shape).copy(),
        c_eval=c_eval,
        c_jac_t=c_jac_t,
        m=n,
        h=ms.ScaledL1(0.0, n),
        name="linear_sphere",
    )


def test_linear_objective_smoothness_bounded_by_operator_norm():
    # with constant Euclidean sample gradients a_i, the average-smoothness
    # quotient along retracted pairs is at most ||A||_op (1 + beta)
    A, p = linear_objective_sphere(6, 20, seed=13)
    consts = ms.estimate_constants(p, 10_000, seed=14)
    rc = ms.estimate_retraction_constants(p.manifold, 500, 15)
    assert consts.L_tilde <= np.linalg.norm(A, 2) * (1.0 + rc.beta)


@pytest.mark.parametrize("which", ["pca", "csphere"])
def test_average_smoothness_stable_across_seeds(which, request):
    p = request.getfixturevalue(which)
    a = ms.estimate_constants(p, 10_000, seed=21).L_tilde
    b = ms.estimate_constants(p, 10_000, seed=22).L_tilde
    assert np.isfinite(a) and np.isfinite(b)
    assert abs(a - b) / max(a, b) < 0.2


# The benchmark's instances: the one-point evaluators take ndarray.dot where a
# stack takes @, and BLAS may pick another kernel at another size.
BENCH_PROBLEMS = {
    "pca-St(50,3)": lambda: ms.make_sparse_pca(50, 3, 1000, 0.1, seed=101),
    "pca-St(1000,10)": lambda: ms.make_sparse_pca(1000, 10, 1000, 0.1, seed=101),
    "csphere-S^49": lambda: ms.make_constrained_sphere(50, 10, 1000, ms.IndicatorBall(np.full(10, 0.2), 0.5), seed=101),
}


@pytest.mark.parametrize("which", ["pca", "csphere", "linear", *BENCH_PROBLEMS])
def test_stacked_evaluators_equal_per_point(which, request):
    # the stacked-evaluator contract: each slice equals the one-point call, bit for bit
    if which in BENCH_PROBLEMS:
        p = BENCH_PROBLEMS[which]()
    else:
        p = linear_objective_sphere(6, 20, seed=13)[1] if which == "linear" else request.getfixturevalue(which)
    rng = np.random.default_rng(10)
    X = np.array([ms.random_point(p.manifold, rng).data for _ in range(6)])
    idx = rng.integers(p.num_samples, size=6)
    V = rng.standard_normal((6, p.m))
    stacked = [p.sample_egrad(X, idx), p.full_value(X), p.full_egrad(X), p.c_eval(X), p.c_jac_t(X, V)]
    for s in range(6):
        single = [p.sample_egrad(X[s], int(idx[s])), p.full_value(X[s]), p.full_egrad(X[s]), p.c_eval(X[s]),
                  p.c_jac_t(X[s], V[s])]
        for got, want in zip(stacked, single):
            assert np.array_equal(got[s], want)
