import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import manismooth as ms
from manismooth import manifolds as mf
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
    assert a.full_value_egrad(x.data)[0] == b.full_value_egrad(x.data)[0]
    np.testing.assert_array_equal(a.sample_egrad(x.data, 3), b.sample_egrad(x.data, 3))


def test_constrained_sphere_requires_indicator():
    with pytest.raises(ParameterError):
        ms.make_constrained_sphere(5, 2, 3, ms.ScaledL1(0.1, 2), seed=0)


NAN = float("nan")
BALL = ms.IndicatorBall(np.zeros(2), 1.0)
BALL1 = ms.IndicatorBall(np.zeros(1), 1.0)


@pytest.mark.parametrize("field, build", [
    ("lam", lambda: ms.ScaledL1(NAN, 2)),
    ("lam", lambda: ms.ScaledL1(np.inf, 2)),
    ("lam", lambda: ms.ScaledL2(NAN)),
    ("radius", lambda: ms.IndicatorBall(np.zeros(2), NAN)),
    ("radius", lambda: ms.IndicatorBall(np.zeros(2), np.inf)),
    ("center", lambda: ms.IndicatorBall([0.0, NAN], 1.0)),
    ("lower", lambda: ms.IndicatorBox([NAN, 0.0], [1.0, 1.0])),
    ("lower", lambda: ms.IndicatorBox([-np.inf, 0.0], [1.0, 1.0])),
    ("upper", lambda: ms.IndicatorBox([0.0, 0.0], [1.0, NAN])),
    ("target", lambda: ms.IndicatorSingleton([NAN, 0.0])),
    ("lam", lambda: ms.make_sparse_pca(5, 2, 4, NAN, seed=0)),
    ("quad_weight", lambda: ms.make_constrained_sphere(3, 2, 4, BALL, seed=0, quad_weight=NAN)),
    ("linear_map", lambda: ms.make_constrained_sphere(3, 2, 4, BALL, seed=0, linear_map=np.full((2, 3), NAN))),
    pytest.param("quad_weight", lambda: ms.make_constrained_sphere(2, 1, 3, BALL1, seed=0, quad_weight=1e308),
                 id="quad_weight-W-overflows"),
    pytest.param("quad_weight", lambda: ms.make_constrained_sphere(2, 1, 3, BALL1, seed=4, quad_weight=1e308),
                 id="quad_weight-2W-overflows"),
])
def test_non_finite_parameters_are_refused_naming_the_field(field, build):
    # a NaN lam once surfaced only as a non-finite search direction at iteration 1.  A finite quad_weight of 1e308
    # overflows W at seed 0, and at seed 4 only 2 W in c's Jacobian, on which an estimator's SVD once failed
    with pytest.raises(ParameterError, match=f"{field} must be finite") as info:
        build()
    assert info.value.field == field


CONSTANT_FIELDS = ("L_f", "L_c", "L_grad_c", "L_tilde", "L_retr")


@pytest.mark.parametrize("field", CONSTANT_FIELDS)
def test_problem_constants_refuse_nan_naming_the_field(field):
    # NaN fails a `< 0` test as well as a `>= 0` one, so it once passed as a constant
    with pytest.raises(ParameterError, match=f"{field} must be nonnegative") as info:
        ms.ProblemConstants(**{**dict.fromkeys(CONSTANT_FIELDS, 1.0), field: NAN})
    assert info.value.field == field


@pytest.mark.parametrize("field, message, build", [
    ("lower", "box requires lower <= upper componentwise", lambda: ms.IndicatorBox([1, 1], [0, 0])),
    ("dim", "dim must be >= 1", lambda: ms.ScaledL1(0.1, 0)),
    ("N", "need N >= 1 and n >= p >= 1", lambda: ms.make_sparse_pca(5, 2, 0, 0.1, seed=0)),
    ("n", "need N >= 1 and n >= p >= 1", lambda: ms.make_sparse_pca(1, 2, 4, 0.1, seed=0)),
    ("p", "need N >= 1 and n >= p >= 1", lambda: ms.make_sparse_pca(5, 0, 4, 0.1, seed=0)),
    ("N", "need N >= 1 and n >= p >= 1", lambda: ms.make_sparse_pca(0, 0, 0, 0.1, seed=0)),  # the first of three
    ("N", "need N >= 1, n >= 2, m >= 1", lambda: ms.make_constrained_sphere(3, 2, 0, BALL, seed=0)),
    ("n", "need N >= 1, n >= 2, m >= 1", lambda: ms.make_constrained_sphere(1, 2, 4, BALL, seed=0)),
    ("m", "need N >= 1, n >= 2, m >= 1", lambda: ms.make_constrained_sphere(3, 0, 4, BALL, seed=0)),
    ("n", "need N >= 1, n >= 2, m >= 1", lambda: ms.make_constrained_sphere(1, 0, 4, BALL, seed=0)),  # the first of two
])
def test_parameter_errors_name_the_first_failing_field(field, message, build):
    with pytest.raises(ParameterError, match=message) as info:
        build()
    assert info.value.field == field


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
    assert consts.L_f > 0 and consts.L_tilde > 0


def test_estimate_constants_deterministic(csphere):
    a = ms.estimate_constants(csphere, 100, seed=12)
    b = ms.estimate_constants(csphere, 100, seed=12)
    assert a == b


def test_estimate_constants_refuses_a_nan_quotient_naming_the_constant(pca):
    # f is NaN at one retracted point of the first block (the evaluator's second call), so one L_retr
    # quotient is NaN: the running max keeps it, and ProblemConstants' check names L_retr (a max that
    # skipped it returned a number)
    calls = []

    def full_value_egrad(X):
        values, grads = pca.full_value_egrad(X)
        calls.append(len(values))
        return (np.where(np.arange(len(values)) == 5, NAN, values) if len(calls) == 2 else values), grads

    with pytest.raises(ParameterError, match="L_retr must be nonnegative") as info:
        ms.estimate_constants(dataclasses.replace(pca, full_value_egrad=full_value_egrad), 100, seed=11)
    assert info.value.field == "L_retr" and len(calls) > 2


def linear_objective_sphere(n, N, seed):
    """Per-sample linear objective f_i(x) = a_i^T x on the sphere.

    The evaluators follow the stacked contract: point data ``(..., n, 1)``,
    an index array for ``sample_egrad``, one result per point.
    """
    A = np.random.default_rng(seed).standard_normal((N, n))
    a_mean = A.mean(axis=0)

    def full_value_egrad(xd):
        return np.vecdot(a_mean, xd[..., 0]), np.broadcast_to(a_mean[:, None], xd.shape).copy()

    def c_eval(xd):
        return xd[..., 0].copy()

    def c_jac_t(xd, v):
        return v[..., None]

    return A, ms.StochasticProblem(
        manifold=ms.sphere(n),
        num_samples=N,
        sample_egrad=lambda xd, i: A[i][..., None].copy(),
        full_value_egrad=full_value_egrad,
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
    stacked = [p.sample_egrad(X, idx), *p.full_value_egrad(X), p.full_egrad(X), p.c_eval(X), p.c_jac_t(X, V)]
    for s in range(6):
        single = [p.sample_egrad(X[s], int(idx[s])), *p.full_value_egrad(X[s]), p.full_egrad(X[s]), p.c_eval(X[s]),
                  p.c_jac_t(X[s], V[s])]
        for got, want in zip(stacked, single):
            assert np.array_equal(got[s], want)


ONE_MATRIX_CASES = {
    **BENCH_PROBLEMS,
    # the evaluators do not read the manifold, so sparse PCA's serve Ob(20, 3) points as well
    "pca-Ob(20,3)": lambda: dataclasses.replace(ms.make_sparse_pca(20, 3, 50, 0.1, seed=5), manifold=ms.oblique(20, 3)),
}


def _outcome(check, *args):
    """None if the check passes, else its message."""
    try:
        check(*args)
    except ParameterError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("which", list(ONE_MATRIX_CASES))
def test_one_matrix_equals_its_slice_of_a_stack_bit_for_bit(which):
    # a one-matrix call takes ndarray.dot and its own branches where a stack takes @: each
    # kernel and evaluator on the step's path gives the bytes of that matrix's slice of the
    # stacked call, and each check the verdict and message of its one-slice stack
    p = ONE_MATRIX_CASES[which]()
    kind = p.manifold.kind
    rng = np.random.default_rng(29)
    X = mf.normalize(kind, rng.standard_normal((7, *p.manifold.shape)))
    G = rng.standard_normal(X.shape)
    V = mf.proj(kind, X, G)
    step = 0.3 * V
    step[4] = 0.0  # retr keeps X itself there
    idx = rng.integers(p.num_samples, size=7)
    Y = rng.standard_normal((7, p.m))
    stacked = [mf.proj(kind, X, G), mf.retr(kind, X, step), p.sample_egrad(X, idx), p.c_eval(X), p.c_jac_t(X, Y)]
    for s in range(7):
        single = [mf.proj(kind, X[s], G[s]), mf.retr(kind, X[s], step[s]), p.sample_egrad(X[s], int(idx[s])),
                  p.c_eval(X[s]), p.c_jac_t(X[s], Y[s])]
        for got, want in zip(stacked, single):
            assert got[s].shape == want.shape and got[s].tobytes() == want.tobytes()
    off = X.copy()
    off[1] *= 1.0 + 1e-6
    off[3, 0, 0] = np.nan
    off[5] *= 1.0 + 1e-13  # within every tolerance
    bent = V.copy()
    bent[2] += 1e-6 * X[2]
    bent[3, -1, -1] = np.nan
    bent[6] *= 1e12  # tangent: the tolerance grows with the norm
    for s in range(7):
        point = _outcome(mf.check_point, kind, off[s])
        assert point == _outcome(mf.check_point, kind, off[s:s + 1])
        assert (point is None) == (s not in (1, 3))
        tangent = _outcome(mf.check_tangent, kind, X[s], bent[s])
        assert tangent == _outcome(mf.check_tangent, kind, X[s:s + 1], bent[s:s + 1])
        assert (tangent is None) == (s not in (2, 3))


def _family_data(which):
    """The benchmark instance and the data its generator draws from the same seed."""
    p = BENCH_PROBLEMS[which]()
    rng = np.random.default_rng(101)
    A = rng.standard_normal((p.num_samples, p.manifold.n))
    return p, A, rng


def _points(p, rng, stack):
    X = np.array([ms.random_point(p.manifold, rng).data for _ in range(stack or 1)])
    return X if stack else X[0]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stack", [0, 1, 7], ids=["point", "stack1", "stack7"])
@pytest.mark.parametrize("which", list(BENCH_PROBLEMS))
def test_full_value_egrad_equals_the_separate_formulas(which, stack):
    # f and grad f from one pass give the bits of the two separate passes they replace
    p, A, rng = _family_data(which)
    N = p.num_samples
    if which.startswith("pca"):
        cov = A.T @ A / N

        def value(xd):
            return -0.5 * np.sum(xd * (cov @ xd), axis=(-2, -1))

        def egrad(xd):
            return -(cov @ xd)
    else:
        b = rng.standard_normal(N)

        def value(xd):
            r = (A @ xd)[..., 0] - b
            return 0.5 * np.vecdot(r, r) / N

        def egrad(xd):
            return A.T @ (A @ xd - b[:, None]) / N
    X = _points(p, np.random.default_rng(12), stack)
    f, g = p.full_value_egrad(X)
    assert _same_bytes(f, value(X)) and _same_bytes(g, egrad(X))
    assert _same_bytes(p.full_egrad(X), egrad(X))


@pytest.mark.parametrize("stack", [0, 7], ids=["point", "stack7"])
@pytest.mark.parametrize("which", list(BENCH_PROBLEMS))
def test_full_egrad_is_the_gradient_of_full_value_egrad(which, stack):
    # neither family supplies full_egrad: the certificate reads the gradient of the one full-data evaluator
    p, _, _ = _family_data(which)
    X = _points(p, np.random.default_rng(14), stack)
    assert _same_bytes(p.full_egrad(X), p.full_value_egrad(X)[1])
    assert p.full_egrad.__name__ == "<lambda>"


def test_replace_derives_the_halves_only_when_they_are_cleared(pca):
    X = ms.random_point(pca.manifold, np.random.default_rng(15)).data

    def flat(xd):
        return 1.5, np.zeros_like(xd)

    kept = dataclasses.replace(pca, full_value_egrad=flat)
    assert kept.full_egrad is pca.full_egrad
    derived = dataclasses.replace(pca, full_value_egrad=flat, full_egrad=None)
    assert _same_bytes(derived.full_egrad(X), np.zeros_like(X))


@pytest.mark.parametrize("stack", [0, 32], ids=["point", "stack32"])
@pytest.mark.parametrize("which", ["pca-St(50,3)", "pca-St(1000,10)"])
def test_sparse_pca_sample_gradient_equals_the_broadcast_product(which, stack):
    # the rank-one sample gradient as one k = 1 product has the broadcast multiply's bytes
    p, A, rng = _family_data(which)
    X = _points(p, rng, stack)
    if stack:
        idx = np.repeat(rng.integers(p.num_samples, size=stack // 2), 2)  # every index twice
        a = A[idx][..., None]
    else:
        idx = int(rng.integers(p.num_samples))
        a = A[idx][:, None]
    assert _same_bytes(p.sample_egrad(X, idx), -a * (a.mT @ X))


def test_readme_lists_the_required_and_optional_evaluators():
    # the evaluator contract names every field without a default, and the one optional half
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    required = re.search(r"A `StochasticProblem` requires four plain-ndarray evaluators,\s+(.*?),\s+beside\s+(.*?)\.",
                         readme, re.S)
    optional = re.search(r"One optional half, (.*?), defaults", readme, re.S)
    assert required and optional
    evaluators, others = (re.findall(r"`(\w+)", group) for group in required.groups())
    fields = dataclasses.fields(ms.StochasticProblem)
    evaluator_fields = [f.name for f in fields if f.type.startswith("Callable")]
    without_default = [f.name for f in fields if f.default is dataclasses.MISSING]
    assert evaluators == [name for name in without_default if name in evaluator_fields] and len(evaluators) == 4
    assert sorted(evaluators + others) == sorted(without_default)
    assert re.findall(r"`(\w+)", optional.group(1)) == [f.name for f in fields if f.default is None]
