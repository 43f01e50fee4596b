import numpy as np
import pytest

import manismooth as ms
from manismooth.checks import DESCRIPTORS, check_manifold
from manismooth.errors import DegenerateRetractionError, ParameterError, ShapeMismatchError
from manismooth import manifolds as mf


def test_descriptor_validation():
    with pytest.raises(ParameterError):
        ms.sphere(1)
    with pytest.raises(ParameterError):
        ms.stiefel(2, 3)
    with pytest.raises(ParameterError):
        ms.ManifoldDescriptor("torus", 3, 1)


@pytest.mark.parametrize("make", [lambda: ms.sphere(5.0), lambda: ms.stiefel(5, 2.0), lambda: ms.oblique(np.float64(4), 2)],
                         ids=["sphere", "stiefel", "oblique"])
def test_descriptor_rejects_non_integer_dimensions(make):
    with pytest.raises(ParameterError, match="dimensions must be integers"):
        make()


def test_descriptor_accepts_numpy_integer_dimensions():
    for desc in (ms.sphere(np.int64(5)), ms.stiefel(np.int32(5), np.int64(2)), ms.oblique(np.int64(4), 2)):
        assert ms.random_point(desc, np.random.default_rng(0)).data.shape == (desc.n, desc.p)


def test_point_validation():
    d = ms.sphere(3)
    ms.ManifoldPoint(d, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        ms.ManifoldPoint(d, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ShapeMismatchError):
        ms.ManifoldPoint(d, np.ones((4, 1)))


def test_tangent_project_sphere_example():
    x = ms.ManifoldPoint(ms.sphere(3), np.array([1.0, 0.0, 0.0]))
    t = ms.tangent_project(x, np.array([0.5, 1.0, -2.0]))
    np.testing.assert_allclose(t.data.ravel(), [0.0, 1.0, -2.0], atol=1e-15)


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d.kind)
def test_tangent_project_fixes_tangents(desc):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = ms.random_point(desc, rng)
        t = ms.random_tangent(x, rng)
        again = ms.tangent_project(x, t.data)
        np.testing.assert_allclose(again.data, t.data, atol=1e-13)


def test_tangent_project_stiefel_least_squares_oracle():
    # Independent oracle: parameterize T_X St(3,2) by a skew 2x2 block and a
    # free (n-p) x p block, then solve the least-squares projection directly.
    rng = np.random.default_rng(7)
    x = ms.random_point(ms.stiefel(3, 2), rng)
    X = x.data
    # orthonormal complement of range(X)
    q, _ = np.linalg.qr(np.hstack([X, rng.standard_normal((3, 1))]))
    X_perp = q[:, 2:]
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    basis = [X @ omega, X_perp @ np.array([[1.0, 0.0]]), X_perp @ np.array([[0.0, 1.0]])]
    M = np.stack([b.ravel() for b in basis], axis=1)
    for _ in range(10):
        v = rng.standard_normal((3, 2))
        coef, *_ = np.linalg.lstsq(M, v.ravel(), rcond=None)
        oracle = (M @ coef).reshape(3, 2)
        got = ms.tangent_project(x, v)
        np.testing.assert_allclose(got.data, oracle, atol=1e-10)
        s = X.T @ got.data
        assert np.linalg.norm(s + s.T) <= 1e-12


def test_retract_examples():
    x = ms.ManifoldPoint(ms.sphere(2), np.array([1.0, 0.0]))
    eta = ms.TangentVector(x.descriptor, x, np.array([0.0, 1.0]))
    y = ms.retract(x, eta)
    np.testing.assert_allclose(y.data.ravel(), [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    x31 = ms.ManifoldPoint(ms.stiefel(3, 1), np.array([1.0, 0.0, 0.0]))
    eta31 = ms.TangentVector(x31.descriptor, x31, np.array([0.0, 1.0, 0.0]))
    y31 = ms.retract(x31, eta31)
    np.testing.assert_allclose(y31.data.ravel(), [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-15)


def test_retract_stays_on_manifold_for_huge_steps():
    # tangency makes the retraction target nondegenerate: ||x + eta||^2 =
    # 1 + ||eta||^2 on the sphere, and X + eta has full rank on Stiefel
    rng = np.random.default_rng(17)
    for desc in DESCRIPTORS:
        x = ms.random_point(desc, rng)
        eta = ms.random_tangent(x, rng, norm=1e6)
        ms.retract(x, eta)  # must not raise


def test_retract_rejects_foreign_tangent():
    d = ms.sphere(3)
    rng = np.random.default_rng(18)
    x = ms.random_point(d, rng)
    other = ms.random_point(d, rng)
    eta = ms.random_tangent(other, rng)
    with pytest.raises(ShapeMismatchError):
        ms.retract(x, eta)


def test_vector_transport_examples():
    d = ms.sphere(3)
    e1 = ms.ManifoldPoint(d, np.array([1.0, 0.0, 0.0]))
    e2 = ms.ManifoldPoint(d, np.array([0.0, 1.0, 0.0]))
    xi = ms.TangentVector(d, e1, np.array([0.0, 0.0, 1.0]))
    moved = ms.vector_transport(e1, e2, xi)
    np.testing.assert_allclose(moved.data.ravel(), [0.0, 0.0, 1.0], atol=1e-15)

    xi2 = ms.TangentVector(d, e1, np.array([0.0, 1.0, 0.0]))
    gone = ms.vector_transport(e1, e2, xi2)
    np.testing.assert_allclose(gone.data.ravel(), np.zeros(3), atol=1e-15)

    same = ms.vector_transport(e1, e1, xi)
    np.testing.assert_allclose(same.data, xi.data, atol=1e-15)


def test_sphere_alpha_at_most_one():
    # dense sampling oracle for ||(x+u)/||x+u|| - x|| <= ||u||
    rc = ms.estimate_retraction_constants(ms.sphere(4), 2000, 8)
    assert rc.alpha <= 1.0 + 1e-9


def test_sphere_beta_bounded():
    rc = ms.estimate_retraction_constants(ms.sphere(3), 10_000, 42)
    assert rc.beta <= 1.0 + 1e-6


def test_small_step_ratio_near_one():
    d = ms.sphere(3)
    rng = np.random.default_rng(2)
    x = ms.random_point(d, rng)
    u = ms.random_tangent(x, rng, norm=1e-6)
    y = ms.retract(x, u)
    ratio = np.linalg.norm(y.data - x.data) / u.norm()
    assert abs(ratio - 1.0) <= 1e-9


def test_estimate_constants_deterministic():
    a = ms.estimate_retraction_constants(ms.stiefel(4, 2), 200, 77)
    b = ms.estimate_retraction_constants(ms.stiefel(4, 2), 200, 77)
    assert a == b


# The benchmark's shapes: BLAS may pick another kernel at another size, so
# the one-matrix paths are pinned here as well as at the small DESCRIPTORS.
BENCH_DESCRIPTORS = (mf.stiefel(50, 3), mf.stiefel(1000, 10), mf.sphere(50), mf.oblique(50, 3))


def _desc_id(desc):
    return desc.kind if desc in DESCRIPTORS else f"{desc.kind}-{desc.n}x{desc.p}"


def _verdict(check, *args):
    try:
        check(*args)
    except ParameterError:
        return False
    return True


@pytest.mark.parametrize("desc", DESCRIPTORS + BENCH_DESCRIPTORS, ids=_desc_id)
def test_stacked_kernels_equal_per_slice(desc):
    # each slice of a stacked kernel call is bit-identical to the call on that slice alone,
    # and each check gives the stack's verdict on that slice
    rng = np.random.default_rng(3)
    X = mf.normalize(desc.kind, rng.standard_normal((9, *desc.shape)))
    V = mf.proj(desc.kind, X, rng.standard_normal(X.shape))
    V[4] = 0.0  # retr keeps X itself there
    Y = mf.retr(desc.kind, X, V)
    assert Y[4] is not X[4] and np.array_equal(Y[4], X[4])
    W = rng.standard_normal(X.shape)
    stacked = (mf.proj(desc.kind, X, W), mf.normalize(desc.kind, X + W), Y, mf.fro(V))
    for s in range(len(X)):
        single = (mf.proj(desc.kind, X[s], W[s]), mf.normalize(desc.kind, X[s] + W[s]),
                  mf.retr(desc.kind, X[s], V[s]), mf.fro(V[s]))
        for got, want in zip(stacked, single):
            assert np.array_equal(got[s], want)
    mf.check_point(desc.kind, X)
    mf.check_tangent(desc.kind, X, V)
    X[7] *= 1.1
    with pytest.raises(ParameterError, match="violates manifold equation"):
        mf.check_point(desc.kind, X)
    V[2] += X[2]
    with pytest.raises(ParameterError, match="not tangent"):
        mf.check_tangent(desc.kind, X, V)
    for s in range(len(X)):
        assert _verdict(mf.check_point, desc.kind, X[s]) == (s != 7)
        assert _verdict(mf.check_tangent, desc.kind, X[s], V[s]) == (s != 2)  # scaling X[7] keeps V[7] tangent


@pytest.mark.parametrize("n", [2, 5, 49, 50, 1000])
def test_the_sphere_is_ob_n_1_bit_for_bit(n):
    # S^{n-1}, stored as n x 1 matrices, is Ob(n, 1): each kernel gives the same bits under
    # both labels, for one matrix and for a stack, and each check the same verdict, also
    # for points and tangents spoiled by about their tolerance
    rng = np.random.default_rng(16)
    for shape in ((n, 1), (7, n, 1)):
        for _ in range(20):
            G, W = rng.standard_normal(shape), rng.standard_normal(shape)
            X = mf.normalize(mf.SPHERE, G)
            V = mf.proj(mf.SPHERE, X, W)
            for kernel, args in ((mf.normalize, (G,)), (mf.proj, (X, W)), (mf.retr, (X, V))):
                assert np.array_equal(kernel(mf.SPHERE, *args), kernel(mf.OBLIQUE, *args))
            for scale in (1.0, 1.0 + 5e-13, 1.0 + 2e-12, 1.0 - 2e-12, 1.1):
                assert _verdict(mf.check_point, mf.SPHERE, scale * X) == _verdict(mf.check_point, mf.OBLIQUE, scale * X)
            for shift in (0.0, 5e-11, 2e-10, 1e-6):
                U = V + shift * X
                assert _verdict(mf.check_tangent, mf.SPHERE, X, U) == _verdict(mf.check_tangent, mf.OBLIQUE, X, U)


@pytest.mark.parametrize("desc", BENCH_DESCRIPTORS, ids=_desc_id)
def test_one_matrix_products_equal_matmul(desc):
    # the one-matrix paths take ndarray.dot where the stack path takes @; each product and
    # each kernel built on them must equal its @ formula bit for bit, on the layouts they meet
    rng = np.random.default_rng(8)
    data = rng.standard_normal((1000, desc.n))  # the problems' sample rows, and (first 10) constraint maps
    cov = data.T @ data / 1000
    for _ in range(20):
        X = mf.normalize(desc.kind, rng.standard_normal(desc.shape))
        V = mf.proj(desc.kind, X, rng.standard_normal(desc.shape))
        S = rng.standard_normal((desc.p, desc.p))
        a = data[int(rng.integers(1000))][:, None]
        x = X[:, :1].copy()
        v = rng.standard_normal((10, 1))
        pairs = [(X.mT, V), (X.mT, X), (X, S), (a.mT, X), (cov, X), (data, x), (data.T, data.dot(x) - 0.5),
                 (data[:10], x), (data[:10], x * x), (data[:10].T, v)]
        for A, B in pairs:
            assert np.array_equal(mf._dot(A, B), A @ B)
        s = X.mT @ V
        if desc.kind == mf.STIEFEL:
            assert np.array_equal(mf.proj(desc.kind, X, V), V - X @ ((s + s.mT) / 2.0))
        assert mf._inner(X, V) == np.vecdot(X.ravel(), V.ravel())
        assert mf._norm(V) == float(np.linalg.norm(V))
        assert _verdict(mf.check_point, desc.kind, X) and _verdict(mf.check_tangent, desc.kind, X, V)
        assert not _verdict(mf.check_point, desc.kind, 1.1 * X)
        assert not _verdict(mf.check_tangent, desc.kind, X, V + X)


def _one_at_a_time(desc, rng, samples, draw):
    out = []
    for _ in range(samples):
        x = ms.random_point(desc, rng)
        *extra, t = draw(rng)
        out.append((x.data, ms.random_tangent(x, rng, norm=t).data, (*extra, t)))
    return out


def _blocked(desc, rng, samples, draw):
    out = []
    for X, U, drawn in mf.tangent_blocks(desc, rng, samples, draw):
        out.extend((X[s], U[s], tuple(col[s] for col in drawn)) for s in range(len(X)))
    return out


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d.kind)
def test_tangent_blocks_follow_the_one_at_a_time_stream(desc):
    def draw(rng):
        return rng.integers(7), rng.uniform(0.05, 0.5)

    samples = 2 * mf.SAMPLE_BLOCK + 5
    want = _one_at_a_time(desc, np.random.default_rng(4), samples, draw)
    got = _blocked(desc, np.random.default_rng(4), samples, draw)
    assert len(got) == samples
    for (gx, gu, gd), (wx, wu, wd) in zip(got, want):
        assert np.array_equal(gx, wx) and np.array_equal(gu, wu) and gd == wd
    points = np.concatenate(list(mf.point_blocks(desc, np.random.default_rng(4), samples)))
    rng = np.random.default_rng(4)
    assert np.array_equal(points, [ms.random_point(desc, rng).data for _ in range(samples)])


def test_retraction_caps_name_the_first_failing_manifold(monkeypatch):
    # alpha over the cap on the sphere and on Stiefel, in the estimate (int seed) or the fresh samples (the
    # battery's Generator): the report names the sphere and its constants, not the last failure seen
    estimate = mf.estimate_retraction_constants
    for inflate, detail in ((int, "sphere: estimated alpha=4.000, beta="),
                            (np.random.Generator, "sphere: fresh samples reach alpha=")):
        def inflated(desc, samples, seed):
            rc = estimate(desc, samples, seed)
            over = isinstance(seed, inflate) and desc.kind != "oblique"
            return mf.RetractionConstants(rc.alpha + (3.0 if over else 0.0), rc.beta)
        monkeypatch.setattr(mf, "estimate_retraction_constants", inflated)
        caps = {r.name: r for r in check_manifold()}["retraction constant caps"]
        assert not caps.passed and caps.detail.startswith(detail), caps


class _ScriptedGenerator:
    """A Generator stand-in: each standard_normal call returns the next scripted draw."""

    def __init__(self, normals):
        self.normals = normals
        self.calls = 0

    def standard_normal(self, shape):
        self.calls += 1
        return self.normals[self.calls - 1].reshape(shape)

    def uniform(self, low, high):
        return 0.25


# rescaling the zero projection divides by zero on purpose
_ZERO_STREAM = pytest.param("zero", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))


@pytest.mark.parametrize("stream", ["rounding", _ZERO_STREAM])
@pytest.mark.parametrize("sampler", [_one_at_a_time, _blocked], ids=["random_tangent", "tangent_blocks"])
def test_samplers_reject_a_vanishing_tangent(sampler, stream):
    # the tangent draw of pair 3 is normal to the sphere: its projection is
    # rounding noise, which fails the tangent check once rescaled to norm 0.25,
    # or exactly zero, which rescales to NaN
    desc = ms.sphere(5)
    normals = list(np.random.default_rng(6).standard_normal((10, 5, 1)))
    if stream == "rounding":
        normals.insert(7, 2.5 * normals[6])
    else:
        e1 = np.eye(5)[:, :1]
        normals[6] = 2.0 * e1
        normals.insert(7, 3.0 * e1)

    def draw(rng):
        return (rng.uniform(0.0, 1.0),)

    with pytest.raises(ParameterError, match="not tangent"):
        sampler(desc, _ScriptedGenerator(normals), 5, draw)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite entries are on purpose
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d.kind)
def test_checks_reject_non_finite_data(desc, bad):
    rng = np.random.default_rng(5)
    x = ms.random_point(desc, rng)
    spoiled = x.data.copy()
    spoiled[0, 0] = bad
    with pytest.raises(ParameterError):
        ms.ManifoldPoint(desc, spoiled)
    with pytest.raises(ParameterError):
        ms.TangentVector(desc, x, np.full(desc.shape, bad))
    X = np.stack([ms.random_point(desc, rng).data for _ in range(4)])
    V = mf.proj(desc.kind, X, rng.standard_normal(X.shape))
    mf.check_point(desc.kind, X)
    mf.check_tangent(desc.kind, X, V)
    V[2, 0, 0] = bad
    with pytest.raises(ParameterError):
        mf.check_tangent(desc.kind, X, V)
    X[2, 0, 0] = bad
    with pytest.raises(ParameterError):
        mf.check_point(desc.kind, X)
    eta = ms.TangentVector(desc, x, np.zeros(desc.shape))
    object.__setattr__(eta, "data", np.full(desc.shape, bad))  # skip the tangent check to reach retract's own
    with pytest.raises(ParameterError):
        ms.retract(x, eta)


@pytest.mark.parametrize("shape", [(50, 3), (1000, 10), (6, 2), (32, 50, 3)], ids=lambda s: "x".join(map(str, s)))
def test_normalize_stiefel_is_numpy_qr_with_sign_fix(shape):
    # normalize calls numpy's private LAPACK QR gufuncs directly; this pins it to
    # np.linalg.qr followed by the sign fix, bit for bit, and fails loudly if a
    # numpy release renames or changes those gufuncs
    Y = np.random.default_rng(11).standard_normal(shape)
    given = Y.copy()
    q, r = np.linalg.qr(Y)
    want = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None, :]
    got = mf.normalize(mf.STIEFEL, Y)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert Y.tobytes() == given.tobytes()  # LAPACK factors a copy, never the caller's array
    assert mf.normalize(mf.STIEFEL, np.asfortranarray(Y)).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite entries are on purpose
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_normalize_stiefel_hands_a_non_finite_target_to_the_point_check(bad):
    # numpy 2.4's QR gufuncs factor a non-finite matrix without error; the result is
    # non-finite and the point check rejects it, as for the sphere and oblique kernels
    Y = np.random.default_rng(12).standard_normal((50, 3))
    Y[3, 1] = bad
    Q = mf.normalize(mf.STIEFEL, Y)
    assert not np.isfinite(Q).all()
    with pytest.raises(ParameterError, match="stiefel point violates manifold equation by nan"):
        mf.check_point(mf.STIEFEL, Q)
    Y[:, 1] = Y[:, 0]  # rank deficiency is still caught before the check
    Y[3, 1] = Y[3, 0] = 1.0
    with pytest.raises(DegenerateRetractionError, match="rank-deficient"):
        mf.normalize(mf.STIEFEL, Y)


@pytest.mark.parametrize(
    "kind, Y, match",
    [
        (mf.SPHERE, np.zeros((5, 1)), "sphere target has zero norm"),
        (mf.OBLIQUE, np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0]]), "oblique target collapses a column"),
    ],
    ids=["sphere", "oblique"],
)
def test_normalize_rejects_a_degenerate_target(kind, Y, match):
    with pytest.raises(DegenerateRetractionError, match=match):
        mf.normalize(kind, Y)


def _spoiled(desc, how, rng):
    """A point and a tangent at it, one of them spoiled as ``how`` says."""
    x = ms.random_point(desc, rng).data
    v = mf.proj(desc.kind, x, rng.standard_normal(desc.shape))
    x, v = x.copy(), v.copy()
    if how == "off_point":
        x *= 1.0 + 1e-6
    elif how == "off_tangent":
        v += 1e-6 * x
    elif how == "nan_point":
        x[0, 0] = np.nan
    elif how == "inf_point":
        x[0, 0] = np.inf
    elif how == "nan_tangent":
        v[0, 0] = np.nan
    else:
        v[0, 0] = np.inf
    return x, v


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite entries are on purpose
@pytest.mark.parametrize("how", ["off_point", "nan_point", "inf_point", "off_tangent", "nan_tangent", "inf_tangent"])
@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d.kind)
def test_one_matrix_checks_reject_what_the_stacked_checks_reject(desc, how):
    # one matrix takes the Python-float fast path; a stack holding the same matrix
    # between two valid ones takes the array path; both reject it with one message
    rng = np.random.default_rng(13)
    x, v = _spoiled(desc, how, rng)
    a, b = (ms.random_point(desc, rng).data for _ in range(2))
    zero = np.zeros(desc.shape)
    if how.endswith("point"):
        prefix = f"{desc.kind} point violates manifold equation by "
        one, many = (x,), (np.stack([a, x, b]),)
        check = mf.check_point
    else:
        prefix = "vector is not tangent (violation "
        one, many = (x, v), (np.stack([a, x, b]), np.stack([zero, v, zero]))
        check = mf.check_tangent
    with pytest.raises(ParameterError) as single:
        check(desc.kind, *one)
    with pytest.raises(ParameterError) as stacked:
        check(desc.kind, *many)
    assert str(single.value).startswith(prefix)
    assert str(single.value) == str(stacked.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d.kind)
def test_check_tangent_rejects_a_non_finite_tangent_without_a_warning(desc, bad):
    # no warning filter: the suite turns warnings into errors, so a RuntimeWarning from
    # the product with X (0 x inf) would replace the ParameterError; the norm comes first
    rng = np.random.default_rng(15)
    x = ms.random_point(desc, rng).data
    v = mf.proj(desc.kind, x, rng.standard_normal(desc.shape))
    v[0, 0] = bad
    a, b = (ms.random_point(desc, rng).data for _ in range(2))
    zero = np.zeros(desc.shape)
    messages = []
    for args in ((x, v), (np.stack([a, x, b]), np.stack([zero, v, zero]))):
        with pytest.raises(ParameterError) as err:
            mf.check_tangent(desc.kind, *args)
        messages.append(str(err.value))
    norm = "nan" if bad != bad else "inf"
    assert messages == [f"vector is not tangent (violation nan, norm {norm})"] * 2


@pytest.mark.parametrize(
    "V",
    [np.zeros((50, 3)), np.eye(50, 3), np.full((4, 1), np.nan), np.array([[-0.0], [0.0]]), np.zeros((32, 50, 3)),
     np.eye(50, 3)[None].repeat(5, axis=0)],
    ids=["zero", "eye", "nan", "signed-zeros", "zero-stack", "stack"],
)
def test_retr_zero_test_is_numpys_count_nonzero(V):
    # retr tests V = 0 with the C function behind np.count_nonzero, imported by its private
    # name: a numpy release that renames it fails at import, and one that changes it fails here
    assert type(mf._count_nonzero).__name__ == "builtin_function_or_method"
    assert mf._count_nonzero(V) == np.count_nonzero(V) == np.count_nonzero(V.ravel())
    X = np.eye(*V.shape[-2:]) if V.ndim == 2 else np.broadcast_to(np.eye(*V.shape[-2:]), V.shape).copy()
    assert (mf.retr(mf.STIEFEL, X, V) is X) == (not V.any())


def test_as_matrix_copies_float64_data_once_keeping_its_layout():
    desc = ms.stiefel(6, 2)
    x = ms.random_point(desc, np.random.default_rng(14)).data
    src = np.asfortranarray(x)
    pt = ms.ManifoldPoint(desc, src)
    assert pt.data is not src and not np.shares_memory(pt.data, src)
    assert pt.data.flags.f_contiguous and not pt.data.flags.writeable and src.flags.writeable
    assert np.array_equal(pt.data, x)
    assert np.array_equal(ms.ManifoldPoint(desc, x.tolist()).data, x)  # other inputs take the general path
    with pytest.raises(ShapeMismatchError):
        ms.ManifoldPoint(desc, x.T.copy())


@pytest.mark.parametrize("desc", [ms.sphere(50), ms.oblique(50, 3)], ids=_desc_id)
def test_column_kernels_meet_their_definitions(desc):
    # each column-wise kernel against its definition, one column at a time: unit columns
    # from normalize, x_j^T v_j = 0 from proj, and checks that judge columns, not rows
    rng = np.random.default_rng(17)
    n, p = desc.n, desc.p
    for _ in range(10):
        X = mf.normalize(desc.kind, rng.standard_normal((n, p)))
        for j in range(p):
            assert abs(np.linalg.norm(X[:, j]) - 1.0) <= 1e-12
        V = mf.proj(desc.kind, X, rng.standard_normal((n, p)))
        for j in range(p):
            assert abs(float(X[:, j] @ V[:, j])) <= 1e-12 * np.linalg.norm(V[:, j])
        mf.check_point(desc.kind, X)
        mf.check_tangent(desc.kind, X, V)
        rows = rng.standard_normal((n, p))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)  # unit rows, columns of norm about sqrt(n / p)
        assert not _verdict(mf.check_point, desc.kind, rows)
        for j in range(p):
            U = V.copy()
            U[:, j] += 1e-6 * X[:, j]  # column j leaves T_{x_j} S^{n-1}, the others stay tangent
            assert not _verdict(mf.check_tangent, desc.kind, X, U)
