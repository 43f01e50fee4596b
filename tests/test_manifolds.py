import os
import subprocess
import sys
from pathlib import Path

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


def test_vector_transport_rejects_a_vector_based_elsewhere():
    # as retract does: a vector is based at x when its base is x or a point with x's data
    d = ms.sphere(3)
    e1 = ms.ManifoldPoint(d, np.array([1.0, 0.0, 0.0]))
    e2 = ms.ManifoldPoint(d, np.array([0.0, 1.0, 0.0]))
    at_e2 = ms.TangentVector(d, e2, np.array([0.0, 0.0, 1.0]))  # tangent at e1 too, but based at e2
    with pytest.raises(ShapeMismatchError, match="tangent vector is not based at the given point"):
        ms.vector_transport(e1, e2, at_e2)
    at_copy = ms.TangentVector(d, ms.ManifoldPoint(d, e1.data), np.array([0.0, 0.0, 1.0]))
    assert ms.vector_transport(e1, e2, at_copy).data.tobytes() == at_e2.data.tobytes()


def test_arithmetic_and_retract_reject_a_vector_on_another_manifold_or_base():
    # + and - follow the rule of retract and transport: a sum is defined only inside one tangent
    # space, so (0,0,1) at e1 plus (0,0,2) at e2 raises, and so does a vector on Ob(3, 1) at e1's data
    d = ms.sphere(3)
    e1 = ms.ManifoldPoint(d, np.array([1.0, 0.0, 0.0]))
    e2 = ms.ManifoldPoint(d, np.array([0.0, 1.0, 0.0]))
    at_e1 = ms.TangentVector(d, e1, np.array([0.0, 0.0, 1.0]))
    at_e2 = ms.TangentVector(d, e2, np.array([0.0, 0.0, 2.0]))
    ob = ms.ManifoldPoint(ms.oblique(3, 1), e1.data)  # e1's data on Ob(3, 1), another manifold
    at_ob = ms.TangentVector(ob.descriptor, ob, np.array([0.0, 0.0, 2.0]))
    for combine in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ShapeMismatchError, match="tangent vector is not based at the given point"):
            combine(at_e1, at_e2)
        with pytest.raises(ShapeMismatchError, match="tangent vector lives on a different manifold"):
            combine(at_e1, at_ob)
    with pytest.raises(ShapeMismatchError, match="tangent vector lives on a different manifold"):
        ms.retract(e1, at_ob)
    with pytest.raises(ShapeMismatchError, match="tangent vector lives on a different manifold"):
        ms.vector_transport(e1, e2, at_ob)
    at_copy = ms.TangentVector(d, ms.ManifoldPoint(d, e1.data), np.array([0.0, 0.0, 2.0]))
    assert (at_e1 + at_copy).data.ravel().tolist() == [0.0, 0.0, 3.0]
    assert (at_e1 - at_copy).data.ravel().tolist() == [0.0, 0.0, -1.0]
    assert (at_e1 + at_copy).base is e1


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
    norms = rng.uniform(0.5, 2.0, len(X))
    stacked = (mf.proj(desc.kind, X, W), mf.normalize(desc.kind, X + W), Y, mf.fro(V),
               mf.tangents_from(desc.kind, X, W), mf.tangents_from(desc.kind, X, W, norms))
    for s in range(len(X)):
        single = (mf.proj(desc.kind, X[s], W[s]), mf.normalize(desc.kind, X[s] + W[s]),
                  mf.retr(desc.kind, X[s], V[s]), mf.fro(V[s]),
                  mf.tangents_from(desc.kind, X[s], W[s]), mf.tangents_from(desc.kind, X[s], W[s], norms[s]))
        for got, want in zip(stacked, single):
            assert np.array_equal(got[s], want)
        # random_tangent is tangents_from of its one Gaussian draw, byte for byte
        x = ms.ManifoldPoint(desc, X[s])
        for norm in (None, float(norms[s])):
            typed = ms.random_tangent(x, np.random.default_rng(s), norm)
            raw = mf.tangents_from(desc.kind, X[s], np.random.default_rng(s).standard_normal(desc.shape), norm)
            assert typed.base is x and typed.data.tobytes() == raw.tobytes()
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


class _CountingGenerator:
    """A Generator that counts the calls made to it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d.kind)
def test_tangent_blocks_slice_one_pass_of_three_stacked_draws(desc):
    def draw(rng, size):
        return (rng.uniform(0.05, 0.5, size),)

    samples = 2 * mf.SAMPLE_BLOCK + 5
    counting = _CountingGenerator(4)
    blocks = list(mf.tangent_blocks(desc, counting, samples, draw))
    assert counting.calls == 3
    rng = np.random.default_rng(4)
    points = rng.standard_normal((samples, *desc.shape))
    (norms,) = draw(rng, samples)
    X_all = mf.points_from(desc.kind, points)
    U_all = mf.tangents_from(desc.kind, X_all, rng.standard_normal((samples, *desc.shape)), norms)
    assert [len(X) for X, _, _, _ in blocks] == [mf.SAMPLE_BLOCK, mf.SAMPLE_BLOCK, 5]
    for start, (X, U, Y, (t,)) in zip(range(0, samples, mf.SAMPLE_BLOCK), blocks):
        block = slice(start, start + mf.SAMPLE_BLOCK)
        assert np.array_equal(X, X_all[block]) and np.array_equal(U, U_all[block])
        assert Y.tobytes() == mf.retr(desc.kind, X_all[block], U_all[block]).tobytes()
        assert np.array_equal(t, norms[block])
    counting = _CountingGenerator(4)
    points = np.concatenate(list(mf.point_blocks(desc, counting, samples)))
    assert counting.calls == 1
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
    """A Generator stand-in: standard_normal((..., n, p)) returns the next scripted n x p draws, one per matrix."""

    def __init__(self, normals):
        self.normals = normals
        self.used = 0

    def standard_normal(self, shape):
        count = int(np.prod(shape[:-2]))
        self.used += count
        return np.array(self.normals[self.used - count:self.used]).reshape(shape)

    def uniform(self, low, high, size=None):
        return 0.25 if size is None else np.full(size, 0.25)


def _one_at_a_time(desc, rng, samples):
    for _ in range(samples):
        x = ms.random_point(desc, rng)
        ms.random_tangent(x, rng, norm=rng.uniform(0.0, 1.0))


def _stacked(desc, rng, samples):
    for _ in mf.tangent_blocks(desc, rng, samples, lambda rng, size: (rng.uniform(0.0, 1.0, size),)):
        pass


# rescaling the zero projection divides by zero on purpose
_ZERO_STREAM = pytest.param("zero", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))


@pytest.mark.parametrize("stream", ["rounding", _ZERO_STREAM])
@pytest.mark.parametrize("sampler", [_one_at_a_time, _stacked], ids=["random_tangent", "tangent_blocks"])
def test_samplers_reject_a_vanishing_tangent(sampler, stream):
    # the tangent draw of pair 3 is normal to the sphere: its projection is
    # rounding noise, which fails the tangent check once rescaled to norm 0.25,
    # or exactly zero, which rescales to NaN
    desc = ms.sphere(5)
    normals = np.random.default_rng(6).standard_normal((10, 5, 1))
    points, tangents = normals[:5], normals[5:]
    if stream == "rounding":
        tangents[3] = 2.5 * points[3]
    else:
        e1 = np.eye(5)[:, :1]
        points[3], tangents[3] = 2.0 * e1, 3.0 * e1
    # one pair at a time draws point, tangent, point, ...; a stacked pass draws every point, then every tangent
    script = [v for pair in zip(points, tangents) for v in pair] if sampler is _one_at_a_time else list(normals)
    with pytest.raises(ParameterError, match="not tangent"):
        sampler(desc, _ScriptedGenerator(script), 5)


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


QR_SHAPES = [(50, 3), (1000, 10), (6, 2), (32, 50, 3)]


@pytest.mark.parametrize("shape", QR_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_normalize_stiefel_is_numpy_qr_with_sign_fix(shape):
    # normalize calls numpy's private LAPACK QR gufuncs directly; this pins it to
    # np.linalg.qr followed by the sign fix, bit for bit, and fails loudly if a
    # numpy release changes those gufuncs (one that moves them takes the fallback)
    Y = np.random.default_rng(11).standard_normal(shape)
    given = Y.copy()
    q, r = np.linalg.qr(Y)
    want = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None, :]
    got = mf.normalize(mf.STIEFEL, Y)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert Y.tobytes() == given.tobytes()  # LAPACK factors a copy, never the caller's array
    assert mf.normalize(mf.STIEFEL, np.asfortranarray(Y)).tobytes() == want.tobytes()


# a child process without numpy's private QR gufuncs: the import guard leaves them None, and normalize
# and retr take np.linalg.qr; the child reads its inputs from argv[1] (named n... for normalize, r... for
# retr) and saves what it gets, or the error's message, to argv[2]
QR_FALLBACK_PROBE = """
import sys
import numpy as np
import numpy.linalg
sys.modules["numpy.linalg._umath_linalg"] = None  # importing it now raises ImportError
from manismooth import manifolds as mf
from manismooth.errors import DegenerateRetractionError
assert mf._qr_r_raw is None and mf._qr_reduced is None
out = {}
with np.load(sys.argv[1]) as given:
    inputs = dict(given)
for name, Y in inputs.items():
    try:
        out[name] = mf.normalize(mf.STIEFEL, Y) if name[0] == "n" else mf.retr(mf.STIEFEL, *Y)
    except DegenerateRetractionError as exc:
        out[name] = np.array(str(exc))
np.savez(sys.argv[2], **out)
"""


def test_qr_fallback_writes_the_private_paths_bytes_and_errors(tmp_path):
    inputs = {}
    for i, shape in enumerate(QR_SHAPES):
        Y = np.random.default_rng(11).standard_normal(shape)
        X = mf.normalize(mf.STIEFEL, np.random.default_rng(12).standard_normal(shape))
        inputs[f"n{i}"], inputs[f"r{i}"] = Y, np.stack([X, mf.proj(mf.STIEFEL, X, Y)])
    # rank-deficient targets: zero, rank one, and a stack of zeros
    inputs["n_zero"], inputs["n_rank_one"] = np.zeros((5, 2)), np.outer(np.arange(1.0, 7.0), [1.0, 2.0])
    inputs["n_zero_stack"] = np.zeros((3, 4, 2))
    np.savez(tmp_path / "in.npz", **inputs)
    src = str(Path(mf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", QR_FALLBACK_PROBE, str(tmp_path / "in.npz"), str(tmp_path / "out.npz")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert mf._qr_r_raw is not None  # this process has the private path
    with np.load(tmp_path / "out.npz") as out:
        child = dict(out)
    assert sorted(child) == sorted(inputs)
    for name, Y in inputs.items():
        if name.startswith("n_"):
            with pytest.raises(DegenerateRetractionError) as err:
                mf.normalize(mf.STIEFEL, Y)
            assert str(child[name]) == str(err.value) == "rank-deficient Stiefel target"
        else:
            want = mf.normalize(mf.STIEFEL, Y) if name[0] == "n" else mf.retr(mf.STIEFEL, *Y)
            assert child[name].dtype == want.dtype and child[name].tobytes() == want.tobytes()


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
def test_retr_returns_x_exactly_when_v_has_no_nonzero_entry(V):
    # signed zeros count as zero, a NaN as nonzero; a stack is X itself only when every slice is zero
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
