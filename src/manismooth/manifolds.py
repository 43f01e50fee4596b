"""Embedded-submanifold primitives.

Supports three compact matrix submanifolds of R^{n x p}:

- the unit sphere S^{n-1} (points stored as n x 1 matrices),
- the Stiefel manifold St(n, p) = {X : X^T X = I_p},
- the oblique manifold Ob(n, p) (matrices with unit-norm columns).

Stored as an n x 1 matrix, S^{n-1} is Ob(n, 1), so there are two formula
families: Stiefel, and column-wise for the sphere and Ob (``SPHERE`` is a
descriptor label that fixes p = 1 and names the sphere in messages).
Provides tangent projection, a first-order retraction (thin QR with sign
fix on Stiefel, column normalization otherwise), projection-based vector
transport, and estimates of the two Lipschitz-type retraction constants

    ||R_x(u) - x||     <= alpha ||u||,
    ||R_x(u) - x - u|| <= beta  ||u||^2.

Each formula exists once, as an ndarray kernel (``proj``, ``normalize``,
``retr``, ``fro`` and the checks ``check_point``/``check_tangent``) that
the solver steps call directly; the typed functions are validating
shells over the kernels, and ``_check_based`` is their one rule for what
combines (``+``, ``-``, retract, transport); :func:`random_tangent` wraps
:func:`tangents_from`.  Every kernel also accepts stacks: arrays of
shape ``(..., n, p)`` hold one point or vector per leading index, and
each result slice is bit-identical to the call on that slice alone, so a
single point is just the stack with no leading axes.  The column-wise
kernels read <x_j, v_j> per column from one helper, which at p = 1 takes
one BLAS dot per matrix and at p > 1 sums each column; the two round
differently, and the choice rests on the shape alone.  The one-matrix rule:
each kernel picks its matrix product once per call from its operands'
shapes, ``ndarray.dot`` (``_dot``) when every operand is one matrix and
``np.matmul`` (``_matmul``, what ``@`` calls) when one is a stack, and
writes its formula once with the product it picked; the problem
families' evaluators pick theirs the same way.  ``dot`` calls the BLAS
routine ``@`` calls and gives the same bits, without the gufunc dispatch
``@`` spends on stacks.  ``test_one_matrix_products_equal_matmul`` and
``test_stacked_kernels_equal_per_slice`` in ``tests/test_manifolds.py``
pin both at the benchmark's shapes (St(50, 3), St(1000, 10), S^49,
Ob(50, 3)) as well as at small ones, and
``test_one_matrix_equals_its_slice_of_a_stack_bit_for_bit`` in
``tests/test_problems.py`` compares bytes, kernels and evaluators
together, and the checks' messages.  The checks reject NaN and infinite
data, so a ``ManifoldPoint`` or ``TangentVector`` always holds finite
values; nothing here repairs data that fails them.  The
sampling estimators draw each pass whole, :func:`point_blocks` as one
Gaussian stack and :func:`tangent_blocks` as three, and hand it back in
slices of at most ``SAMPLE_BLOCK`` that :func:`points_from` and
:func:`tangents_from` turn into checked samples (each pair retracted and
checked once), so no result depends on the block size.

The Stiefel ``normalize`` calls the two LAPACK gufuncs that
``np.linalg.qr`` wraps, ``qr_r_raw`` (geqrf) and ``qr_reduced`` (orgqr),
on a float64 copy of its input, reads diag(R) from the factored copy and
fixes the signs of Q in place; ``retr`` hands them X + V, an array of its
own, without that copy.  That skips ``np.linalg.qr``'s type
dispatch, its ``triu`` of R and both of its ``errstate`` blocks (on numpy
2.4.6 the gufuncs raise nothing for a NaN, infinite, huge, subnormal, zero
or rank-one target), and gives the same Q bit for bit.  The gufuncs live in
numpy's private ``numpy.linalg._umath_linalg``, verified on numpy 2.4.6
only, so their import is guarded: without them ``normalize`` and ``retr``
take ``np.linalg.qr`` plus the same sign fix, rank check and error.
``test_normalize_stiefel_is_numpy_qr_with_sign_fix`` in
``tests/test_manifolds.py`` pins the private path to that, bit for bit, and
``test_qr_fallback_writes_the_private_paths_bytes_and_errors`` runs the
fallback in a process without the gufuncs.
For one matrix, ``check_point`` and ``check_tangent`` take their norms
as Python floats and compare those, cheaper than numpy-scalar
comparisons; a stack takes the array path and fails with the same
message.  ``check_tangent`` takes V's norm before any product with X, so
a NaN or infinite V is rejected without the product's warning.
``ManifoldPoint`` and ``TangentVector`` set each field once in their own
``__init__`` and check in ``__post_init__``, once per construction.

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateRetractionError, ParameterError, ShapeMismatchError

try:  # private: the LAPACK QR gufuncs behind np.linalg.qr (BENCH_fast_paths.json "qr_gufuncs")
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced
except ImportError:  # a numpy that moved them: _normalized takes np.linalg.qr, the same Q
    _qr_r_raw = _qr_reduced = None

SPHERE = "sphere"
STIEFEL = "stiefel"
OBLIQUE = "oblique"

# Constructor tolerances for the defining equations of points / tangents.
_POINT_TOL_COLUMNS = 1e-12
_POINT_TOL_STIEFEL = 1e-10
_TANGENT_TOL = 1e-10
# Points per stacked block of the sampling estimators.  A pass is drawn
# whole and its maxima are exact over any split, so results do not depend
# on it.  Larger blocks amortize more per-call overhead but hold larger
# temporaries (the stacked Jacobians of c), which raise the peak memory.
SAMPLE_BLOCK = 32
# The fewest points a sampled pass of an estimator or probe may draw.
MIN_SAMPLES = 100


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Identifies one of the supported manifolds and its dimensions."""

    kind: str
    n: int
    p: int

    def __post_init__(self):
        if self.kind not in (SPHERE, STIEFEL, OBLIQUE):
            raise ParameterError(f"unknown manifold kind {self.kind!r}")
        if not (isinstance(self.n, (int, np.integer)) and isinstance(self.p, (int, np.integer))):
            raise ParameterError(f"{self.kind} dimensions must be integers, got n={self.n!r}, p={self.p!r}")
        if self.kind == SPHERE:
            if self.n < 2 or self.p != 1:
                raise ParameterError("sphere requires n >= 2 and p == 1")
        elif not self.n >= self.p >= 1:
            raise ParameterError(f"{self.kind} requires n >= p >= 1, got n={self.n}, p={self.p}")

    # not a field; after the first read, a plain attribute read (BENCH_fast_paths.json "shape_cached_property")
    @cached_property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.p)


def sphere(n: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(SPHERE, n, 1)


def stiefel(n: int, p: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(STIEFEL, n, p)


def oblique(n: int, p: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(OBLIQUE, n, p)


def _as_2d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


_FLOAT64 = np.dtype(np.float64)


def _as_matrix(desc: ManifoldDescriptor, data, what: str) -> np.ndarray:
    # the one copy the general path makes, without its conversions (BENCH_fast_paths.json "as_matrix_fast_path")
    if type(data) is np.ndarray and data.dtype is _FLOAT64 and data.shape == desc.shape:
        out = data.copy(order="K")
    else:
        arr = _as_2d(data)
        if arr.shape != desc.shape:
            raise ShapeMismatchError(f"{what}: expected shape {desc.shape}, got {arr.shape}")
        out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


_set = object.__setattr__  # how the constructors of the frozen classes below set their fields


# The typed values write their own __init__: each field is set once, the data as
# its read-only copy, where the generated one would set the data twice.
# __post_init__ is the check, run once per construction.
@dataclass(frozen=True, eq=False, init=False)
class ManifoldPoint:
    """A point on a manifold, stored in its ambient embedding.

    The constructor copies the data and validates the defining equation
    of the manifold; data that fails it is rejected, never repaired.
    """

    descriptor: ManifoldDescriptor
    data: np.ndarray

    def __init__(self, descriptor: ManifoldDescriptor, data):
        _set(self, "descriptor", descriptor)
        _set(self, "data", _as_matrix(descriptor, data, "point"))
        self.__post_init__()

    def __post_init__(self):
        check_point(self.descriptor.kind, self.data)


@dataclass(frozen=True, eq=False, init=False)
class TangentVector:
    """An element of the tangent space at ``base``."""

    descriptor: ManifoldDescriptor
    base: ManifoldPoint
    data: np.ndarray

    def __init__(self, descriptor: ManifoldDescriptor, base: ManifoldPoint, data):
        if base.descriptor is not descriptor and base.descriptor != descriptor:
            raise ShapeMismatchError("tangent vector descriptor differs from base point's")
        _set(self, "descriptor", descriptor)
        _set(self, "base", base)
        _set(self, "data", _as_matrix(descriptor, data, "tangent"))
        self.__post_init__()

    def __post_init__(self):
        check_tangent(self.descriptor.kind, self.base.data, self.data)

    def norm(self) -> float:
        return _norm(self.data)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        _check_based(self.base, other)
        return TangentVector(self.descriptor, self.base, self.data + other.data)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        _check_based(self.base, other)
        return TangentVector(self.descriptor, self.base, self.data - other.data)

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.descriptor, self.base, scalar * self.data)

    __rmul__ = __mul__


@dataclass(frozen=True)
class RetractionConstants:
    """Empirical constants of the two Lipschitz-type retraction bounds."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ParameterError("retraction constants must be positive")


def _inner(A: np.ndarray, B: np.ndarray):
    """<A, B> per matrix of two stacks ``(..., n, p)``: one BLAS dot each, a scalar for two matrices."""
    # two matrices: np.vecdot's dot without its stack machinery (BENCH_fast_paths.json "inner_two_matrix_dot")
    if A.ndim == 2 and B.ndim == 2:
        return A.ravel().dot(B.ravel())
    *_, n, p = A.shape
    return np.vecdot(A.reshape(*A.shape[:-2], n * p), B.reshape(*B.shape[:-2], n * p))


# the two matrix products of the one-matrix rule (module docstring; BENCH_fast_paths.json "dot_matmul_pick")
_dot = np.ndarray.dot
_matmul = np.matmul


def _lift(s):
    """Per-matrix scalars shaped to broadcast against their stack; one matrix's scalar stays a scalar."""
    return s if s.ndim == 0 else s[..., None, None]


def _any(flags) -> bool:
    """Whether any flag is set, for one flag or an array of them."""
    return bool(flags.any() if flags.ndim else flags)


def fro(V: np.ndarray) -> np.ndarray:
    """Frobenius norm of V, one per matrix of a stack ``(..., n, p)``."""
    return np.sqrt(_inner(V, V))


def _norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))``: numpy's formula (sqrt of the 'K'-order raveled dot) without its dispatch."""
    r = v.ravel(order="K")
    return math.sqrt(r.dot(r))


@cache
def _identity(p: int) -> np.ndarray:
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


def _columns(X: np.ndarray, V: np.ndarray):
    """<x_j, v_j> per column j of two stacks ``(..., n, p)``, shaped ``(..., 1, p)``; a scalar for two n x 1 matrices.

    At p = 1 this is one BLAS dot per matrix, at p > 1 a sum over each
    column.  The two round differently, so the choice rests on the shape
    alone: the sphere, stored as Ob(n, 1), keeps the bits of its dot.
    """
    if X.shape[-1] != 1:
        return np.sum(X * V, axis=-2, keepdims=True)
    # _inner's one-matrix dot, called here directly on the step's path (BENCH_fast_paths.json "columns_one_matrix_dot")
    if X.ndim == 2 and V.ndim == 2:
        return X.ravel().dot(V.ravel())
    return _inner(X, V)[..., None, None]


def proj(kind: str, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Tangent projection at X; ``proj(kind, Y, V)`` is also the vector transport into T_Y M."""
    if kind == STIEFEL:
        mm = _dot if X.ndim == 2 and V.ndim == 2 else _matmul
        s = mm(X.mT, V)
        return V - mm(X, (s + s.mT) / 2.0)
    return V - X * _columns(X, V)


def normalize(kind: str, Y: np.ndarray) -> np.ndarray:
    """Map ambient Y onto the manifold: thin-QR Q with positive-diagonal R on Stiefel, else each column normalized.

    Raises:
        DegenerateRetractionError: the sphere target has zero norm, an
            oblique column collapses, or Y is rank deficient.  A NaN or
            infinite Y is not caught here: its result is not finite, and
            the point check rejects it.
    """
    return _normalized(kind, np.array(Y, dtype=np.float64) if kind == STIEFEL else Y)


def _normalized(kind: str, Y: np.ndarray) -> np.ndarray:
    """:func:`normalize` of a float64 Y that the call may overwrite: the Stiefel QR factors Y in place."""
    if kind == STIEFEL:
        if _qr_reduced is None:
            Q, R = np.linalg.qr(Y)
            diag = R.diagonal(0, -2, -1)
        else:
            Q = _qr_reduced(Y, _qr_r_raw(Y))  # geqrf leaves R above Y's diagonal
            diag = Y.diagonal(0, -2, -1)
        for r in diag.ravel().tolist():  # a loop, not np.any (BENCH_fast_paths.json "diag_loop")
            if abs(r) < 1e-12:
                raise DegenerateRetractionError("rank-deficient Stiefel target")
        Q *= np.copysign(1.0, diag)[..., None, :]
        return Q
    nrms = np.sqrt(_columns(Y, Y))
    if _any(nrms < 1e-12):
        raise DegenerateRetractionError(
            "sphere target has zero norm" if kind == SPHERE else "oblique target collapses a column")
    return Y / nrms


def retr(kind: str, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """First-order retraction R_X(V) on raw arrays; X itself where V = 0 (per slice of a stack)."""
    if not np.count_nonzero(V):
        return X
    Y = _normalized(kind, X + V)  # the sum is this call's own, so the QR factors it without normalize's copy
    if V.ndim > 2:
        still = ~V.any(axis=(-2, -1))
        if still.any():
            return np.where(still[..., None, None], X, Y)
    return Y


def check_point(kind: str, X: np.ndarray) -> None:
    """Require the manifold equation at every point of X (``(..., n, p)``).

    Raises:
        ParameterError: a point violates it by more than the tolerance of
            its manifold (1e-12 sphere/oblique, 1e-10 Stiefel, Frobenius),
            or has a NaN or infinite entry.
    """
    one = X.ndim == 2  # one point: compare Python floats (BENCH_fast_paths.json "check_float_branches")
    if kind == STIEFEL:
        err = (_norm if one else fro)((_dot if one else _matmul)(X.mT, X) - _identity(X.shape[-1]))
        tol = _POINT_TOL_STIEFEL
    else:
        s = _columns(X, X)
        err = abs(math.sqrt(s) - 1.0) if s.ndim == 0 else np.abs(np.sqrt(s) - 1.0).max(axis=(-2, -1))
        tol = _POINT_TOL_COLUMNS
    if one:
        err = float(err)
        if err > tol or err != err:
            raise ParameterError(f"{kind} point violates manifold equation by {err:.3e}")
        return
    bad = (err > tol) | (err != err)  # a NaN or infinite entry makes err NaN (!= itself) or inf
    if _any(bad):
        raise ParameterError(f"{kind} point violates manifold equation by {np.max(err, where=bad, initial=0.0):.3e}")


def check_tangent(kind: str, X: np.ndarray, V: np.ndarray) -> None:
    """Require every V to be finite and tangent at its X, to 1e-10 relative to max(1, ||V||).

    Raises:
        ParameterError: some V is not tangent, or its norm is NaN or infinite.
    """
    one = X.ndim == V.ndim == 2  # one vector: Python floats (BENCH_fast_paths.json "check_float_branches")
    norm = _norm if one else fro
    # the norm comes first: a NaN or infinite V (a NaN or infinite norm) is rejected before
    # the product with X, whose 0 x inf would warn, and its violation is reported as NaN
    nrm = norm(V)
    if one:
        if not nrm < math.inf:
            raise ParameterError(f"vector is not tangent (violation nan, norm {nrm:.3e})")
    else:
        nonfinite = ~(nrm < np.inf)
        if _any(nonfinite):
            worst = np.max(nrm, where=nonfinite, initial=0.0)
            raise ParameterError(f"vector is not tangent (violation nan, norm {worst:.3e})")
    if kind == STIEFEL:
        s = (_dot if one else _matmul)(X.mT, V)
        err = norm(s + s.mT)
    else:
        s = _columns(X, V)
        err = abs(s) if s.ndim == 0 else np.abs(s).max(axis=(-2, -1))
    if one:
        err = float(err)
        if (err > _TANGENT_TOL and err > _TANGENT_TOL * nrm) or err != err:
            raise ParameterError(f"vector is not tangent (violation {err:.3e}, norm {nrm:.3e})")
        return
    # err > tol max(1, ||V||), or a non-finite X, whose err is infinite or NaN (NaN != NaN)
    bad = ((err > _TANGENT_TOL) & (err > _TANGENT_TOL * nrm)) | (err != err)
    if _any(bad):
        raise ParameterError(
            f"vector is not tangent (violation {np.max(err, where=bad, initial=0.0):.3e}, "
            f"norm {np.max(nrm, where=bad, initial=0.0):.3e})"
        )


def tangent_project(x: ManifoldPoint, v) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at x."""
    v = _as_2d(v)
    if v.shape != x.descriptor.shape:
        raise ShapeMismatchError(f"ambient vector shape {v.shape} != point shape {x.descriptor.shape}")
    return TangentVector(x.descriptor, x, proj(x.descriptor.kind, x.data, v))


def _check_based(x: ManifoldPoint, v: TangentVector) -> None:
    """Raise ShapeMismatchError unless v lives on x's manifold (checked first) and is based at x or equal data."""
    if v.descriptor is not x.descriptor and v.descriptor != x.descriptor:
        raise ShapeMismatchError("tangent vector lives on a different manifold")
    if v.base is not x and v.base.data is not x.data and not np.array_equal(v.base.data, x.data):
        raise ShapeMismatchError("tangent vector is not based at the given point")


def retract(x: ManifoldPoint, eta: TangentVector) -> ManifoldPoint:
    """First-order retraction of a tangent vector into the manifold.

    Stiefel: Q factor of the thin QR of X + eta with positive-diagonal R.
    Sphere and oblique: each column of X + eta normalized (the sphere is
    Ob(n, 1)).  See :func:`normalize` for the degenerate cases, ``_check_based`` for the eta it takes.
    """
    _check_based(x, eta)
    y = retr(x.descriptor.kind, x.data, eta.data)
    return x if y is x.data else ManifoldPoint(x.descriptor, y)


def vector_transport(x: ManifoldPoint, y: ManifoldPoint, xi: TangentVector) -> TangentVector:
    """Projection-based transport of a tangent vector at x into T_y M.

    Linear in xi and nonexpansive (an orthogonal projection); equals the
    identity when y = x and xi is tangent there.  Raises ShapeMismatchError
    if y is on another manifold, or by ``_check_based`` as :func:`retract` does.
    """
    if x.descriptor != y.descriptor:
        raise ShapeMismatchError("transport endpoints live on different manifolds")
    _check_based(x, xi)
    return tangent_project(y, xi.data)


def random_point(desc: ManifoldDescriptor, rng: np.random.Generator) -> ManifoldPoint:
    """Random point obtained by projecting standard Gaussian ambient data."""
    return ManifoldPoint(desc, normalize(desc.kind, rng.standard_normal(desc.shape)))


def random_tangent(x: ManifoldPoint, rng: np.random.Generator, norm: float | None = None) -> TangentVector:
    """Random tangent vector at x, optionally rescaled to a given norm: :func:`tangents_from` of one draw.

    Raises:
        ParameterError: the rescaled draw fails the tangent check, which
            happens only if the Gaussian draw is (nearly) normal to the
            manifold, an event of probability about 1e-14.
    """
    desc = x.descriptor
    return TangentVector(desc, x, tangents_from(desc.kind, x.data, rng.standard_normal(desc.shape), norm))


def _peak(current: float, values) -> float:
    """The running max of the sampled estimators and batteries: max(current, max(values)), NaN if any value is."""
    return float(np.max(values, initial=current))


def points_from(kind: str, G: np.ndarray) -> np.ndarray:
    """The :func:`random_point` of each Gaussian draw of the stack G ``(b, n, p)``, checked."""
    X = normalize(kind, G)
    check_point(kind, X)
    return X


def tangents_from(kind: str, X: np.ndarray, G: np.ndarray, norm=None) -> np.ndarray:
    """The projection at each point of X of its Gaussian draw in G, rescaled to ``norm`` if given, checked.

    X and G are one matrix or stacks ``(b, n, p)`` and ``norm`` one value or one per draw; each slice
    of a stacked call is bit-identical to the call on that slice, and one matrix is :func:`random_tangent`.
    """
    V = proj(kind, X, G)
    if norm is not None:
        V = _lift(norm / fro(V)) * V  # numpy division: a zero projection gives NaN, which the check rejects
    check_tangent(kind, X, V)
    return V


def point_blocks(desc: ManifoldDescriptor, rng: np.random.Generator, samples: int):
    """Yield ``samples`` random points as checked stacks ``(b, n, p)``, b <= SAMPLE_BLOCK.

    The pass is one ``standard_normal((samples, n, p))`` draw, the stream
    of ``samples`` :func:`random_point` calls.
    """
    G = rng.standard_normal((samples, *desc.shape))
    for start in range(0, samples, SAMPLE_BLOCK):
        yield points_from(desc.kind, G[start:start + SAMPLE_BLOCK])


def tangent_blocks(desc: ManifoldDescriptor, rng: np.random.Generator, samples: int, draw):
    """Yield checked stacks ``(X, U, Y, drawn)`` of ``samples`` random pairs (x, u), at most SAMPLE_BLOCK per stack.

    The pass draws, in this order, ``standard_normal((samples, n, p))``
    for the points, ``draw(rng, samples)`` (a tuple of arrays whose last
    holds the norms of the u) and ``standard_normal((samples, n, p))`` for
    the tangents.  Each stack is :func:`points_from`/:func:`tangents_from`
    of one slice of them, ``Y`` its retraction ``retr(kind, X, U)``, which
    has passed :func:`check_point`, and ``drawn`` that slice of each drawn
    array.

    Raises:
        ParameterError: a rescaled tangent fails its check, as in
            :func:`random_tangent`, or a retracted point fails its check.
        DegenerateRetractionError: a retraction target is degenerate.
    """
    kind, shape = desc.kind, (samples, *desc.shape)
    points, drawn, tangents = rng.standard_normal(shape), draw(rng, samples), rng.standard_normal(shape)
    for start in range(0, samples, SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        X = points_from(kind, points[block])
        values = tuple(column[block] for column in drawn)
        U = tangents_from(kind, X, tangents[block], values[-1])
        Y = retr(kind, X, U)
        check_point(kind, Y)
        yield X, U, Y, values


def estimate_retraction_constants(
    desc: ManifoldDescriptor, samples: int, rng_seed: int | np.random.Generator
) -> RetractionConstants:
    """Empirical retraction constants from seeded sampling.

    Draws ``samples`` pairs (x, u) with ||u|| ~ U(1e-4, 1), one :func:`tangent_blocks` pass,
    from ``default_rng(rng_seed)``, which advances a Generator in place, and returns

        alpha = max ||R_x(u) - x|| / ||u||,
        beta  = max ||R_x(u) - x - u|| / ||u||^2.

    The returned values are lower bounds on the true suprema; callers
    should multiply by a safety factor.
    """
    if samples < MIN_SAMPLES:
        raise ParameterError(f"samples must be >= {MIN_SAMPLES}")
    rng = np.random.default_rng(rng_seed)
    alpha = 0.0
    beta = 0.0
    for X, U, Y, _ in tangent_blocks(desc, rng, samples, lambda rng, size: (rng.uniform(1e-4, 1.0, size),)):
        nu = fro(U)
        alpha = _peak(alpha, fro(Y - X) / nu)
        beta = _peak(beta, fro(Y - X - U) / (nu * nu))
    return RetractionConstants(alpha=max(alpha, 1e-12), beta=max(beta, 1e-12))

