"""Embedded-submanifold primitives.

Supports three compact matrix submanifolds of R^{n x p}:

- the unit sphere S^{n-1} (points stored as n x 1 matrices),
- the Stiefel manifold St(n, p) = {X : X^T X = I_p},
- the oblique manifold Ob(n, p) (matrices with unit-norm columns).

Provides tangent projection, a first-order retraction per manifold
(normalization / thin QR with sign fix / column normalization),
projection-based vector transport, and empirical estimation of the two
Lipschitz-type retraction constants

    ||R_x(u) - x||     <= alpha ||u||,
    ||R_x(u) - x - u|| <= beta  ||u||^2.

Each formula exists once, as an ndarray kernel (``proj``, ``normalize``,
``retr``, ``fro`` and the checks ``check_point``/``check_tangent``) that
the solver steps call directly; the typed functions are validating
shells over the kernels.  Every kernel also accepts stacks: arrays of
shape ``(..., n, p)`` hold one point or vector per leading index, and
each result slice is bit-identical to the call on that slice alone, so a
single point is just the stack with no leading axes.  The one-matrix rule:
a product of two plain matrices goes through ``ndarray.dot``, a product
with a stack through ``@`` (both by the private ``_mm``, so each formula is
written once).  ``dot`` calls the BLAS routine ``@`` calls and gives the
same bits, without the gufunc dispatch ``@`` spends on stacks; on St(50, 3)
one ``proj`` drops from ~4.3 to ~3.7 us (timeit, one CPU of a 2-CPU
x86-64 host, numpy 2.4.6 / OpenBLAS).  ``test_one_matrix_products_equal_matmul``
and ``test_stacked_kernels_equal_per_slice`` in ``tests/test_manifolds.py``
pin both at the benchmark's shapes (St(50, 3), St(1000, 10), S^49,
Ob(50, 3)) as well as at small ones.  The checks reject NaN and infinite
data, so a ``ManifoldPoint`` or ``TangentVector`` always holds finite
values; nothing here repairs data that fails them.  The
sampling estimators draw their points and tangents with
:func:`point_blocks` and :func:`tangent_blocks`, which make the same
generator calls in the same order as
:func:`random_point`/:func:`random_tangent` and hand the draws back in
stacks of at most ``SAMPLE_BLOCK``; :func:`points_from` and
:func:`tangents_from` turn a stack of Gaussian draws into checked samples.

The Stiefel ``normalize`` calls the two LAPACK gufuncs that
``np.linalg.qr`` wraps, ``qr_r_raw`` (geqrf) and ``qr_reduced`` (orgqr),
on a float64 copy of its input, reads diag(R) from the factored copy and
fixes the signs of Q in place.  That skips ``np.linalg.qr``'s type
dispatch, its ``triu`` of R and both of its ``errstate`` blocks (on
numpy 2.4.6 the gufuncs raise nothing for a NaN, infinite, huge,
subnormal, zero or rank-one target), and gives the same Q bit for bit;
on St(50, 3) the call drops from ~36 to ~15 us (one CPU of a 2-CPU
x86-64 host, numpy 2.4.6 / OpenBLAS).  The gufuncs live in numpy's
private ``numpy.linalg._umath_linalg``, verified on numpy 2.4.6 only;
``test_normalize_stiefel_is_numpy_qr_with_sign_fix`` in
``tests/test_manifolds.py`` pins ``normalize`` to ``np.linalg.qr`` plus
the sign fix: a numpy release that renames them fails at import, and one
that changes their results fails that test.  For one matrix,
``check_point`` and ``check_tangent`` take their norms as Python floats
and compare those, cheaper than numpy-scalar comparisons; a stack takes
the array path and fails with the same message.

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg  # private: the LAPACK QR gufuncs behind np.linalg.qr

from .errors import DegenerateRetractionError, ParameterError, ShapeMismatchError

SPHERE = "sphere"
STIEFEL = "stiefel"
OBLIQUE = "oblique"

# Constructor tolerances for the defining equations of points / tangents.
_POINT_TOL_SPHERE = 1e-12
_POINT_TOL_STIEFEL = 1e-10
_POINT_TOL_OBLIQUE = 1e-12
_TANGENT_TOL = 1e-10
# Points per stacked block of the sampling estimators.  Their maxima are
# exact over any split, so results do not depend on it.  Larger blocks
# amortize more per-call overhead but hold larger temporaries (the stacked
# Jacobians of c): on the constrained sphere n = 50, m = 10 (2-CPU x86-64,
# numpy 2.4.6 / OpenBLAS), blocks of 64 raised the peak RSS of two
# default_config calls by 1.7 MB over one-point estimation, blocks of 32 by
# 0.3 MB, at a 15% slower default_config.
SAMPLE_BLOCK = 32


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Identifies one of the supported manifolds and its dimensions."""

    kind: str
    n: int
    p: int

    def __post_init__(self):
        if self.kind not in (SPHERE, STIEFEL, OBLIQUE):
            raise ParameterError(f"unknown manifold kind {self.kind!r}")
        if self.kind == SPHERE:
            if self.n < 2 or self.p != 1:
                raise ParameterError("sphere requires n >= 2 and p == 1")
        elif not self.n >= self.p >= 1:
            raise ParameterError(f"{self.kind} requires n >= p >= 1, got n={self.n}, p={self.p}")

    @property
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
    if type(data) is np.ndarray and data.dtype is _FLOAT64 and data.shape == desc.shape:
        out = data.copy(order="K")  # the one copy the general path makes, without its conversions
    else:
        arr = _as_2d(data)
        if arr.shape != desc.shape:
            raise ShapeMismatchError(f"{what}: expected shape {desc.shape}, got {arr.shape}")
        out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a manifold, stored in its ambient embedding.

    The constructor copies the data and validates the defining equation
    of the manifold; data that fails it is rejected, never repaired.
    """

    descriptor: ManifoldDescriptor
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_matrix(self.descriptor, self.data, "point"))
        check_point(self.descriptor.kind, self.data)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An element of the tangent space at ``base``."""

    descriptor: ManifoldDescriptor
    base: ManifoldPoint
    data: np.ndarray

    def __post_init__(self):
        if self.base.descriptor is not self.descriptor and self.base.descriptor != self.descriptor:
            raise ShapeMismatchError("tangent vector descriptor differs from base point's")
        object.__setattr__(self, "data", _as_matrix(self.descriptor, self.data, "tangent"))
        check_tangent(self.descriptor.kind, self.base.data, self.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.descriptor, self.base, self.data + other.data)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
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
    if A.ndim == 2 and B.ndim == 2:  # the same dot as np.vecdot, without the stack machinery
        return A.ravel().dot(B.ravel())
    *_, n, p = A.shape
    return np.vecdot(A.reshape(*A.shape[:-2], n * p), B.reshape(*B.shape[:-2], n * p))


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B``.  Two plain matrices take ``ndarray.dot``: the same BLAS call and bits, without matmul's stack dispatch."""
    return A.dot(B) if A.ndim == 2 and B.ndim == 2 else A @ B


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


def _column_norms(Y: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(Y * Y, axis=-2, keepdims=True))


def proj(kind: str, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Tangent projection at X; ``proj(kind, Y, V)`` is also the vector transport into T_Y M."""
    if kind == SPHERE:
        return V - _lift(_inner(X, V)) * X
    if kind == STIEFEL:
        s = _mm(X.mT, V)
        return V - _mm(X, (s + s.mT) / 2.0)
    return V - X * np.sum(X * V, axis=-2, keepdims=True)


def normalize(kind: str, Y: np.ndarray) -> np.ndarray:
    """Map ambient Y onto the manifold: normalize / thin-QR Q with positive-diagonal R / column normalize.

    Raises:
        DegenerateRetractionError: the sphere target has zero norm, an
            oblique column collapses, or Y is rank deficient.  A NaN or
            infinite Y is not caught here: its result is not finite, and
            the point check rejects it.
    """
    if kind == SPHERE:
        nrm = fro(Y)
        if _any(nrm < 1e-12):
            raise DegenerateRetractionError("sphere target has zero norm")
        return Y / _lift(nrm)
    if kind == STIEFEL:
        R = np.array(Y, dtype=np.float64)  # geqrf overwrites it with R above the diagonal, reflectors below
        Q = _umath_linalg.qr_reduced(R, _umath_linalg.qr_r_raw(R))
        diag = R.diagonal(0, -2, -1)
        if any(abs(r) < 1e-12 for r in diag.ravel().tolist()):
            raise DegenerateRetractionError("rank-deficient Stiefel target")
        Q *= np.copysign(1.0, diag)[..., None, :]
        return Q
    nrms = _column_norms(Y)
    if _any(nrms < 1e-12):
        raise DegenerateRetractionError("oblique target collapses a column")
    return Y / nrms


def retr(kind: str, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """First-order retraction R_X(V) on raw arrays; X itself where V = 0 (per slice of a stack)."""
    if not np.count_nonzero(V):  # V.any(), without its Python-level wrapper
        return X
    Y = normalize(kind, X + V)
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
    one = X.ndim == 2  # one point: compare Python floats, cheaper than any numpy-scalar comparison
    norm = _norm if one else fro
    if kind == SPHERE:
        err = abs(norm(X) - 1.0)
        tol = _POINT_TOL_SPHERE
    elif kind == STIEFEL:
        err = norm(_mm(X.mT, X) - _identity(X.shape[-1]))
        tol = _POINT_TOL_STIEFEL
    else:
        err = np.max(np.abs(_column_norms(X) - 1.0), axis=(-2, -1))
        tol = _POINT_TOL_OBLIQUE
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
    one = X.ndim == V.ndim == 2  # one vector: the same test on Python floats
    norm = _norm if one else fro
    if kind == SPHERE:
        err = abs(_inner(X, V))
    elif kind == STIEFEL:
        s = _mm(X.mT, V)
        err = norm(s + s.mT)
    else:
        err = np.max(np.abs(np.sum(X * V, axis=-2)), axis=-1)
    nrm = norm(V)
    if one:
        err, nrm = float(err), float(nrm)
        if (err > _TANGENT_TOL and err > _TANGENT_TOL * nrm) or err != err or nrm != nrm or nrm == math.inf:
            raise ParameterError(f"vector is not tangent (violation {err:.3e}, norm {nrm:.3e})")
        return
    # err > tol max(1, ||V||), or a NaN/infinite entry: a non-finite V has a NaN or
    # infinite norm, a non-finite X an infinite or NaN err (NaN != NaN)
    bad = ((err > _TANGENT_TOL) & (err > _TANGENT_TOL * nrm)) | (err != err) | (nrm != nrm) | (nrm == np.inf)
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


def retract(x: ManifoldPoint, eta: TangentVector) -> ManifoldPoint:
    """First-order retraction of a tangent vector into the manifold.

    Sphere: normalize x + eta.  Stiefel: Q factor of the thin QR of
    X + eta with positive-diagonal R.  Oblique: column-wise
    normalization.  See :func:`normalize` for the degenerate cases.
    """
    if eta.base is not x and eta.base.data is not x.data:
        if not np.array_equal(eta.base.data, x.data):
            raise ShapeMismatchError("tangent vector is not based at the given point")
    y = retr(x.descriptor.kind, x.data, eta.data)
    return x if y is x.data else ManifoldPoint(x.descriptor, y)


def vector_transport(x: ManifoldPoint, y: ManifoldPoint, xi: TangentVector) -> TangentVector:
    """Projection-based transport of a tangent vector at x into T_y M.

    Linear in xi and nonexpansive (an orthogonal projection); equals the
    identity when y = x and xi is tangent there.
    """
    if x.descriptor != y.descriptor:
        raise ShapeMismatchError("transport endpoints live on different manifolds")
    if xi.descriptor != x.descriptor:
        raise ShapeMismatchError("transported vector lives on a different manifold")
    return tangent_project(y, xi.data)


def random_point(desc: ManifoldDescriptor, rng: np.random.Generator) -> ManifoldPoint:
    """Random point obtained by projecting standard Gaussian ambient data."""
    return ManifoldPoint(desc, normalize(desc.kind, rng.standard_normal(desc.shape)))


def random_tangent(x: ManifoldPoint, rng: np.random.Generator, norm: float | None = None) -> TangentVector:
    """Random tangent vector at x, optionally rescaled to a given norm.

    Raises:
        ParameterError: the rescaled draw fails the tangent check, which
            happens only if the Gaussian draw is (nearly) normal to the
            manifold, an event of probability about 1e-14.
    """
    v = tangent_project(x, rng.standard_normal(x.descriptor.shape))
    if norm is None:
        return v
    return (norm / fro(v.data)) * v  # numpy division: a zero projection gives NaN, which the check rejects


def sup(current: float, values) -> float:
    """max(current, v) over the values in order, as a running Python ``max``: NaN values are skipped."""
    return max(current, float(np.fmax.reduce(values, axis=None, initial=-np.inf)))


def squares(values: np.ndarray) -> np.ndarray:
    """``float(v) ** 2`` per entry (C ``pow``), the rounding the estimates are defined with.

    numpy's ``v ** 2`` squares by multiplication, which rounds differently
    in about one case in a thousand.
    """
    return np.array([float(v) ** 2 for v in values])


def points_from(kind: str, G: np.ndarray) -> np.ndarray:
    """The :func:`random_point` of each Gaussian draw of the stack G ``(b, n, p)``, checked."""
    X = normalize(kind, G)
    check_point(kind, X)
    return X


def tangents_from(kind: str, X: np.ndarray, G: np.ndarray, norm=None) -> np.ndarray:
    """The projection at each point of X of its Gaussian draw in G, rescaled to ``norm`` if given, checked.

    With a norm (one, or one per draw) this is :func:`random_tangent` per draw.
    """
    V = proj(kind, X, G)
    if norm is not None:
        V = (norm / fro(V))[:, None, None] * V  # a zero projection gives NaN, which the check rejects
    check_tangent(kind, X, V)
    return V


def point_blocks(desc: ManifoldDescriptor, rng: np.random.Generator, samples: int):
    """Yield the points of ``samples`` :func:`random_point` calls as checked stacks ``(b, n, p)``, b <= SAMPLE_BLOCK.

    One ``standard_normal((b, n, p))`` call draws the same stream as b
    calls of ``standard_normal((n, p))``.
    """
    for start in range(0, samples, SAMPLE_BLOCK):
        yield points_from(desc.kind, rng.standard_normal((min(SAMPLE_BLOCK, samples - start), *desc.shape)))


def tangent_blocks(desc: ManifoldDescriptor, rng: np.random.Generator, samples: int, draw):
    """Yield checked stacks ``(X, U, drawn)`` covering ``samples`` draws of

        x = random_point(desc, rng); *extra, t = draw(rng); u = random_tangent(x, rng, norm=t)

    in that generator order.  ``draw(rng)`` returns a tuple whose last
    entry is the norm of u; ``drawn`` holds one array per entry.  A block
    holds at most SAMPLE_BLOCK pairs.

    Raises:
        ParameterError: a rescaled tangent fails its check, as in
            :func:`random_tangent`.
    """
    kind = desc.kind
    for start in range(0, samples, SAMPLE_BLOCK):
        points, values, tangents = [], [], []
        for _ in range(min(SAMPLE_BLOCK, samples - start)):
            points.append(rng.standard_normal(desc.shape))
            values.append(draw(rng))
            tangents.append(rng.standard_normal(desc.shape))
        X = points_from(kind, np.array(points))
        drawn = tuple(np.array(column) for column in zip(*values))
        yield X, tangents_from(kind, X, np.array(tangents), drawn[-1]), drawn


def estimate_retraction_constants(
    desc: ManifoldDescriptor, samples: int, rng_seed: int
) -> RetractionConstants:
    """Empirical retraction constants from seeded sampling.

    Draws ``samples`` pairs (x, u) with ||u|| <= 1 and returns

        alpha = max ||R_x(u) - x|| / ||u||,
        beta  = max ||R_x(u) - x - u|| / ||u||^2.

    The returned values are lower bounds on the true suprema; callers
    should multiply by a safety factor.
    """
    if samples < 100:
        raise ParameterError("samples must be >= 100")
    rng = np.random.default_rng(rng_seed)
    alpha = 0.0
    beta = 0.0
    for X, U, _ in tangent_blocks(desc, rng, samples, lambda rng: (rng.uniform(1e-4, 1.0),)):
        Y = retr(desc.kind, X, U)
        check_point(desc.kind, Y)
        nu = fro(U)
        alpha = sup(alpha, fro(Y - X) / nu)
        beta = sup(beta, fro(Y - X - U) / squares(nu))
    return RetractionConstants(alpha=max(alpha, 1e-12), beta=max(beta, 1e-12))

