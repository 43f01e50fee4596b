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
``retr``) that the solver steps call directly; the typed functions are
validating shells over the kernels.

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRetractionError, ParameterError, ShapeMismatchError

SPHERE = "sphere"
STIEFEL = "stiefel"
OBLIQUE = "oblique"

# Constructor tolerances for the defining equations of points / tangents.
_POINT_TOL_SPHERE = 1e-12
_POINT_TOL_STIEFEL = 1e-10
_POINT_TOL_OBLIQUE = 1e-12
_TANGENT_TOL = 1e-10


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

    @property
    def ambient_dim(self) -> int:
        return self.n * self.p

    def diameter(self) -> float:
        """Extrinsic diameter max ||x - y|| over the manifold."""
        if self.kind == SPHERE:
            return 2.0
        # Columns of both factors are unit vectors, so ||X - Y||_F <= 2 sqrt(p),
        # attained at Y = -X.
        return 2.0 * np.sqrt(self.p)


def sphere(n: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(SPHERE, n, 1)


def stiefel(n: int, p: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(STIEFEL, n, p)


def oblique(n: int, p: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(OBLIQUE, n, p)


def _as_2d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def _as_matrix(desc: ManifoldDescriptor, data, what: str) -> np.ndarray:
    arr = _as_2d(data)
    if arr.shape != desc.shape:
        raise ShapeMismatchError(f"{what}: expected shape {desc.shape}, got {arr.shape}")
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a manifold, stored in its ambient embedding.

    The constructor validates the defining equation of the manifold;
    use :func:`project_point` to repair drifting data first if needed.
    """

    descriptor: ManifoldDescriptor
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_matrix(self.descriptor, self.data, "point"))
        kind = self.descriptor.kind
        x = self.data
        if kind == SPHERE:
            err = abs(np.linalg.norm(x) - 1.0)
            tol = _POINT_TOL_SPHERE
        elif kind == STIEFEL:
            err = np.linalg.norm(x.T @ x - np.eye(self.descriptor.p))
            tol = _POINT_TOL_STIEFEL
        else:
            err = np.max(np.abs(np.linalg.norm(x, axis=0) - 1.0))
            tol = _POINT_TOL_OBLIQUE
        if err > tol:
            raise ParameterError(f"{kind} point violates manifold equation by {err:.3e}")


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An element of the tangent space at ``base``."""

    descriptor: ManifoldDescriptor
    base: ManifoldPoint
    data: np.ndarray

    def __post_init__(self):
        if self.base.descriptor != self.descriptor:
            raise ShapeMismatchError("tangent vector descriptor differs from base point's")
        object.__setattr__(self, "data", _as_matrix(self.descriptor, self.data, "tangent"))
        x, v = self.base.data, self.data
        kind = self.descriptor.kind
        if kind == SPHERE:
            err = abs(float(np.vdot(x, v)))
        elif kind == STIEFEL:
            s = x.T @ v
            err = np.linalg.norm(s + s.T)
        else:
            err = np.max(np.abs(np.sum(x * v, axis=0)))
        if err > _TANGENT_TOL * max(1.0, np.linalg.norm(v)):
            raise ParameterError(f"vector is not tangent (violation {err:.3e})")

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def inner(self, other: "TangentVector") -> float:
        return float(np.sum(self.data * other.data))

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


def proj(kind: str, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Tangent projection at X; ``proj(kind, Y, V)`` is also the vector transport into T_Y M."""
    if kind == SPHERE:
        return V - float(np.vdot(X, V)) * X
    if kind == STIEFEL:
        s = X.T @ V
        return V - X @ ((s + s.T) / 2.0)
    return V - X * np.sum(X * V, axis=0)


def normalize(kind: str, Y: np.ndarray) -> np.ndarray:
    """Map ambient Y onto the manifold: normalize / thin-QR Q with positive-diagonal R / column normalize.

    Raises:
        DegenerateRetractionError: the sphere target has zero norm, an
            oblique column collapses, or Y is rank deficient.
    """
    if kind == SPHERE:
        nrm = np.linalg.norm(Y)
        if nrm < 1e-12:
            raise DegenerateRetractionError("sphere target has zero norm")
        return Y / nrm
    if kind == STIEFEL:
        q, r = np.linalg.qr(Y)
        diag = np.diag(r)
        if np.min(np.abs(diag)) < 1e-12:
            raise DegenerateRetractionError("rank-deficient Stiefel target")
        return q * np.where(diag < 0, -1.0, 1.0)
    nrms = np.linalg.norm(Y, axis=0)
    if np.min(nrms) < 1e-12:
        raise DegenerateRetractionError("oblique target collapses a column")
    return Y / nrms


def retr(kind: str, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """First-order retraction R_X(V) on raw arrays; X itself when V = 0."""
    if not V.any():
        return X
    return normalize(kind, X + V)


def tangent_project(x: ManifoldPoint, v) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at x."""
    v = _as_2d(v)
    if v.shape != x.descriptor.shape:
        raise ShapeMismatchError(f"ambient vector shape {v.shape} != point shape {x.descriptor.shape}")
    return TangentVector(x.descriptor, x, proj(x.descriptor.kind, x.data, v))


def riemannian_gradient(x: ManifoldPoint, euclid_grad) -> TangentVector:
    """Riemannian gradient from a Euclidean one: projection onto the tangent space."""
    return tangent_project(x, euclid_grad)


def zero_tangent(x: ManifoldPoint) -> TangentVector:
    return TangentVector(x.descriptor, x, np.zeros(x.descriptor.shape))


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


def project_point(desc: ManifoldDescriptor, data) -> ManifoldPoint:
    """Map nearby ambient data back onto the manifold (see :func:`normalize`)."""
    return ManifoldPoint(desc, normalize(desc.kind, _as_2d(data)))


def random_point(desc: ManifoldDescriptor, rng: np.random.Generator) -> ManifoldPoint:
    """Random point obtained by projecting standard Gaussian ambient data."""
    return project_point(desc, rng.standard_normal(desc.shape))


def random_tangent(x: ManifoldPoint, rng: np.random.Generator, norm: float | None = None) -> TangentVector:
    """Random tangent vector at x, optionally rescaled to a given norm."""
    v = tangent_project(x, rng.standard_normal(x.descriptor.shape))
    nrm = v.norm()
    if nrm < 1e-14:
        # Gaussian ambient data projects to zero with probability zero;
        # retry once rather than loop.
        v = tangent_project(x, rng.standard_normal(x.descriptor.shape))
        nrm = v.norm()
    if norm is None:
        return v
    return (norm / nrm) * v


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
    for _ in range(samples):
        x = random_point(desc, rng)
        u = random_tangent(x, rng, norm=float(rng.uniform(1e-4, 1.0)))
        y = retract(x, u)
        nu = u.norm()
        alpha = max(alpha, float(np.linalg.norm(y.data - x.data)) / nu)
        beta = max(beta, float(np.linalg.norm(y.data - x.data - u.data)) / nu**2)
    return RetractionConstants(alpha=max(alpha, 1e-12), beta=max(beta, 1e-12))
