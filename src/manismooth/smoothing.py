"""Proximal operators, Moreau envelopes, and the smoothed objective.

The nonsmooth term h is either a Lipschitz regularizer with an exact
proximal map (scaled l1, scaled l2) or the indicator of a simple convex
set (ball, box, singleton), whose prox is the Euclidean projection.

For mu > 0 the Moreau envelope

    h_mu(y) = inf_z  h(z) + ||z - y||^2 / (2 mu)

is differentiable with gradient (y - prox_{mu h}(y)) / mu, and the
gradient is (1/mu)-Lipschitz.  For indicators the envelope equals the
scaled squared distance dist^2(y, C) / (2 mu); it is computed in that
form directly to avoid cancellation at small mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .manifolds import ManifoldPoint, TangentVector, check_tangent, proj


def _norm(y: np.ndarray):
    """Euclidean norm over the last axis, one BLAS dot per row: a scalar for one vector."""
    return np.sqrt(y.dot(y) if y.ndim == 1 else np.vecdot(y, y))


def _rows(values):
    """Per-row results as they are for a stack; one vector's 0-d result as a Python scalar."""
    return values.item() if values.ndim == 0 else values


class NonsmoothTerm:
    """Base class: a convex h with exact prox.

    Subclasses implement ``value``, ``prox`` and ``in_subdifferential``;
    the indicator of a set is an :class:`IndicatorTerm`, which also
    exposes the set projection/sampling the indicator solver uses.
    ``value`` and ``prox`` also accept a stack ``(..., m)`` of vectors and
    act on each row, each result equal to the call on that row alone, bit
    for bit; one vector's ``value`` is a Python float.
    """

    @property
    def lipschitz_const(self) -> float:
        """l2 Lipschitz modulus of h (0 sentinel for indicators)."""
        return 0.0

    def value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, mu: float, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_subdifferential(self, y, z, tol: float = 1e-8, rng=None) -> bool:
        """Numerical membership test z in dh(y)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScaledL1(NonsmoothTerm):
    """h(y) = lam * ||y||_1 on R^dim."""

    lam: float
    dim: int

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError("lam must be nonnegative")
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")

    @property
    def lipschitz_const(self) -> float:
        # l2->l2 modulus of lam * ||.||_1 on R^dim.
        return self.lam * np.sqrt(self.dim)

    def value(self, y):
        return _rows(self.lam * np.sum(np.abs(y), axis=-1))

    def prox(self, mu, y):
        t = mu * self.lam
        return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)

    def in_subdifferential(self, y, z, tol=1e-8, rng=None):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if np.any(np.abs(z) > self.lam + tol):
            return False
        active = np.abs(y) > tol
        return bool(np.all(np.abs(z[active] - self.lam * np.sign(y[active])) <= tol))


@dataclass(frozen=True)
class ScaledL2(NonsmoothTerm):
    """h(y) = lam * ||y||_2."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError("lam must be nonnegative")

    @property
    def lipschitz_const(self) -> float:
        return self.lam

    def value(self, y):
        return _rows(self.lam * _norm(np.asarray(y, dtype=float)))

    def prox(self, mu, y):
        y = np.asarray(y, dtype=float)
        t = mu * self.lam
        nrm = _norm(y)
        shrunk = nrm > t  # a row no longer than t, a zero row among them, maps to 0 and is never divided by
        return np.where(shrunk[..., None], (1.0 - t / np.where(shrunk, nrm, 1.0))[..., None] * y, 0.0)

    def in_subdifferential(self, y, z, tol=1e-8, rng=None):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if np.linalg.norm(y) > tol:
            return bool(np.linalg.norm(z - self.lam * y / np.linalg.norm(y)) <= tol)
        return bool(np.linalg.norm(z) <= self.lam + tol)


class IndicatorTerm(NonsmoothTerm):
    """Indicator of a convex set C; prox is the projection onto C.

    ``project``, ``residual``, ``distance``, ``contains`` and ``value``
    also accept a stack ``(..., m)`` of vectors and act on each row; every
    row equals the call on that row alone, bit for bit.
    """

    def project(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, y, tol: float = 1e-9):
        """Whether y lies in C, to tol relative to 1 + ||y||: a bool for one vector, a bool array for a stack."""
        y = np.asarray(y, dtype=float)
        return _rows(_norm(y - self.project(y)) <= tol * (1.0 + _norm(y)))

    def sample_member(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def value(self, y):
        return _rows(np.where(self.contains(y), 0.0, np.inf))

    def prox(self, mu, y):
        return self.project(np.asarray(y, dtype=float))

    def residual(self, y):
        """y - P_C(y) and its norm dist(y, C): a float for one vector, an array for a stack."""
        y = np.asarray(y, dtype=float)
        r = y - self.project(y)
        return r, _norm(r)

    def distance(self, y):
        """dist(y, C): a float for one vector, an array for a stack."""
        return self.residual(y)[1]

    def in_subdifferential(self, y, z, tol=1e-8, rng=None):
        # dh(y) is the normal cone N_C(y): require <z, w - y> <= tol for
        # 100 sampled members w of C.
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if not self.contains(y, tol=tol):
            return False
        rng = np.random.default_rng(0) if rng is None else rng
        for _ in range(100):
            w = self.sample_member(rng)
            if float(np.dot(z, w - y)) > tol:
                return False
        return True


@dataclass(frozen=True)
class IndicatorBall(IndicatorTerm):
    """Indicator of the closed Euclidean ball {y : ||y - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).ravel())
        if self.radius <= 0:
            raise ParameterError("radius must be positive")

    def project(self, y):
        y = np.asarray(y, dtype=float)
        d = y - self.center
        nrm = _norm(d)
        inside = nrm <= self.radius
        n_inside = np.count_nonzero(inside)
        if n_inside == inside.size:
            return y.copy()
        if n_inside:  # only an inside row can have a zero norm: keep it out of the division
            nrm = np.where(inside, self.radius, nrm)
        moved = self.center + (self.radius / nrm)[..., None] * d
        return np.where(inside[..., None], y, moved) if n_inside else moved

    def sample_member(self, rng):
        m = self.center.size
        direction = rng.standard_normal(m)
        direction /= np.linalg.norm(direction)
        r = self.radius * rng.uniform() ** (1.0 / m)
        return self.center + r * direction


@dataclass(frozen=True)
class IndicatorBox(IndicatorTerm):
    """Indicator of the box {y : lower <= y <= upper} (finite bounds)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ShapeMismatchError("box bounds have different shapes")
        if np.any(lo > hi):
            raise ParameterError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, y):
        return np.clip(np.asarray(y, dtype=float), self.lower, self.upper)

    def sample_member(self, rng):
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True)
class IndicatorSingleton(IndicatorTerm):
    """Indicator of the single point {target}."""

    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float).ravel())

    def project(self, y):
        return np.broadcast_to(self.target, np.shape(y)).copy()

    def sample_member(self, rng):
        return self.target.copy()


@dataclass(frozen=True)
class MoreauEval:
    """Envelope value, gradient, and prox point at one input."""

    value: float
    grad: np.ndarray
    prox_point: np.ndarray


def prox(h: NonsmoothTerm, mu: float, y) -> np.ndarray:
    """Exact minimizer of h(z) + ||z - y||^2 / (2 mu)."""
    if mu <= 0:
        raise ParameterError("mu must be positive")
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ParameterError("prox input must be finite")
    return h.prox(mu, y)


def moreau_eval(h: NonsmoothTerm, mu: float, y) -> MoreauEval:
    """Evaluate the Moreau envelope of h at y: value, gradient, prox point."""
    if mu <= 0:
        raise ParameterError("mu must be positive")
    y = np.asarray(y, dtype=float)
    p = h.prox(mu, y)
    diff = y - p
    if isinstance(h, IndicatorTerm):
        value = float(diff @ diff) / (2.0 * mu)
    else:
        value = h.value(p) + float(diff @ diff) / (2.0 * mu)
    return MoreauEval(value=value, grad=diff / mu, prox_point=p)


def moreau_envelope_inequality_check(h: NonsmoothTerm, mu1: float, mu2: float, y) -> bool:
    """Check the two-parameter envelope comparison inequality at y.

    For 0 < mu2 <= mu1 the envelope satisfies

        h_{mu2}(y) <= h_{mu1}(y) + (1/2) ((mu1 - mu2)/mu2) mu1 ||grad h_{mu1}(y)||^2

    with the right-hand side specialized to l_h^2 for Lipschitz h and to
    (1/2)(1/mu2 - 1/mu1) dist^2(y, C) for indicators.  Returns whether
    every applicable form holds with slack 1e-10.
    """
    if not 0 < mu2 <= mu1:
        raise ParameterError("need 0 < mu2 <= mu1")
    slack = 1e-10
    e1 = moreau_eval(h, mu1, y)
    e2 = moreau_eval(h, mu2, y)
    g1_sq = float(e1.grad @ e1.grad)
    rhs = e1.value + 0.5 * ((mu1 - mu2) / mu2) * mu1 * g1_sq
    ok = e2.value <= rhs + slack
    if isinstance(h, IndicatorTerm):
        dist_sq = float(np.sum((np.asarray(y, dtype=float) - e1.prox_point) ** 2))
        rhs_ind = e1.value + 0.5 * (1.0 / mu2 - 1.0 / mu1) * dist_sq
        ok = ok and e2.value <= rhs_ind + slack
    elif h.lipschitz_const > 0:
        rhs_lip = e1.value + 0.5 * ((mu1 - mu2) / mu2) * mu1 * h.lipschitz_const**2
        ok = ok and e2.value <= rhs_lip + slack
    return bool(ok)


def smoothed_grad(problem, X: np.ndarray, mu: float, egrad: np.ndarray):
    """c(X), the Moreau evaluation of h there and grad F_mu(X), given point data X and egrad = grad f(X).

    The Riemannian gradient of F_mu = f + h_mu(c(.)) is the tangent
    projection of egrad + Dc(X)^T grad h_mu(c(X)), returned as an ndarray;
    callers that also need egrad itself evaluate the full gradient once
    and pass it in.

    Raises:
        ParameterError: mu is not positive, c(X) is not finite, or the
            gradient fails the tangent check (it is not finite).
    """
    y = problem.c_eval(X)
    if not np.all(np.isfinite(y)):
        raise ParameterError("c(x) must be finite")
    e = moreau_eval(problem.h, mu, y)
    kind = problem.manifold.kind
    rgrad = proj(kind, X, egrad + problem.c_jac_t(X, e.grad))
    check_tangent(kind, X, rgrad)
    return y, e, rgrad


def smoothed_objective_grad(problem, x: ManifoldPoint, mu: float):
    """Value, Riemannian gradient, and infeasibility of the smoothed objective.

    Uses the full (deterministic) gradient of the smooth part; intended
    for diagnostics, never for the solver hot path.

    Returns:
        (value, rgrad, infeas) where value = f(x) + h_mu(c(x)), rgrad is
        the tangent projection of grad f(x) + Dc(x)^T grad h_mu(c(x)),
        and infeas = ||c(x) - prox_{mu h}(c(x))||.

    Raises:
        ParameterError: mu is not positive, or c(x) is not finite.
    """
    y, e, rgrad = smoothed_grad(problem, x.data, mu, problem.full_egrad(x.data))
    value = problem.full_value(x.data) + e.value
    return value, TangentVector(x.descriptor, x, rgrad), float(np.linalg.norm(y - e.prox_point))
