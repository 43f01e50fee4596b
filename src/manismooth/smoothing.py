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

:func:`prox`, :func:`moreau_eval`, :func:`moreau_envelope_inequality_check`
and every term's ``prox`` take one vector ``y`` or a stack ``(..., m)`` of
them, with ``mu`` a scalar or an array of the stack's leading shape (one mu
per row).  Each row of a stacked result equals the one-row call bit for
bit; one vector's envelope value is a Python float and its inequality
verdict a bool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .manifolds import ManifoldPoint, TangentVector, check_tangent, proj


def _sq(y: np.ndarray):
    """Squared Euclidean norm over the last axis, one BLAS dot per row: a scalar for one vector."""
    return y.dot(y) if y.ndim == 1 else np.vecdot(y, y)


def _norm(y: np.ndarray):
    """Euclidean norm over the last axis, one BLAS dot per row: a scalar for one vector."""
    return np.sqrt(_sq(y))


def _rows(values):
    """Per-row results as they are for a stack; one vector's 0-d result as a Python scalar."""
    return values.item() if values.ndim == 0 else values


def _finite(field: str, value) -> np.ndarray:
    """``value`` as a flat float array; ParameterError naming ``field`` unless every entry is finite."""
    value = np.asarray(value, dtype=float).ravel()
    if not np.isfinite(value).all():
        raise ParameterError(f"{field} must be finite", field=field)
    return value


def _mu(mu, y: np.ndarray, name: str = "mu"):
    """``mu`` for the (stack of) vectors ``y``: a scalar, or one entry per row as an array of y's leading shape.

    A scalar (or 0-d array) is returned as a Python float.  Raises ParameterError (field "mu")
    unless every entry is finite and positive, and ShapeMismatchError for an array of another shape.
    Off the solver step, which calls ``h.prox`` directly (BENCH_fast_paths.json "mu_scalar_branch").
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 0:
        mu = mu.item()
    elif mu.shape != y.shape[:-1]:
        raise ShapeMismatchError(f"{name} has shape {mu.shape}; one per row of y needs {y.shape[:-1]}")
    if not np.all((0 < mu) & (mu < math.inf)):  # NaN fails every comparison
        raise ParameterError(f"{name} must be finite and positive", field="mu")
    return mu


def _checked(mu, y, what: str):
    """(mu, y) checked as :func:`_mu` does, with y as a float array; ParameterError unless y is finite."""
    y = np.asarray(y, dtype=float)
    mu = _mu(mu, y)
    if not np.isfinite(y).all():
        raise ParameterError(f"{what} input must be finite")
    return mu, y


class NonsmoothTerm:
    """Base class: a convex h with exact prox.

    Subclasses implement ``value``, ``prox`` and ``in_subdifferential``,
    an exact membership test that reads no random stream; the indicator
    of a set is an :class:`IndicatorTerm`, which also exposes the set
    projection the indicator solver uses.
    ``value`` and ``prox`` also accept a stack ``(..., m)`` of vectors and
    act on each row, each result equal to the call on that row alone, bit
    for bit; one vector's ``value`` is a Python float.  ``prox`` takes
    ``mu`` as a scalar or as an array of the stack's leading shape, one mu
    per row.
    """

    @property
    def lipschitz_const(self) -> float:
        """l2 Lipschitz modulus of h (0 sentinel for indicators)."""
        return 0.0

    def value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, mu: float, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_subdifferential(self, y, z, tol: float = 1e-8) -> bool:
        """Whether z lies in dh(y), to ``tol``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScaledL1(NonsmoothTerm):
    """h(y) = lam * ||y||_1 on R^dim."""

    lam: float
    dim: int

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:  # NaN fails every comparison
            raise ParameterError("lam must be finite and nonnegative", field="lam")
        if self.dim < 1:
            raise ParameterError("dim must be >= 1", field="dim")

    @property
    def lipschitz_const(self) -> float:
        # l2->l2 modulus of lam * ||.||_1 on R^dim.
        return self.lam * np.sqrt(self.dim)

    def value(self, y):
        return _rows(self.lam * np.sum(np.abs(y), axis=-1))

    def prox(self, mu, y):
        t = mu * self.lam
        if type(t) is np.ndarray:  # one mu per row
            t = t[..., None]
        return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)

    def in_subdifferential(self, y, z, tol=1e-8):
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
        if not 0 <= self.lam < math.inf:
            raise ParameterError("lam must be finite and nonnegative", field="lam")

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

    def in_subdifferential(self, y, z, tol=1e-8):
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

    def in_subdifferential(self, y, z, tol=1e-8):
        """Whether z lies in the normal cone N_C(y): y in C and P_C(y + z) = y (the projection theorem).

        Both hold to ``tol`` relative to 1 + ||y||, the measure of :meth:`contains`.
        """
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return bool(self.contains(y, tol=tol) and _norm(self.project(y + z) - y) <= tol * (1.0 + _norm(y)))


@dataclass(frozen=True)
class IndicatorBall(IndicatorTerm):
    """Indicator of the closed Euclidean ball {y : ||y - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite("center", self.center))
        if not 0 < self.radius < math.inf:
            raise ParameterError("radius must be finite and positive", field="radius")

    def project(self, y):
        y = np.asarray(y, dtype=float)
        d = y - self.center
        if y.ndim == 1:  # the solver's one vector: a Python-float test (BENCH_fast_paths.json "ball_one_vector")
            nrm = math.sqrt(d.dot(d))
            return y.copy() if nrm <= self.radius else self._onto_sphere(d, self.radius / nrm)
        nrm = _norm(d)
        inside = nrm <= self.radius  # only an inside row can have a zero norm: keep it out of the division
        moved = self._onto_sphere(d, (self.radius / np.where(inside, self.radius, nrm))[..., None])
        return np.where(inside[..., None], y, moved)

    def _onto_sphere(self, d, scale):
        """center + scale d, the boundary point along d for scale = radius / ||d|| (one per row of a stack)."""
        return self.center + scale * d


@dataclass(frozen=True)
class IndicatorBox(IndicatorTerm):
    """Indicator of the box {y : lower <= y <= upper} (finite bounds)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _finite("lower", self.lower)
        hi = _finite("upper", self.upper)
        if lo.shape != hi.shape:
            raise ShapeMismatchError("box bounds have different shapes")
        if np.any(lo > hi):
            raise ParameterError("box requires lower <= upper componentwise", field="lower")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, y):
        return np.clip(np.asarray(y, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class IndicatorSingleton(IndicatorTerm):
    """Indicator of the single point {target}."""

    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", _finite("target", self.target))

    def project(self, y):
        return np.broadcast_to(self.target, np.shape(y)).copy()


@dataclass(frozen=True)
class MoreauEval:
    """Envelope value, gradient, and prox point at one input."""

    value: float
    grad: np.ndarray
    prox_point: np.ndarray


def prox(h: NonsmoothTerm, mu, y) -> np.ndarray:
    """Exact minimizer of h(z) + ||z - y||^2 / (2 mu), per row for a stack y with a scalar or per-row mu.

    Raises ParameterError unless every mu is finite and positive and y is finite.
    """
    mu, y = _checked(mu, y, "prox")
    return h.prox(mu, y)


def moreau_eval(h: NonsmoothTerm, mu, y) -> MoreauEval:
    """Evaluate the Moreau envelope of h at y: value, gradient, prox point.

    For a stack y each field holds one entry per row (values an array); mu is a scalar or one per row.
    Raises ParameterError unless every mu is finite and positive and y is finite.
    """
    mu, y = _checked(mu, y, "moreau_eval")
    p = h.prox(mu, y)
    diff = y - p
    value = _sq(diff) / (2.0 * mu)
    if not isinstance(h, IndicatorTerm):
        value = h.value(p) + value
    grad = diff / (mu[..., None] if type(mu) is np.ndarray else mu)
    return MoreauEval(value=_rows(value), grad=grad, prox_point=p)


def moreau_envelope_inequality_check(h: NonsmoothTerm, mu1, mu2, y):
    """Check the two-parameter envelope comparison inequality at y.

    For 0 < mu2 <= mu1 the envelope satisfies

        h_{mu2}(y) <= h_{mu1}(y) + (1/2) ((mu1 - mu2)/mu2) mu1 ||grad h_{mu1}(y)||^2

    with the right-hand side specialized to l_h^2 for Lipschitz h and to
    (1/2)(1/mu2 - 1/mu1) dist^2(y, C) for indicators.  Returns whether
    every applicable form holds with slack 1e-10: a bool for one vector,
    one verdict per row for a stack, with mu1 and mu2 scalars or per row.

    Raises:
        ParameterError: a mu is not finite and positive, mu2 > mu1 in some
            row, or y is not finite.
    """
    y = np.asarray(y, dtype=float)
    mu1, mu2 = _mu(mu1, y, "mu1"), _mu(mu2, y, "mu2")
    if not np.all(mu2 <= mu1):
        raise ParameterError("need 0 < mu2 <= mu1", field="mu")
    slack = 1e-10
    e1 = moreau_eval(h, mu1, y)
    e2 = moreau_eval(h, mu2, y)
    rhs = e1.value + 0.5 * ((mu1 - mu2) / mu2) * mu1 * _sq(e1.grad)
    ok = e2.value <= rhs + slack
    if isinstance(h, IndicatorTerm):
        rhs_ind = e1.value + 0.5 * (1.0 / mu2 - 1.0 / mu1) * _sq(y - e1.prox_point)
        ok &= e2.value <= rhs_ind + slack
    elif h.lipschitz_const > 0:
        rhs_lip = e1.value + 0.5 * ((mu1 - mu2) / mu2) * mu1 * h.lipschitz_const**2
        ok &= e2.value <= rhs_lip + slack
    return _rows(ok)


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
    try:
        e = moreau_eval(problem.h, mu, y)  # checks mu, then that c(x) is finite
    except ParameterError:
        if np.isfinite(y).all():
            raise
        raise ParameterError("c(x) must be finite") from None
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
    f, egrad = problem.full_value_egrad(x.data)
    y, e, rgrad = smoothed_grad(problem, x.data, mu, egrad)
    value = f + e.value
    return value, TangentVector(x.descriptor, x, rgrad), float(np.linalg.norm(y - e.prox_point))
