"""Stochastic problem definitions and built-in synthetic families.

A problem bundles a finite-sum smooth part f(x) = (1/N) sum_i f_i(x)
with per-sample Euclidean gradients, a nonlinear map c into R^m with
Jacobian-transpose products, and a nonsmooth term h applied to c(x).
The sampling distribution is uniform over the N samples, which makes
gradient unbiasedness an exact finite-sum identity.

Two seeded generators are provided:

- ``make_sparse_pca``: variance maximization with an l1 regularizer on
  the Stiefel manifold (c = identity),
- ``make_constrained_sphere``: least squares on the sphere with a
  genuinely nonlinear constraint map c(x) = B x + W (x * x) and an
  indicator-of-convex-set term.

Both fix data only; they solve nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .manifolds import (
    MIN_SAMPLES,
    ManifoldDescriptor,
    ManifoldPoint,
    RetractionConstants,
    TangentVector,
    _dot,
    _inner,
    _lift,
    _matmul,
    _peak,
    check_tangent,
    fro,
    proj,
    sphere,
    stiefel,
    tangent_blocks,
    tangent_project,
)
from .smoothing import IndicatorTerm, NonsmoothTerm, ScaledL1


@dataclass(frozen=True)
class ProblemConstants:
    """Empirical problem constants, all five estimated together by
    :func:`estimate_constants`; lower bounds on the true suprema.

    ``L_f``: max gradient norm of f.  ``L_c`` / ``L_grad_c``: Lipschitz
    moduli of c and of its Jacobian.  ``L_tilde``: average-smoothness
    modulus of the sample gradients along retracted pairs.  ``L_retr``:
    retraction-smoothness constant of f.
    """

    L_f: float
    L_c: float
    L_grad_c: float
    L_tilde: float
    L_retr: float

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) >= 0:  # NaN fails every comparison
                raise ParameterError(f"{f.name} must be nonnegative", field=f.name)


@dataclass(frozen=True, eq=False)
class StochasticProblem:
    """Finite-sum smooth part + nonlinear map + nonsmooth term.

    Four required evaluators: the stochastic gradient oracle
    ``sample_egrad`` (the only per-sample evaluator; no step asks for a
    sample value), ``full_value_egrad`` (f and grad f from one pass over
    the data, the one full-data evaluator) and ``c_eval``/``c_jac_t``.
    Evaluators take and return raw ndarrays shaped like point data;
    sample indices are 0-based ints in range(num_samples).  One optional
    half, ``full_egrad`` (grad f alone, for the certificate), defaults to
    the gradient of ``full_value_egrad``.  Neither built-in family supplies
    its own; one that does must give the same bits.  The half is derived at
    construction, so a ``dataclasses.replace`` that swaps
    ``full_value_egrad`` keeps the old one unless it also passes
    ``full_egrad=None``, which derives it again.

    Every evaluator also accepts a stack of points ``(..., n, p)``:
    ``sample_egrad`` then takes an index array of the stack's leading
    shape, ``c_jac_t`` a ``(..., m)`` array of vectors, and each result
    carries the leading axes (a result that does not depend on an
    argument may broadcast against them instead): values ``(...)``,
    gradients ``(..., n, p)``, ``c_eval`` ``(..., m)``.  Each
    slice of a stacked result must equal the call on that slice alone,
    bit for bit; the sampling estimators rely on it.  The built-in
    families keep it by the one-matrix rule of :mod:`.manifolds`: each
    product is written once, and a one-point call computes it with
    ``ndarray.dot`` where a stack uses ``@`` (or ``np.vecdot``), with the
    same bits.  ``test_stacked_evaluators_equal_per_point`` in
    ``tests/test_problems.py`` pins it at the benchmark's instances.
    """

    manifold: ManifoldDescriptor
    num_samples: int
    sample_egrad: Callable[[np.ndarray, int], np.ndarray]
    full_value_egrad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    c_eval: Callable[[np.ndarray], np.ndarray]
    c_jac_t: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: int
    h: NonsmoothTerm
    name: str = "custom"
    full_egrad: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        value_egrad = self.full_value_egrad  # not self, which the closure would hold in a cycle
        if self.full_egrad is None:
            object.__setattr__(self, "full_egrad", lambda xd: value_egrad(xd)[1])


def sample_riemannian_grad(problem: StochasticProblem, x: ManifoldPoint, i: int) -> TangentVector:
    """Riemannian gradient of the i-th sample function at x."""
    if not 0 <= i < problem.num_samples:
        raise IndexError(f"sample index {i} out of range(0, {problem.num_samples})")
    if x.descriptor != problem.manifold:
        raise ShapeMismatchError("point does not live on the problem manifold")
    return tangent_project(x, problem.sample_egrad(x.data, i))


def make_sparse_pca(n: int, p: int, N: int, lam: float, seed: int) -> StochasticProblem:
    """Sparse PCA on St(n, p): f_i(X) = -||a_i^T X||^2 / 2, h = lam ||.||_1.

    Data rows are seeded standard Gaussians; c is the identity on the
    flattened point.  Deterministic given the seed.
    """
    for field, ok in (("N", N >= 1), ("n", n >= p), ("p", p >= 1)):
        if not ok:
            raise ParameterError("need N >= 1 and n >= p >= 1", field=field)
    h = ScaledL1(lam, n * p)  # checks lam before the data are drawn
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, n))
    cov = A.T @ A / N
    m = n * p

    def sample_egrad(xd, i):
        a = A[i][..., None]
        mm = _dot if a.ndim == 2 and xd.ndim == 2 else _matmul
        return mm(-a, mm(a.mT, xd))  # a k = 1 product, not a broadcast multiply

    def full_value_egrad(xd):
        g = -(_dot if xd.ndim == 2 else _matmul)(cov, xd)  # negating the product, not the n x n covariance
        return 0.5 * np.sum(xd * g, axis=(-2, -1)), g

    def c_eval(xd):
        return xd.reshape(xd.shape[:-2] + (m,)).copy()

    def c_jac_t(xd, v):
        return v.reshape(v.shape[:-1] + (n, p))

    return StochasticProblem(
        manifold=stiefel(n, p),
        num_samples=N,
        sample_egrad=sample_egrad,
        full_value_egrad=full_value_egrad,
        c_eval=c_eval,
        c_jac_t=c_jac_t,
        m=m,
        h=h,
        name="sparse_pca",
    )


def make_constrained_sphere(
    n: int,
    m: int,
    N: int,
    set_term: IndicatorTerm,
    seed: int,
    quad_weight: float = 1.0,
    linear_map: np.ndarray | None = None,
) -> StochasticProblem:
    """Least squares on S^{n-1} with a nonlinear constraint c(x) in C.

    f_i(x) = (a_i^T x - b_i)^2 / 2 with seeded Gaussian data, and
    c(x) = B x + quad_weight * W (x * x) mixes a linear map with an
    elementwise-square term so that c is genuinely nonlinear (the
    squares enter through a second seeded map W so shapes work for any
    m).  Pass quad_weight=0 and linear_map=I to recover a linear c.
    """
    for field, ok in (("N", N >= 1), ("n", n >= 2), ("m", m >= 1)):
        if not ok:
            raise ParameterError("need N >= 1, n >= 2, m >= 1", field=field)
    if not isinstance(set_term, IndicatorTerm):
        raise ParameterError("set_term must be an indicator variant")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, n))
    b = rng.standard_normal(N)
    B = rng.standard_normal((m, n)) / np.sqrt(n) if linear_map is None else np.asarray(linear_map, dtype=float)
    if B.shape != (m, n):
        raise ShapeMismatchError(f"linear_map must have shape ({m}, {n})")
    if not np.all(np.isfinite(B)):
        raise ParameterError("linear_map must be finite", field="linear_map")
    with np.errstate(over="ignore"):  # a finite quad_weight may still overflow W, or 2 W in c's Jacobian
        W = quad_weight * rng.standard_normal((m, n)) / np.sqrt(n)
        finite = np.all(np.isfinite(2.0 * W))
    if not finite:
        raise ParameterError("quad_weight must be finite, as must c's Jacobian B + 2 W diag(x)", field="quad_weight")

    b_col = b[:, None]
    AT, BT, WT = A.T, B.T, W.T

    def sample_egrad(xd, i):
        a = A[i][..., None]
        return _lift(_inner(a, xd) - b[i]) * a

    def full_value_egrad(xd):
        mm = _dot if xd.ndim == 2 else _matmul
        r = mm(A, xd) - b_col
        return 0.5 * np.vecdot(r[..., 0], r[..., 0]) / N, mm(AT, r) / N

    def c_eval(xd):
        mm = _dot if xd.ndim == 2 else _matmul
        return (mm(B, xd) + mm(W, xd * xd))[..., 0]

    def c_jac_t(xd, v):
        v = v[..., None]
        mm = _dot if v.ndim == 2 else _matmul
        return mm(BT, v) + 2.0 * xd * mm(WT, v)

    return StochasticProblem(
        manifold=sphere(n),
        num_samples=N,
        sample_egrad=sample_egrad,
        full_value_egrad=full_value_egrad,
        c_eval=c_eval,
        c_jac_t=c_jac_t,
        m=m,
        h=set_term,
        name="constrained_sphere",
    )


def _jacobian(problem: StochasticProblem, X: np.ndarray) -> np.ndarray:
    """Dense Jacobian of c at each point of X, ``(..., m, n p)``: one adjoint product with the rows of eye(m)."""
    J = problem.c_jac_t(X[..., None, :, :], np.eye(problem.m))
    return J.reshape(*J.shape[:-2], -1)


def _spectral_norm(J: np.ndarray) -> np.ndarray:
    return np.linalg.svd(J, compute_uv=False).max(axis=-1)


def estimate_constants(problem: StochasticProblem, samples: int, seed: int) -> ProblemConstants:
    """Empirical problem constants from seeded sampling.

    Maximizes the relevant quotient over ``samples`` random points (and
    retracted pairs / sample indices where applicable).  Estimates are
    lower bounds on the true suprema; multiply by a safety factor.  The
    points, then the sample indices and step norms, then the tangents are
    drawn as one :func:`.manifolds.tangent_blocks` pass and evaluated in
    its stacked blocks.
    """
    if samples < MIN_SAMPLES:
        raise ParameterError(f"samples must be >= {MIN_SAMPLES}")
    rng = np.random.default_rng(seed)
    kind = problem.manifold.kind
    L_f = L_tilde = L_c = L_grad_c = L_retr = 0.0

    def draw(rng, size):
        return rng.integers(problem.num_samples, size=size), rng.uniform(0.05, 0.5, size)

    for X, Z, Y, (idx, _) in tangent_blocks(problem.manifold, rng, samples, draw):
        f_x, g_full = problem.full_value_egrad(X)
        L_f = _peak(L_f, fro(g_full))
        gr_full = proj(kind, X, g_full)
        gr_i = proj(kind, X, problem.sample_egrad(X, idx))

        # average-smoothness quotient, transporting the far gradient back to x
        gy_i = proj(kind, Y, problem.sample_egrad(Y, idx))
        moved = proj(kind, X, gy_i)
        for at, v in ((X, gr_full), (X, gr_i), (Y, gy_i), (X, moved)):
            check_tangent(kind, at, v)
        nz = fro(Z)
        L_tilde = _peak(L_tilde, fro(gr_i - moved) / nz)
        # retraction-smoothness quotient of f along the same pair
        lin = np.sum(gr_full * Z, axis=(-2, -1))
        L_retr = _peak(L_retr, 2.0 * (problem.full_value_egrad(Y)[0] - f_x - lin) / (nz * nz))

        Jx = _jacobian(problem, X)
        Jy = _jacobian(problem, Y)
        L_c = _peak(L_c, _spectral_norm(Jx))
        step = fro(Y - X)
        far = step > 1e-12
        L_grad_c = _peak(L_grad_c, np.broadcast_to(_spectral_norm(Jx - Jy), step.shape)[far] / step[far])
    return ProblemConstants(L_f=L_f, L_c=L_c, L_grad_c=L_grad_c, L_tilde=L_tilde, L_retr=max(L_retr, 0.0))


def retr_smooth_bound(consts: ProblemConstants, rc: RetractionConstants, level: float, safety: float) -> float:
    """mu times the retraction-smoothness constant of F_mu, from estimated constants inflated by ``safety``.

    ``level`` is l_h for a Lipschitz h and a bound on dist(c(x), C) for an indicator h.
    """
    L = safety * consts.L_retr
    L_c = safety * consts.L_c
    L_gc = safety * consts.L_grad_c
    alpha = safety * rc.alpha
    beta = safety * rc.beta
    return L + alpha**2 * (L_c**2 + level * L_gc) + 2.0 * L_c * level * beta
