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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .manifolds import (
    ManifoldDescriptor,
    ManifoldPoint,
    RetractionConstants,
    TangentVector,
    _inner,
    _lift,
    _mm,
    check_point,
    check_tangent,
    fro,
    proj,
    retr,
    sphere,
    squares,
    stiefel,
    sup,
    tangent_blocks,
    tangent_project,
)
from .smoothing import IndicatorTerm, NonsmoothTerm, ScaledL1


@dataclass(frozen=True)
class ProblemConstants:
    """Empirical problem constants, all six estimated together by
    :func:`estimate_constants`; lower bounds on the true suprema.

    ``L_f``: max gradient norm of f.  ``L_c`` / ``L_grad_c``: Lipschitz
    moduli of c and of its Jacobian.  ``L_tilde``: average-smoothness
    modulus of the sample gradients along retracted pairs.  ``sigma``:
    max deviation of a sample gradient from the full one.  ``L_retr``:
    retraction-smoothness constant of f.
    """

    L_f: float
    L_c: float
    L_grad_c: float
    L_tilde: float
    sigma: float
    L_retr: float

    def __post_init__(self):
        for name in ("L_f", "L_c", "L_grad_c", "L_tilde", "sigma", "L_retr"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class StochasticProblem:
    """Finite-sum smooth part + nonlinear map + nonsmooth term.

    Five evaluators: the stochastic gradient oracle ``sample_egrad`` (the
    only per-sample evaluator; no step asks for a sample value), the full
    ``full_value``/``full_egrad`` of diagnostics and estimators, and
    ``c_eval``/``c_jac_t``.  They take and return raw ndarrays shaped
    like point data; sample indices are 0-based ints in range(num_samples).

    Every evaluator also accepts a stack of points ``(..., n, p)``:
    ``sample_egrad`` then takes an index array of the stack's leading
    shape, ``c_jac_t`` a ``(..., m)`` array of vectors, and each result
    carries the leading axes (a result that does not depend on an
    argument may broadcast against them instead): ``full_value``
    ``(...)``, gradients ``(..., n, p)``, ``c_eval`` ``(..., m)``.  Each
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
    full_value: Callable[[np.ndarray], float]
    full_egrad: Callable[[np.ndarray], np.ndarray]
    c_eval: Callable[[np.ndarray], np.ndarray]
    c_jac_t: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: int
    h: NonsmoothTerm
    name: str = "custom"

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.num_samples:
            raise IndexError(f"sample index {i} out of range(0, {self.num_samples})")


def sample_riemannian_grad(problem: StochasticProblem, x: ManifoldPoint, i: int) -> TangentVector:
    """Riemannian gradient of the i-th sample function at x."""
    problem.check_index(i)
    if x.descriptor != problem.manifold:
        raise ShapeMismatchError("point does not live on the problem manifold")
    return tangent_project(x, problem.sample_egrad(x.data, i))


def make_sparse_pca(n: int, p: int, N: int, lam: float, seed: int) -> StochasticProblem:
    """Sparse PCA on St(n, p): f_i(X) = -||a_i^T X||^2 / 2, h = lam ||.||_1.

    Data rows are seeded standard Gaussians; c is the identity on the
    flattened point.  Deterministic given the seed.
    """
    if not (N >= 1 and n >= p >= 1):
        raise ParameterError("need N >= 1 and n >= p >= 1")
    if lam < 0:
        raise ParameterError("lam must be nonnegative")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, n))
    cov = A.T @ A / N

    def sample_egrad(xd, i):
        a = A[i][..., None]
        return -a * _mm(a.mT, xd)

    def full_value(xd):
        return -0.5 * np.sum(xd * _mm(cov, xd), axis=(-2, -1))

    def full_egrad(xd):
        return -_mm(cov, xd)  # negating the product, not the n x n covariance

    def c_eval(xd):
        return xd.reshape(*xd.shape[:-2], n * p).copy()

    def c_jac_t(xd, v):
        return v.reshape(*v.shape[:-1], n, p)

    return StochasticProblem(
        manifold=stiefel(n, p),
        num_samples=N,
        sample_egrad=sample_egrad,
        full_value=full_value,
        full_egrad=full_egrad,
        c_eval=c_eval,
        c_jac_t=c_jac_t,
        m=n * p,
        h=ScaledL1(lam, n * p),
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
    if not (N >= 1 and n >= 2 and m >= 1):
        raise ParameterError("need N >= 1, n >= 2, m >= 1")
    if not isinstance(set_term, IndicatorTerm):
        raise ParameterError("set_term must be an indicator variant")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, n))
    b = rng.standard_normal(N)
    B = rng.standard_normal((m, n)) / np.sqrt(n) if linear_map is None else np.asarray(linear_map, dtype=float)
    if B.shape != (m, n):
        raise ShapeMismatchError(f"linear_map must have shape ({m}, {n})")
    W = quad_weight * rng.standard_normal((m, n)) / np.sqrt(n)

    b_col = b[:, None]

    def sample_egrad(xd, i):
        a = A[i][..., None]
        return _lift(_inner(a, xd) - b[i]) * a

    def full_value(xd):
        r = _mm(A, xd)[..., 0] - b
        return 0.5 * np.vecdot(r, r) / N

    def full_egrad(xd):
        return _mm(A.T, _mm(A, xd) - b_col) / N

    def c_eval(xd):
        return (_mm(B, xd) + _mm(W, xd * xd))[..., 0]

    def c_jac_t(xd, v):
        v = v[..., None]
        return _mm(B.T, v) + 2.0 * xd * _mm(W.T, v)

    return StochasticProblem(
        manifold=sphere(n),
        num_samples=N,
        sample_egrad=sample_egrad,
        full_value=full_value,
        full_egrad=full_egrad,
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
    samples are evaluated in stacked blocks (see
    :func:`.manifolds.tangent_blocks`); every value equals that of the
    one-sample-at-a-time loop.
    """
    if samples < 100:
        raise ParameterError("samples must be >= 100")
    rng = np.random.default_rng(seed)
    kind = problem.manifold.kind
    L_f = sigma = L_tilde = L_c = L_grad_c = L_retr = 0.0

    def draw(rng):
        return rng.integers(problem.num_samples), rng.uniform(0.05, 0.5)

    for X, Z, (idx, _) in tangent_blocks(problem.manifold, rng, samples, draw):
        g_full = problem.full_egrad(X)
        L_f = sup(L_f, fro(g_full))
        gr_full = proj(kind, X, g_full)
        gr_i = proj(kind, X, problem.sample_egrad(X, idx))
        sigma = sup(sigma, fro(gr_i - gr_full))

        Y = retr(kind, X, Z)
        check_point(kind, Y)
        # average-smoothness quotient, transporting the far gradient back to x
        gy_i = proj(kind, Y, problem.sample_egrad(Y, idx))
        moved = proj(kind, X, gy_i)
        for at, v in ((X, gr_full), (X, gr_i), (Y, gy_i), (X, moved)):
            check_tangent(kind, at, v)
        nz = fro(Z)
        L_tilde = sup(L_tilde, fro(gr_i - moved) / nz)
        # retraction-smoothness quotient of f along the same pair
        lin = np.sum(gr_full * Z, axis=(-2, -1))
        L_retr = sup(L_retr, 2.0 * (problem.full_value(Y) - problem.full_value(X) - lin) / squares(nz))

        Jx = _jacobian(problem, X)
        Jy = _jacobian(problem, Y)
        L_c = sup(L_c, _spectral_norm(Jx))
        step = fro(Y - X)
        far = step > 1e-12
        L_grad_c = sup(L_grad_c, np.broadcast_to(_spectral_norm(Jx - Jy), step.shape)[far] / step[far])
    return ProblemConstants(
        L_f=L_f, L_c=L_c, L_grad_c=L_grad_c, L_tilde=L_tilde, sigma=sigma, L_retr=max(L_retr, 0.0)
    )


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
