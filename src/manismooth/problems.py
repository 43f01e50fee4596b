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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .manifolds import (
    ManifoldDescriptor,
    ManifoldPoint,
    RetractionConstants,
    TangentVector,
    random_point,
    random_tangent,
    retract,
    stiefel,
    sphere,
    tangent_project,
    vector_transport,
)
from .smoothing import IndicatorTerm, NonsmoothTerm, ScaledL1


@dataclass(frozen=True)
class ProblemConstants:
    """Empirical problem constants; lower bounds on the true suprema.

    ``L_f``: max gradient norm of f.  ``L_c`` / ``L_grad_c``: Lipschitz
    moduli of c and of its Jacobian.  ``L_tilde``: average-smoothness
    modulus of the sample gradients along retracted pairs.  ``sigma``:
    max deviation of a sample gradient from the full one.  ``L_retr``:
    retraction-smoothness constant of f.
    """

    L_f: float | None = None
    L_c: float | None = None
    L_grad_c: float | None = None
    L_tilde: float | None = None
    sigma: float | None = None
    L_retr: float | None = None

    def __post_init__(self):
        for name in ("L_f", "L_c", "L_grad_c", "L_tilde", "sigma", "L_retr"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ParameterError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class StochasticProblem:
    """Finite-sum smooth part + nonlinear map + nonsmooth term.

    Evaluators take and return raw ndarrays shaped like point data;
    sample indices are 0-based ints in range(num_samples).
    """

    manifold: ManifoldDescriptor
    num_samples: int
    sample_value: Callable[[np.ndarray, int], float]
    sample_egrad: Callable[[np.ndarray, int], np.ndarray]
    full_value: Callable[[np.ndarray], float]
    full_egrad: Callable[[np.ndarray], np.ndarray]
    c_eval: Callable[[np.ndarray], np.ndarray]
    c_jac_t: Callable[[np.ndarray, np.ndarray], np.ndarray]
    m: int
    h: NonsmoothTerm
    name: str = "custom"
    params: dict = field(default_factory=dict)
    constants: ProblemConstants | None = None

    def check_index(self, i: int) -> None:
        if not 0 <= i < self.num_samples:
            raise IndexError(f"sample index {i} out of range(0, {self.num_samples})")


def sample_riemannian_grad(problem: StochasticProblem, x: ManifoldPoint, i: int) -> TangentVector:
    """Riemannian gradient of the i-th sample function at x."""
    problem.check_index(i)
    if x.descriptor != problem.manifold:
        raise ShapeMismatchError("point does not live on the problem manifold")
    return tangent_project(x, problem.sample_egrad(x.data, i))


def full_riemannian_grad(problem: StochasticProblem, x: ManifoldPoint) -> TangentVector:
    """Riemannian gradient of the full smooth part at x (diagnostics)."""
    return tangent_project(x, problem.full_egrad(x.data))


def map_c_eval(problem: StochasticProblem, x: ManifoldPoint) -> np.ndarray:
    """Constraint/composition map value c(x) in R^m."""
    y = problem.c_eval(x.data)
    if y.shape != (problem.m,):
        raise ShapeMismatchError(f"c(x) has shape {y.shape}, expected ({problem.m},)")
    return y


def map_c_jac_t(problem: StochasticProblem, x: ManifoldPoint, v) -> np.ndarray:
    """Adjoint Jacobian product Dc(x)^T v as an ambient matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.m,):
        raise ShapeMismatchError(f"v has shape {v.shape}, expected ({problem.m},)")
    out = problem.c_jac_t(x.data, v)
    if out.shape != x.data.shape:
        raise ShapeMismatchError("Jacobian-transpose product has wrong shape")
    return out


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

    def sample_value(xd, i):
        r = A[i] @ xd
        return -0.5 * float(r @ r)

    def sample_egrad(xd, i):
        return -np.outer(A[i], A[i] @ xd)

    def full_value(xd):
        return -0.5 * float(np.sum(xd * (cov @ xd)))

    def full_egrad(xd):
        return -cov @ xd

    def c_eval(xd):
        return xd.ravel().copy()

    def c_jac_t(xd, v):
        return v.reshape(n, p)

    return StochasticProblem(
        manifold=stiefel(n, p),
        num_samples=N,
        sample_value=sample_value,
        sample_egrad=sample_egrad,
        full_value=full_value,
        full_egrad=full_egrad,
        c_eval=c_eval,
        c_jac_t=c_jac_t,
        m=n * p,
        h=ScaledL1(lam, n * p),
        name="sparse_pca",
        params={"n": n, "p": p, "N": N, "lambda": lam, "seed": seed},
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

    def sample_value(xd, i):
        r = float(A[i] @ xd.ravel()) - b[i]
        return 0.5 * r * r

    def sample_egrad(xd, i):
        r = float(A[i] @ xd.ravel()) - b[i]
        return (r * A[i]).reshape(n, 1)

    def full_value(xd):
        r = A @ xd.ravel() - b
        return 0.5 * float(r @ r) / N

    def full_egrad(xd):
        r = A @ xd.ravel() - b
        return (A.T @ r / N).reshape(n, 1)

    def c_eval(xd):
        x1 = xd.ravel()
        return B @ x1 + W @ (x1 * x1)

    def c_jac_t(xd, v):
        x1 = xd.ravel()
        return (B.T @ v + 2.0 * x1 * (W.T @ v)).reshape(n, 1)

    return StochasticProblem(
        manifold=sphere(n),
        num_samples=N,
        sample_value=sample_value,
        sample_egrad=sample_egrad,
        full_value=full_value,
        full_egrad=full_egrad,
        c_eval=c_eval,
        c_jac_t=c_jac_t,
        m=m,
        h=set_term,
        name="constrained_sphere",
        params={"n": n, "m": m, "N": N, "seed": seed, "quad_weight": quad_weight},
    )


def _jacobian(problem: StochasticProblem, xd: np.ndarray) -> np.ndarray:
    """Dense Jacobian of c at a point, built from adjoint products."""
    rows = [problem.c_jac_t(xd, e).ravel() for e in np.eye(problem.m)]
    return np.array(rows)


def estimate_constants(problem: StochasticProblem, samples: int, seed: int) -> ProblemConstants:
    """Empirical problem constants from seeded sampling.

    Maximizes the relevant quotient over ``samples`` random points (and
    retracted pairs / sample indices where applicable).  Estimates are
    lower bounds on the true suprema; multiply by a safety factor.
    """
    if samples < 100:
        raise ParameterError("samples must be >= 100")
    rng = np.random.default_rng(seed)
    desc = problem.manifold
    L_f = sigma = L_tilde = L_c = L_grad_c = L_retr = 0.0
    for _ in range(samples):
        x = random_point(desc, rng)
        g_full = problem.full_egrad(x.data)
        L_f = max(L_f, float(np.linalg.norm(g_full)))
        gr_full = tangent_project(x, g_full)
        i = int(rng.integers(problem.num_samples))
        gr_i = tangent_project(x, problem.sample_egrad(x.data, i))
        sigma = max(sigma, (gr_i - gr_full).norm())

        zeta = random_tangent(x, rng, norm=float(rng.uniform(0.05, 0.5)))
        y = retract(x, zeta)
        # average-smoothness quotient, transporting the far gradient back to x
        gy_i = tangent_project(y, problem.sample_egrad(y.data, i))
        moved = vector_transport(y, x, gy_i)
        L_tilde = max(L_tilde, (gr_i - moved).norm() / zeta.norm())
        # retraction-smoothness quotient of f along the same pair
        fy = problem.full_value(y.data)
        fx = problem.full_value(x.data)
        lin = float(np.sum(gr_full.data * zeta.data))
        L_retr = max(L_retr, 2.0 * (fy - fx - lin) / zeta.norm() ** 2)

        Jx = _jacobian(problem, x.data)
        Jy = _jacobian(problem, y.data)
        L_c = max(L_c, float(np.linalg.norm(Jx, 2)))
        step = float(np.linalg.norm(y.data - x.data))
        if step > 1e-12:
            L_grad_c = max(L_grad_c, float(np.linalg.norm(Jx - Jy, 2)) / step)
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
