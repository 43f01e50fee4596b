"""The single-loop driver both solvers share.

Both algorithms run one skeleton: a step per iteration, a trace row
every ``trace_every``-th iteration plus the last, optional diagnostics,
back-half snapshots and a stationarity witness at one drawn snapshot.
State, steps, snapshots and diagnostics are plain ndarrays.  Steps share
:func:`direction`, :func:`move` (the recursive-momentum estimator, one
sample per iteration) and :func:`advance`, which stores the read-only
data of a ``ManifoldPoint``/``TangentVector`` built, and so checked, from
each new iterate and momentum; other typed values are built only for x0,
its first sample and the certificate's point.  Nothing repairs an
iterate, so one off the manifold or not tangent fails the run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateRetractionError, InsufficientDataError, NumericalFailureError, ParameterError
from .harness import Certificate, StepReport, TraceRecord
from .manifolds import ManifoldDescriptor, ManifoldPoint, TangentVector, _norm, proj, random_point, retr
from .problems import StochasticProblem
from .smoothing import smoothed_grad

SNAPSHOT_TARGET = 2000


@dataclass
class SolverState:
    """Mutable solver state: iteration counter, iterate and momentum (ndarrays), sampling stream."""

    k: int
    x: np.ndarray
    delta: np.ndarray
    rng: np.random.Generator
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)


def direction(state: SolverState, problem: StochasticProblem, grad_h: np.ndarray) -> tuple[np.ndarray, float]:
    """Search direction G_k = delta_k + P_{T_x}(Dc(x)^T grad_h) and its norm."""
    X = state.x
    G = state.delta + proj(problem.manifold.kind, X, problem.c_jac_t(X, grad_h))
    norm_G = _norm(G)
    if not math.isfinite(norm_G):
        raise NumericalFailureError("non-finite search direction", state.k)
    return G, norm_G


def move(
    state: SolverState, problem: StochasticProblem, G: np.ndarray, tau: float, a_next: float
) -> tuple[np.ndarray, np.ndarray]:
    """x_{k+1} = R_x(-tau G) and the recursive-momentum estimate there.

    delta_{k+1} = grad f_xi(x_{k+1}) + (1 - a_{k+1}) T(delta_k - grad f_xi(x_k))
    with one fresh sample xi for both gradients; the transport to
    x_{k+1} is the tangent projection there.
    """
    kind = problem.manifold.kind
    X = state.x
    X_next = retr(kind, X, (-tau) * G)
    xi = int(state.rng.integers(problem.num_samples))
    g_new = proj(kind, X_next, problem.sample_egrad(X_next, xi))
    g_old = proj(kind, X, problem.sample_egrad(X, xi))
    return X_next, g_new + (1.0 - a_next) * proj(kind, X_next, state.delta - g_old)


def advance(state: SolverState, desc: ManifoldDescriptor, X_next: np.ndarray, delta_next: np.ndarray) -> None:
    """Close step k: wrap, and so check, the new iterate and momentum; keep their read-only data.

    Raises:
        ShapeMismatchError: either array's shape differs from ``desc``'s.
        ParameterError: X_next is off the manifold or delta_next is not
            tangent there, beyond the check tolerances, or either is not
            finite.
    """
    x = ManifoldPoint(desc, X_next)
    state.x = x.data
    state.delta = TangentVector(desc, x, delta_next).data
    state.k += 1


def run(
    problem: StochasticProblem,
    x0: ManifoldPoint | None,
    seed: int,
    K: int,
    *,
    init: Callable[[ManifoldPoint, np.random.Generator], SolverState],
    step: Callable[[SolverState], StepReport],
    mu: Callable[[int], float],
    snap_lo: int,
    trace_every: int,
    diagnostics: bool,
    stop_tol: float | None,
    measure_time: bool,
) -> tuple[SolverState, list[TraceRecord]]:
    """Execute K steps from ``init(x0, rng)``; trace every trace_every-th one plus the last.

    Diagnostics add the full-gradient columns (obj_smooth,
    norm_grad_Fmu, norm_eps) at traced iterations only, at smoothing
    level ``mu(k)``; they cost one full gradient and one full value of f
    (a pass over the data each) and never feed back into the algorithm,
    except through the optional early stop on norm_grad_Fmu <= stop_tol.
    Iterates from index ``snap_lo`` on are snapshotted at a stride that
    keeps about SNAPSHOT_TARGET of them.

    Raises:
        NumericalFailureError: a step produced a non-finite direction, a
            degenerate retraction target or a value that fails its
            point/tangent check, or a diagnostics row met a non-finite
            c(x); it names the iteration.
    """
    if K < 1:
        raise ParameterError("K must be >= 1")
    if trace_every < 1:
        raise ParameterError("trace_every must be >= 1")
    if stop_tol is not None and not diagnostics:
        raise ParameterError("stop_tol requires diagnostics=True")
    rng = np.random.default_rng(seed)
    state = init(random_point(problem.manifold, rng) if x0 is None else x0, rng)
    kind = problem.manifold.kind
    stride = max(1, K // SNAPSHOT_TARGET)
    trace: list[TraceRecord] = []
    t0 = time.monotonic_ns()
    for i in range(K):
        k, X = state.k, state.x
        traced = i % trace_every == 0 or i == K - 1
        obj_smooth = norm_grad_Fmu = norm_eps = None
        if k >= snap_lo and (k - snap_lo) % stride == 0:
            state.snapshots.append((k, X))
        try:
            if traced and diagnostics:
                egrad = problem.full_egrad(X)
                _, env, rgrad = smoothed_grad(problem, X, mu(k), egrad)
                obj_smooth = problem.full_value(X) + env.value
                norm_grad_Fmu = float(np.linalg.norm(rgrad))
                norm_eps = float(np.linalg.norm(state.delta - proj(kind, X, egrad)))
            report = step(state)
        except (ParameterError, DegenerateRetractionError) as exc:
            # the inputs were validated before the loop, so the row's own arithmetic broke a check
            raise NumericalFailureError(str(exc), k) from exc
        if traced:
            wall = time.monotonic_ns() - t0 if measure_time else 0
            trace.append(
                TraceRecord(
                    **vars(report), obj_smooth=obj_smooth, norm_grad_Fmu=norm_grad_Fmu, norm_eps=norm_eps, wall_ns=wall
                )
            )
        if stop_tol is not None and norm_grad_Fmu is not None and norm_grad_Fmu <= stop_tol:
            break
    return state, trace


def certificate(
    state: SolverState, problem: StochasticProblem, pick: Callable[[np.ndarray], int], mu: Callable[[int], float]
) -> Certificate:
    """Stationarity witness at the snapshot ``pick(snapshot indices)`` selects.

    The witness pair is y = prox_{mu h}(c(x)), z = (c(x) - y) / mu with
    mu = ``mu(i_K)``, with a numerical subgradient (for an indicator:
    normal-cone) membership check.  The residual is grad F_mu(x), the
    diagnostics' evaluation.

    Raises:
        ParameterError: c(x) is not finite.
    """
    if not state.snapshots:
        raise InsufficientDataError("no snapshots stored; call run() first")
    i_K, X = state.snapshots[pick(np.array([k for k, _ in state.snapshots], dtype=float))]
    c, env, resid = smoothed_grad(problem, X, mu(i_K), problem.full_egrad(X))
    y, z = env.prox_point, env.grad
    ok = problem.h.in_subdifferential(y, z, tol=1e-8, rng=state.rng)
    feas, resid = float(np.linalg.norm(c - y)), float(np.linalg.norm(resid))
    x = ManifoldPoint(problem.manifold, X)
    return Certificate(i_K=i_K, x=x, y=y, z=z, grad_residual=resid, feas_residual=feas, membership_ok=ok)
