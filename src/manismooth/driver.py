"""The state, single-loop iteration and run loop both solvers share.

Both algorithms run one iteration, :func:`step`: the dynamic-smoothing
direction, the retraction, the one-sample recursive-momentum update, the
optional truncation of the momentum and the check of the new iterate and
momentum, which are wrapped as a ``ManifoldPoint``/``TangentVector`` and
stored as read-only data.  Both solvers run on one :class:`SolverState`,
which also keeps the direction energy sum_i ||G_i||^2; a solver supplies
only its schedules (mu_k, tau_k, a_{k+1}) and the truncation radius if
any.  :func:`start` checks x0 and draws the first sample.  :func:`run` is
the loop of exactly K steps: the step's own ``TraceRecord`` every
``trace_every``-th iteration plus the last and optional diagnostics on
those rows at the record's mu.  Before the first step it draws the
certificate's back-half index from a stream of its own, spawned from the
run's seed, so the draw is independent of the samples; it keeps that one
iterate only, and :func:`certificate` gives a stationarity witness there.
State, the kept iterate and diagnostics are plain ndarrays; other typed
values are built only for x0, its first sample and the certificate's
point.
Nothing repairs an iterate, so one off the manifold or not tangent fails
the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegenerateRetractionError, InsufficientDataError, NumericalFailureError, ParameterError
from .harness import Certificate, TraceRecord
from .manifolds import ManifoldPoint, TangentVector, _norm, proj, random_point, retr
from .problems import StochasticProblem, sample_riemannian_grad
from .smoothing import smoothed_grad

# the certificate's candidate grid: back-half iterates at a stride that leaves about this many;
# a run keeps one of them, so the number sets no memory
SNAPSHOT_TARGET = 2000
TRUNC_SLACK = 1e-12  # relative rounding allowance of the truncated momentum's norm over the radius


@dataclass
class SolverState:
    """Mutable solver state: counter k, iterate and momentum (ndarrays), sampling stream, energy sum_i ||G_i||^2.

    After :func:`run`, ``kept`` is the certificate's (i_K, x_{i_K}), or
    None when the run had no candidates.
    """

    k: int
    x: np.ndarray
    delta: np.ndarray
    rng: np.random.Generator
    kept: tuple[int, np.ndarray] | None = None
    energy: float = 0.0


def _truncate(v: np.ndarray, radius: float | None, k: int) -> np.ndarray:
    """v scaled back onto the ball of ``radius`` when it lies outside it; v itself when radius is None.

    Raises NumericalFailureError naming iteration k if the scaled v exceeds the radius by more than TRUNC_SLACK.
    """
    if radius is None or (nrm := _norm(v)) <= radius:
        return v
    v = (radius / nrm) * v
    if _norm(v) > radius * (1.0 + TRUNC_SLACK):
        raise NumericalFailureError("momentum estimator escaped the truncation ball", k)
    return v


def start(problem: StochasticProblem, x0: ManifoldPoint, seed, k: int, radius: float | None = None) -> SolverState:
    """A state at x0 and iteration k whose momentum is one sample drawn from ``default_rng(seed)``.

    The sample gradient is truncated to ``radius`` when one is given.
    """
    if x0.descriptor != problem.manifold:
        raise ParameterError("x0 does not live on the problem manifold")
    rng = np.random.default_rng(seed)
    delta = sample_riemannian_grad(problem, x0, int(rng.integers(problem.num_samples))).data
    return SolverState(k=k, x=x0.data, delta=_truncate(delta, radius, k), rng=rng)


def step(
    state: SolverState, problem: StochasticProblem, mu: float, schedule: Callable[[], tuple[float, float]],
    radius: float | None = None,
) -> TraceRecord:
    """Advance the state by one iteration at smoothing level mu; ``schedule()`` gives (tau_k, a_{k+1}).

        G_k         = delta_k + P_{T_{x_k}}( Dc(x_k)^T (c(x_k) - prox_{mu h}(c(x_k))) / mu )
        x_{k+1}     = R_{x_k}(-tau_k G_k)
        delta_{k+1} = grad f_xi(x_{k+1}) + (1 - a_{k+1}) T_{x_k -> x_{k+1}}( delta_k - grad f_xi(x_k) )

    with one fresh sample xi for both gradients; the transport to x_{k+1}
    is the tangent projection there.  For an indicator the residual
    c(x) - prox_{mu h}(c(x)) is c(x) - P_C(c(x)).  ||G_k||^2 is added to
    ``state.energy`` before ``schedule`` is called.  With a ``radius``,
    delta_{k+1} is scaled back onto that ball.  The new iterate and
    momentum are wrapped, and so checked, as one ``ManifoldPoint`` and one
    ``TangentVector``; the state keeps their read-only data.  The returned
    record carries no diagnostics; its ``infeas`` is the residual's norm.

    Raises:
        NumericalFailureError: G_k or tau_k is not finite, or the
            truncated momentum lies outside the ball.
        DegenerateRetractionError: the retraction target is degenerate.
        ParameterError: x_{k+1} or delta_{k+1} fails its check.
    """
    k, X, desc = state.k, state.x, problem.manifold
    kind = desc.kind
    y = problem.c_eval(X)
    diff = y - problem.h.prox(mu, y)  # = mu * grad h_mu(c(x))
    G = state.delta + proj(kind, X, problem.c_jac_t(X, diff / mu))
    norm_G = _norm(G)
    if not math.isfinite(norm_G):
        raise NumericalFailureError("non-finite search direction", k)
    state.energy += norm_G * norm_G
    tau, a_next = schedule()
    if not math.isfinite(tau):
        raise NumericalFailureError("non-finite stepsize", k)
    X_next = retr(kind, X, (-tau) * G)
    xi = int(state.rng.integers(problem.num_samples))
    g_new = proj(kind, X_next, problem.sample_egrad(X_next, xi))
    g_old = proj(kind, X, problem.sample_egrad(X, xi))
    delta_next = _truncate(g_new + (1.0 - a_next) * proj(kind, X_next, state.delta - g_old), radius, k)
    x = ManifoldPoint(desc, X_next)
    state.x = x.data
    state.delta = TangentVector(desc, x, delta_next).data
    state.k += 1
    return TraceRecord(k=k, mu=mu, tau=tau, a=a_next, norm_G=norm_G, infeas=_norm(diff))


def run(
    problem: StochasticProblem,
    x0: ManifoldPoint | None,
    seed: int,
    K: int,
    *,
    init: Callable[[ManifoldPoint, np.random.Generator], SolverState],
    step: Callable[[SolverState], TraceRecord],
    pick: Callable[[np.ndarray, np.random.Generator], int],
    snap_lo: int,
    snap_last: bool = False,
    trace_every: int,
    diagnostics: bool,
) -> tuple[SolverState, list[TraceRecord]]:
    """Execute exactly K steps from ``init(x0, rng)``; keep the record of every trace_every-th one plus the last.

    Diagnostics fill the full-gradient fields (obj_smooth,
    norm_grad_Fmu, norm_eps) of the kept records only, at the iterate and
    momentum the step started from and the record's ``mu``; they cost one
    ``full_value_egrad`` (f and its gradient from one pass over the data)
    and never feed back into the algorithm.

    The certificate's candidates are the iterates from index ``snap_lo``
    on, at a stride that leaves about SNAPSHOT_TARGET of them, plus the
    final iterate when ``snap_last``.  Before the first step the index
    ``pick(candidates, draw)`` is drawn from ``draw``, the one child
    spawned from the run's generator: spawning advances no stream, and
    the steps never read the child, so the index is independent of the
    samples (Ghadimi & Lan's randomized output).  The run keeps that one
    iterate as ``state.kept`` and no other; with no candidates it keeps
    none and draws nothing.

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
    rng = np.random.default_rng(seed)
    (draw,) = rng.spawn(1)
    state = init(random_point(problem.manifold, rng) if x0 is None else x0, rng)
    kind = problem.manifold.kind
    end = state.k + K  # the final iterate's index
    ks = np.arange(snap_lo, end, max(1, K // SNAPSHOT_TARGET), dtype=float)
    ks = ks[ks >= state.k]
    candidates = np.append(ks, float(end)) if snap_last else ks
    keep = int(candidates[pick(candidates, draw)]) if candidates.size else None
    trace: list[TraceRecord] = []
    for i in range(K):
        k, X, delta = state.k, state.x, state.delta  # a step rebinds, never mutates, x and delta
        if k == keep:
            state.kept = (k, X)
        try:
            record = step(state)
            if i % trace_every == 0 or i == K - 1:
                if diagnostics:
                    f, egrad = problem.full_value_egrad(X)
                    _, env, rgrad = smoothed_grad(problem, X, record.mu, egrad)
                    record = replace(record, obj_smooth=f + env.value,
                                     norm_grad_Fmu=_norm(rgrad), norm_eps=_norm(delta - proj(kind, X, egrad)))
                trace.append(record)
        except (ParameterError, DegenerateRetractionError) as exc:
            # the inputs were validated before the loop, so the row's own arithmetic broke a check
            raise NumericalFailureError(str(exc), k) from exc
    if state.k == keep:
        state.kept = (state.k, state.x)
    return state, trace


def certificate(state: SolverState, problem: StochasticProblem, mu: Callable[[int], float]) -> Certificate:
    """Stationarity witness at the iterate (i_K, x) that :func:`run` kept.

    The witness pair is y = prox_{mu h}(c(x)), z = (c(x) - y) / mu with
    mu = ``mu(i_K)``, with a numerical subgradient (for an indicator:
    normal-cone) membership check whose samples come from ``state.rng``.
    The residual is grad F_mu(x), the diagnostics' evaluation.

    Raises:
        InsufficientDataError: the run kept no iterate.
        ParameterError: c(x) is not finite.
    """
    if state.kept is None:
        raise InsufficientDataError("no iterate kept for the certificate; call run() first")
    i_K, X = state.kept
    c, env, resid = smoothed_grad(problem, X, mu(i_K), problem.full_egrad(X))
    y, z = env.prox_point, env.grad
    ok = problem.h.in_subdifferential(y, z, tol=1e-8, rng=state.rng)
    feas, resid = float(np.linalg.norm(c - y)), float(np.linalg.norm(resid))
    x = ManifoldPoint(problem.manifold, X)
    return Certificate(i_K=i_K, x=x, y=y, z=z, grad_residual=resid, feas_residual=feas, membership_ok=ok)
