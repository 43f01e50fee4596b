"""The state, single-loop iteration and run loop both solvers share, and the policy each sets.

Both algorithms run one iteration, :func:`step`: the dynamic-smoothing
direction, the retraction, the one-sample recursive-momentum update, the
optional truncation of the momentum and the check of the new iterate and
momentum, which are wrapped as a ``ManifoldPoint``/``TangentVector`` and
stored as read-only data.  Both solvers run on one :class:`SolverState`,
which also keeps the direction energy sum_i ||G_i||^2; a solver is one
:class:`Policy` (first k, schedules mu_k, tau_k, a_{k+1}, certificate
rule and truncation radius if any), which every function here takes.
:func:`start` checks h against the policy and x0, and draws the first sample.  :func:`run` is
the loop of exactly K steps: the step's own ``TraceRecord`` every
``trace_every``-th iteration plus the last and optional diagnostics on
those rows at the record's mu.  Before the first step it draws the
certificate's index by the policy's rule from a stream of its own,
spawned from the run's seed, so the draw is independent of the samples;
it keeps that one iterate only, and :func:`certificate` gives a
stationarity witness there with an exact membership test.
State, the kept iterate and diagnostics are plain ndarrays; other typed
values are built only for x0, its first sample and the certificate's
point.
Nothing repairs an iterate, so one off the manifold or not tangent fails
the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateRetractionError, InsufficientDataError, NumericalFailureError, ParameterError
from .harness import Certificate, TraceRecord
from .manifolds import ManifoldPoint, TangentVector, _norm, proj, random_point, retr
from .problems import StochasticProblem, sample_riemannian_grad
from .smoothing import IndicatorTerm, smoothed_grad

# the largest K: every certificate index (at most K + 1) is drawn exactly as a numpy int64
K_MAX = 2**62
TRUNC_SLACK = 1e-12  # relative rounding allowance of the truncated momentum's norm over the radius


@dataclass(frozen=True)
class Policy:
    """One solver's rules; the driver reads these five attributes and nothing else (``IndicatorConfig`` has them).

    ``k0`` is the first k, ``mu(k)`` gives mu_k, ``schedule(k, energy)`` gives (tau_k, a_{k+1}) at energy
    sum_{i<=k} ||G_i||^2 and ``pick(K, rng)`` the certificate's index.  ``trunc_radius`` truncates the
    momentum (None: never), and so names the kind of h: an indicator exactly when it is set.
    """

    k0: int
    mu: Callable[[int], float]
    schedule: Callable[[int, float], tuple[float, float]]
    pick: Callable[[int, np.random.Generator], int]
    trunc_radius: float | None = None


@dataclass(eq=False)
class SolverState:
    """Mutable solver state: counter k, iterate and momentum (ndarrays), sampling stream, energy sum_i ||G_i||^2.

    After :func:`run`, ``kept`` is the certificate's (i_K, x_{i_K}), or
    None when the drawn index lies outside the run.  Only the steps read
    ``rng``; the certificate's draw and witness do not.
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


def start(problem: StochasticProblem, x0: ManifoldPoint, seed, policy: Policy) -> SolverState:
    """A state at x0 and iteration ``policy.k0`` whose momentum is one sample drawn from ``default_rng(seed)``.

    The sample gradient is truncated to the policy's radius when it has one.  Raises ParameterError
    unless h is an indicator exactly when the policy has a radius, and x0 lives on the problem manifold.
    """
    k, radius = policy.k0, policy.trunc_radius
    if isinstance(problem.h, IndicatorTerm) != (radius is not None):
        need = "an indicator nonsmooth term" if radius is not None else "a Lipschitz nonsmooth term, not an indicator"
        raise ParameterError(f"this solver requires {need}")
    if x0.descriptor != problem.manifold:
        raise ParameterError("x0 does not live on the problem manifold")
    rng = np.random.default_rng(seed)
    delta = sample_riemannian_grad(problem, x0, int(rng.integers(problem.num_samples))).data
    return SolverState(k=k, x=x0.data, delta=_truncate(delta, radius, k), rng=rng)


def step(state: SolverState, problem: StochasticProblem, policy: Policy) -> TraceRecord:
    """Advance the state by one iteration at mu = ``policy.mu(k)``; ``policy.schedule`` gives (tau_k, a_{k+1}).

        G_k         = delta_k + P_{T_{x_k}}( Dc(x_k)^T (c(x_k) - prox_{mu h}(c(x_k))) / mu )
        x_{k+1}     = R_{x_k}(-tau_k G_k)
        delta_{k+1} = grad f_xi(x_{k+1}) + (1 - a_{k+1}) T_{x_k -> x_{k+1}}( delta_k - grad f_xi(x_k) )

    with one fresh sample xi for both gradients; the transport to x_{k+1}
    is the tangent projection there.  For an indicator the residual
    c(x) - prox_{mu h}(c(x)) is c(x) - P_C(c(x)).  ||G_k||^2 is added to
    ``state.energy`` before ``schedule`` is called with it.  With a radius,
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
    k, X, delta, desc = state.k, state.x, state.delta, problem.manifold
    kind = desc.kind
    mu = policy.mu(k)
    y = problem.c_eval(X)
    diff = y - problem.h.prox(mu, y)  # = mu * grad h_mu(c(x))
    G = delta + proj(kind, X, problem.c_jac_t(X, diff / mu))
    norm_G = _norm(G)
    if not math.isfinite(norm_G):
        raise NumericalFailureError("non-finite search direction", k)
    state.energy += norm_G * norm_G
    tau, a_next = policy.schedule(k, state.energy)
    if not math.isfinite(tau):
        raise NumericalFailureError("non-finite stepsize", k)
    X_next = retr(kind, X, (-tau) * G)
    xi = int(state.rng.integers(problem.num_samples))
    g_new = proj(kind, X_next, problem.sample_egrad(X_next, xi))
    g_old = proj(kind, X, problem.sample_egrad(X, xi))
    delta_next = g_new + (1.0 - a_next) * proj(kind, X_next, delta - g_old)
    delta_next = _truncate(delta_next, policy.trunc_radius, k)
    x = ManifoldPoint(desc, X_next)
    state.x = x.data
    state.delta = TangentVector(desc, x, delta_next).data
    state.k = k + 1
    return TraceRecord(k=k, mu=mu, tau=tau, a=a_next, norm_G=norm_G, infeas=_norm(diff))


def run(
    problem: StochasticProblem,
    x0: ManifoldPoint | None,
    seed: int,
    K: int,
    policy: Policy,
    *,
    step: Callable[[SolverState, StochasticProblem, Policy], TraceRecord] = step,
    trace_every: int = 1,
    diagnostics: bool = False,
) -> tuple[SolverState, list[TraceRecord]]:
    """Run exactly K steps from :func:`start` at x0 (or a random point); keep every trace_every-th record and the last.

    Each step is one call ``step(state, problem, policy)``; a solver passes its own module's ``step``.

    Diagnostics fill the full-gradient fields (obj_smooth,
    norm_grad_Fmu, norm_eps) of the kept records only, at the iterate and
    momentum the step started from and the record's ``mu``; they cost one
    ``full_value_egrad`` (f and its gradient from one pass over the data)
    and never feed back into the algorithm.

    Before the first step the certificate's index ``policy.pick(K, draw)`` is drawn
    over its whole candidate range from ``draw``,
    the one child spawned from the run's generator: spawning advances no
    stream, and the steps never read the child, so the index is
    independent of the samples (Ghadimi & Lan's randomized output).  The
    run keeps the iterate at that index as ``state.kept`` and no other;
    an index outside the run keeps none.

    Raises:
        ParameterError: K is outside [1, K_MAX], trace_every is below 1 or :func:`start` rejects h or x0.
        NumericalFailureError: a step produced a non-finite direction, a
            degenerate retraction target or a value that fails its
            point/tangent check, or a diagnostics row met a non-finite
            c(x); it names the iteration.
    """
    if not 1 <= K <= K_MAX:
        raise ParameterError("K must be in [1, 2**62]")
    if trace_every < 1:
        raise ParameterError("trace_every must be >= 1")
    rng = np.random.default_rng(seed)
    (draw,) = rng.spawn(1)
    state = start(problem, random_point(problem.manifold, rng) if x0 is None else x0, rng, policy)
    kind = problem.manifold.kind
    keep = policy.pick(K, draw)
    trace: list[TraceRecord] = []
    for i in range(K):
        k, X, delta = state.k, state.x, state.delta  # a step rebinds, never mutates, x and delta
        if k == keep:
            state.kept = (k, X)
        try:
            record = step(state, problem, policy)
            if i % trace_every == 0 or i == K - 1:
                if diagnostics:
                    f, egrad = problem.full_value_egrad(X)
                    _, env, rgrad = smoothed_grad(problem, X, record.mu, egrad)
                    record.obj_smooth = f + env.value
                    record.norm_grad_Fmu = _norm(rgrad)
                    record.norm_eps = _norm(delta - proj(kind, X, egrad))
                trace.append(record)
        except (ParameterError, DegenerateRetractionError) as exc:
            # the inputs were validated before the loop, so the row's own arithmetic broke a check
            raise NumericalFailureError(str(exc), k) from exc
    if state.k == keep:
        state.kept = (state.k, state.x)
    return state, trace


def certificate(state: SolverState, problem: StochasticProblem, policy: Policy) -> Certificate:
    """Stationarity witness at the iterate (i_K, x) that :func:`run` kept.

    The witness pair is y = prox_{mu h}(c(x)), z = (c(x) - y) / mu with
    mu = ``policy.mu(i_K)``, with the term's exact subgradient (for an
    indicator: normal-cone) membership test, which reads no random stream.  The
    residual is grad F_mu(x), the diagnostics' evaluation.

    Raises:
        InsufficientDataError: the run kept no iterate.
        ParameterError: c(x) is not finite.
    """
    if state.kept is None:
        raise InsufficientDataError("no iterate kept for the certificate; call run() first")
    i_K, X = state.kept
    c, env, resid = smoothed_grad(problem, X, policy.mu(i_K), problem.full_egrad(X))
    y, z = env.prox_point, env.grad
    ok = problem.h.in_subdifferential(y, z, tol=1e-8)
    feas, resid = float(np.linalg.norm(c - y)), float(np.linalg.norm(resid))
    x = ManifoldPoint(problem.manifold, X)
    return Certificate(i_K=i_K, x=x, y=y, z=z, grad_residual=resid, feas_residual=feas, membership_ok=ok)
