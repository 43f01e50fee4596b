"""Stochastic smoothing solver with recursive momentum and adaptive stepsize.

Handles a Lipschitz-continuous nonsmooth term h.  One iteration, at
smoothing level mu_k = k^{-1/3}:

    G_k      = delta_k + P_{T_{x_k}}( Dc(x_k)^T grad h_{mu_k}(c(x_k)) )
    tau_k    = ( sum_{i<=k} ||G_i||^2 / a_{k+1} )^{-1/3},   a_{k+1} = k^{-2/3}
    x_{k+1}  = R_{x_k}(-tau_k G_k)
    delta_{k+1} = grad f_{xi}(x_{k+1})
                  + (1 - a_{k+1}) T_{x_k -> x_{k+1}}( delta_k - grad f_{xi}(x_k) )

with one fresh sample xi per iteration used in both sample gradients.
The stepsize divides the whole accumulated energy by the current
a_{k+1}, not by per-term a_{i+1}.  delta_1 is a single sample gradient
at the initial point (a_1 = 1 erases any momentum history).

If the very first direction is exactly zero the accumulated energy is
zero and the iterate is declared stationary for the current smoothing
level: the step is skipped with tau = 0.

The state and ``step`` work on raw arrays; the loop, tracing, snapshots
and the certificate witness are the shared ones of :mod:`.driver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import driver
from .errors import NumericalFailureError, ParameterError
from .harness import Certificate, StepReport, TraceRecord
from .manifolds import ManifoldPoint, _norm
from .problems import StochasticProblem, sample_riemannian_grad


def smoothing_level(k: int) -> float:
    """mu_k = k^{-1/3}, in (0, 1] for k >= 1."""
    return float(k) ** (-1.0 / 3.0)


def momentum_weight(k: int) -> float:
    """a_{k+1} = k^{-2/3}, in (0, 1] for k >= 1."""
    return float(k) ** (-2.0 / 3.0)


@dataclass
class LipschitzState(driver.SolverState):
    """Solver state plus the accumulated direction energy."""

    grad_sq_sum: float = 0.0


def init(
    problem: StochasticProblem,
    x0: ManifoldPoint,
    seed: int | np.random.Generator,
) -> LipschitzState:
    """Initial state at x0: one sample drawn from ``default_rng(seed)`` seeds the momentum estimator."""
    if problem.h.is_indicator:
        raise ParameterError("this solver requires a Lipschitz nonsmooth term, not an indicator")
    if x0.descriptor != problem.manifold:
        raise ParameterError("x0 does not live on the problem manifold")
    rng = np.random.default_rng(seed)
    delta = sample_riemannian_grad(problem, x0, int(rng.integers(problem.num_samples)))
    return LipschitzState(k=1, x=x0.data, delta=delta.data, rng=rng)


def step(state: LipschitzState, problem: StochasticProblem) -> StepReport:
    """Advance the state by exactly one iteration."""
    k = state.k
    mu = smoothing_level(k)
    y = problem.c_eval(state.x)
    diff = y - problem.h.prox(mu, y)  # c(x) - prox_{mu h}(c(x)) = mu * grad h_mu(c(x))
    G, norm_G = driver.direction(state, problem, diff / mu)
    state.grad_sq_sum += norm_G * norm_G
    a_next = momentum_weight(k)
    if state.grad_sq_sum > 0.0:
        tau = (state.grad_sq_sum / a_next) ** (-1.0 / 3.0)
    else:
        tau = 0.0
    if not math.isfinite(tau):
        raise NumericalFailureError("non-finite stepsize", k)
    driver.advance(state, problem.manifold, *driver.move(state, problem, G, tau, a_next))
    return StepReport(k=k, mu=mu, tau=tau, a=a_next, norm_G=norm_G, infeas=_norm(diff))


def run(
    problem: StochasticProblem,
    x0: ManifoldPoint | None,
    seed: int,
    K: int,
    trace_every: int = 1,
    diagnostics: bool = False,
    stop_tol: float | None = None,
    measure_time: bool = True,
) -> tuple[LipschitzState, list[TraceRecord]]:
    """Execute K iterations (k = 1 .. K) with :func:`driver.run`; stop_tol stops early on norm_grad_Fmu."""
    return driver.run(
        problem, x0, seed, K,
        init=lambda x, rng: init(problem, x, rng),
        step=lambda state: step(state, problem),
        mu=smoothing_level,
        snap_lo=(K + 1) // 2,
        trace_every=trace_every, diagnostics=diagnostics, stop_tol=stop_tol, measure_time=measure_time,
    )


def certificate(state: LipschitzState, problem: StochasticProblem) -> Certificate:
    """Stationarity witness at an index drawn uniformly from the snapshots.

    The witness pair is y = prox_{mu h}(c(x)), z = (c(x) - y) / mu at the
    selected iterate, with a numerical subgradient membership check.
    """
    return driver.certificate(state, problem, lambda ks: int(state.rng.integers(len(ks))), smoothing_level)
