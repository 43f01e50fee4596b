"""Stochastic smoothing solver with recursive momentum and adaptive stepsize.

Handles a Lipschitz-continuous nonsmooth term h.  One iteration is the
shared :func:`.driver.step` (direction G_k, retraction, one-sample
recursive momentum) at the schedules

    mu_k     = k^{-1/3}
    tau_k    = ( sum_{i<=k} ||G_i||^2 / a_{k+1} )^{-1/3}
    a_{k+1}  = k^{-2/3}

The stepsize divides the whole accumulated energy by the current
a_{k+1}, not by per-term a_{i+1}.  delta_1 is a single sample gradient
at the initial point (a_1 = 1 erases any momentum history).

If the very first direction is exactly zero the accumulated energy is
zero and the iterate is declared stationary for the current smoothing
level: the step is skipped with tau = 0.

The certificate's iterate is drawn uniformly from the back half
k = ceil(K/2) .. K (:func:`pick`), from the run's own certificate
stream.  This module holds only these schedules and that rule, as its
:data:`POLICY` (first k = 1, no truncation, so a Lipschitz h); the state
(with the energy sum_{i<=k} ||G_i||^2), the iteration, the check of the
kind of h, the loop, tracing, the certificate's draw and kept iterate
and its witness are the shared ones of :mod:`.driver`.
"""

from __future__ import annotations

import numpy as np

from . import driver
from .harness import Certificate, TraceRecord
from .manifolds import ManifoldPoint
from .problems import StochasticProblem


def smoothing_level(k: int) -> float:
    """mu_k = k^{-1/3}, in (0, 1] for k >= 1."""
    return float(k) ** (-1.0 / 3.0)


def momentum_weight(k: int) -> float:
    """a_{k+1} = k^{-2/3}, in (0, 1] for k >= 1."""
    return float(k) ** (-2.0 / 3.0)


def pick(K: int, rng: np.random.Generator) -> int:
    """Index of the certificate's iterate, drawn uniformly from ceil(K/2) .. K."""
    return int(rng.integers((K + 1) // 2, K + 1))


def _schedule(k: int, energy: float) -> tuple[float, float]:
    """(tau_k, a_{k+1}) at iteration k, ``energy`` being sum_{i<=k} ||G_i||^2; tau_k = 0 while it is 0."""
    a_next = momentum_weight(k)
    return (energy / a_next) ** (-1.0 / 3.0) if energy > 0.0 else 0.0, a_next


POLICY = driver.Policy(k0=1, mu=smoothing_level, schedule=_schedule, pick=pick)


def step(state: driver.SolverState, problem: StochasticProblem, policy: driver.Policy = POLICY) -> TraceRecord:
    """Advance the state by exactly one iteration of :func:`driver.step`."""
    return driver.step(state, problem, policy)


def run(
    problem: StochasticProblem,
    x0: ManifoldPoint | None,
    seed: int,
    K: int,
    trace_every: int = 1,
    diagnostics: bool = False,
) -> tuple[driver.SolverState, list[TraceRecord]]:
    """Execute exactly K iterations (k = 1 .. K) with :func:`driver.run`, each a call of this module's :func:`step`."""
    return driver.run(problem, x0, seed, K, POLICY, step=step, trace_every=trace_every, diagnostics=diagnostics)


def certificate(state: driver.SolverState, problem: StochasticProblem, policy: driver.Policy = POLICY) -> Certificate:
    """Stationarity witness at the kept iterate, whose index the run drew uniformly from the back half.

    The witness pair is y = prox_{mu h}(c(x)), z = (c(x) - y) / mu at the
    selected iterate, with the exact subgradient membership test.
    """
    return driver.certificate(state, problem, policy)
