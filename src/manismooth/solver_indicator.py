"""Quadratic-penalty smoothing solver with truncated recursive momentum.

Handles an indicator-of-convex-set nonsmooth term under an error bound
condition with exponent theta >= 1.  The smoothed term is the scaled
squared distance dist^2(c(x), C) / (2 mu_k), i.e. a quadratic penalty
with parameter 1/mu_k, and the momentum estimator is radially truncated
to a ball of radius ``trunc_radius`` so it stays uniformly bounded.  One
iteration is the shared :func:`.driver.step` at the schedules

    mu_k      = max(k, 1)^{-omega}          omega = min(theta/(theta+2), 1/2)
    tau_k     = c_tau (k+1)^{-omega}
    a_{k+1}   = min(1, c_a (k+1)^{-2 omega})

Iterations count from k = 0; the k = 0 smoothing level is clamped to 1
so the penalty stays finite.

The certificate's iterate is drawn from k = floor(K/2) .. K, x_K
included, with probability proportional to tau_k
(:meth:`IndicatorConfig.pick`, exact rejection sampling), from the run's
own certificate stream.  This module holds these schedules and that
rule, which :class:`IndicatorConfig` carries as its own policy, the one
table of the solver numbers' bounds (:data:`BOUNDS`) and the parameter
assembly; all else (state, iteration, h check, loop, tracing,
certificate draw, kept iterate, witness) is :mod:`.driver`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import driver
from .errors import ParameterError, ProbeInconclusiveError
from .harness import Certificate, TraceRecord
from .manifolds import ManifoldPoint, check_tangent, estimate_retraction_constants, fro, point_blocks, proj, sup
from .problems import ProblemConstants, StochasticProblem, estimate_constants, retr_smooth_bound
from .smoothing import IndicatorTerm

# each solver number's bound: field -> (lower bound, bound excluded); every value must also be finite
BOUNDS = {
    "theta": (1, False),
    "safety": (1, False),
    "zeta": (0, True),
    "c_tau": (0, True),
    "c_a": (0, True),
    "trunc_radius": (0, True),
}


def _check_bound(name: str, value: float) -> None:
    """Raise ParameterError naming ``name`` unless value is finite and within its :data:`BOUNDS` entry."""
    low, strict = BOUNDS[name]
    if not math.isfinite(value) or value < low or (strict and value == low):
        raise ParameterError(f"{name} must be finite and {'>' if strict else '>='} {low}", field=name)


@dataclass(frozen=True)
class IndicatorConfig:
    """Solver parameters under the error bound condition, and the solver's :class:`.driver.Policy`.

    theta/zeta are the error-bound exponent and modulus; c_tau and c_a
    scale the stepsize and momentum schedules; trunc_radius bounds the
    momentum estimator (any value above the true gradient-norm bound is
    admissible).  As a policy it starts at k0 = 0 and truncates to
    ``radius`` = trunc_radius, neither a field: ``asdict`` stays the five numbers.
    """

    theta: float
    zeta: float
    c_tau: float
    c_a: float
    trunc_radius: float
    k0 = 0

    def __post_init__(self):
        for name in ("theta", "zeta", "c_tau", "c_a", "trunc_radius"):
            _check_bound(name, getattr(self, name))
        try:
            self.k_tilde
        except ArithmeticError:  # zeta^2 or c_tau zeta^2 leaves the float range, or 8 omega / (c_tau zeta^2) overflows
            zeta_sq = self.zeta * self.zeta
            name = "zeta" if zeta_sq in (0.0, math.inf) else "c_tau"
            raise ParameterError(
                f"c_tau = {self.c_tau:.3e} and zeta = {self.zeta:.3e} leave no finite burn-in index "
                f"k_tilde = ceil(8 omega / (c_tau zeta^2)); {'lower' if zeta_sq == math.inf else 'raise'} {name}",
                field=name,
            ) from None

    @cached_property  # not a field: dataclasses.asdict(config) stays the five numbers
    def omega(self) -> float:
        return min(self.theta / (self.theta + 2.0), 0.5)

    def mu(self, k: int) -> float:
        """Smoothing level mu_k = max(k, 1)^{-omega}."""
        return float(max(k, 1)) ** (-self.omega)

    def schedule(self, k: int, energy: float) -> tuple[float, float]:
        """(tau_k, a_{k+1}) = (c_tau (k+1)^{-omega}, min(1, c_a (k+1)^{-2 omega})); the energy plays no part."""
        omega = self.omega
        return self.c_tau * float(k + 1) ** (-omega), min(1.0, self.c_a * float(k + 1) ** (-2.0 * omega))

    def pick(self, K: int, rng: np.random.Generator) -> int:
        """Index of the certificate's iterate, drawn from floor(K/2) .. K with probability proportional to tau_k.

        A uniform proposal k is accepted with probability
        ((floor(K/2) + 1) / (k + 1))^omega = tau_k / tau_{floor(K/2)} <= 1, so
        an accepted k has probability proportional to (k + 1)^{-omega}, in
        O(1) memory and at most 2^omega <= sqrt(2) proposals on average.
        """
        lo = K // 2
        while True:
            k = int(rng.integers(lo, K + 1))
            if rng.random() < ((lo + 1) / (k + 1)) ** self.omega:
                return k

    @property
    def radius(self) -> float:
        """The momentum's truncation radius, trunc_radius."""
        return self.trunc_radius

    @property
    def k_tilde(self) -> int:
        """Burn-in index after which the feasibility decay bound applies."""
        return math.ceil(8.0 * self.omega / (self.c_tau * self.zeta**2))


def default_config(
    problem: StochasticProblem,
    theta: float,
    safety: float = 2.0,
    zeta: float | None = None,
    samples: int = 200,
    seed: int = 2024,
    c_tau: float | None = None,
    c_a: float | None = None,
    trunc_radius: float | None = None,
) -> IndicatorConfig:
    """Assemble solver parameters, estimating each one not supplied.

    The stepsize constant obeys c_tau <= 1 / max(L_g, G) where L_g is the
    retraction-smoothness constant of the squared-distance penalty and G
    the one of the smoothed objective (indicator form); the momentum
    constant follows c_a = (3/4) c_tau^2 + 1/(32 Lt^2) with c_tau as
    supplied or derived, and trunc_radius is L_f.  All estimated
    constants are inflated by ``safety``.  zeta comes from the error bound
    probe.  A supplied value skips the sampling passes only it needs: the
    retraction constants and the max-dist pass when c_tau is given, the
    problem constants when c_a and trunc_radius are given too, and the
    probe when zeta is given.  Each pass draws max(100, samples) points.

    Raises:
        ParameterError: a given number is outside its :data:`BOUNDS` (checked
            before any pass) or a constant cannot be derived; ``field`` names
            the argument to supply or change (the probe's failures name ``zeta``).
    """
    given = dict(theta=theta, safety=safety, zeta=zeta, c_tau=c_tau, c_a=c_a, trunc_radius=trunc_radius)
    for name, value in given.items():
        if value is not None:
            _check_bound(name, value)
    samples = max(100, samples)
    if not isinstance(problem.h, IndicatorTerm):
        raise ParameterError("problem.h must be an indicator variant")
    if c_tau is None or c_a is None or trunc_radius is None:
        consts = estimate_constants(problem, samples, seed)
        if c_tau is None:
            c_tau = _stepsize_constant(problem, consts, safety, samples, seed)
        if c_a is None:
            L_t = float(max(safety * consts.L_tilde, 1e-12))
            try:
                lt_term = 1.0 / (32.0 * L_t**2)
            except OverflowError:
                raise ParameterError(f"c_a: Lt = safety L_tilde = {L_t:.3e} overflows its square; lower safety, "
                                     "rescale the instance or supply c_a", field="c_a") from None
            try:
                c_a = 0.75 * float(c_tau) ** 2 + lt_term
            except OverflowError:
                c_a = math.inf
            if not 0.0 < c_a < math.inf:  # a c_tau too large (or NaN) to square
                raise ParameterError(f"c_a = (3/4) c_tau^2 + 1/(32 Lt^2) = {c_a:.3e} must be positive and finite at "
                                     f"c_tau = {c_tau:.3e}; lower c_tau or supply c_a", field="c_tau")
        if trunc_radius is None:
            trunc_radius = safety * consts.L_f
    if zeta is None:
        try:
            zeta, _ = error_bound_probe(problem, samples, seed + 3)
            _check_bound("zeta", zeta)
        except (ParameterError, ProbeInconclusiveError) as exc:  # an overflowed check, nothing to fit, or zeta = 0
            raise ParameterError(f"error bound probe: {exc}; supply zeta explicitly", field="zeta") from None
    return IndicatorConfig(theta=theta, zeta=zeta, c_tau=c_tau, c_a=c_a, trunc_radius=trunc_radius)


def _stepsize_constant(
    problem: StochasticProblem, consts: ProblemConstants, safety: float, samples: int, seed: int
) -> float:
    """c_tau = 1 / (safety max(L_g, G)) from estimated constants (see :func:`default_config`)."""
    rc = estimate_retraction_constants(problem.manifold, samples, seed + 1)
    rng = np.random.default_rng(seed + 2)
    max_dist = 0.0
    for X in point_blocks(problem.manifold, rng, samples):
        max_dist = sup(max_dist, problem.h.distance(problem.c_eval(X)))

    L_c = safety * consts.L_c
    L_gc = safety * consts.L_grad_c
    alpha = safety * rc.alpha
    beta = safety * rc.beta
    C_r = safety * max_dist  # bound on ||c(x) - P_C(c(x))|| over the manifold

    try:
        L_g = alpha**2 * (L_c + C_r * L_gc) + 2.0 * L_c * C_r * beta
        G_2 = retr_smooth_bound(consts, rc, C_r, safety)
        c_tau = 1.0 / (safety * max(L_g, G_2))
    except ArithmeticError:  # a square overflows, or every constant is 0
        c_tau = 0.0
    if not 0.0 < c_tau < math.inf:
        raise ParameterError(
            f"c_tau = 1 / (safety max(L_g, G)) = {c_tau:.3e} must be positive and finite; safety = {safety:.3g} "
            f"inflates L_c = {consts.L_c:.3e}, L_grad_c = {consts.L_grad_c:.3e}, L_retr = {consts.L_retr:.3e}, "
            f"alpha = {rc.alpha:.3e}, beta = {rc.beta:.3e} and max dist(c(x), C) = {max_dist:.3e}; lower safety, "
            "rescale the instance or supply c_tau", field="c_tau",
        )
    return c_tau


def step(state: driver.SolverState, problem: StochasticProblem, config: IndicatorConfig) -> TraceRecord:
    """Advance the state by exactly one iteration of :func:`driver.step`; its record carries dist(c(x_k), C)."""
    return driver.step(state, problem, config)


def run(
    problem: StochasticProblem,
    x0: ManifoldPoint | None,
    config: IndicatorConfig,
    seed: int,
    K: int,
    trace_every: int = 1,
    diagnostics: bool = False,
) -> tuple[driver.SolverState, list[TraceRecord]]:
    """Execute K iterations (k = 0 .. K-1) with :func:`driver.run`; x_K is a certificate candidate too."""
    return driver.run(problem, x0, seed, K, config, step=step, trace_every=trace_every, diagnostics=diagnostics)


def feasibility_decay_series(trace: list[TraceRecord], config: IndicatorConfig) -> list[tuple[int, float]]:
    """dist^2(c(x_k), C) * k^{2 omega / theta} for every traced row with k >= 1."""
    expo = 2.0 * config.omega / config.theta
    return [(r.k, r.infeas * r.infeas * float(r.k) ** expo) for r in trace if r.k >= 1]


def certificate(state: driver.SolverState, problem: StochasticProblem, config: IndicatorConfig) -> Certificate:
    """Witness at the kept iterate, whose index the run drew with probability proportional to tau_k.

    The witness pair is y = P_C(c(x)), z = (c(x) - y) / mu_k at the
    selected iterate, with the exact normal-cone membership test.
    """
    return driver.certificate(state, problem, config)


def error_bound_probe(problem: StochasticProblem, samples: int, seed: int) -> tuple[float, float]:
    """Estimate the error bound modulus and exponent by sampling.

    Samples manifold points, keeps the infeasible ones, and fits
    log ||grad g|| against log dist(c(x), C) for the exponent; the
    modulus is the worst-case ratio at the fitted exponent.  Diagnostic
    only; a vanishing penalty gradient at an infeasible point honestly
    yields a zero modulus.

    Raises:
        ParameterError: ``samples`` is below 100.
        ProbeInconclusiveError: all sampled points are feasible, or too
            few have a nonvanishing penalty gradient to fit a line.
    """
    if not isinstance(problem.h, IndicatorTerm):
        raise ParameterError("error bound probe requires an indicator problem")
    if samples < 100:
        raise ParameterError("samples must be >= 100")
    rng = np.random.default_rng(seed)
    kind = problem.manifold.kind
    dists, gnorms = [], []
    for X in point_blocks(problem.manifold, rng, samples):
        resid, dist = problem.h.residual(problem.c_eval(X))
        infeasible = dist > 1e-9  # the gradient of dist^2(c(x), C) / 2 is Dc(x)^T resid
        X = X[infeasible]
        grad = proj(kind, X, problem.c_jac_t(X, resid[infeasible]))
        check_tangent(kind, X, grad)
        dists.append(dist[infeasible])
        gnorms.append(fro(grad))
    dists = np.concatenate(dists)
    gnorms = np.concatenate(gnorms)
    if not dists.size:
        raise ProbeInconclusiveError("all sampled points are feasible")
    mask = gnorms > 1e-15
    if mask.sum() < 2:
        raise ProbeInconclusiveError("penalty gradient vanishes at nearly all infeasible samples")
    theta_fit = float(np.polyfit(np.log(dists[mask]), np.log(gnorms[mask]), 1)[0])
    zeta_hat = float(np.min(gnorms / dists**theta_fit))
    return zeta_hat, theta_fit
