"""Self-contained property suites behind the ``check`` CLI command.

Each suite runs a battery of invariant checks with fixed internal seeds
and reports one (name, passed, detail) triple per property.  These
batteries are the one implementation of the invariants the analysis
rests on (prox and Moreau-envelope properties, the two sequence lemmas,
retraction bounds, momentum tangency, truncation and the exact
schedules); the pytest suite runs them through ``check --suite all``
rather than re-implementing them.  The oracles the batteries share with
worked-example tests (:func:`grid_argmin_1d`,
:func:`largest_premise_solution`, :func:`random_terms`, ``DESCRIPTORS``)
live here once, as do the executable inequality checks: the two sequence
lemmas, which hold for every admissible input, and
:func:`retr_smooth_constant_check`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import manifolds as mf
from . import solver_indicator, solver_lipschitz
from .errors import ParameterError
from .problems import estimate_constants, make_constrained_sphere, make_sparse_pca, retr_smooth_bound
from .smoothing import (
    IndicatorBall,
    IndicatorBox,
    IndicatorSingleton,
    IndicatorTerm,
    ScaledL1,
    ScaledL2,
    moreau_envelope_inequality_check,
    moreau_eval,
    prox,
    smoothed_objective_grad,
)

SUITES = ("all", "manifold", "smoothing", "lemmas", "solver")

DESCRIPTORS = (mf.sphere(5), mf.stiefel(6, 2), mf.oblique(4, 3))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------- manifold


def check_manifold() -> list[CheckResult]:
    rng = np.random.default_rng(12345)
    results = []

    worst = 0.0
    for desc in DESCRIPTORS:
        for _ in range(1000):
            x = mf.random_point(desc, rng)
            v = rng.standard_normal(desc.shape)
            p1 = mf.tangent_project(x, v)
            p2 = mf.tangent_project(x, p1.data)
            worst = max(worst, float(np.linalg.norm(p1.data - p2.data)))
    results.append(_result("projection idempotence", worst <= 1e-12, f"max drift {worst:.2e}"))

    worst = 0.0
    for desc in DESCRIPTORS:
        for _ in range(200):
            x = mf.random_point(desc, rng)
            v = rng.standard_normal(desc.shape)
            p = mf.tangent_project(x, v)
            for _ in range(5):
                eta = mf.random_tangent(x, rng, norm=1.0)
                worst = max(worst, abs(float(np.sum((v - p.data) * eta.data))))
    results.append(_result("projection orthogonality", worst <= 1e-10, f"max inner {worst:.2e}"))

    worst = 0.0
    for desc in DESCRIPTORS:
        for _ in range(100):
            x = mf.random_point(desc, rng)
            u = mf.random_tangent(x, rng, norm=1.0)
            t = 1e-4
            y = mf.retract(x, t * u)
            worst = max(worst, float(np.linalg.norm(y.data - x.data - t * u.data)) / t)
    results.append(_result("retraction first-order", worst <= 1e-3, f"max ratio {worst:.2e}"))

    # the caps hold for the estimates and, with the same constant 2, on
    # fresh samples the estimator never saw
    ok = True
    detail = ""
    for desc in DESCRIPTORS:
        rc = mf.estimate_retraction_constants(desc, 500, 99)
        if rc.alpha > 2.0 or rc.beta > 2.0:
            ok = False
            detail = f"{desc.kind}: alpha={rc.alpha:.3f}, beta={rc.beta:.3f}"
        for _ in range(200):
            x = mf.random_point(desc, rng)
            u = mf.random_tangent(x, rng, norm=float(rng.uniform(0.01, 1.0)))
            y = mf.retract(x, u)
            nu = u.norm()
            if (np.linalg.norm(y.data - x.data) > 2.0 * nu * (1 + 1e-9)
                    or np.linalg.norm(y.data - x.data - u.data) > 2.0 * nu**2 * (1 + 1e-9)):
                ok = False
                detail = f"{desc.kind}: fresh sample exceeds the cap 2 at ||u|| = {nu:.3f}"
    results.append(_result("retraction constant caps", ok, detail))

    worst = 0.0
    lin_err = 0.0
    for desc in DESCRIPTORS:
        for _ in range(200):
            x = mf.random_point(desc, rng)
            y = mf.random_point(desc, rng)
            xi = mf.random_tangent(x, rng)
            tau = mf.random_tangent(x, rng)
            moved = mf.vector_transport(x, y, xi)
            worst = max(worst, moved.norm() - xi.norm())
            a, b = rng.standard_normal(2)
            combo = mf.vector_transport(x, y, a * xi + b * tau)
            split = a * mf.vector_transport(x, y, xi) + b * mf.vector_transport(x, y, tau)
            lin_err = max(lin_err, float(np.linalg.norm(combo.data - split.data)))
    results.append(_result("transport nonexpansive", worst <= 1e-12, f"max excess {worst:.2e}"))
    results.append(_result("transport linear", lin_err <= 1e-12, f"max gap {lin_err:.2e}"))

    ok = True
    for desc in DESCRIPTORS:
        x = mf.random_point(desc, rng)
        if not np.array_equal(mf.retract(x, mf.TangentVector(desc, x, np.zeros(desc.shape))).data, x.data):
            ok = False
    results.append(_result("retract at zero is identity", ok))
    return results


# ---------------------------------------------------------------- smoothing


def grid_argmin_1d(h_value, mu, y, lo, hi, res=1e-4):
    """Brute-force 1-D prox oracle: grid-minimize h(z) + (z-y)^2/(2 mu).

    ``h_value`` maps the whole grid array to the array of h values.
    """
    zs = np.arange(lo, hi + res, res)
    return zs[np.argmin(h_value(zs) + (zs - y) ** 2 / (2 * mu))]


def random_terms(rng, dim):
    """One seeded instance of every nonsmooth-term variant on R^dim."""
    return [
        ScaledL1(float(rng.uniform(0.1, 2.0)), dim),
        ScaledL2(float(rng.uniform(0.1, 2.0))),
        IndicatorBall(rng.standard_normal(dim), float(rng.uniform(0.5, 2.0))),
        IndicatorBox(-rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)),
        IndicatorSingleton(rng.standard_normal(dim)),
    ]


def check_smoothing() -> list[CheckResult]:
    rng = np.random.default_rng(54321)
    results = []

    worst = 0.0
    for _ in range(300):
        lam = float(rng.uniform(0.1, 2.0))
        mu = float(rng.uniform(0.05, 2.0))
        y = float(rng.uniform(-3, 3))
        span = 3 * mu * lam + 1
        zstar = grid_argmin_1d(lambda z: lam * np.abs(z), mu, y, y - span, y + span)
        worst = max(worst, abs(float(prox(ScaledL1(lam, 1), mu, np.array([y]))[0]) - zstar))
    results.append(_result("prox vs 1-D grid oracle", worst <= 1e-3, f"max gap {worst:.2e}"))

    ok = True
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        for h in random_terms(rng, dim):
            mu = float(rng.uniform(0.05, 2.0))
            y = 3 * rng.standard_normal(dim)
            z = prox(h, mu, y)
            base = h.value(z) + float(np.sum((z - y) ** 2)) / (2 * mu)
            for _ in range(20):
                cand = z + 0.5 * rng.standard_normal(dim)
                if h.value(cand) + float(np.sum((cand - y) ** 2)) / (2 * mu) < base - 1e-12:
                    ok = False
    results.append(_result("prox optimality", ok))

    ok = True
    for _ in range(500):
        dim = int(rng.integers(1, 8))
        lam = float(rng.uniform(0.05, 3.0))
        h = ScaledL1(lam, dim) if rng.uniform() < 0.5 else ScaledL2(lam)
        mu = float(rng.uniform(0.01, 3.0))
        y = 5 * rng.standard_normal(dim)
        e = moreau_eval(h, mu, y)
        if np.linalg.norm(e.grad) > h.lipschitz_const + 1e-10:
            ok = False
        if np.linalg.norm(y - e.prox_point) > mu * h.lipschitz_const + 1e-10:
            ok = False
    results.append(_result("envelope gradient bound", ok))

    ok = True
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        for h in random_terms(rng, dim):
            mu1 = float(rng.uniform(0.1, 2.0))
            mu2 = float(rng.uniform(0.01, 1.0)) * mu1
            y = 3 * rng.standard_normal(dim)
            if moreau_eval(h, mu2, y).value < moreau_eval(h, mu1, y).value - 1e-10:
                ok = False
    results.append(_result("envelope monotone in mu", ok))

    worst = -np.inf
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        for h in random_terms(rng, dim):
            mu = float(rng.uniform(0.05, 2.0))
            y1 = 3 * rng.standard_normal(dim)
            y2 = 3 * rng.standard_normal(dim)
            g1 = moreau_eval(h, mu, y1).grad
            g2 = moreau_eval(h, mu, y2).grad
            worst = max(worst, float(np.linalg.norm(g1 - g2) - np.linalg.norm(y1 - y2) / mu))
    results.append(_result("envelope gradient 1/mu-Lipschitz", worst <= 1e-12,
                           f"max ||g1 - g2|| - ||y1 - y2|| / mu = {worst:.2e}"))

    ok = True
    for _ in range(400):
        dim = int(rng.integers(1, 6))
        for h in random_terms(rng, dim):
            mu1 = float(rng.uniform(0.05, 2.0))
            mu2 = float(rng.uniform(0.01, 1.0)) * mu1
            y = 3 * rng.standard_normal(dim)
            if not moreau_envelope_inequality_check(h, mu1, mu2, y):
                ok = False
    results.append(_result("two-parameter envelope inequality", ok))
    return results


# ------------------------------------------------------------------ lemmas


def lemma_seq_bound_check(b: Sequence[float], p: float) -> bool:
    """Check sum_k b_k / (sum_{i<=k} b_i)^p <= (sum b)^{1-p} / (1-p).

    Holds for any b_1 > 0, b_i >= 0, p in (0, 1); slack 1e-12.
    """
    b = np.asarray(b, dtype=float)
    if b.size == 0 or b[0] <= 0 or np.any(b < 0):
        raise ParameterError("need b_1 > 0 and b_i >= 0")
    if not 0 < p < 1:
        raise ParameterError("need p in (0, 1)")
    partial = np.cumsum(b)
    lhs = float(np.sum(b / partial**p))
    rhs = float(partial[-1] ** (1.0 - p) / (1.0 - p))
    return lhs <= rhs + 1e-12


def lemma_implicit_bound_check(c: float, d: float, e: float, alpha: float, beta: float, x: float) -> bool:
    """Check the explicit bound implied by x <= c x^alpha + d x^beta + e.

    Verifies x <= 2 (4 alpha)^{alpha/(1-alpha)} c^{1/(1-alpha)}
               + 2 (4 beta)^{beta/(1-beta)} d^{1/(1-beta)} + 2 e
    with slack 1e-12.  The premise is a precondition and is validated
    (with a small tolerance for boundary solutions found numerically).
    """
    if not (c > 0 and d > 0):
        raise ParameterError("need c, d > 0")
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ParameterError("need alpha, beta in (0, 1)")
    if e < 0 or x < 0:
        raise ParameterError("need e >= 0 and x >= 0")
    premise_rhs = c * x**alpha + d * x**beta + e
    if x > premise_rhs * (1.0 + 1e-9) + 1e-12:
        raise ParameterError("x does not satisfy the premise inequality")
    bound = (
        2.0 * (4.0 * alpha) ** (alpha / (1.0 - alpha)) * c ** (1.0 / (1.0 - alpha))
        + 2.0 * (4.0 * beta) ** (beta / (1.0 - beta)) * d ** (1.0 / (1.0 - beta))
        + 2.0 * e
    )
    return x <= bound + 1e-12


def largest_premise_solution(c, d, e, alpha, beta):
    """Largest x >= 0 with x <= c x^alpha + d x^beta + e, by bisection."""
    lo, hi = 0.0, 1.0
    while c * hi**alpha + d * hi**beta + e >= hi:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if c * mid**alpha + d * mid**beta + e >= mid:
            lo = mid
        else:
            hi = mid
    return lo


def check_lemmas() -> list[CheckResult]:
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        b = rng.uniform(0.0, 5.0, n)
        b[0] = rng.uniform(0.01, 5.0)
        p = float(rng.uniform(0.02, 0.98))
        if not lemma_seq_bound_check(b, p):
            bad += 1
    results = [_result("sequence partial-sum bound", bad == 0, f"{bad} failures")]

    bad = 0
    for _ in range(10_000):
        c = float(rng.uniform(0.05, 5.0))
        d = float(rng.uniform(0.05, 5.0))
        e = float(rng.uniform(0.0, 5.0))
        al = float(rng.uniform(0.05, 0.95))
        be = float(rng.uniform(0.05, 0.95))
        if not lemma_implicit_bound_check(c, d, e, al, be, largest_premise_solution(c, d, e, al, be)):
            bad += 1
    results.append(_result("implicit power bound", bad == 0, f"{bad} failures"))
    return results


# --------------------------------------------------- retraction smoothness


def retr_smooth_constant_check(
    problem, mu: float, samples: int, seed: int, safety: float = 2.0
) -> tuple[float, float]:
    """Empirical retraction-smoothness constant of F_mu vs its bound.

    Maximizes 2 mu (F_mu(R_x(eta)) - F_mu(x) - <eta, grad F_mu(x)>) / ||eta||^2
    over seeded (x, eta) with ||eta|| <= 1, and assembles the comparison
    constant from estimated problem and retraction constants (inflated
    by ``safety``), using the Lipschitz-h or indicator-h form of the
    composite smoothness constant as appropriate.

    Returns:
        (empirical_constant, bound)
    """
    if samples < 100:
        raise ParameterError("samples must be >= 100")
    rng = np.random.default_rng(seed)
    consts = estimate_constants(problem, max(100, samples), seed)
    rc = mf.estimate_retraction_constants(problem.manifold, max(100, samples), seed + 1)

    empirical = -math.inf
    max_dist = 0.0
    for _ in range(samples):
        x = mf.random_point(problem.manifold, rng)
        eta = mf.random_tangent(x, rng, norm=float(rng.uniform(0.05, 1.0)))
        y = mf.retract(x, eta)
        fx, gx, _ = smoothed_objective_grad(problem, x, mu)
        fy, _, _ = smoothed_objective_grad(problem, y, mu)
        lin = float(np.sum(gx.data * eta.data))
        empirical = max(empirical, 2.0 * mu * (fy - fx - lin) / eta.norm() ** 2)
        if isinstance(problem.h, IndicatorTerm):
            max_dist = max(max_dist, problem.h.distance(problem.c_eval(x.data)))
    if isinstance(problem.h, IndicatorTerm):
        level = safety * max_dist
    else:
        level = problem.h.lipschitz_const
    return float(empirical), float(retr_smooth_bound(consts, rc, level, safety))


# ------------------------------------------------------------------ solver


def check_solver() -> list[CheckResult]:
    results = []
    problem = make_sparse_pca(n=10, p=2, N=5, lam=0.05, seed=11)

    # per-step invariants of the Lipschitz solver: the momentum is tangent
    # at the iterate after every step, and tau_k is positive and
    # nonincreasing along the run
    def tangency(s):
        X, D = s.x, s.delta
        return float(np.linalg.norm((X.T @ D) + (D.T @ X)))

    state = solver_lipschitz.init(problem, mf.random_point(problem.manifold, np.random.default_rng(30)), seed=3)
    taus = []
    tang = [tangency(state)]
    for _ in range(500):
        taus.append(solver_lipschitz.step(state, problem).tau)
        tang.append(tangency(state))
    results.append(_result("adaptive stepsize positive nonincreasing",
                           all(t > 0 for t in taus) and all(a >= b for a, b in zip(taus, taus[1:]))))
    results.append(_result("momentum tangent at iterate", max(tang) <= 1e-8, f"max violation {max(tang):.2e}"))

    smooth = make_sparse_pca(n=10, p=1, N=1, lam=0.0, seed=13)
    _, tr = solver_lipschitz.run(smooth, None, seed=5, K=1500, trace_every=10, diagnostics=True)
    best = min(r.norm_grad_Fmu for r in tr)
    results.append(_result("deterministic smooth sanity", best <= 5e-2, f"min grad {best:.2e}"))

    _, t1 = solver_lipschitz.run(problem, None, seed=8, K=200, trace_every=10, measure_time=False)
    _, t2 = solver_lipschitz.run(problem, None, seed=8, K=200, trace_every=10, measure_time=False)
    results.append(_result("seeded rerun identical", t1 == t2))

    # per-step invariants of the indicator solver: truncation after every
    # step and the schedule formulas, exactly, at every k
    ball = IndicatorBall(np.full(4, 0.3), 0.8)
    cproblem = make_constrained_sphere(n=8, m=4, N=6, set_term=ball, seed=21)
    config = solver_indicator.default_config(cproblem, theta=1.0, safety=2.0, samples=120, seed=31)
    cstate = solver_indicator.init(cproblem, mf.random_point(cproblem.manifold, np.random.default_rng(9)), config, 9)
    radius = config.trunc_radius
    norms = [np.linalg.norm(cstate.delta)]
    reports = []
    for _ in range(600):
        reports.append(solver_indicator.step(cstate, cproblem, config))
        norms.append(np.linalg.norm(cstate.delta))
    results.append(_result("truncation radius respected", max(norms) <= radius + 1e-12,
                           f"max ||delta|| {max(norms):.6e} vs radius {radius:.6e}"))

    # the run above never reaches its radius; at 0.1 the truncation binds,
    # so it must both fire (a truncated delta has norm radius, to rounding)
    # and hold after every step
    tight = dataclasses.replace(config, trunc_radius=0.1)
    tstate = solver_indicator.init(cproblem, mf.random_point(cproblem.manifold, np.random.default_rng(9)), tight, 9)
    norms = [np.linalg.norm(tstate.delta)]
    for _ in range(600):
        solver_indicator.step(tstate, cproblem, tight)
        norms.append(np.linalg.norm(tstate.delta))
    fired = sum(abs(nrm - 0.1) <= 1e-12 for nrm in norms)
    results.append(_result("truncation fires and holds at a binding radius", fired >= 1 and max(norms) <= 0.1 + 1e-12,
                           f"bound at {fired} of {len(norms)} checks, max ||delta|| {max(norms):.6e} vs radius 0.1"))

    om = config.omega
    sched_ok = all(
        r.mu == float(max(r.k, 1)) ** (-om)
        and r.tau == config.c_tau * float(r.k + 1) ** (-om)
        and r.a == min(1.0, config.c_a * float(r.k + 1) ** (-2 * om))
        for r in reports
    )
    results.append(_result("indicator schedules exact", sched_ok))

    xs = mf.ManifoldPoint(cproblem.manifold, cstate.x)
    mu = 0.37
    resid, _ = cproblem.h.residual(cproblem.c_eval(xs.data))
    direct = mf.tangent_project(xs, cproblem.c_jac_t(xs.data, resid / mu))
    via_env = mf.tangent_project(xs, cproblem.c_jac_t(xs.data, moreau_eval(cproblem.h, mu, cproblem.c_eval(xs.data)).grad))
    gap = float(np.linalg.norm(direct.data - via_env.data))
    results.append(_result("penalty gradient identity", gap <= 1e-10, f"gap {gap:.2e}"))
    return results


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    table = {
        "manifold": check_manifold,
        "smoothing": check_smoothing,
        "lemmas": check_lemmas,
        "solver": check_solver,
    }
    if suite == "all":
        out = []
        for name in ("manifold", "smoothing", "lemmas", "solver"):
            out.extend(table[name]())
        return out
    return table[suite]()
