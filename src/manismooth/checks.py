"""Self-contained property suites behind the ``check`` CLI command.

Each suite runs a battery of invariant checks with fixed internal seeds
and reports one (name, passed, detail) triple per property.  These
batteries are the library's implementation of the invariants the analysis
rests on (prox and Moreau-envelope properties, the two sequence lemmas,
retraction bounds, momentum tangency, truncation and the exact
schedules); the pytest suite runs them through ``check --suite all``, and
acceptance criteria 02, 03 and 06 re-run the prox/envelope, lemma and
truncation/schedule properties at their own seeds and sizes.  The oracles
the batteries share with worked-example tests (:func:`grid_argmin_1d`,
:func:`largest_premise_solution`, :func:`random_terms`, ``DESCRIPTORS``)
live here once, as do the executable inequality checks: the two sequence
lemmas, which hold for every admissible input, and
:func:`retr_smooth_constant_check`.

The manifold, prox-optimality and lemma properties evaluate their
samples as stacks, one kernel call per stack of at most 1000 rows.  Each
draws with the generator calls of its one-sample loop, in the same
order (:func:`normal_stacks`, :func:`.manifolds.tangent_blocks`), so its
samples, and its worst value, are that loop's bit for bit; only the
bisection of :func:`largest_premise_solution` rounds differently (numpy's
``pow`` is not C's), which leaves the verdicts unchanged.  The grid
oracle evaluates an elementwise ``h_value`` on blocks of GRID_BLOCK
points and keeps the first minimum, the whole grid's argmin bit for bit.
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
    _rows,
    moreau_envelope_inequality_check,
    moreau_eval,
    prox,
    smoothed_objective_grad,
)

DESCRIPTORS = (mf.sphere(5), mf.stiefel(6, 2), mf.oblique(4, 3))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------- manifold


def normal_stacks(rng: np.random.Generator, count: int, *shapes) -> list[np.ndarray]:
    """``count`` rounds of ``rng.standard_normal(shape)``, shape by shape, as one ``(count, *shape)`` array each.

    One flat draw carved per round: the same values as the one-at-a-time calls.
    """
    cuts = np.cumsum([0, *(math.prod(shape) for shape in shapes)])
    flat = rng.standard_normal((count, cuts[-1]))
    return [np.ascontiguousarray(flat[:, a:b]).reshape(count, *shape) for a, b, shape in zip(cuts, cuts[1:], shapes)]


def check_manifold() -> list[CheckResult]:
    # each property draws its samples as stacks with the generator calls of
    # the typed one-at-a-time loop, in its order, and checks them as its typed
    # values did, so every sample and every worst value is that loop's, bit for bit
    rng = np.random.default_rng(12345)
    results = []

    worst = 0.0
    for desc in DESCRIPTORS:
        raw_x, v = normal_stacks(rng, 1000, desc.shape, desc.shape)
        X = mf.points_from(desc.kind, raw_x)
        p1 = mf.tangents_from(desc.kind, X, v)
        worst = mf.sup(worst, mf.fro(p1 - mf.tangents_from(desc.kind, X, p1)))
    results.append(_result("projection idempotence", worst <= 1e-12, f"max drift {worst:.2e}"))

    worst = 0.0
    for desc in DESCRIPTORS:  # five unit tangents per point
        raw_x, v, raw_eta = normal_stacks(rng, 200, desc.shape, desc.shape, (5, *desc.shape))
        X = mf.points_from(desc.kind, raw_x)
        normal = np.repeat(v - mf.tangents_from(desc.kind, X, v), 5, axis=0)
        eta = mf.tangents_from(desc.kind, np.repeat(X, 5, axis=0), raw_eta.reshape(-1, *desc.shape), 1.0)
        worst = mf.sup(worst, np.abs(np.sum(normal * eta, axis=(-2, -1))))
    results.append(_result("projection orthogonality", worst <= 1e-10, f"max inner {worst:.2e}"))

    worst = 0.0
    for desc in DESCRIPTORS:
        raw_x, raw_u = normal_stacks(rng, 100, desc.shape, desc.shape)
        X = mf.points_from(desc.kind, raw_x)
        step = 1e-4 * mf.tangents_from(desc.kind, X, raw_u, 1.0)
        Y = mf.retr(desc.kind, X, step)
        mf.check_point(desc.kind, Y)
        worst = mf.sup(worst, mf.fro(Y - X - step) / 1e-4)
    results.append(_result("retraction first-order", worst <= 1e-3, f"max ratio {worst:.2e}"))

    # the caps hold for the estimates and, with the same constant 2, on
    # fresh samples the estimator never saw; a failure names the first
    # manifold over a cap and its largest ratios
    failures = []
    for desc in DESCRIPTORS:
        rc = mf.estimate_retraction_constants(desc, 500, 99)
        if rc.alpha > 2.0 or rc.beta > 2.0:
            failures.append(f"{desc.kind}: estimated alpha={rc.alpha:.3f}, beta={rc.beta:.3f}")
        over, alpha, beta = False, 0.0, 0.0
        for X, U, _ in mf.tangent_blocks(desc, rng, 200, lambda rng: (rng.uniform(0.01, 1.0),)):
            Y = mf.retr(desc.kind, X, U)
            mf.check_point(desc.kind, Y)
            nu = mf.fro(U)
            first, second, nu2 = mf.fro(Y - X), mf.fro(Y - X - U), mf.squares(nu)
            over |= bool(np.any((first > 2.0 * nu * (1 + 1e-9)) | (second > 2.0 * nu2 * (1 + 1e-9))))
            alpha, beta = mf.sup(alpha, first / nu), mf.sup(beta, second / nu2)
        if over:
            failures.append(f"{desc.kind}: fresh samples reach alpha={alpha:.3f}, beta={beta:.3f}")
    results.append(_result("retraction constant caps", not failures, failures[0] if failures else ""))

    worst = 0.0
    lin_err = 0.0
    for desc in DESCRIPTORS:
        kind = desc.kind
        raw_x, raw_y, raw_xi, raw_tau, ab = normal_stacks(rng, 200, *[desc.shape] * 4, (2,))
        X, Y = mf.points_from(kind, raw_x), mf.points_from(kind, raw_y)
        xi, tau = mf.tangents_from(kind, X, raw_xi), mf.tangents_from(kind, X, raw_tau)
        a, b = ab[:, 0, None, None], ab[:, 1, None, None]
        moved = mf.tangents_from(kind, Y, xi)
        worst = mf.sup(worst, mf.fro(moved) - mf.fro(xi))
        split = a * moved + b * mf.tangents_from(kind, Y, tau)
        lin_err = mf.sup(lin_err, mf.fro(mf.tangents_from(kind, Y, a * xi + b * tau) - split))
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


# grid points per oracle block: 64 kB of float64, under glibc's default 128 KiB mmap threshold
GRID_BLOCK = 8192


def grid_argmin_1d(h_value, mu, y, lo, hi, res=1e-4):
    """Brute-force 1-D prox oracle: grid-minimize h(z) + (z-y)^2/(2 mu) over ``np.arange(lo, hi + res, res)``.

    Evaluated in blocks of at most GRID_BLOCK points, so ``h_value`` must be elementwise.  Each block's
    points are made by numpy's own ``arange`` rule (see :func:`grid_block`), so the whole grid is never
    held.  The first minimum (or the first NaN) wins, so the result is ``zs[np.argmin(...)]`` over the
    whole grid, bit for bit.  Raises ParameterError unless res > 0, lo <= hi and the grid is not empty.
    """
    if not (res > 0 and lo <= hi):
        raise ParameterError(f"grid oracle needs res > 0 and lo <= hi, got res={res!r}, lo={lo!r}, hi={hi!r}")
    size = math.ceil((hi + res - lo) / res)
    if size < 1:
        raise ParameterError(f"grid oracle's grid is empty: res={res!r} is lost in rounding hi + res, hi={hi!r}")
    best, best_val = lo, np.inf  # an all-inf grid gives its first point, as np.argmin does
    for start in range(0, size, GRID_BLOCK):
        block = grid_block(lo, res, start, min(start + GRID_BLOCK, size))
        vals = h_value(block) + (block - y) ** 2 / (2 * mu)
        i = int(np.argmin(vals))
        if vals[i] != vals[i]:  # a NaN, the first of the grid
            return block[i]
        if vals[i] < best_val:
            best, best_val = block[i], vals[i]
    return np.float64(best)


def grid_block(lo, res, start, stop):
    """Points start..stop-1 of ``np.arange(lo, ..., res)``, by numpy's fill rule for float64.

    numpy writes element 0 as ``lo`` and element 1 as ``lo + res``, then element i as
    ``lo + i * delta`` with ``delta = (lo + res) - lo``.
    """
    block = np.arange(start, stop, dtype=np.float64)
    block *= (lo + res) - lo
    block += lo
    head = (lo, lo + res)[start:stop]  # the two elements numpy writes directly
    block[:len(head)] = head
    return block


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
            cand = z + 0.5 * rng.standard_normal((20, dim))  # the 20 candidates as one stack
            ok &= not np.any(h.value(cand) + np.sum((cand - y) ** 2, axis=-1) / (2 * mu) < base - 1e-12)
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


# rows per stacked lemma evaluation: a zero-padded 1000 x 39 block of the
# sequence bound is 312 kB per temporary
LEMMA_ROWS = 1000


def lemma_seq_bound_check(b: Sequence[float], p: float):
    """Check sum_k b_k / (sum_{i<=k} b_i)^p <= (sum b)^{1-p} / (1-p).

    Holds for any b_1 > 0, b_i >= 0, p in (0, 1); slack 1e-12.  ``b`` may
    also be a stack ``(..., L)`` of rows, zero-padded (a trailing zero adds
    nothing to either side), with one ``p`` per row; the result is then one
    verdict per row.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[-1] == 0 or np.any(b[..., 0] <= 0) or np.any(b < 0):
        raise ParameterError("need b_1 > 0 and b_i >= 0")
    if not np.all((0 < p) & (p < 1)):
        raise ParameterError("need p in (0, 1)")
    partial = np.cumsum(b, axis=-1)
    lhs = np.sum(b / partial ** (np.expand_dims(p, -1) if b.ndim > 1 else p), axis=-1)
    rhs = partial[..., -1] ** (1.0 - p) / (1.0 - p)
    return _rows(lhs <= rhs + 1e-12)


def lemma_implicit_bound_check(c, d, e, alpha, beta, x):
    """Check the explicit bound implied by x <= c x^alpha + d x^beta + e.

    Verifies x <= 2 (4 alpha)^{alpha/(1-alpha)} c^{1/(1-alpha)}
               + 2 (4 beta)^{beta/(1-beta)} d^{1/(1-beta)} + 2 e
    with slack 1e-12.  The premise is a precondition and is validated
    (with a small tolerance for boundary solutions found numerically).
    Array arguments are checked row by row and give one verdict each.
    """
    if not np.all((c > 0) & (d > 0) & (0 < alpha) & (alpha < 1) & (0 < beta) & (beta < 1) & (e >= 0) & (x >= 0)):
        raise ParameterError("need c, d > 0, alpha, beta in (0, 1), e >= 0 and x >= 0")
    if np.any(x > (c * x**alpha + d * x**beta + e) * (1.0 + 1e-9) + 1e-12):
        raise ParameterError("x does not satisfy the premise inequality")
    bound = (
        2.0 * (4.0 * alpha) ** (alpha / (1.0 - alpha)) * c ** (1.0 / (1.0 - alpha))
        + 2.0 * (4.0 * beta) ** (beta / (1.0 - beta)) * d ** (1.0 / (1.0 - beta))
        + 2.0 * e
    )
    return _rows(np.less_equal(x, bound + 1e-12))


def largest_premise_solution(c, d, e, alpha, beta):
    """Largest x >= 0 with x <= c x^alpha + d x^beta + e, by bisection; one per row for arrays."""
    c, d, e, alpha, beta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (c, d, e, alpha, beta)))

    def holds(x):
        return c * x**alpha + d * x**beta + e >= x

    lo, hi = np.zeros(c.shape), np.ones(c.shape)
    while np.any(grow := holds(hi)):
        hi = np.where(grow, 2.0 * hi, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = holds(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return _rows(lo)


def check_lemmas() -> list[CheckResult]:
    # the draws stay one row at a time, in the generator order of the scalar
    # loop; each block of LEMMA_ROWS rows is then checked in one stacked call
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(10_000 // LEMMA_ROWS):
        b, p = np.zeros((LEMMA_ROWS, 39)), np.empty(LEMMA_ROWS)
        for row in range(LEMMA_ROWS):
            n = int(rng.integers(1, 40))
            b[row, :n] = rng.uniform(0.0, 5.0, n)
            b[row, 0] = rng.uniform(0.01, 5.0)
            p[row] = rng.uniform(0.02, 0.98)
        bad += int(np.count_nonzero(~lemma_seq_bound_check(b, p)))
    results = [_result("sequence partial-sum bound", bad == 0, f"{bad} failures")]

    # one uniform(lo, hi, (rows, 5)) draw is the rows' five scalar uniforms, in order
    bad = 0
    lo, hi = [0.05, 0.05, 0.0, 0.05, 0.05], [5.0, 5.0, 5.0, 0.95, 0.95]
    for _ in range(10_000 // LEMMA_ROWS):
        c, d, e, al, be = rng.uniform(lo, hi, (LEMMA_ROWS, 5)).T
        x = largest_premise_solution(c, d, e, al, be)
        bad += int(np.count_nonzero(~lemma_implicit_bound_check(c, d, e, al, be, x)))
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
    consts = estimate_constants(problem, samples, seed)
    rc = mf.estimate_retraction_constants(problem.manifold, samples, seed + 1)

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

    _, t1 = solver_lipschitz.run(problem, None, seed=8, K=200, trace_every=10)
    _, t2 = solver_lipschitz.run(problem, None, seed=8, K=200, trace_every=10)
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


# suite name -> battery, in the order ``all`` runs them; each lambda looks its
# battery up when called, so a rebound ``check_*`` (a profiler's wrapper) is the one run
BATTERIES = {
    "manifold": lambda: check_manifold(),
    "smoothing": lambda: check_smoothing(),
    "lemmas": lambda: check_lemmas(),
    "solver": lambda: check_solver(),
}
SUITES = ("all", *BATTERIES)


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return [res for name in (BATTERIES if suite == "all" else (suite,)) for res in BATTERIES[name]()]
