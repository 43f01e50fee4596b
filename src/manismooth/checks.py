"""Self-contained property suites behind the ``check`` CLI command.

Each suite runs a battery of invariant checks with fixed internal seeds
and reports one (name, passed, detail) triple per property.  These
batteries are the library's implementation of the invariants the analysis
rests on (prox and Moreau-envelope properties, the two sequence lemmas,
retraction bounds, momentum tangency, truncation and the exact
schedules); the pytest suite runs them through ``check --suite all``.
Six are stated once, as functions of their instance, size and random
stream that return the measured quantity, the limit left to the caller;
the batteries call them, as do acceptance criteria 02
(:func:`prox_oracle_gap`, :func:`envelope_gradient_excess`,
:func:`envelope_inequality_failures`), 03 (:func:`lemma_failures`), 04
(:func:`smooth_min_grad`) and 06 (:func:`indicator_invariants`).  The
oracles the batteries share with worked-example tests
(:func:`grid_argmin_1d`, :func:`oracle_cases`,
:func:`largest_premise_solution`, :func:`random_terms`, ``DESCRIPTORS``)
live here once, as do the executable inequality checks: the two sequence
lemmas, which hold for every admissible input, and
:func:`retr_smooth_constant_check` (criterion 09).

The manifold and lemma properties draw their samples from their fixed
seeds as stacks and evaluate them in one kernel call per stack of at most
1000 rows; the retraction caps call the retraction-constant estimator and
criterion 09's check runs on ``tangent_blocks`` stacks.  The envelope
properties draw a stack of ENVELOPE_ROWS rows per term instance, each row
with its own mu and y, and evaluate it through one call of the library's
``prox``/``moreau_eval``/inequality check.  The grid oracle evaluates an
elementwise ``h_value`` on blocks of GRID_BLOCK points and keeps the first
minimum, the whole grid's argmin.  The batteries' maxima are the
estimators' running max, ``manifolds._peak``, which keeps a NaN, so a NaN
fails the property it reaches.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import manifolds as mf
from . import driver, solver_indicator, solver_lipschitz
from .errors import ParameterError
from .problems import estimate_constants, make_constrained_sphere, make_sparse_pca, retr_smooth_bound
from .smoothing import (
    IndicatorBall,
    IndicatorBox,
    IndicatorSingleton,
    IndicatorTerm,
    ScaledL1,
    ScaledL2,
    _norm,
    _rows,
    _sq,
    moreau_envelope_inequality_check,
    moreau_eval,
    prox,
    smoothed_grad,
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


def check_manifold() -> list[CheckResult]:
    rng = np.random.default_rng(12345)
    results = []

    worst = 0.0
    for desc in DESCRIPTORS:
        raw_x, v = rng.standard_normal((2, 1000, *desc.shape))
        X = mf.points_from(desc.kind, raw_x)
        p1 = mf.tangents_from(desc.kind, X, v)
        worst = mf._peak(worst, mf.fro(p1 - mf.tangents_from(desc.kind, X, p1)))
    results.append(_result("projection idempotence", worst <= 1e-12, f"max drift {worst:.2e}"))

    worst = 0.0
    for desc in DESCRIPTORS:  # five unit tangents per point
        raw_x, v = rng.standard_normal((2, 200, *desc.shape))
        X = mf.points_from(desc.kind, raw_x)
        normal = np.repeat(v - mf.tangents_from(desc.kind, X, v), 5, axis=0)
        eta = mf.tangents_from(desc.kind, np.repeat(X, 5, axis=0), rng.standard_normal((1000, *desc.shape)), 1.0)
        worst = mf._peak(worst, np.abs(np.sum(normal * eta, axis=(-2, -1))))
    results.append(_result("projection orthogonality", worst <= 1e-10, f"max inner {worst:.2e}"))

    worst = 0.0
    for desc in DESCRIPTORS:
        raw_x, raw_u = rng.standard_normal((2, 100, *desc.shape))
        X = mf.points_from(desc.kind, raw_x)
        step = 1e-4 * mf.tangents_from(desc.kind, X, raw_u, 1.0)
        Y = mf.retr(desc.kind, X, step)
        mf.check_point(desc.kind, Y)
        worst = mf._peak(worst, mf.fro(Y - X - step) / 1e-4)
    results.append(_result("retraction first-order", worst <= 1e-3, f"max ratio {worst:.2e}"))

    # the caps hold for the estimates and, with the same constant 2, on fresh samples (drawn from the
    # battery's generator); a failure names the first manifold over a cap and its constants
    failures = []
    for desc in DESCRIPTORS:
        for label, rc in (("estimated", mf.estimate_retraction_constants(desc, 500, 99)),
                          ("fresh samples reach", mf.estimate_retraction_constants(desc, 200, rng))):
            if rc.alpha > 2.0 or rc.beta > 2.0:
                failures.append(f"{desc.kind}: {label} alpha={rc.alpha:.3f}, beta={rc.beta:.3f}")
    results.append(_result("retraction constant caps", not failures, failures[0] if failures else ""))

    worst = lin_err = 0.0
    for desc in DESCRIPTORS:
        kind = desc.kind
        raw_x, raw_y, raw_xi, raw_tau = rng.standard_normal((4, 200, *desc.shape))
        X, Y = mf.points_from(kind, raw_x), mf.points_from(kind, raw_y)
        xi, tau = mf.tangents_from(kind, X, raw_xi), mf.tangents_from(kind, X, raw_tau)
        a, b = rng.standard_normal((2, 200, 1, 1))
        moved = mf.tangents_from(kind, Y, xi)
        worst = mf._peak(worst, mf.fro(moved) - mf.fro(xi))
        split = a * moved + b * mf.tangents_from(kind, Y, tau)
        lin_err = mf._peak(lin_err, mf.fro(mf.tangents_from(kind, Y, a * xi + b * tau) - split))
    results.append(_result("transport nonexpansive", worst <= 1e-12, f"max excess {worst:.2e}"))
    results.append(_result("transport linear", lin_err <= 1e-12, f"max gap {lin_err:.2e}"))

    ok = True
    for desc in DESCRIPTORS:
        x = mf.random_point(desc, rng)
        ok &= np.array_equal(mf.retract(x, mf.TangentVector(desc, x, np.zeros(desc.shape))).data, x.data)
    results.append(_result("retract at zero is identity", ok))
    return results


# ---------------------------------------------------------------- smoothing


# grid points per oracle block: 64 kB of float64, under glibc's default 128 KiB mmap threshold
GRID_BLOCK = 8192
GRID_MAX = 10**8  # the oracle's largest grid, far above the battery's largest (260,001 points at span 13)
ENVELOPE_ROWS = 25  # rows per term instance in the envelope properties' stacks


def grid_argmin_1d(h_value, mu, y, lo, hi, res=1e-4):
    """Brute-force 1-D prox oracle: grid-minimize h(z) + (z-y)^2/(2 mu) over z_i = lo + i res.

    The grid has i = 0 .. ceil((hi + res - lo) / res) - 1, the points up to about hi.  It is evaluated in
    blocks of at most GRID_BLOCK points, so ``h_value`` must be elementwise and the whole grid is never
    held.  The first minimum (or the first NaN) wins, so the result is ``zs[np.argmin(...)]`` over the
    whole grid.  Raises ParameterError unless mu, lo, hi and res are finite, mu > 0, res > 0, lo <= hi
    and the grid has 1 .. GRID_MAX points.
    """
    if not (0 < mu < math.inf and 0 < res < math.inf and -math.inf < lo <= hi < math.inf):
        raise ParameterError(f"grid oracle needs finite mu > 0, res > 0 and lo <= hi, got mu={mu!r}, res={res!r}, "
                             f"lo={lo!r}, hi={hi!r}")
    points = (hi + res - lo) / res  # inf when the span overflows
    if not points <= GRID_MAX:
        raise ParameterError(f"grid oracle's grid has {points:.3g} points, more than GRID_MAX={GRID_MAX}")
    size = math.ceil(points)
    if size < 1:
        raise ParameterError(f"grid oracle's grid is empty: res={res!r} is lost in rounding hi + res, hi={hi!r}")
    for start in range(0, size, GRID_BLOCK):
        block = np.arange(start, min(start + GRID_BLOCK, size), dtype=np.float64)
        block *= res
        block += lo
        vals = h_value(block) + (block - y) ** 2 / (2 * mu)
        i = int(np.argmin(vals))
        if vals[i] != vals[i]:  # a NaN, the first of the grid
            return block[i]
        if start == 0 or vals[i] < best_val:  # an all-inf grid gives its first point, as np.argmin does
            best, best_val = block[i], vals[i]
    return best


def random_terms(rng, dim):
    """One seeded instance of every nonsmooth-term variant on R^dim."""
    return [
        ScaledL1(float(rng.uniform(0.1, 2.0)), dim),
        ScaledL2(float(rng.uniform(0.1, 2.0))),
        IndicatorBall(rng.standard_normal(dim), float(rng.uniform(0.3, 2.0))),
        IndicatorBox(-rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)),
        IndicatorSingleton(rng.standard_normal(dim)),
    ]


def term_stacks(rng, rows, *lead):
    """(h, y) per term instance for ``rows`` rows: y a stack of ENVELOPE_ROWS rows of 3 N(0, I), dims 1..5."""
    for _ in range(rows // (5 * ENVELOPE_ROWS)):
        dim = int(rng.integers(1, 6))
        for h in random_terms(rng, dim):
            yield h, 3 * rng.standard_normal((*lead, ENVELOPE_ROWS, dim))


ORACLE_KINDS = (ScaledL1, ScaledL2, IndicatorBox, IndicatorBall)  # every kind oracle_cases can draw


def oracle_cases(rng, count, kinds):
    """``count`` seeded 1-D prox cases (h, elementwise h_value, mu, y, span), h of a kind drawn from ``kinds``.

    lam ~ U(0.1, 2), mu ~ U(0.05, 2), y ~ U(-3, 3); a box is [lo, lo + U(0.1, 1)] with lo ~ U(y - 1, y), a
    ball has center ~ U(y - 0.9, y + 0.9) and radius ~ U(0.1, 1).  The oracle's grid spans y +- span.
    """
    for _ in range(count):
        lam, mu, y = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.05, 2.0)), float(rng.uniform(-3, 3))
        kind = kinds[0] if len(kinds) == 1 else kinds[rng.integers(len(kinds))]
        if kind is IndicatorBox:
            lo = float(rng.uniform(y - 1.0, y))
            hi = lo + float(rng.uniform(0.1, 1.0))
            h = kind(np.array([lo]), np.array([hi]))
            h_value = lambda z, lo=lo, hi=hi: np.where((z >= lo) & (z <= hi), 0.0, np.inf)
        elif kind is IndicatorBall:
            c, r = float(rng.uniform(y - 0.9, y + 0.9)), float(rng.uniform(0.1, 1.0))
            h = kind(np.array([c]), r)
            h_value = lambda z, c=c, r=r: np.where(np.abs(z - c) <= r, 0.0, np.inf)
        else:  # lam |z| in one dimension
            h = ScaledL1(lam, 1) if kind is ScaledL1 else ScaledL2(lam)
            h_value = lambda z, lam=lam: lam * np.abs(z)
        yield h, h_value, mu, y, 3 * mu * lam + 1


def prox_oracle_gap(rng, count, kinds):
    """Largest |prox_{mu h}(y) - grid_argmin_1d| over ``oracle_cases(rng, count, kinds)``."""
    return float(np.max([abs(float(prox(h, mu, np.array([y]))[0]) - grid_argmin_1d(h_value, mu, y, y - span, y + span))
                         for h, h_value, mu, y, span in oracle_cases(rng, count, kinds)]))


def envelope_gradient_excess(rng, rows):
    """Largest ||grad h_mu(y)|| - l_h and ||y - prox_{mu h}(y)|| - mu l_h over ``rows`` seeded rows.

    Each stack of ENVELOPE_ROWS rows has its own scaled l1 or l2 term on R^1..R^7, lam ~ U(0.05, 3), and
    each row its own mu ~ U(5e-4, 3) and y ~ 5 N(0, I).
    """
    worst = -math.inf
    for _ in range(rows // ENVELOPE_ROWS):
        dim = int(rng.integers(1, 8))
        lam = float(rng.uniform(0.05, 3.0))
        h = ScaledL1(lam, dim) if rng.uniform() < 0.5 else ScaledL2(lam)
        mu = rng.uniform(5e-4, 3.0, ENVELOPE_ROWS)
        y = 5 * rng.standard_normal((ENVELOPE_ROWS, dim))
        e, lip = moreau_eval(h, mu, y), h.lipschitz_const
        worst = mf._peak(worst, np.maximum(_norm(e.grad) - lip, _norm(y - e.prox_point) - mu * lip))
    return worst


def envelope_inequality_failures(rng, rows):
    """Rows of ``term_stacks(rng, rows)`` failing the two-parameter envelope inequality.

    Each row has its own mu1 ~ U(0.05, 2) and mu2 ~ U(0.01, 1) mu1.
    """
    failures = 0
    for h, y in term_stacks(rng, rows):
        mu1 = rng.uniform(0.05, 2.0, ENVELOPE_ROWS)
        mu2 = rng.uniform(0.01, 1.0, ENVELOPE_ROWS) * mu1
        failures += int(np.count_nonzero(~moreau_envelope_inequality_check(h, mu1, mu2, y)))
    return failures


def check_smoothing() -> list[CheckResult]:
    rng = np.random.default_rng(54321)
    gap = prox_oracle_gap(rng, 300, (ScaledL1,))
    results = [_result("prox vs 1-D grid oracle", gap <= 1e-3, f"max gap {gap:.2e}")]

    # prox optimality, monotonicity and the 1/mu-Lipschitz gradient: each row of a stack has its own mu (or
    # mu1, mu2) and y; one library call per stack
    n = ENVELOPE_ROWS
    ok = True
    for h, y in term_stacks(rng, 1000):
        mu = rng.uniform(0.05, 2.0, n)
        z = prox(h, mu, y)
        cand = z + 0.5 * rng.standard_normal((20, *z.shape))  # 20 candidates per row
        ok &= np.all(h.value(cand) + _sq(cand - y) / (2 * mu) >= h.value(z) + _sq(z - y) / (2 * mu) - 1e-12)
    results.append(_result("prox optimality", ok))
    results.append(_result("envelope gradient bound", envelope_gradient_excess(rng, 500) <= 1e-10))

    ok = True
    for h, y in term_stacks(rng, 1500):
        mu1 = rng.uniform(0.1, 2.0, n)
        mu2 = rng.uniform(0.01, 1.0, n) * mu1
        ok &= np.all(moreau_eval(h, mu2, y).value >= moreau_eval(h, mu1, y).value - 1e-10)
    results.append(_result("envelope monotone in mu", ok))

    worst = -np.inf
    for h, y in term_stacks(rng, 1500, 2):  # y1, y2 as one stack
        mu = rng.uniform(0.05, 2.0, n)
        g = moreau_eval(h, np.broadcast_to(mu, (2, n)), y).grad
        worst = mf._peak(worst, _norm(g[0] - g[1]) - _norm(y[0] - y[1]) / mu)
    results.append(_result("envelope gradient 1/mu-Lipschitz", worst <= 1e-12,
                           f"max ||g1 - g2|| - ||y1 - y2|| / mu = {worst:.2e}"))
    results.append(_result("two-parameter envelope inequality", envelope_inequality_failures(rng, 2000) == 0))
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
    terms = partial ** (np.expand_dims(p, -1) if b.ndim > 1 else p)
    lhs = np.sum(np.divide(b, terms, out=terms), axis=-1)
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


def lemma_failures(rng, rows):
    """Failures of the sequence partial-sum bound and of the implicit power bound, on ``rows`` seeded rows each.

    Each block of LEMMA_ROWS rows is drawn as stacks and checked in one call; a sequence row of length
    n ~ U{1..39} is zero past n, which adds nothing to either side of its bound.
    """
    seq = 0
    for _ in range(rows // LEMMA_ROWS):
        n = rng.integers(1, 40, LEMMA_ROWS)
        b = rng.uniform(0.0, 5.0, (LEMMA_ROWS, 39))
        b[np.arange(39) >= n[:, None]] = 0.0
        b[:, 0] = rng.uniform(0.01, 5.0, LEMMA_ROWS)
        p = rng.uniform(0.02, 0.98, LEMMA_ROWS)
        seq += int(np.count_nonzero(~lemma_seq_bound_check(b, p)))
    imp = 0
    lo, hi = [0.05, 0.05, 0.0, 0.05, 0.05], [5.0, 5.0, 5.0, 0.95, 0.95]
    for _ in range(rows // LEMMA_ROWS):
        c, d, e, al, be = rng.uniform(lo, hi, (LEMMA_ROWS, 5)).T
        x = largest_premise_solution(c, d, e, al, be)
        imp += int(np.count_nonzero(~lemma_implicit_bound_check(c, d, e, al, be, x)))
    return seq, imp


def check_lemmas() -> list[CheckResult]:
    seq, imp = lemma_failures(np.random.default_rng(7), 10_000)
    return [_result("sequence partial-sum bound", seq == 0, f"{seq} failures"),
            _result("implicit power bound", imp == 0, f"{imp} failures")]


# --------------------------------------------------- retraction smoothness


def retr_smooth_constant_check(problem, mu: float, samples: int, seed: int) -> tuple[float, float]:
    """Empirical retraction-smoothness constant of F_mu and its bound, as (empirical, bound).

    The empirical constant maximizes 2 mu (F_mu(R_x(eta)) - F_mu(x) - <eta, grad F_mu(x)>) / ||eta||^2
    over ``samples`` seeded (x, eta) with ||eta|| ~ U(0.05, 1), drawn and evaluated as
    :func:`.manifolds.tangent_blocks` stacks.  The bound assembles the comparison constant from estimated
    problem and retraction constants (inflated by 2), in the Lipschitz-h or indicator-h form of the
    composite smoothness constant as appropriate.
    """
    if samples < mf.MIN_SAMPLES:
        raise ParameterError(f"samples must be >= {mf.MIN_SAMPLES}")
    consts = estimate_constants(problem, samples, seed)
    rc = mf.estimate_retraction_constants(problem.manifold, samples, seed + 1)
    indicator = isinstance(problem.h, IndicatorTerm)
    empirical, max_dist = -math.inf, 0.0
    for X, U, Y, _ in mf.tangent_blocks(problem.manifold, np.random.default_rng(seed), samples,
                                        lambda rng, size: (rng.uniform(0.05, 1.0, size),)):
        (fx, gx), fy = problem.full_value_egrad(X), problem.full_value(Y)
        cx, ex, rgrad = smoothed_grad(problem, X, mu, gx)
        ey = moreau_eval(problem.h, mu, problem.c_eval(Y))  # F_mu(Y) needs no gradient at Y
        lin = np.sum(rgrad * U, axis=(-2, -1))
        nu = mf.fro(U)
        empirical = mf._peak(empirical, 2.0 * mu * (fy + ey.value - (fx + ex.value) - lin) / (nu * nu))
        if indicator:
            max_dist = mf._peak(max_dist, problem.h.distance(cx))
    level = 2.0 * max_dist if indicator else problem.h.lipschitz_const
    return empirical, float(retr_smooth_bound(consts, rc, level, 2.0))


# ------------------------------------------------------------------ solver


def smooth_min_grad(problem, K, seed, every):
    """Smallest ||grad F_mu|| over the diagnostics rows (every ``every`` steps) of a K-step Lipschitz run; its state."""
    state, trace = solver_lipschitz.run(problem, None, seed=seed, K=K, trace_every=every, diagnostics=True)
    return min(r.norm_grad_Fmu for r in trace), state


def indicator_invariants(state, problem, config, K):
    """Take K indicator steps from ``state``: ||delta|| at the start and after each step, and the largest
    relative deviation of mu_k, tau_k and a_k from their schedule formulas (NaN if any is NaN)."""
    om = config.omega
    norms, got, ref = [np.linalg.norm(state.delta)], [], []
    for _ in range(K):
        r = solver_indicator.step(state, problem, config)
        norms.append(np.linalg.norm(state.delta))
        got += r.mu, r.tau, r.a
        ref += (float(max(r.k, 1)) ** (-om), config.c_tau * float(r.k + 1) ** (-om),
                min(1.0, config.c_a * float(r.k + 1) ** (-2 * om)))
    ref = np.array(ref)
    return np.array(norms), float(np.max(np.abs(np.array(got) - ref) / ref, initial=0.0))


def check_solver() -> list[CheckResult]:
    results = []
    problem = make_sparse_pca(n=10, p=2, N=5, lam=0.05, seed=11)

    # per-step invariants of the Lipschitz solver: the momentum is tangent
    # at the iterate after every step, and tau_k is positive and
    # nonincreasing along the run
    def tangency(s):
        return float(np.linalg.norm((s.x.T @ s.delta) + (s.delta.T @ s.x)))

    x0 = mf.random_point(problem.manifold, np.random.default_rng(30))
    state = driver.start(problem, x0, 3, solver_lipschitz.POLICY)
    taus, tang = [], [tangency(state)]
    for _ in range(500):
        taus.append(solver_lipschitz.step(state, problem).tau)
        tang.append(tangency(state))
    results.append(_result("adaptive stepsize positive nonincreasing",
                           all(t > 0 for t in taus) and all(a >= b for a, b in zip(taus, taus[1:]))))
    results.append(_result("momentum tangent at iterate", max(tang) <= 1e-8, f"max violation {max(tang):.2e}"))

    best, _ = smooth_min_grad(make_sparse_pca(n=10, p=1, N=1, lam=0.0, seed=13), K=1500, seed=5, every=10)
    results.append(_result("deterministic smooth sanity", best <= 5e-2, f"min grad {best:.2e}"))

    _, t1 = solver_lipschitz.run(problem, None, seed=8, K=200, trace_every=10)
    _, t2 = solver_lipschitz.run(problem, None, seed=8, K=200, trace_every=10)
    results.append(_result("seeded rerun identical", t1 == t2))

    # per-step invariants of the indicator solver: truncation after every
    # step and the schedule formulas, exactly, at every k
    ball = IndicatorBall(np.full(4, 0.3), 0.8)
    cproblem = make_constrained_sphere(n=8, m=4, N=6, set_term=ball, seed=21)
    config = solver_indicator.default_config(cproblem, theta=1.0, safety=2.0, samples=120, seed=31)
    cstate = driver.start(cproblem, mf.random_point(cproblem.manifold, np.random.default_rng(9)), 9, config)
    radius = config.trunc_radius
    norms, deviation = indicator_invariants(cstate, cproblem, config, K=600)
    results.append(_result("truncation radius respected", norms.max() <= radius + 1e-12,
                           f"max ||delta|| {norms.max():.6e} vs radius {radius:.6e}"))

    # the run above never reaches its radius; at 0.1 the truncation binds,
    # so it must both fire (a truncated delta has norm radius, to rounding)
    # and hold after every step
    tight = dataclasses.replace(config, trunc_radius=0.1)
    tstate = driver.start(cproblem, mf.random_point(cproblem.manifold, np.random.default_rng(9)), 9, tight)
    norms, _ = indicator_invariants(tstate, cproblem, tight, K=600)
    fired = np.count_nonzero(np.abs(norms - 0.1) <= 1e-12)
    results.append(_result("truncation fires and holds at a binding radius", fired >= 1 and norms.max() <= 0.1 + 1e-12,
                           f"bound at {fired} of {len(norms)} checks, max ||delta|| {norms.max():.6e} vs radius 0.1"))
    results.append(_result("indicator schedules exact", deviation == 0.0))

    X, y, mu = cstate.x, cproblem.c_eval(cstate.x), 0.37
    direct = mf.proj(cproblem.manifold.kind, X, cproblem.c_jac_t(X, cproblem.h.residual(y)[0] / mu))
    via_env = mf.proj(cproblem.manifold.kind, X, cproblem.c_jac_t(X, moreau_eval(cproblem.h, mu, y).grad))
    gap = float(np.linalg.norm(direct - via_env))
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
