"""Acceptance battery: one test (and one printed verdict line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole battery is deterministic (all seeds fixed).
"""

import json
import time

import numpy as np
import pytest

import manismooth as ms
from manismooth import solver_indicator as si
from manismooth import solver_lipschitz as sl
from manismooth.cli import main as cli_main
from manismooth.checks import (
    ORACLE_KINDS,
    envelope_gradient_excess,
    envelope_inequality_failures,
    indicator_invariants,
    lemma_failures,
    prox_oracle_gap,
    retr_smooth_constant_check,
    smooth_min_grad,
)
from manismooth.harness import fit_rate
from manismooth.smoothing import smoothed_objective_grad


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def pca_small():
    return ms.make_sparse_pca(20, 2, 1, 0.0, seed=29)


@pytest.fixture(scope="module")
def pca_rate():
    return ms.make_sparse_pca(50, 3, 1000, 0.1, seed=7)


@pytest.fixture(scope="module")
def sphere_generic():
    ball = ms.IndicatorBall(np.full(5, 0.4), 0.6)
    return ms.make_constrained_sphere(20, 5, 100, ball, seed=9)


def build_binding_sphere_problem():
    """Constrained-sphere instance whose constraint binds asymptotically.

    The constraint ball is centered at the image of the antipode of the
    unconstrained minimizer, so the smooth pull keeps iterates on the
    boundary and the feasibility residual follows the theoretical decay
    instead of collapsing to zero.
    """
    scale = 3.0
    B = scale * np.random.default_rng(313).standard_normal((5, 20)) / np.sqrt(20)
    probe_ball = ms.IndicatorBall(np.zeros(5), 1.0)
    tmp = ms.make_constrained_sphere(20, 5, 100, probe_ball, seed=77, quad_weight=scale, linear_map=B)
    x = ms.random_point(tmp.manifold, np.random.default_rng(0))
    for _ in range(4000):
        g = ms.tangent_project(x, tmp.full_egrad(x.data))
        x = ms.retract(x, -0.05 * g)
    anchor = ms.ManifoldPoint(tmp.manifold, -x.data)
    ball = ms.IndicatorBall(tmp.c_eval(anchor.data), 0.12)
    return ms.make_constrained_sphere(20, 5, 100, ball, seed=77, quad_weight=scale, linear_map=B)


@pytest.fixture(scope="module")
def binding_sphere():
    problem = build_binding_sphere_problem()
    zeta_probe, _ = si.error_bound_probe(problem, 300, seed=17)
    config = si.default_config(problem, theta=1.0, safety=2.0, zeta=0.3 * zeta_probe,
                               samples=150, seed=23)
    return problem, config


@pytest.fixture(scope="module")
def rate_runs(pca_rate):
    t0 = time.monotonic()
    runs = [
        sl.run(pca_rate, None, seed=s, K=20_000, trace_every=20, diagnostics=True)
        for s in range(5)
    ]
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def decay_runs(binding_sphere):
    problem, config = binding_sphere
    t0 = time.monotonic()
    runs = [si.run(problem, None, config, seed=s, K=20_000, trace_every=1) for s in range(5)]
    return runs, time.monotonic() - t0


# --------------------------------------------------------------- criteria


def test_criterion_01_gradient_formula(pca_rate, sphere_generic):
    t0 = time.monotonic()
    worst = 0.0
    step = 1e-5
    for problem, seed in ((pca_rate, 1), (sphere_generic, 2)):
        rng = np.random.default_rng(seed)
        for mu in (1.0, 0.1, 0.01):
            x = ms.random_point(problem.manifold, rng)
            _, g, _ = smoothed_objective_grad(problem, x, mu)
            errs = []
            for _ in range(20):
                u = ms.random_tangent(x, rng, norm=1.0)
                fp = smoothed_objective_grad(problem, ms.retract(x, step * u), mu)[0]
                fm = smoothed_objective_grad(problem, ms.retract(x, (-step) * u), mu)[0]
                errs.append(float(np.sum(g.data * u.data)) - (fp - fm) / (2 * step))
            worst = max(worst, float(np.linalg.norm(errs)) / g.norm())
    elapsed = time.monotonic() - t0
    verdict(1, worst <= 1e-5 and elapsed < 5.0,
            f"finite-difference relative error {worst:.2e} (limit 1e-5), {elapsed:.2f}s")


def test_criterion_02_moreau_machinery():
    # the prox oracle over all four 1-D kinds and the gradient bound on l1/l2 stacks; the inequality on all
    # five term kinds, 20,000 rows so that 12,000 of them are l1, l2 or ball
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    gap = prox_oracle_gap(rng, 1000, ORACLE_KINDS)
    excess = envelope_gradient_excess(rng, 10_000)
    ineq_fail = envelope_inequality_failures(rng, 20_000)
    elapsed = time.monotonic() - t0
    verdict(2, gap <= 1e-3 and ineq_fail == 0 and excess <= 1e-10 and elapsed < 30.0,
            f"prox oracle gap {gap:.2e} (limit 1e-3) over 1000 cases, inequality failures {ineq_fail}/20000, "
            f"gradient bound excess {excess:.1e} (limit 1e-10) over 10000 rows, {elapsed:.1f}s")


def test_criterion_03_analysis_lemmas():
    t0 = time.monotonic()
    seq_fail, imp_fail = lemma_failures(np.random.default_rng(303), 10_000)
    elapsed = time.monotonic() - t0
    verdict(3, seq_fail == 0 and imp_fail == 0 and elapsed < 10.0,
            f"sequence-bound failures {seq_fail}/10000, implicit-bound failures {imp_fail}/10000, {elapsed:.1f}s")


def test_criterion_04_deterministic_sanity(pca_small):
    t0 = time.monotonic()
    best, state = smooth_min_grad(pca_small, K=5000, seed=1, every=1)
    # eigendecomposition oracle: recover the covariance through the public
    # full-gradient evaluator at identity-block points, then diagonalize
    n, p = 20, 2
    cov = np.zeros((n, n))
    eye = np.eye(n)
    for j0 in range(0, n, p):
        block = eye[:, j0:j0 + p]
        cov[:, j0:j0 + p] = -pca_small.full_egrad(block)
    evals, evecs = np.linalg.eigh(cov)
    top = evecs[:, -1]
    cos = float(np.linalg.norm(state.x.T @ top))
    elapsed = time.monotonic() - t0
    verdict(4, best <= 1e-2 and cos >= 0.99 and elapsed < 10.0,
            f"min grad {best:.2e} (limit 1e-2), top-eigenvector cosine {cos:.4f} (limit 0.99), {elapsed:.1f}s")


def test_criterion_05_stochastic_rate(pca_rate, rate_runs):
    runs, elapsed = rate_runs
    slopes = []
    infeas_ok = True
    lh = pca_rate.h.lipschitz_const
    for state, trace in runs:
        slopes.append(fit_rate(trace, "norm_grad_Fmu", (1000, 20_000)).slope)
        if any(r.infeas > r.mu * lh + 1e-10 for r in trace):
            infeas_ok = False
    mean_slope = float(np.mean(slopes))
    verdict(5, -1.0 <= mean_slope <= -0.35 and infeas_ok and elapsed < 180.0,
            f"mean log-log slope {mean_slope:.3f} (window [-1.0, -0.35]), "
            f"infeasibility bound {'ok' if infeas_ok else 'VIOLATED'}, {elapsed:.0f}s")


def test_criterion_06_indicator_invariants(binding_sphere):
    problem, config = binding_sphere
    t0 = time.monotonic()
    x0 = ms.random_point(problem.manifold, np.random.default_rng(606))
    norms, deviation = indicator_invariants(si.init(problem, x0, config, seed=606), problem, config, K=20_000)
    elapsed = time.monotonic() - t0
    radius = config.trunc_radius
    verdict(6, norms.max() <= radius + 1e-12 and deviation <= 1e-15,
            f"max ||delta|| {norms.max():.6e} vs radius {radius:.6e} over 20000 iterations, "
            f"worst schedule deviation {deviation:.1e} (limit 1e-15 relative), {elapsed:.0f}s")


def test_criterion_07_feasibility_decay(binding_sphere, decay_runs):
    problem, config = binding_sphere
    runs, elapsed = decay_runs
    kt = config.k_tilde
    worst_ratio = 0.0
    worst_final = 0.0
    for _, trace in runs:
        series = dict(si.feasibility_decay_series(trace, config))
        tail = [v for k, v in series.items() if k >= kt]
        worst_ratio = max(worst_ratio, max(tail) / max(series[kt], 1e-12))
        worst_final = max(worst_final, trace[-1].infeas)
    verdict(7, worst_ratio <= 3.0 and worst_final <= 0.05 and elapsed < 180.0,
            f"worst decay ratio {worst_ratio:.2f} (limit 3.0) from k_tilde={kt}, "
            f"worst final dist {worst_final:.3f} (limit 0.05), {elapsed:.0f}s")


def test_criterion_08_certificates(pca_rate, binding_sphere, rate_runs, decay_runs):
    problem, config = binding_sphere
    ok = True
    details = []
    for state, _ in rate_runs[0]:
        cert = sl.certificate(state, pca_rate)
        mu = float(cert.i_K) ** (-1.0 / 3.0)
        good = cert.membership_ok and cert.feas_residual <= mu * pca_rate.h.lipschitz_const + 1e-10
        ok = ok and good
        details.append(f"L@{cert.i_K}:{'ok' if good else 'BAD'}")
    for state, _ in decay_runs[0]:
        cert = si.certificate(state, problem, config)
        ok = ok and cert.membership_ok
        details.append(f"I@{cert.i_K}:{'ok' if cert.membership_ok else 'BAD'}")
    verdict(8, ok, "witness membership " + " ".join(details))


def test_criterion_09_retr_smoothness(pca_rate, sphere_generic):
    t0 = time.monotonic()
    ok = True
    pieces = []
    for problem, seed in ((pca_rate, 11), (sphere_generic, 12)):
        for mu in (1.0, 0.1):
            emp, bound = retr_smooth_constant_check(problem, mu, 150, seed)
            ok = ok and emp <= bound
            pieces.append(f"{problem.name}@mu={mu}: {emp:.3g}<={bound:.3g}")
    elapsed = time.monotonic() - t0
    verdict(9, ok and elapsed < 30.0, "; ".join(pieces) + f", {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    cfg = {
        "problem": {"family": "sparse_pca", "n": 12, "p": 2, "N": 50, "lambda": 0.1},
        "algorithm": "lipschitz",
        "seed": 10,
        "max_iters": 400,
        "trace_every": 20,
        "diagnostics": True,
        "solver": {},
        "output_dir": "unused",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "run1"))
    rc1 = cli_main(["run", "--config", str(cfg_path)])
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "run2"))
    rc2 = cli_main(["run", "--config", str(cfg_path)])
    b1 = (tmp_path / "run1" / "trace.csv").read_bytes()
    b2 = (tmp_path / "run2" / "trace.csv").read_bytes()
    verdict(10, rc1 == 0 and rc2 == 0 and b1 == b2,
            f"two invocations, {len(b1)} bytes, byte-identical: {b1 == b2}")
