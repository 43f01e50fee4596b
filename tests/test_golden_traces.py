"""Pinned golden traces for both solvers.

Two short seeded runs with diagnostics on, one per solver, K = 1200.
The Lipschitz rows and certificate were produced before the solvers
moved onto a shared ndarray driver, when the driver still renormalised
the iterate at k = 1000; the run now crosses that index without it and
still agrees.  The indicator block (estimated configuration, rows and
certificate) was re-recorded when the estimators' sampled passes became
whole stacked draws and zeta came to be taken at the supplied theta.  Any
refactor of the solver code must reproduce them to 1e-10 relative.

Regenerate only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden_traces.py

A rerun keeps every recorded value that still agrees within REL_TOL, so
it rewrites only what moved, and prints each moved value, old -> new.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import manismooth as ms
from manismooth import solver_indicator as si
from manismooth import solver_lipschitz as sl

GOLDEN = Path(__file__).with_name("golden_traces.json")
REL_TOL = 1e-10


def _rows(trace):
    return [list(dataclasses.astuple(r)) for r in trace]


def _cert(cert):
    return {"i_K": cert.i_K, "grad_residual": cert.grad_residual, "feas_residual": cert.feas_residual}


def lipschitz_run() -> dict:
    problem = ms.make_sparse_pca(10, 2, 8, 0.15, seed=5)
    state, trace = sl.run(problem, None, seed=13, K=1200, trace_every=50, diagnostics=True)
    return {"trace": _rows(trace), "certificate": _cert(sl.certificate(state, problem))}


def indicator_run() -> dict:
    ball = ms.IndicatorBall(np.full(4, 0.35), 0.7)
    problem = ms.make_constrained_sphere(10, 4, 12, ball, seed=3)
    config = si.default_config(problem, theta=1.0, safety=2.0, samples=120, seed=8)
    state, trace = si.run(problem, None, config, seed=15, K=1200, trace_every=50, diagnostics=True)
    return {
        "config": dataclasses.asdict(config),
        "trace": _rows(trace),
        "certificate": _cert(si.certificate(state, problem, config)),
    }


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _keep_agreeing(got, want):
    """got, with each value that agrees with the recorded want within REL_TOL kept as recorded."""
    if isinstance(got, dict) and isinstance(want, dict):
        return {key: _keep_agreeing(value, want.get(key)) for key, value in got.items()}
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [_keep_agreeing(g, w) for g, w in zip(got, want)]
    if isinstance(got, float) and isinstance(want, float) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        return want
    return got


def test_lipschitz_golden_trace():
    _assert_close(lipschitz_run(), json.loads(GOLDEN.read_text())["lipschitz"], "lipschitz")


def test_indicator_golden_trace():
    _assert_close(indicator_run(), json.loads(GOLDEN.read_text())["indicator"], "indicator")


def _changes(got, want, where):
    """(where, recorded, new) for each value of got that differs from the recorded want."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [c for key, value in got.items() for c in _changes(value, want.get(key), f"{where}.{key}")]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [c for i, (g, w) in enumerate(zip(got, want)) for c in _changes(g, w, f"{where}[{i}]")]
    return [] if got == want else [(where, want, got)]


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    runs = _keep_agreeing({"lipschitz": lipschitz_run(), "indicator": indicator_run()}, recorded)
    for where, old, new in _changes(runs, recorded, "golden"):
        print(f"{where}: {old} -> {new}")
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")
