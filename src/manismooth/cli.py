"""Command-line entry point.

Subcommands:

- ``manismooth run --config cfg.json [--seeds 1,2,3]``: execute a seeded
  experiment described by a JSON config, writing trace.csv and
  summary.json into the configured output directory; with ``--seeds``,
  the seeds run one after another, each into its own ``seed_<s>/``.
- ``manismooth check --suite all|manifold|smoothing|lemmas|solver``: run
  the named invariant battery; exit 0 iff every property passes.
- ``manismooth report --trace t.csv --field norm_grad_Fmu --from 100 --to 20000``:
  print a power-law fit of the traced field as JSON on stdout.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
stdout carries machine-readable output only; diagnostics go to stderr.
The environment variable MANISMOOTH_OUT overrides the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import solver_indicator, solver_lipschitz
from .checks import SUITES, run_suite
from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericalFailureError,
    ParameterError,
    ProbeInconclusiveError,
    TraceFormatError,
)
from .harness import fit_rate, read_trace_csv, summary_dict, write_summary_json, write_trace_csv
from .problems import make_constrained_sphere, make_sparse_pca
from .rng import derive_seed
from .smoothing import IndicatorBall, IndicatorBox, IndicatorSingleton

ALGORITHMS = ("lipschitz", "indicator")
FAMILIES = ("sparse_pca", "constrained_sphere")


def _require(cfg: dict, field: str, types, path: str):
    if field not in cfg:
        raise ConfigError(f"{path}{field}", "missing required field")
    value = cfg[field]
    type_tuple = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, type_tuple) or (isinstance(value, bool) and bool not in type_tuple):
        names = "/".join(t.__name__ for t in type_tuple)
        raise ConfigError(f"{path}{field}", f"expected {names}, got {type(value).__name__}")
    return value


def _vector(spec: dict, field: str, types, m: int):
    value = np.asarray(_require(spec, field, types, "problem.set."), dtype=float)
    if value.shape not in ((), (m,)):
        raise ConfigError(f"problem.set.{field}", f"expected {m} entries (problem.m), got shape {value.shape}")
    return value


def _build_set_term(spec: dict, m: int):
    kind = _require(spec, "kind", str, "problem.set.")
    if kind == "ball":
        center = _vector(spec, "center", (list, int, float), m)
        radius = float(_require(spec, "radius", (int, float), "problem.set."))
        return IndicatorBall(center, radius)
    if kind == "box":
        lower = _vector(spec, "lower", list, m)
        upper = _vector(spec, "upper", list, m)
        return IndicatorBox(lower, upper)
    if kind == "singleton":
        target = _vector(spec, "target", (list, int, float), m)
        return IndicatorSingleton(target)
    raise ConfigError("problem.set.kind", f"unknown set kind {kind!r}")


def build_problem(cfg: dict, seed: int):
    family = _require(cfg, "family", str, "problem.")
    if family not in FAMILIES:
        raise ConfigError("problem.family", f"unknown family {family!r}")
    data_seed = derive_seed(seed, "data")
    if family == "sparse_pca":
        return make_sparse_pca(
            n=int(_require(cfg, "n", int, "problem.")),
            p=int(_require(cfg, "p", int, "problem.")),
            N=int(_require(cfg, "N", int, "problem.")),
            lam=float(_require(cfg, "lambda", (int, float), "problem.")),
            seed=data_seed,
        )
    set_spec = _require(cfg, "set", dict, "problem.")
    mdim = int(_require(cfg, "m", int, "problem."))
    set_term = _build_set_term(set_spec, mdim)
    return make_constrained_sphere(
        n=int(_require(cfg, "n", int, "problem.")),
        m=mdim,
        N=int(_require(cfg, "N", int, "problem.")),
        set_term=set_term,
        seed=data_seed,
        quad_weight=float(cfg.get("quad_weight", 1.0)),
    )


def validate_config(cfg: dict) -> dict:
    algorithm = _require(cfg, "algorithm", str, "")
    if algorithm not in ALGORITHMS:
        raise ConfigError("algorithm", f"must be one of {ALGORITHMS}")
    _require(cfg, "problem", dict, "")
    seed = _require(cfg, "seed", int, "")
    if seed < 0:
        raise ConfigError("seed", "must be a nonnegative integer")
    max_iters = _require(cfg, "max_iters", int, "")
    if max_iters < 1:
        raise ConfigError("max_iters", "must be >= 1")
    if "trace_every" in cfg and _require(cfg, "trace_every", int, "") < 1:
        raise ConfigError("trace_every", "must be >= 1")
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("solver", "must be an object")
    for name in ("theta", "safety", "zeta", "c_tau", "c_a", "trunc_radius"):
        if solver.get(name) is None:
            continue
        if not math.isfinite(_require(solver, name, (int, float), "solver.")):
            raise ConfigError(f"solver.{name}", "must be finite")
    family = cfg["problem"].get("family")
    if algorithm == "indicator":
        if family != "constrained_sphere":
            raise ConfigError("problem.family", "algorithm 'indicator' requires an indicator-h problem")
        if "theta" not in solver or solver["theta"] is None:
            raise ConfigError("solver.theta", "required for algorithm 'indicator'")
    if algorithm == "lipschitz" and family == "constrained_sphere":
        raise ConfigError("problem.family", "algorithm 'lipschitz' requires a Lipschitz-h problem")
    return cfg


def _execute(cfg: dict, seed: int, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg["problem"], seed)
    algorithm = cfg["algorithm"]
    K = cfg["max_iters"]
    trace_every = cfg.get("trace_every", 1)
    diagnostics = bool(cfg.get("diagnostics", False))
    run_seed = derive_seed(seed, "sampling")
    t_start = time.monotonic()
    solver_params: dict = {}
    if algorithm == "lipschitz":
        state, trace = solver_lipschitz.run(
            problem, None, run_seed, K, trace_every=trace_every, diagnostics=diagnostics, measure_time=False
        )
        cert = solver_lipschitz.certificate(state, problem)
    else:
        scfg = cfg.get("solver", {})
        config = solver_indicator.default_config(
            problem,
            theta=float(scfg["theta"]),
            safety=float(scfg.get("safety", 2.0)),
            zeta=scfg.get("zeta"),
            seed=derive_seed(seed, "probe"),
        )
        overrides = {
            k: float(scfg[k]) for k in ("c_tau", "c_a", "trunc_radius", "zeta") if scfg.get(k) is not None
        }
        if overrides:
            config = dataclasses.replace(config, **overrides)
        state, trace = solver_indicator.run(
            problem, None, config, run_seed, K, trace_every=trace_every, diagnostics=diagnostics, measure_time=False
        )
        cert = solver_indicator.certificate(state, problem, config)
        solver_params = dataclasses.asdict(config)
        solver_params["omega"] = config.omega
        solver_params["k_tilde"] = config.k_tilde
    fits = []
    for field in ("norm_G", "norm_grad_Fmu"):
        try:
            fits.append(fit_rate(trace, field, (100, K)))
        except InsufficientDataError:
            pass
    write_trace_csv(trace, out_dir / "trace.csv")
    summary = summary_dict(
        algorithm=algorithm,
        problem_name=problem.name,
        seed=seed,
        K=K,
        config={**{k: v for k, v in cfg.items() if k != "problem"}, "solver_resolved": solver_params},
        certificate=cert,
        rate_fits=fits,
        wall_seconds=time.monotonic() - t_start,
    )
    write_summary_json(summary, out_dir / "summary.json")


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_root = Path(os.environ.get("MANISMOOTH_OUT") or cfg.get("output_dir", "."))
    seeds = [cfg["seed"]]
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            seeds = []
        if not seeds:
            print("--seeds: expected comma-separated integers", file=sys.stderr)
            return 2
    try:
        for s in seeds:
            _execute(cfg, s, out_root / f"seed_{s}" if args.seeds else out_root)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ParameterError, ProbeInconclusiveError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_check(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}", file=sys.stderr)
        return 2
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.name}"
        if res.detail and not res.passed:
            line += f": {res.detail}"
        print(line, file=sys.stderr)
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} properties passed", file=sys.stderr)
    return 0 if failed == 0 else 1


def cmd_report(args) -> int:
    try:
        trace = read_trace_csv(args.trace)
    except OSError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"trace format error: {exc}", file=sys.stderr)
        return 2
    try:
        fit = fit_rate(trace, args.field, (args.k_lo, args.k_hi), mode=args.mode)
    except (InsufficientDataError, ParameterError, AttributeError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "field": args.field,
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "k_lo": fit.window[0],
                "k_hi": fit.window[1],
                "mode": args.mode,
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="manismooth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a seeded experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the run configuration")
    p_run.add_argument("--seeds", help="comma-separated seed list; each runs in its own subdirectory")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run an invariant/property suite")
    p_check.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)}")
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("report", help="fit a decay rate from an existing trace")
    p_rep.add_argument("--trace", required=True, help="path to trace.csv")
    p_rep.add_argument("--field", required=True, help="trace column to fit")
    p_rep.add_argument("--from", dest="k_lo", type=int, required=True, help="window start (iteration)")
    p_rep.add_argument("--to", dest="k_hi", type=int, required=True, help="window end (iteration)")
    p_rep.add_argument("--mode", default="mean_sq", choices=("mean_sq", "raw"))
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
