"""Command-line entry point.

Subcommands:

- ``manismooth run --config cfg.json [--seeds 1,2,3]``: execute a seeded
  experiment described by a JSON config, writing trace.csv and
  summary.json into the configured output directory; with ``--seeds``,
  each seed runs into its own ``seed_<s>/``, the seeds shared out over one
  forked process per usable CPU (:mod:`.seedpool`).
- ``manismooth check --suite all|manifold|smoothing|lemmas|solver``: run
  the named invariant battery; exit 0 iff every property passes.
- ``manismooth report --trace t.csv --field norm_grad_Fmu --from 100 --to 20000``:
  print a power-law fit of the traced field as JSON on stdout.

Exit codes: 0 success, 2 configuration/usage error (an out-of-range or
repeated seed or an unwritable output directory included), 3 numerical
failure, 1 an unexpected exception (its traceback is printed); with
``--seeds``, an unwritable output root is reported once before any seed,
each failing seed is named and the rest still run, and the exit code is
the worst (3 over 2; 1, a seed that raised or whose process died, over both).
stdout carries machine-readable output only; diagnostics go to stderr.
The environment variable MANISMOOTH_OUT overrides the output directory.

A process of its own enters through :func:`entry` (the ``manismooth``
console script and ``python -m manismooth.cli``), which freezes the heap
the imports built before the command runs; :func:`main`, called
in-process as the tests call it, freezes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import driver, solver_indicator, solver_lipschitz
from .driver import K_MAX
from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericalFailureError,
    ParameterError,
    ShapeMismatchError,
    TraceFormatError,
)
from .harness import TRACE_COLUMNS, fit_rate, read_trace_csv, summary_dict, write_summary_json, write_trace_csv
from .problems import make_constrained_sphere, make_sparse_pca
from .rng import derive_seed
from .smoothing import IndicatorBall, IndicatorBox, IndicatorSingleton

ALGORITHMS = ("lipschitz", "indicator")
# the keys each object of a config may hold; any other key is a config error
TOP_KEYS = ("algorithm", "problem", "seed", "max_iters", "trace_every", "diagnostics", "output_dir", "solver")
PROBLEM_KEYS = {
    "sparse_pca": ("family", "n", "p", "N", "lambda"),
    "constrained_sphere": ("family", "n", "m", "N", "set", "quad_weight"),
}
SET_KEYS = {"ball": ("kind", "center", "radius"), "box": ("kind", "lower", "upper"), "singleton": ("kind", "target")}
FAMILIES = tuple(PROBLEM_KEYS)
SEED_END = 2**64  # seeds are the 64-bit words the random streams are derived from
SEVERITY = (0, 2, 3, 1)  # exit codes, mildest first: with --seeds the command exits with the worst


def _known(cfg: dict, keys, path: str) -> None:
    """Reject the first key of cfg that is not in keys, naming it at its dotted path."""
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"{path}{key}", f"unknown field; expected one of {', '.join(keys)}")


def _require(cfg: dict, field: str, types, path: str):
    if field not in cfg:
        raise ConfigError(f"{path}{field}", "missing required field")
    value = cfg[field]
    type_tuple = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, type_tuple) or (isinstance(value, bool) and bool not in type_tuple):
        names = "/".join(t.__name__ for t in type_tuple)
        raise ConfigError(f"{path}{field}", f"expected {names}, got {type(value).__name__}")
    return value


def _number(cfg: dict, field: str, path: str, types=(int, float), low=-math.inf, strict: bool = False):
    """A finite value that is >= low (> low when strict); otherwise ConfigError naming the field."""
    value = _require(cfg, field, types, path)
    if not math.isfinite(value):
        raise ConfigError(f"{path}{field}", "must be finite")
    if value < low or (strict and value == low):
        raise ConfigError(f"{path}{field}", f"must be {'>' if strict else '>='} {low}")
    return value


def _vector(spec: dict, field: str, types, m: int):
    value = _require(spec, field, types, "problem.set.")
    entries = value if isinstance(value, list) else [value]
    if not all(type(v) in (int, float) and math.isfinite(v) for v in entries):
        raise ConfigError(f"problem.set.{field}", "entries must be finite numbers")
    value = np.asarray(value, dtype=float)
    if value.shape not in ((), (m,)):
        raise ConfigError(f"problem.set.{field}", f"expected {m} entries (problem.m), got shape {value.shape}")
    try:
        return np.broadcast_to(value, (m,)).copy()
    except MemoryError as exc:  # a scalar spread over more entries than the machine holds
        raise ConfigError("problem.m", f"{m} entries of problem.set.{field} do not fit in memory: {exc}") from None


def _build_set_term(spec: dict, m: int):
    kind = _require(spec, "kind", str, "problem.set.")
    if kind not in SET_KEYS:
        raise ConfigError("problem.set.kind", f"unknown set kind {kind!r}")
    _known(spec, SET_KEYS[kind], "problem.set.")
    if kind == "ball":
        center = _vector(spec, "center", (list, int, float), m)
        radius = _number(spec, "radius", "problem.set.", low=0, strict=True)
        return IndicatorBall(center, radius)
    if kind == "box":
        lower = _vector(spec, "lower", list, m)
        upper = _vector(spec, "upper", list, m)
        if np.any(lower > upper):
            raise ConfigError("problem.set.lower", "must not exceed problem.set.upper")
        return IndicatorBox(lower, upper)
    target = _vector(spec, "target", (list, int, float), m)
    return IndicatorSingleton(target)


def _indexable(**dims) -> None:
    """Reject dimensions whose arrays could pass numpy's index range, naming the largest.

    numpy raises ValueError for such an array, not MemoryError.
    """
    (field, first), (_, second) = sorted(dims.items(), key=lambda item: -item[1])[:2]
    if first * second > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"problem.{field}", f"{first} is too large: the instance's arrays exceed numpy's size limit")


def _problem_maker(cfg: dict):
    """The checked problem fields: the family's constructor and its arguments other than the data seed."""
    family = _require(cfg, "family", str, "problem.")
    if family not in FAMILIES:
        raise ConfigError("problem.family", f"unknown family {family!r}")
    _known(cfg, PROBLEM_KEYS[family], "problem.")
    N = _number(cfg, "N", "problem.", int, low=1)
    if family == "sparse_pca":
        p = _number(cfg, "p", "problem.", int, low=1)
        n = _number(cfg, "n", "problem.", int, low=p)
        _indexable(N=N, n=n)
        return make_sparse_pca, dict(n=n, N=N, p=p, lam=_number(cfg, "lambda", "problem.", low=0))
    mdim = _number(cfg, "m", "problem.", int, low=1)
    n = _number(cfg, "n", "problem.", int, low=2)
    _indexable(N=N, n=n, m=mdim)
    set_term = _build_set_term(_require(cfg, "set", dict, "problem."), mdim)
    weight = _number(cfg, "quad_weight", "problem.") if "quad_weight" in cfg else 1.0
    return make_constrained_sphere, dict(n=n, N=N, m=mdim, set_term=set_term, quad_weight=weight)


def build_problem(cfg: dict, seed: int):
    make, args = _problem_maker(cfg)
    try:
        return make(seed=derive_seed(seed, "data"), **args)
    except MemoryError as exc:  # numpy refuses an allocation beyond the machine at once
        raise ConfigError(
            f"problem.{'N' if args['N'] >= args['n'] else 'n'}",
            f"the N x n = {args['N']} x {args['n']} instance does not fit in memory: {exc}",
        ) from None


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config", "must be a JSON object")
    _known(cfg, TOP_KEYS, "")
    algorithm = _require(cfg, "algorithm", str, "")
    if algorithm not in ALGORITHMS:
        raise ConfigError("algorithm", f"must be one of {ALGORITHMS}")
    _problem_maker(_require(cfg, "problem", dict, ""))
    if not 0 <= _require(cfg, "seed", int, "") < SEED_END:
        raise ConfigError("seed", "must be an integer in [0, 2**64)")
    if not 1 <= _require(cfg, "max_iters", int, "") <= K_MAX:
        raise ConfigError("max_iters", "must be an integer in [1, 2**62]")
    if "trace_every" in cfg and _require(cfg, "trace_every", int, "") < 1:
        raise ConfigError("trace_every", "must be >= 1")
    if "diagnostics" in cfg:
        _require(cfg, "diagnostics", bool, "")
    if "output_dir" in cfg and not _require(cfg, "output_dir", str, ""):
        raise ConfigError("output_dir", "must not be empty; use \".\" for the working directory")
    if "\0" in cfg.get("output_dir", ""):  # no path holds it, and the OS calls raise ValueError, not OSError
        raise ConfigError("output_dir", "must not contain a NUL byte")
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("solver", "must be an object")
    _known(solver, tuple(solver_indicator.BOUNDS), "solver.")
    for name, (low, strict) in solver_indicator.BOUNDS.items():
        if solver.get(name) is not None:
            _number(solver, name, "solver.", low=low, strict=strict)
    family = cfg["problem"]["family"]
    if algorithm == "indicator":
        if family != "constrained_sphere":
            raise ConfigError("problem.family", "algorithm 'indicator' requires an indicator-h problem")
        if "theta" not in solver or solver["theta"] is None:
            raise ConfigError("solver.theta", "required for algorithm 'indicator'")
    elif family == "constrained_sphere":
        raise ConfigError("problem.family", "algorithm 'lipschitz' requires a Lipschitz-h problem")
    elif solver:  # the Lipschitz solver has no parameters: a solver field would be silently ignored
        raise ConfigError(f"solver.{next(iter(solver))}", "applies to algorithm 'indicator' only")
    return cfg


def _execute(cfg: dict, seed: int, out_dir: Path) -> None:
    problem = build_problem(cfg["problem"], seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    algorithm = cfg["algorithm"]
    K = cfg["max_iters"]
    trace_every = cfg.get("trace_every", 1)
    diagnostics = cfg.get("diagnostics", False)
    run_seed = derive_seed(seed, "sampling")
    t_start = time.monotonic()
    solver, policy, solver_params = solver_lipschitz, solver_lipschitz.POLICY, {}
    if algorithm == "indicator":
        # the solver_indicator.BOUNDS fields are default_config's keywords; a null one means "not supplied"
        scfg = {k: v for k, v in cfg.get("solver", {}).items() if v is not None}
        try:
            policy = solver_indicator.default_config(problem, seed=derive_seed(seed, "probe"), **scfg)
        except ParameterError as exc:
            if exc.field is None:
                raise
            raise ConfigError(f"solver.{exc.field}", str(exc)) from None
        solver = solver_indicator
        solver_params = {**dataclasses.asdict(policy), "omega": policy.omega, "k_tilde": policy.k_tilde}
    state, trace = driver.run(
        problem, None, run_seed, K, policy, step=solver.step, trace_every=trace_every, diagnostics=diagnostics
    )
    cert = solver.certificate(state, problem, policy)
    fits = []
    for field in ("norm_G", "norm_grad_Fmu") if K > 100 else ():  # the fit window is [100, K]
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


def _run_seed(cfg: dict, seed: int, out_dir: Path, out_field: str) -> tuple[int, str]:
    """Run one seed: (exit code, the message naming its failure, or "" on success); it never raises an Exception."""
    try:
        _execute(cfg, seed, out_dir)
    except (ConfigError, ParameterError, ShapeMismatchError) as exc:
        return 2, f"config error: {exc}"
    except OSError as exc:  # creating the output directory or writing into it
        return 2, f"config error: {out_field}: {exc}"
    except (NumericalFailureError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # LinAlgError: an estimator's SVD met a non-finite Jacobian of c
        return 3, f"numerical failure: {exc}"
    except Exception:  # a bug: its traceback names it, and the other seeds still run
        import traceback

        return 1, traceback.format_exc().rstrip()
    return 0, ""


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        print(f"config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_field = "MANISMOOTH_OUT" if os.environ.get("MANISMOOTH_OUT") else "output_dir"
    out_root = Path(os.environ.get("MANISMOOTH_OUT") or cfg.get("output_dir", "."))
    seeds = [cfg["seed"]]
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            seeds = []
        if not seeds or not all(0 <= s < SEED_END for s in seeds):
            print("--seeds: expected comma-separated integers in [0, 2**64)", file=sys.stderr)
            return 2
        repeated = [s for s, count in Counter(seeds).items() if count > 1]
        if repeated:  # two runs would write one seed_<s>/
            print(f"--seeds: seed {repeated[0]} is listed twice", file=sys.stderr)
            return 2
        try:  # one message for an unwritable root, before any seed runs
            out_root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"config error: {out_field}: {exc}", file=sys.stderr)
            return 2

    def run_one(s: int) -> tuple[int, str]:
        return _run_seed(cfg, s, out_root / f"seed_{s}" if args.seeds is not None else out_root, out_field)

    if len(seeds) == 1:
        results = [run_one(seeds[0])]
    else:
        from .seedpool import seed_results  # only several seeds pay the pool's import

        results = seed_results(run_one, seeds)
    code = 0
    for s, (seed_code, message) in zip(seeds, results):
        if message:
            print(f"seed {s}: {message}" if args.seeds is not None else message, file=sys.stderr)
        code = max(code, seed_code, key=SEVERITY.index)
    return code


def cmd_check(args) -> int:
    from .checks import SUITES, run_suite  # only ``check`` pays the batteries' import

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
    except (InsufficientDataError, ParameterError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(fit.as_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="manismooth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a seeded experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the run configuration")
    p_run.add_argument("--seeds", help="comma-separated seed list; each runs in its own subdirectory")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run an invariant/property suite")
    p_check.add_argument("--suite", default="all", help="'all' or one battery; an unknown name exits 2 listing them")
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("report", help="fit a decay rate from an existing trace")
    p_rep.add_argument("--trace", required=True, help="path to trace.csv")
    p_rep.add_argument("--field", required=True, choices=TRACE_COLUMNS, help="trace column to fit")
    p_rep.add_argument("--from", dest="k_lo", type=int, required=True, help="window start (iteration)")
    p_rep.add_argument("--to", dest="k_hi", type=int, required=True, help="window end (iteration)")
    p_rep.add_argument("--mode", default="mean_sq", choices=("mean_sq", "raw"))
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> int:
    """:func:`main` in a process of its own, with the import-time heap frozen first.

    ``gc.freeze()`` moves the ~22,000 objects the imports left into the
    permanent generation, as CPython advises before a fork without exec:
    no later collection walks them, so a forked seed process
    (:mod:`.seedpool`) does not copy their pages when it collects, and
    the collection at interpreter exit skips them.
    """
    gc.freeze()  # BENCH_fast_paths.json "gc_freeze"
    return main()


if __name__ == "__main__":
    sys.exit(entry())
