"""Compare two checkouts with the benchmark, or summarise result sets.

Pairs (the rule a change must meet before it claims a gain):

    python3 perfbench/compare.py pairs PARENT_DIR CHANGE_DIR --workload pca_rate [--pairs 10]

runs ``perfbench/run.py --trace 0`` for ``run_seconds`` in both checkouts,
alternating which side runs first, with a fresh seed per pair.  Both
checkouts must hold identical ``perfbench/`` files and ``BENCHMARK.json``.
For each end-to-end metric it prints both sides' medians and quartiles,
the pairs the change won (ties count for neither), and a verdict:

- ``gain``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile spread;
- ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
- ``unresolved``: the parent's spread exceeds the bound and not every
  change run beat every parent run;
- ``no change``: otherwise.

Times are judged twice: on the scaled (reference-second) values the
benchmark reports, and on the raw seconds its result records hold.  A
line where the two verdicts differ is flagged.  Each pair runs the same
seed on both sides, so the script also compares every seed's
``trace.csv`` digest and certificate residuals; if they differ, the
change computes other numbers and no gain is granted.

Summary (the format of ``perfbench/baseline.json``):

    python3 perfbench/compare.py summarise .perfbench_out/results/*.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles  # perfbench/run.py; this script's directory is on sys.path


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256((checkout / "BENCHMARK.json").read_bytes())
    for path in sorted((checkout / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(checkout).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run: its JSON line, plus ``raw`` medians and per-seed ``outputs`` from its record."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {**result, "raw": record["raw_metrics"], "outputs": record["outputs"]}


def output_mismatches(parent: dict, change: dict) -> list[str]:
    """Seeds whose trace digest or certificate residuals differ between the two sides."""
    return [f"seed {seed}: {key} differs" for seed in sorted(set(parent) | set(change))
            for key in ("trace_sha256", "grad_residual", "feas_residual")
            if parent.get(seed, {}).get(key) != change.get(seed, {}).get(key)]


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> tuple[str, int]:
    """The verdict for one metric and the number of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if wins >= 0.9 * len(parent) and abs(p_med - c_med) > p_q3 - p_q1:
        return "gain", wins
    if sign * (c_med - p_med) > bound * p_med:
        return "regression", wins
    if (p_q3 - p_q1) > bound * p_med and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved", wins
    return "no change", wins


def cmd_pairs(args) -> int:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    if _bench_digest(parent) != _bench_digest(change):
        print("the two checkouts hold different benchmark files; a compared change may not edit them", file=sys.stderr)
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = {"parent": [], "change": []}
    mismatches = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = _run(parent if side == "parent" else change, args.workload, seed, seconds)
            if not res["correct"]:
                print(f"pair {i}: {side} run failed {res['failed']}/{res['attempted']} invocations", file=sys.stderr)
            results[side].append(res)
        mismatches += output_mismatches(results["parent"][-1]["outputs"], results["change"][-1]["outputs"])
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)
    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    print(f"workload {args.workload}: {args.pairs} pairs, failed invocations parent {failed['parent']} change {failed['change']}")
    for mismatch in mismatches:
        print(f"OUTPUT MISMATCH {mismatch}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        timed = name in results["parent"][0]["raw"]
        sides = {"scaled" if timed else "value":
                 [[r["metrics"][name]["value"] for r in results[side]] for side in ("parent", "change")]}
        if timed:
            sides["raw"] = [[r["raw"][name] for r in results[side]] for side in ("parent", "change")]
        verdicts = {}
        for kind, (p, c) in sides.items():
            v, wins = verdict(p, c, metric["bound"], metric["better"])
            if v == "gain" and failed["change"] > failed["parent"]:
                v = "no gain (more failures than the parent)"
            if v == "gain" and mismatches:
                v = "no gain (outputs differ from the parent's)"
            verdicts[kind] = v
            pq, cq = quartiles(p), quartiles(c)
            print(f"{name:12s} {kind:6s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  change {cq[1]:.6g} "
                  f"[{cq[0]:.6g}, {cq[2]:.6g}]  {metric['unit']}  change won {wins}/{args.pairs}  -> {v}")
        if len(set(verdicts.values())) > 1:
            print(f"{name:12s} FLAG: the scaled and raw verdicts disagree; host load may have moved the scale")
    return 0


def cmd_summarise(args) -> int:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in args.results:
        record = json.loads(Path(path).read_text())
        groups[(record["workload"], record["trace"])].append(record)
    envs = {json.dumps(r["environment"], sort_keys=True) for rs in groups.values() for r in rs}
    out: dict = {"environment": [json.loads(e) for e in sorted(envs)], "workloads": {}}
    for (workload, trace), records in sorted(groups.items()):
        metrics = defaultdict(list)
        units = {}
        for r in records:
            for name, m in r["metrics"].items():
                metrics[name].append(m["value"])
                units[name] = m["unit"]
        entry = out["workloads"].setdefault(workload, {})
        entry["traced" if trace else "untraced"] = {
            "runs": len(records),
            "seeds": sorted(r["seed"] for r in records),
            "seconds": sorted({r["seconds"] for r in records}),
            "failed_invocations": sum(r["failed"] for r in records),
            "attempted_invocations": sum(r["attempted"] for r in records),
            "metrics": {
                name: dict(zip(("q1", "median", "q3"), quartiles(values)), unit=units[name])
                for name, values in metrics.items()
            },
        }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="alternate runs of two checkouts and apply the 9/10 rule")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1000, help="pair i uses seed SEED_BASE + i")
    p.set_defaults(func=cmd_pairs)
    s = sub.add_parser("summarise", help="median and quartiles per workload over result files")
    s.add_argument("results", nargs="+")
    s.set_defaults(func=cmd_summarise)
    args = parser.parse_args(argv)
    if args.command == "pairs" and args.pairs < 10:
        parser.error("the 9/10 rule needs at least 10 pairs")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
