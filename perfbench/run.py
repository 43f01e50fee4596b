"""Benchmark of the ``manismooth`` command line, run as a user runs it.

Usage, from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload pca_rate --seed 1 --seconds 15 --trace 0

Each invocation of the CLI is its own child process, started one at a
time, with BLAS/OpenMP threads capped at the CPU count.  Times are given
in reference seconds: the benchmark pins itself and the program to a CPU
set (every CPU for ``pca_wide`` and ``sphere_seeds``, one for the others),
runs a small fixed probe on each of those CPUs every 10 ms, and scales
every measured time by ``PROBE_REF_S`` over the probe's mean CPU time in
the same interval.  Other tenants of a shared host slow a CPU by up to 2x
for seconds to minutes; the probe slows with it, so the scaled time stays
put while the raw one (also printed and recorded) does not.  With
``--trace 0`` the run times fresh set-up processes and then repeats the
workload command until ``--seconds`` have passed, and reports the
end-to-end metrics.  With ``--trace 1`` it alternates an untraced
invocation with one under ``perfbench/tracer.py`` and reports the
per-layer metrics plus the tracing overhead.  Every invocation's outputs
are checked; a failed check counts the invocation as failed.

Human-readable lines (median, quartiles and sample count of each metric)
go to stdout first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
set, with the machine record, is written to
``.perfbench_out/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER = HERE / "tracer.py"

SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s, children included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_PERIOD_S = 0.01
PROBE_ROUNDS = 40
PROBE_WARMUP_ROUNDS = 20
PROBE_REF_S = 1e-4  # the probe's CPU time at the reference speed
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _pca_config(n: int, p: int, iters: int, seed: int) -> dict:
    return {
        "problem": {"family": "sparse_pca", "n": n, "p": p, "N": 1000, "lambda": 0.1},
        "algorithm": "lipschitz",
        "seed": seed,
        "max_iters": iters,
        "trace_every": 20,
        "diagnostics": True,
        "solver": {},
    }


def _sphere_config(iters: int, seed: int) -> dict:
    return {
        "problem": {
            "family": "constrained_sphere",
            "n": 50,
            "m": 10,
            "N": 1000,
            "set": {"kind": "ball", "center": [0.2] * 10, "radius": 0.5},
        },
        "algorithm": "indicator",
        "seed": seed,
        "max_iters": iters,
        "trace_every": 1,
        "diagnostics": False,
        "solver": {"theta": 1},
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a ``run`` config (or a ``check`` suite) per seed.

    ``config(seed, tiny)`` returns the run config, or None for the check
    workload; ``tiny`` selects the small size used by the self-test.
    """

    config: Callable[[int, bool], dict | None]
    seeds: Callable[[int], list[int]]
    min_samples: int
    suite: Callable[[bool], str] | None = None
    all_cpus: bool = False  # multi-threaded (seed pool, BLAS): every CPU; the others run on one


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "pca_rate": Workload(
        config=lambda seed, tiny: _pca_config(50, 3, 200 if tiny else 5000, seed),
        seeds=lambda seed: [seed],
        min_samples=3,
    ),
    "pca_wide": Workload(
        config=lambda seed, tiny: _pca_config(1000, 10, 40 if tiny else 1000, seed),
        seeds=lambda seed: [seed],
        min_samples=3,
        all_cpus=True,
    ),
    "sphere_seeds": Workload(
        config=lambda seed, tiny: _sphere_config(100 if tiny else 2000, seed),
        seeds=lambda seed: [seed, seed + 1],
        min_samples=3,
        all_cpus=True,
    ),
    "check_all": Workload(
        config=lambda seed, tiny: None,
        seeds=lambda seed: [],
        min_samples=1,
        suite=lambda tiny: "lemmas" if tiny else "all",
    ),
}

# A fresh process pays this before the first iteration: the import, the
# problem build and, for the indicator solver, constant estimation and the
# error-bound probe, exactly as ``cli._execute`` does them.
SETUP_SNIPPET = """
import json, sys
from manismooth import cli, solver_indicator
from manismooth.rng import derive_seed
spec = json.loads(sys.argv[1])
if spec is not None:
    cfg = cli.validate_config(spec["config"])
    for seed in spec["seeds"]:
        problem = cli.build_problem(cfg["problem"], seed)
        if cfg["algorithm"] == "indicator":
            s = cfg["solver"]
            solver_indicator.default_config(problem, theta=float(s["theta"]), safety=float(s.get("safety", 2.0)),
                                            zeta=s.get("zeta"), seed=derive_seed(seed, "probe"))
"""


# ------------------------------------------------------------ environment


def child_env(cap: int) -> dict:
    """Environment for the program: ``src`` on the path, BLAS threads capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            env[var] = str(cap)
    return env


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "manismooth").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(env: dict, cpus: list[int]) -> dict:
    """The machine and code a result set was measured on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas_version = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_pinned": cpus,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_thread_cap": len(cpus),
        "probe_ref_s": PROBE_REF_S,
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ------------------------------------------------------------ child processes


class SpeedProbe:
    """One thread per CPU timing a fixed piece of work every PROBE_PERIOD_S.

    The probe's CPU time (``time.thread_time``) rises when a co-tenant
    slows the CPU, and not when the program preempts it.
    """

    def __init__(self, cpus: list[int]):
        import numpy as np

        self._a = np.linspace(-1.0, 1.0, 150).reshape(50, 3)
        self._norm = np.linalg.norm
        self._stop = threading.Event()
        self.samples: dict[int, list[tuple[float, float]]] = {c: [] for c in cpus}
        self._threads = [threading.Thread(target=self._loop, args=(c,), daemon=True) for c in cpus]
        for thread in self._threads:
            thread.start()

    def _work(self, rounds: int) -> float:
        acc = 0.0
        for i in range(rounds):
            acc += float(self._norm(self._a)) + i * 0.5
        return acc

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # 0 is the calling thread
        out = self.samples[cpu]
        while not self._stop.is_set():
            # an untimed pass first reloads the caches the program just used,
            # so the timed pass reads the CPU's speed, not the program's footprint
            self._work(PROBE_WARMUP_ROUNDS)
            c0 = time.thread_time()
            self._work(PROBE_ROUNDS)
            out.append((time.perf_counter(), time.thread_time() - c0))
            self._stop.wait(PROBE_PERIOD_S)

    def scale(self, t0: float, t1: float, cpus: list[int] | None = None) -> float:
        """Reference seconds per measured second over [t0, t1] on ``cpus`` (default all)."""
        lo, hi = t0 - PROBE_PERIOD_S, t1 + PROBE_PERIOD_S
        means = []
        for cpu in cpus or self.samples:
            window = [d for t, d in list(self.samples[cpu]) if lo <= t <= hi]
            if window:
                means.append(statistics.fmean(window))
        if not means:
            raise RuntimeError("the speed probe took no sample")
        return PROBE_REF_S / statistics.fmean(means)

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()


def invoke(argv: list[str], log_path: Path, env: dict, deadline: float) -> tuple[float, float, float, int]:
    """Run one child to completion: (start, end, peak RSS in MB, exit code).

    The child is killed if it is still running at ``deadline`` (a
    ``time.perf_counter`` value), which counts as a failed invocation.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, usage.ru_maxrss / 1024.0, proc.returncode


def _seed_dirs(out_dir: Path, seeds: list[int]) -> dict[int, Path]:
    if len(seeds) == 1:
        return {seeds[0]: out_dir}
    return {s: out_dir / f"seed_{s}" for s in seeds}


def check_run_outputs(out_dir: Path, seeds: list[int], references: dict) -> tuple[list[str], list[dict]]:
    """Problems with one ``run`` invocation's outputs, and its summaries.

    ``references`` maps a seed to the digest of its first ``trace.csv``;
    a later trace of the same seed must be byte-identical to it.
    """
    problems, summaries = [], []
    for seed, d in _seed_dirs(out_dir, seeds).items():
        trace, summary_path = d / "trace.csv", d / "summary.json"
        if not trace.is_file() or not summary_path.is_file():
            problems.append(f"seed {seed}: trace.csv or summary.json missing")
            continue
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        if references.setdefault(seed, digest) != digest:
            problems.append(f"seed {seed}: trace.csv differs from an earlier run of the same config and seed")
        summary = json.loads(summary_path.read_text())
        cert = summary.get("certificate") or {}
        if cert.get("membership_ok") is not True:
            problems.append(f"seed {seed}: certificate membership_ok is not true")
        residuals = [cert.get("grad_residual"), cert.get("feas_residual")]
        if not all(isinstance(r, float) and math.isfinite(r) for r in residuals):
            problems.append(f"seed {seed}: certificate residuals not finite")
        summaries.append(summary)
    return problems, summaries


def check_suite_log(text: str) -> list[str]:
    """Problems with a ``check`` invocation's report: every property must PASS."""
    lines = [line for line in text.splitlines() if line.strip()]
    verdicts = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    failed = [line for line in verdicts if line.startswith("FAIL ")]
    total = f"{len(verdicts)}/{len(verdicts)} properties passed"
    if failed:
        return failed
    if not verdicts or not lines or lines[-1] != total:
        return [f"expected {total!r} as the last line"]
    return []


# ------------------------------------------------------------ metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(doc: dict, trace_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation from its spans."""
    child_ns: dict[int, int] = {}
    for _, parent, _, _, t0, t1, _, _ in doc["spans"]:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    points: dict[str, int] = {}
    tangents: dict[str, int] = {}
    for sid, _, _, name, t0, t1, pts, tans in doc["spans"]:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + (t1 - t0)
        self_ns[name] = self_ns.get(name, 0) + (t1 - t0) - child_ns.get(sid, 0)
        points[name] = points.get(name, 0) + pts
        tangents[name] = tangents.get(name, 0) + tans

    def mean(name: str, table: dict, scale: float) -> float:
        # a layer the workload never calls reads 0
        return table.get(name, 0) * scale / calls[name] if calls.get(name) else 0.0

    def seconds(name: str) -> float:
        return total.get(name, 0) * 1e-9

    step_names = ("solver_lipschitz.step", "solver_indicator.step")
    steps = sum(calls.get(n, 0) for n in step_names)

    def per_step(table: dict) -> float:
        return sum(table.get(n, 0) for n in step_names) / steps if steps else 0.0

    return {
        "manifolds.retract.us": mean("manifolds.retract", total, 1e-3),
        "manifolds.tangent_project.us": mean("manifolds.tangent_project", total, 1e-3),
        "manifolds.vector_transport.us": mean("manifolds.vector_transport", total, 1e-3),
        "manifolds.points_per_iter": per_step(points),
        "manifolds.tangents_per_iter": per_step(tangents),
        "smoothing.moreau_eval.us": mean("smoothing.moreau_eval", total, 1e-3),
        "smoothing.smoothed_objective_grad.us": mean("smoothing.smoothed_objective_grad", total, 1e-3),
        "smoothing.h_value.calls": float(doc["h_value_calls"]),
        "problems.sample_riemannian_grad.us": mean("problems.sample_riemannian_grad", total, 1e-3),
        "problems.full_egrad.us": mean("problems.full_egrad", total, 1e-3),
        "problems.estimate_constants.s": seconds("problems.estimate_constants"),
        "manifolds.estimate_retraction_constants.s": seconds("manifolds.estimate_retraction_constants"),
        "solver_indicator.error_bound_probe.s": seconds("solver_indicator.error_bound_probe"),
        "solver_indicator.default_config.s": seconds("solver_indicator.default_config"),
        "solver_lipschitz.step.self_us": mean("solver_lipschitz.step", self_ns, 1e-3),
        "solver_lipschitz.certificate.ms": mean("solver_lipschitz.certificate", total, 1e-6),
        "solver_indicator.step.self_us": mean("solver_indicator.step", self_ns, 1e-3),
        "solver_indicator.certificate.ms": mean("solver_indicator.certificate", total, 1e-6),
        "harness.write_trace_csv.ms": mean("harness.write_trace_csv", total, 1e-6),
        "harness.trace_rows": float(trace_rows),
        "harness.fit_rate.ms": mean("harness.fit_rate", total, 1e-6),
        "checks.check_smoothing.s": seconds("checks.check_smoothing"),
        "checks.check_manifold.s": seconds("checks.check_manifold"),
        "checks.check_lemmas.s": seconds("checks.check_lemmas"),
        "checks.check_solver.s": seconds("checks.check_solver"),
    }


LAYER_UNITS = {
    "manifolds.retract.us": "us",
    "manifolds.tangent_project.us": "us",
    "manifolds.vector_transport.us": "us",
    "manifolds.points_per_iter": "count",
    "manifolds.tangents_per_iter": "count",
    "smoothing.moreau_eval.us": "us",
    "smoothing.smoothed_objective_grad.us": "us",
    "smoothing.h_value.calls": "count",
    "problems.sample_riemannian_grad.us": "us",
    "problems.full_egrad.us": "us",
    "problems.estimate_constants.s": "s",
    "manifolds.estimate_retraction_constants.s": "s",
    "solver_indicator.error_bound_probe.s": "s",
    "solver_indicator.default_config.s": "s",
    "solver_lipschitz.step.self_us": "us",
    "solver_lipschitz.certificate.ms": "ms",
    "solver_indicator.step.self_us": "us",
    "solver_indicator.certificate.ms": "ms",
    "harness.write_trace_csv.ms": "ms",
    "harness.trace_rows": "count",
    "harness.fit_rate.ms": "ms",
    "checks.check_smoothing.s": "s",
    "checks.check_manifold.s": "s",
    "checks.check_lemmas.s": "s",
    "checks.check_solver.s": "s",
    "cli.seed_wall_sum_s": "s",
    "cli.seed_overlap": "ratio",
    "grad_residual": "1",
    "feas_residual": "1",
    "tracing.untraced_wall_s": "s",
    "tracing.traced_wall_s": "s",
    "tracing.overhead": "ratio",
}


# ------------------------------------------------------------ the run


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool, tiny: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workload = WORKLOADS[name]
        self.seeds = self.workload.seeds(seed)
        self.config = self.workload.config(seed, tiny)
        self.work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out_dir = self.work / "out"
        usable = sorted(os.sched_getaffinity(0))
        self.cpus = usable if self.workload.all_cpus else usable[:1]
        os.sched_setaffinity(0, self.cpus)  # inherited by every child
        self.env = child_env(len(self.cpus))
        self.probe = SpeedProbe(self.cpus)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.references: dict[int, str] = {}
        self.outputs: dict[int, dict] = {}  # per seed: trace digest and certificate residuals
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        if self.config is None:
            self.args = ["check", "--suite", self.workload.suite(tiny)]
        else:
            cfg_path = self.work / "config.json"
            cfg_path.write_text(json.dumps({**self.config, "output_dir": str(self.out_dir)}, indent=2))
            self.args = ["run", "--config", str(cfg_path)]
            if len(self.seeds) > 1:
                self.args += ["--seeds", ",".join(map(str, self.seeds))]

    def setup_seconds(self) -> list[tuple[float, float]]:
        """(reference seconds, raw seconds) of each fresh set-up process.

        Set-up is single-threaded, so it runs on the first CPU alone and
        is scaled by that CPU's probe.
        """
        spec = None if self.config is None else {"config": self.config, "seeds": self.seeds}
        argv = [sys.executable, "-c", SETUP_SNIPPET, json.dumps(spec)]
        os.sched_setaffinity(0, self.cpus[:1])
        try:
            times = []
            for _ in range(SETUP_REPEATS):
                t0, t1, _, code = invoke(argv, self.work / "setup.log", self.env, self.deadline)
                if code != 0:
                    raise RuntimeError(f"set-up process exited with {code}; see {self.work / 'setup.log'}")
                times.append(((t1 - t0) * self.probe.scale(t0, t1, self.cpus[:1]), t1 - t0))
        finally:
            os.sched_setaffinity(0, self.cpus)
        return times

    def invocation(self, traced: bool) -> dict:
        """Run the workload command once and check what it wrote."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        spans = self.work / "spans.json"
        head = [str(TRACER), str(spans)] if traced else ["-m", "manismooth.cli"]
        log = self.work / ("traced.log" if traced else "run.log")
        t0, t1, rss, code = invoke([sys.executable, *head, *self.args], log, self.env, self.deadline)
        scale = self.probe.scale(t0, t1)
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        summaries = []
        if self.config is None:
            problems += check_suite_log(log.read_text())
        elif code == 0:
            found, summaries = check_run_outputs(self.out_dir, self.seeds, self.references)
            problems += found
            if not problems:
                for seed, summary in zip(self.seeds, summaries):
                    cert = summary["certificate"]
                    self.outputs.setdefault(seed, {"trace_sha256": self.references[seed],
                                                   "grad_residual": cert["grad_residual"],
                                                   "feas_residual": cert["feas_residual"]})
        self.failed += bool(problems)
        self.failures += [f"{'traced' if traced else 'untraced'} #{self.attempted}: {p}" for p in problems]
        sample = {"wall_s": (t1 - t0) * scale, "wall_raw_s": t1 - t0, "scale": scale, "peak_rss_mb": rss,
                  "ok": not problems, "summaries": summaries}
        if traced and code == 0:
            rows = sum(_trace_rows(d / "trace.csv") for d in _seed_dirs(self.out_dir, self.seeds).values())
            layers = layer_metrics(json.loads(spans.read_text()), rows)
            sample["layers"] = {k: v * scale if LAYER_UNITS[k] in TIME_UNITS else v for k, v in layers.items()}
        return sample

    def _repeat(self, body: Callable[[], None], min_count: int) -> None:
        start = time.perf_counter()
        count = 0
        while count < min_count or time.perf_counter() - start < self.seconds:
            body()
            count += 1

    def measure(self) -> tuple[dict, dict]:
        """(metrics for the JSON line, full record of samples)."""
        if not self.trace:
            setup = self.setup_seconds()
            runs: list[dict] = []
            self._repeat(lambda: runs.append(self.invocation(False)), self.workload.min_samples)
            series = {"wall_s": [r["wall_s"] for r in runs], "setup_s": [ref for ref, _ in setup],
                      "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
            metrics = self._summarise(series, runs)
            raw = {"wall_s": [r["wall_raw_s"] for r in runs], "setup_s": [seconds for _, seconds in setup]}
            for name, values in raw.items():
                _print_series(f"{name} raw", values, "s")
            raw_metrics = {name: statistics.median(values) for name, values in raw.items()}
            return metrics, {"samples": runs, "setup_s": setup, "raw_metrics": raw_metrics}
        pairs: list[tuple[dict, dict]] = []
        self._repeat(lambda: pairs.append((self.invocation(False), self.invocation(True))), 1)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs if "layers" in t]
        if not traced:
            raise RuntimeError(f"no traced invocation finished: {'; '.join(self.failures)}")
        series = {name: [t["layers"][name] for t in traced] for name in traced[0]["layers"]}
        seed_sums = [sum(s["wall_seconds"] for s in p["summaries"]) for p in plain]
        series["cli.seed_wall_sum_s"] = [x * p["scale"] for x, p in zip(seed_sums, plain)]
        series["cli.seed_overlap"] = [x / p["wall_raw_s"] for x, p in zip(seed_sums, plain)]
        series["tracing.untraced_wall_s"] = [p["wall_s"] for p in plain]
        series["tracing.traced_wall_s"] = [t["wall_s"] for _, t in pairs]
        metrics = self._summarise(series, plain + [t for _, t in pairs])
        overhead = metrics["tracing.traced_wall_s"]["value"] / metrics["tracing.untraced_wall_s"]["value"] - 1.0
        metrics["tracing.overhead"] = {"value": overhead, "unit": LAYER_UNITS["tracing.overhead"]}
        return metrics, {"pairs": pairs}

    def _summarise(self, series: dict[str, list[float]], samples: list[dict]) -> dict:
        units = LAYER_UNITS if self.trace else END_TO_END_UNITS
        metrics = {}
        for name, values in series.items():
            metrics[name] = {"value": float(statistics.median(values)), "unit": units[name]}
            _print_series(name, values, units[name])
        worst = _worst_residuals(samples)
        for key, value in worst.items():
            if self.trace:
                metrics[key] = {"value": value, "unit": LAYER_UNITS[key]}
            print(f"{key:42s} {value!r} (worst over seeds; repeats exactly per seed)")
        return metrics


def _print_series(name: str, values: list[float], unit: str) -> None:
    q1, med, q3 = quartiles(values)
    print(f"{name:42s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)} {unit}")


def _trace_rows(path: Path) -> int:
    if not path.is_file():  # already reported by check_run_outputs
        return 0
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _worst_residuals(samples: list[dict]) -> dict[str, float]:
    out = {"grad_residual": 0.0, "feas_residual": 0.0}
    for sample in samples:
        for summary in sample["summaries"]:
            for key in out:
                out[key] = max(out[key], (summary.get("certificate") or {}).get(key) or 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "manismooth" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'manismooth'} is missing; run from the repository root", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        metrics, record = run.measure()
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.probe.stop()
    failed = run.failed
    print(f"{'failed_frac':42s} {failed / run.attempted!r} ({failed}/{run.attempted} invocations)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    env = environment(run.env, run.cpus)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  tiny=args.tiny, environment=env, metrics=metrics, attempted=run.attempted,
                  failed=failed, failures=run.failures, outputs=run.outputs)
    (results / f"{run.work.name}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
