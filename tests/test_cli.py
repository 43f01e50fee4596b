import errno
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from manismooth import cli, seedpool, solver_indicator
from manismooth.cli import main
from manismooth.errors import ConfigError, NumericalFailureError
from manismooth.harness import TraceRecord, read_summary_json, read_trace_csv, write_trace_csv


def pca_config(out_dir, **overrides):
    cfg = {
        "problem": {"family": "sparse_pca", "n": 8, "p": 2, "N": 20, "lambda": 0.1},
        "algorithm": "lipschitz",
        "seed": 5,
        "max_iters": 100,
        "trace_every": 10,
        "diagnostics": False,
        "solver": {},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def sphere_config(out_dir, **overrides):
    cfg = {
        "problem": {
            "family": "constrained_sphere",
            "n": 8,
            "m": 4,
            "N": 10,
            "set": {"kind": "ball", "center": [0.3, 0.3, 0.3, 0.3], "radius": 0.8},
        },
        "algorithm": "indicator",
        "seed": 5,
        "max_iters": 120,
        "trace_every": 10,
        "diagnostics": False,
        "solver": {"theta": 1.0, "safety": 2.0},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


# for cases that overflow on purpose; any other RuntimeWarning fails the suite
OVERFLOWS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_run_lipschitz_writes_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, pca_config(out))
    assert main(["run", "--config", str(path)]) == 0
    trace = read_trace_csv(out / "trace.csv")
    assert len(trace) == 100 // 10 + 1
    summary = read_summary_json(out / "summary.json")
    assert summary["schema_version"] == "2"
    assert summary["algorithm"] == "lipschitz"
    assert summary["certificate"]["membership_ok"] is True
    assert summary["rate_fits"] == []  # K = 100 leaves the fit window [100, K] without width


def test_run_rate_fits_name_their_field_and_mode(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, pca_config(out, max_iters=300, trace_every=1, diagnostics=True))
    assert main(["run", "--config", str(path)]) == 0
    fits = read_summary_json(out / "summary.json")["rate_fits"]
    assert [(f["field"], f["mode"]) for f in fits] == [("norm_G", "mean_sq"), ("norm_grad_Fmu", "mean_sq")]


def test_run_indicator_writes_outputs(tmp_path):
    out = tmp_path / "outi"
    path = write_config(tmp_path, sphere_config(out))
    assert main(["run", "--config", str(path)]) == 0
    summary = read_summary_json(out / "summary.json")
    assert summary["certificate"]["membership_ok"] is True
    assert summary["config"]["solver_resolved"]["theta"] == 1.0
    assert "k_tilde" in summary["config"]["solver_resolved"]


def test_run_missing_theta_names_field(tmp_path, capsys):
    cfg = sphere_config(tmp_path / "x")
    cfg["solver"] = {}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 2
    assert "solver.theta" in capsys.readouterr().err


def test_run_algorithm_problem_mismatch(tmp_path):
    cfg = pca_config(tmp_path / "y", algorithm="indicator")
    cfg["solver"] = {"theta": 1.0}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 2


def test_run_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "content",
    [b'{"seed": 5, "algorithm": "lipschitz\xff"}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_run_unreadable_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "Traceback" not in err


def test_solver_numbers_are_default_config_keywords():
    # _execute hands the non-null solver fields to default_config by name
    keywords = set(inspect.signature(solver_indicator.default_config).parameters) - {"problem", "samples", "seed"}
    assert set(solver_indicator.BOUNDS) == keywords


def test_run_byte_identical_traces(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, pca_config("ignored"))
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "a"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "b"))
    assert main(["run", "--config", str(cfg_path)]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_run_thread_count_moves_only_the_diagnostics(tmp_path):
    # the determinism contract: the iterate columns and the certificate's choice do not depend
    # on the BLAS thread count; the diagnostics, full-data products large enough for OpenBLAS
    # to split across threads, agree to rounding.  The count can be set only in a new process.
    cfg = pca_config(None, problem={"family": "sparse_pca", "n": 1000, "p": 10, "N": 1000, "lambda": 0.1},
                     seed=101, max_iters=100, trace_every=20, diagnostics=True)
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        path = write_config(tmp_path, {**cfg, "output_dir": str(out)}, name=f"cfg_{threads}.json")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "manismooth.cli", "run", "--config", str(path)], env=env)
        assert done.returncode == 0
        header, *rows = (out / "trace.csv").read_text().splitlines()
        columns = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
        runs.append((columns, read_summary_json(out / "summary.json")["certificate"]))
    (one, cert_one), (two, cert_two) = runs
    for name in ("k", "mu", "tau", "a", "norm_G", "infeas"):
        assert one[name] == two[name], name
    for name in ("obj_smooth", "norm_grad_Fmu", "norm_eps"):
        assert [float(v) for v in one[name]] == pytest.approx([float(v) for v in two[name]], rel=1e-12, abs=0), name
    assert (cert_one["i_K"], cert_one["membership_ok"]) == (cert_two["i_K"], cert_two["membership_ok"])
    for name in ("grad_residual", "feas_residual"):
        assert cert_one[name] == pytest.approx(cert_two[name], rel=1e-12, abs=0), name


def test_run_seed_list_creates_subdirectories(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, pca_config("ignored"))
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(cfg_path), "--seeds", "1,2,3"]) == 0
    for s in (1, 2, 3):
        assert (tmp_path / "multi" / f"seed_{s}" / "trace.csv").exists()
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "single"))
    assert main(["run", "--config", str(cfg_path), "--seeds", "7"]) == 0
    assert (tmp_path / "single" / "seed_7" / "trace.csv").exists()
    assert not (tmp_path / "single" / "trace.csv").exists()


def _set_field(cfg, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        cfg = cfg[key]
    cfg[leaf] = value


@pytest.mark.parametrize(
    "field, value",
    [
        ("solver.theta", "one"),
        ("solver.theta", float("nan")),
        ("solver.zeta", "small"),
        ("solver.c_tau", float("inf")),
        ("problem.set.center", [0.3, 0.3, 0.3]),
        ("problem.set.center", [[0.3, 0.3], [0.3, 0.3]]),
        ("trace_every", "5"),
        ("trace_every", "abc"),
        ("trace_every", 2.5),
        ("trace_every", 0),
        ("problem.quad_weight", "x"),
        ("problem.quad_weight", float("nan")),
        ("diagnostics", "yes"),
        ("output_dir", 5),
        ("solver.theta", 0.5),
        ("solver.safety", 0.5),
        ("solver.c_a", -1.0),
        ("problem.set.radius", -1),
        ("problem.set.center", ["a", 0.3, 0.3, 0.3]),
        ("problem.set", {"kind": "box", "lower": [1, 1, 1, 1], "upper": [0, 0, 0, 0]}),
        ("problem.N", 0),
        ("problem.lambda", float("nan")),
        ("problem.p", 0),
        ("solver.zeta", 1e-300),
        ("output_dir", ""),
        pytest.param("output_dir", str(Path(__file__) / "out"), id="output_dir-under-a-file"),
        ("max_iters", 2**62 + 1),  # past 2**62 the certificate's index cannot be drawn as an exact int64
        ("max_iters", 10**30),
    ],
)
def test_run_malformed_field_names_field(tmp_path, capsys, field, value):
    make = pca_config if field in ("problem.lambda", "problem.p") else sphere_config
    cfg = make(tmp_path / "bad")
    _set_field(cfg, field, value)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value, code, names",
    [
        ("problem.set", {"kind": "singleton", "target": 0.0}, 0, None),
        pytest.param("problem.quad_weight", 1e200, 2, "solver.c_tau", marks=OVERFLOWS),
        ("solver.safety", 1e300, 2, "solver.c_tau"),
        ("solver.c_tau", 1e300, 2, "solver.c_tau"),
        ("solver", {"theta": 1, "safety": 1e300, "c_tau": 0.01, "c_a": 0.001}, 0, None),
        pytest.param("solver", {"theta": 1, "c_tau": 1e300, "c_a": 0.001}, 3, "(iteration 0)", marks=OVERFLOWS),
        ("problem.N", 10**12, 2, "problem.N"),
        ("problem.set.radius", 1e6, 2, "solver.zeta: error bound probe: all sampled points are feasible; supply zeta"),
        ("solver.safety", None, 0, None),  # null means not supplied, as for the derived constants
        # c_tau (k + 1)^-omega underflows to 0 at every iteration; the certificate's draw must not
        ("solver", {"theta": 1, "zeta": 1e154, "c_tau": 5e-324, "c_a": 0.5, "trunc_radius": 1.0}, 0, None),
        ("algorithm", "lipschitz", 2, "problem.family"),
    ],
)
def test_run_extreme_values_exit_cleanly(tmp_path, capsys, field, value, code, names):
    # valid but extreme values: a scalar set vector runs; constants that cannot be
    # derived name the derived field (c_a = 0.75 c_tau^2 + ... overflows from a huge
    # c_tau), and supplying them skips the derivation; a step that overflows names the
    # iteration; an instance too large to allocate names its size field
    cfg = sphere_config(tmp_path / "out")
    _set_field(cfg, field, value)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert read_summary_json(tmp_path / "out" / "summary.json")["certificate"]["membership_ok"] is True
    else:
        assert names in err


@pytest.mark.parametrize(
    "make, path, value, names",
    [
        (pca_config, "trace_evry", 5, "trace_evry: unknown field; expected one of algorithm, problem,"),
        (pca_config, "problem.lamda", 0.2, "problem.lamda: unknown field; expected one of family, n, p, N, lambda"),
        (sphere_config, "problem.lambda", 0.1, "problem.lambda: unknown field; expected one of family, n, m,"),
        (sphere_config, "problem.set.radus", 2.0, "problem.set.radus: unknown field; expected one of kind, center,"),
        (sphere_config, "problem.set.target", 0.0, "problem.set.target: unknown field"),
        (sphere_config, "solver.c_tua", 0.01, "solver.c_tua: unknown field; expected one of theta, safety, zeta,"),
    ],
)
def test_run_unknown_key_names_its_path(tmp_path, capsys, make, path, value, names):
    # a misspelt or foreign key at any level would otherwise run with the default
    cfg = make(tmp_path / "out")
    _set_field(cfg, path, value)
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert f"config error: {names}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


HUGE_FIELDS = [(pca_config, "problem.N"), (pca_config, "problem.n"), (sphere_config, "problem.N"),
               (sphere_config, "problem.n"), (sphere_config, "problem.m")]


@pytest.mark.parametrize(
    "make, field, value",
    [(make, field, value) for make, field in HUGE_FIELDS for value in (2**62, 10**30)]
    + [(pca_config, "problem.n", 10**12), (sphere_config, "problem.n", 10**12), (sphere_config, "problem.m", 10**12)],
)
def test_run_huge_dimension_names_its_field(tmp_path, capsys, make, field, value):
    # past its index range numpy raises ValueError, not MemoryError; 10**12
    # raises MemoryError, which names n when n > N; the singleton's scalar
    # target is broadcast to m entries
    cfg = make(tmp_path / "out")
    _set_field(cfg, field, value)
    if field == "problem.m":
        cfg["problem"]["set"] = {"kind": "singleton", "target": 0.0}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: " in err and "Traceback" not in err


def test_run_unwritable_output_names_its_setting(tmp_path, monkeypatch, capsys):
    # the directory cannot be created under a file, and a directory in the place of trace.csv cannot be
    # written; each exits 2 naming the setting, and with --seeds an unwritable root, or one no path can
    # hold (a NUL byte), is reported once, before any seed runs
    cfg_path = write_config(tmp_path, pca_config(tmp_path / "out"))
    (tmp_path / "out" / "trace.csv").mkdir(parents=True)
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: output_dir: " in err and "Traceback" not in err
    monkeypatch.setenv("MANISMOOTH_OUT", str(cfg_path / "out"))
    assert main(["run", "--config", str(cfg_path), "--seeds", "1,2,3"]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: MANISMOOTH_OUT: ") == 1 and "seed " not in err and "Traceback" not in err
    monkeypatch.delenv("MANISMOOTH_OUT")
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("out\x00x"))), "--seeds", "1,2"]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: output_dir: ") == 1 and "seed " not in err and "Traceback" not in err


@pytest.mark.parametrize("solver", [{"c_tau": 0.5, "theta": 3}, {"theta": None}])
def test_run_lipschitz_rejects_solver_fields(tmp_path, capsys, solver):
    # the Lipschitz solver reads no solver field, so any one would be silently ignored
    cfg = pca_config(tmp_path / "out", solver=solver)
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert f"config error: solver.{next(iter(solver))}: applies to algorithm 'indicator' only" in err
    assert not (tmp_path / "out").exists()


def test_run_problem_error_is_reported_once(tmp_path, monkeypatch, capsys):
    cfg = pca_config("ignored")
    cfg["problem"]["lamda"] = 0.2
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--seeds", "1,2,3"]) == 2
    assert capsys.readouterr().err.count("problem.lamda: unknown field") == 1
    assert not (tmp_path / "multi").exists()


@pytest.mark.parametrize(
    "seed, seeds, names",
    [
        (-1, None, "config error: seed: "),
        (2**64, None, "config error: seed: "),
        (5, "-1,2", "--seeds: "),
        (5, f"1,{2**64 + 1}", "--seeds: "),  # would alias seed 1 if masked to 64 bits
        (5, "1,x", "--seeds: "),
    ],
)
def test_run_seed_out_of_range_names_it(tmp_path, monkeypatch, capsys, seed, seeds, names):
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "out"))
    args = ["run", "--config", str(write_config(tmp_path, pca_config("ignored", seed=seed)))]
    assert main(args + ([f"--seeds={seeds}"] if seeds else [])) == 2
    err = capsys.readouterr().err
    assert names in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    assert main(["run", "--config", str(write_config(tmp_path, [1, 2]))]) == 2
    assert "config: must be a JSON object" in capsys.readouterr().err


def test_run_seed_list_isolates_a_failing_seed(tmp_path, monkeypatch, capsys):
    def execute(cfg, seed, out_dir):
        if seed == 2:
            raise NumericalFailureError("non-finite search direction", 17)
        real_execute(cfg, seed, out_dir)

    real_execute = cli._execute
    monkeypatch.setattr(cli, "_execute", execute)
    cfg_path = write_config(tmp_path, pca_config("ignored"))
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(cfg_path), "--seeds", "1,2,3"]) == 3
    assert "seed 2: numerical failure: non-finite search direction (iteration 17)" in capsys.readouterr().err
    for s in (1, 3):
        assert (tmp_path / "multi" / f"seed_{s}" / "trace.csv").exists()


def test_run_one_seed_that_raises_exits_1_with_its_traceback(tmp_path, monkeypatch, capsys):
    def execute(cfg, seed, out_dir):
        raise RuntimeError("a bug in the run")

    monkeypatch.setattr(cli, "_execute", execute)
    assert main(["run", "--config", str(write_config(tmp_path, pca_config(str(tmp_path / "out"))))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.rstrip().endswith("RuntimeError: a bug in the run")


def test_run_empty_seed_list_exits_2(tmp_path, monkeypatch, capsys):
    # an empty --seeds is a malformed list like ",", not an absent option
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "out"))
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("ignored"))), "--seeds", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--seeds: expected comma-separated integers") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_repeated_seed_names_seeds(tmp_path, monkeypatch, capsys):
    # two runs of one seed would write one seed_<s>/, the second over the first
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "out"))
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("ignored"))), "--seeds", "1,2,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--seeds: seed 1 is listed twice") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# the seed pool forks only where numpy bundles OpenBLAS; elsewhere --seeds runs serially
FORKS = pytest.mark.skipif(not hasattr(os, "fork") or seedpool.blas_threads() is None,
                           reason="the seed pool needs os.fork and numpy's bundled OpenBLAS")


def usable_cpus(monkeypatch, count):
    # the seed pool has one process per CPU of the affinity mask; one CPU is the serial path
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def seed_outputs(root, seeds):
    """Each seed's trace.csv and summary.json (less wall_seconds) as bytes."""
    out = {}
    for s in seeds:
        summary = json.loads((root / f"seed_{s}" / "summary.json").read_text())
        del summary["wall_seconds"]
        out[s] = ((root / f"seed_{s}" / "trace.csv").read_bytes(), json.dumps(summary).encode())
    return out


@FORKS
def test_run_seed_pool_writes_the_serial_outputs(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, sphere_config("ignored", max_iters=40, trace_every=1))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = {}
    for cpus in (1, 3):
        usable_cpus(monkeypatch, cpus)
        monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / f"cpus_{cpus}"))
        assert main(["run", "--config", str(cfg_path), "--seeds", "1,2,3"]) == 0
        runs[cpus] = seed_outputs(tmp_path / f"cpus_{cpus}", (1, 2, 3))
    assert len(forks) == 2  # none on one CPU, two children beside this process on three
    assert runs[3] == runs[1]


@pytest.mark.parametrize("failing", [1, 2], ids=["in-this-process", "in-a-child"])
def test_run_seed_pool_names_a_failing_seed_once_in_seed_order(tmp_path, monkeypatch, capsys, failing):
    # with 2 CPUs, seeds 1 and 3 (positions 0 and 2) run in this process and seed 2 in a child
    def execute(cfg, seed, out_dir):
        if seed == failing:
            raise NumericalFailureError("non-finite search direction", 17)
        if seed == 3:
            raise ConfigError("problem.N", "a made-up failure after the first")
        real_execute(cfg, seed, out_dir)

    real_execute = cli._execute
    monkeypatch.setattr(cli, "_execute", execute)
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("ignored"))), "--seeds", "1,2,3,4"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"seed {failing}: numerical failure: non-finite search direction (iteration 17)",
                     "seed 3: config error: problem.N: a made-up failure after the first"]
    for s in {1, 2, 4} - {failing}:
        assert (tmp_path / "multi" / f"seed_{s}" / "trace.csv").exists()


@FORKS
def test_run_seed_pool_child_that_raises_is_named_and_reaped(tmp_path, monkeypatch, capsys):
    def execute(cfg, seed, out_dir):
        if seed == 2:
            raise RuntimeError("a bug in the seed's run")
        real_execute(cfg, seed, out_dir)

    real_execute = cli._execute
    monkeypatch.setattr(cli, "_execute", execute)
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("ignored"))), "--seeds", "1,2,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("seed 2: Traceback") and "RuntimeError: a bug in the seed's run" in err
    for s in (1, 3):
        assert (tmp_path / "multi" / f"seed_{s}" / "trace.csv").exists()
    with pytest.raises(ChildProcessError):  # no child is left to wait for
        os.waitpid(-1, os.WNOHANG)


@FORKS
def test_run_seed_pool_child_killed_by_a_signal_is_named(tmp_path, monkeypatch, capsys):
    def execute(cfg, seed, out_dir):
        if seed == 2:
            if os.getpid() == test_pid:
                raise RuntimeError("seed 2 ran in the test's own process")
            os.kill(os.getpid(), signal.SIGKILL)
        real_execute(cfg, seed, out_dir)

    test_pid = os.getpid()
    real_execute = cli._execute
    monkeypatch.setattr(cli, "_execute", execute)
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("ignored"))), "--seeds", "1,2,3,4"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"seed {s}: its process was killed by signal {int(signal.SIGKILL)} before the seed finished" for s in (2, 4)
    ]
    for s in (1, 3):
        assert (tmp_path / "multi" / f"seed_{s}" / "trace.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=FORKS)], ids=["serial", "this-process-share"])
def test_run_seed_that_raises_in_this_process_is_named_and_the_rest_run(tmp_path, monkeypatch, capsys, cpus):
    # seed 1 runs in this process on either path; on 2 CPUs seed 2 runs in a child meanwhile
    def execute(cfg, seed, out_dir):
        if seed == 1:
            raise RuntimeError("a bug in the seed's run")
        real_execute(cfg, seed, out_dir)

    real_execute = cli._execute
    monkeypatch.setattr(cli, "_execute", execute)
    usable_cpus(monkeypatch, cpus)
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("ignored"))), "--seeds", "1,2,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("seed 1: Traceback") and "RuntimeError: a bug in the seed's run" in err
    assert "seed 2" not in err and "seed 3" not in err
    for s in (2, 3):
        assert (tmp_path / "multi" / f"seed_{s}" / "trace.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@FORKS
def test_run_seed_pool_runs_the_share_of_a_failed_fork_itself(tmp_path, monkeypatch, capsys):
    # with no process to spare, this process runs every share: the outputs are the serial run's
    cfg_path = write_config(tmp_path, sphere_config("ignored", max_iters=40, trace_every=1))
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "serial"))
    usable_cpus(monkeypatch, 1)
    assert main(["run", "--config", str(cfg_path), "--seeds", "1,2,3"]) == 0

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "unforked"))
    assert main(["run", "--config", str(cfg_path), "--seeds", "1,2,3"]) == 0
    assert seed_outputs(tmp_path / "unforked", (1, 2, 3)) == seed_outputs(tmp_path / "serial", (1, 2, 3))
    assert capsys.readouterr().err == ""

    def execute(cfg, seed, out_dir):
        if seed == 2:  # the share the child would have run
            raise RuntimeError("a bug in the seed's run")
        real_execute(cfg, seed, out_dir)

    real_execute = cli._execute
    monkeypatch.setattr(cli, "_execute", execute)
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "failing"))
    assert main(["run", "--config", str(cfg_path), "--seeds", "1,2,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("seed 2: Traceback") and "RuntimeError: a bug in the seed's run" in err
    for s in (1, 3):
        assert (tmp_path / "failing" / f"seed_{s}" / "trace.csv").exists()


def test_run_seed_pool_prints_each_failure_once(tmp_path):
    # a fresh process whose stderr is a pipe, as under a shell: each failure, and a line still
    # buffered when the pool starts, shows exactly once
    out = tmp_path / "multi"
    cfg_path = write_config(tmp_path, pca_config(str(out)))
    code = f"""
import os, sys
from manismooth import cli
from manismooth.errors import NumericalFailureError
os.sched_getaffinity = lambda pid: {{0, 1}}
real_execute = cli._execute
def execute(cfg, seed, out_dir):
    if seed in (1, 2):
        raise NumericalFailureError("seed " + str(seed) + " fails", 3)
    real_execute(cfg, seed, out_dir)
cli._execute = execute
print("before the pool", file=sys.stderr, end="")
sys.exit(cli.main(["run", "--config", {str(cfg_path)!r}, "--seeds", "1,2,3"]))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr.count("before the pool") == 1
    for s in (1, 2):
        assert done.stderr.count(f"seed {s}: numerical failure: seed {s} fails (iteration 3)") == 1
    assert (out / "seed_3" / "trace.csv").exists()


@FORKS
def test_run_seed_pool_child_dies_with_the_command(tmp_path):
    # the command is killed (a benchmark's deadline, say) while a child still runs: the child dies too
    cfg_path = write_config(tmp_path, pca_config(str(tmp_path / "multi")))
    pid_file = tmp_path / "child.pid"
    code = f"""
import os, pathlib, time
from manismooth import cli
os.sched_getaffinity = lambda pid: {{0, 1}}
pid_file = pathlib.Path({str(pid_file)!r})
def execute(cfg, seed, out_dir):
    if seed == 2:  # the child
        pid_file.write_text(str(os.getpid()))
        time.sleep(60)
    while not pid_file.exists():
        time.sleep(0.01)
    os.kill(os.getpid(), 9)
cli._execute = execute
cli.main(["run", "--config", {str(cfg_path)!r}, "--seeds", "1,2"])
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=30)
    assert done.returncode == -signal.SIGKILL
    child = int(pid_file.read_text())
    for _ in range(500):
        try:
            state = Path(f"/proc/{child}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            break
        if state in ("Z", "X"):  # dead, and waiting for whoever adopted it to reap it
            break
        time.sleep(0.01)
    else:
        os.kill(child, signal.SIGKILL)
        pytest.fail(f"child {child} outlived the command")


def test_run_with_one_seed_does_not_import_the_seed_pool(tmp_path):
    # a fresh interpreter shows what a one-seed run loads
    path = write_config(tmp_path, pca_config(str(tmp_path / "out")))
    code = f"import sys; from manismooth import cli; cli.main(['run', '--config', {str(path)!r}]); " \
           "sys.exit('manismooth.seedpool' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=120).returncode == 0


def test_blas_thread_hook_round_trips():
    # numpy's Linux wheels bundle OpenBLAS; without the hook every test marked FORKS is skipped
    get_threads, set_threads = seedpool.blas_threads()
    threads = get_threads()
    try:
        set_threads(1)
        assert get_threads() == 1
    finally:
        set_threads(threads)
    assert get_threads() == threads


@FORKS
def test_seed_pool_processes_share_the_blas_threads(monkeypatch):
    # T threads in effect and W = 2 processes: each runs at T // 2 (at least 1), and T is restored
    get_threads, _ = seedpool.blas_threads()
    threads = get_threads()
    usable_cpus(monkeypatch, 2)
    results = list(seedpool.seed_results(lambda s: (0, f"{s}: {get_threads()}"), [1, 2, 3]))
    assert results == [(0, f"{s}: {max(1, threads // 2)}") for s in (1, 2, 3)]
    assert get_threads() == threads


@FORKS
def test_a_seed_pool_without_children_runs_at_every_blas_thread(monkeypatch):
    # W = 2 caps this process at T // 2 before it forks; with every fork failing it runs all
    # three seeds alone, so it goes back to T threads for them, and T is restored afterwards
    get_threads, set_threads = seedpool.blas_threads()
    threads = get_threads()

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    usable_cpus(monkeypatch, 2)
    set_threads(2)  # T // 2 = 1 must differ from T
    try:
        results = list(seedpool.seed_results(lambda s: (0, f"{s}: {get_threads()}"), [1, 2, 3]))
        assert results == [(0, f"{s}: 2") for s in (1, 2, 3)]
        assert get_threads() == 2
    finally:
        set_threads(threads)


@FORKS
def test_a_seed_pool_whose_forks_start_sets_the_threads_only_to_cap_and_restore(monkeypatch):
    # setting the count after a fork restarts OpenBLAS's thread pool beside the children, which
    # slowed two-seed runs; with every child started the cap set before the forks holds
    get_threads, set_threads = seedpool.blas_threads()
    threads = get_threads()
    calls = []
    monkeypatch.setattr(seedpool, "blas_threads", lambda: (get_threads, lambda n: calls.append(n) or set_threads(n)))
    usable_cpus(monkeypatch, 2)
    assert [code for code, _ in seedpool.seed_results(lambda s: (0, ""), [1, 2, 3])] == [0, 0, 0]
    assert calls == [max(1, threads // 2), threads]


def test_run_seed_pool_without_the_blas_hook_runs_serially(tmp_path, monkeypatch):
    monkeypatch.setattr(seedpool, "blas_threads", lambda: None)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without the BLAS hook"))
    usable_cpus(monkeypatch, 2)
    assert seedpool.workers(3) == 1
    monkeypatch.setenv("MANISMOOTH_OUT", str(tmp_path / "multi"))
    assert main(["run", "--config", str(write_config(tmp_path, pca_config("ignored"))), "--seeds", "1,2"]) == 0
    for s in (1, 2):
        assert (tmp_path / "multi" / f"seed_{s}" / "trace.csv").exists()


def test_run_seed_pool_moves_only_the_diagnostics(tmp_path):
    # each of 2 processes runs at half the BLAS threads of the serial run; the contract of
    # test_run_thread_count_moves_only_the_diagnostics holds seed by seed
    cfg = pca_config(None, problem={"family": "sparse_pca", "n": 1000, "p": 10, "N": 1000, "lambda": 0.1},
                     max_iters=100, trace_every=20, diagnostics=True)
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for cpus in (1, 2):
        out = tmp_path / f"cpus_{cpus}"
        path = write_config(tmp_path, {**cfg, "output_dir": str(out)}, name=f"cfg_{cpus}.json")
        code = (f"import os, sys; from manismooth import cli; os.sched_getaffinity = lambda pid: set(range({cpus})); "
                f"sys.exit(cli.main(['run', '--config', {str(path)!r}, '--seeds', '1,2']))")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
        seeds = {}
        for s in (1, 2):
            header, *rows = (out / f"seed_{s}" / "trace.csv").read_text().splitlines()
            columns = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
            seeds[s] = (columns, read_summary_json(out / f"seed_{s}" / "summary.json")["certificate"])
        runs.append(seeds)
    serial, pooled = runs
    for s in (1, 2):
        (one, cert_one), (two, cert_two) = serial[s], pooled[s]
        for name in ("k", "mu", "tau", "a", "norm_G", "infeas"):
            assert one[name] == two[name], (s, name)
        for name in ("obj_smooth", "norm_grad_Fmu", "norm_eps"):
            assert [float(v) for v in one[name]] == pytest.approx([float(v) for v in two[name]], rel=1e-12, abs=0)
        assert (cert_one["i_K"], cert_one["membership_ok"]) == (cert_two["i_K"], cert_two["membership_ok"])
        for name in ("grad_residual", "feas_residual"):
            assert cert_one[name] == pytest.approx(cert_two[name], rel=1e-12, abs=0), (s, name)


def test_check_unknown_suite(capsys):
    assert main(["check", "--suite", "nope"]) == 2
    assert "choose from all, manifold, smoothing, lemmas, solver" in capsys.readouterr().err


def test_run_and_report_do_not_import_the_check_batteries():
    # only ``check`` needs them; a fresh interpreter shows what the other subcommands load
    code = "import sys, manismooth.cli; sys.exit('manismooth.checks' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


def test_check_lemmas_passes(capsys):
    assert main(["check", "--suite", "lemmas"]) == 0
    err = capsys.readouterr().err
    assert "PASS" in err


CHECK_PROPERTIES = (
    # manifold
    "projection idempotence", "projection orthogonality", "retraction first-order", "retraction constant caps",
    "transport nonexpansive", "transport linear", "retract at zero is identity",
    # smoothing
    "prox vs 1-D grid oracle", "prox optimality", "envelope gradient bound", "envelope monotone in mu",
    "envelope gradient 1/mu-Lipschitz", "two-parameter envelope inequality",
    # lemmas
    "sequence partial-sum bound", "implicit power bound",
    # solver
    "adaptive stepsize positive nonincreasing", "momentum tangent at iterate", "deterministic smooth sanity",
    "seeded rerun identical", "truncation radius respected", "truncation fires and holds at a binding radius",
    "indicator schedules exact", "penalty gradient identity",
)


def test_check_all_passes(capsys):
    # the batteries are the one implementation of these properties; a
    # failure prints the report, which names the property.  A pass prints
    # its name alone, so the report is exactly these lines, in battery order
    code = main(["check", "--suite", "all"])
    err = capsys.readouterr().err
    assert code == 0, err
    assert err == "".join(f"PASS {name}\n" for name in CHECK_PROPERTIES) + "23/23 properties passed\n"


def test_report_synthetic_slope(tmp_path, capsys):
    trace = [
        TraceRecord(k=k, mu=1.0, tau=0.1, a=0.5, norm_G=1.0, norm_grad_Fmu=float(k) ** (-1.0 / 3.0), infeas=0.0)
        for k in range(1, 2001)
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert main(["report", "--trace", str(path), "--field", "norm_grad_Fmu",
                 "--from", "100", "--to", "2000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["field", "slope", "intercept", "r_squared", "k_lo", "k_hi", "mode"]
    assert out["field"] == "norm_grad_Fmu" and out["mode"] == "mean_sq"
    assert abs(out["slope"] + 2.0 / 3.0) <= 0.06
    assert out["r_squared"] > 0.99


@pytest.mark.parametrize("field", ["__doc__", "__class__", "__init__"])
def test_report_field_that_is_not_a_column_exits_2(tmp_path, capsys, field):
    path = tmp_path / "trace.csv"
    write_trace_csv([TraceRecord(k=k, mu=1.0, tau=0.1, a=0.5, norm_G=1.0, infeas=0.0) for k in range(1, 40)], path)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--trace", str(path), "--field", field, "--from", "1", "--to", "39"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--field" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "value, mode",
    [(math.inf, "mean_sq"), (1e308, "mean_sq"), (math.nan, "raw")],
    ids=["inf", "square-overflows", "nan"],
)
def test_report_non_finite_series_exits_2_naming_field_and_k(tmp_path, capsys, value, mode):
    # 1e308 is finite, but its square overflows the running mean of squares
    trace = [TraceRecord(k=k, mu=1.0, tau=0.1, a=0.5, norm_G=value if k == 20 else 1.0 / k, infeas=0.0)
             for k in range(1, 40)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert main(["report", "--trace", str(path), "--field", "norm_G", "--from", "1", "--to", "39", "--mode", mode]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'norm_G'" in err and "k = 20" in err


@pytest.mark.parametrize("k_lo", ["0", "-5"])
def test_report_window_from_below_1_exits_2(tmp_path, capsys, k_lo):
    # an indicator trace starts at k = 0, where log(k) is not finite
    path = tmp_path / "trace.csv"
    trace = [TraceRecord(k=k, mu=1.0, tau=0.1, a=0.5, norm_G=1.0 / (k + 1), infeas=0.0) for k in range(40)]
    write_trace_csv(trace, path)
    assert main(["report", "--trace", str(path), "--field", "norm_G", "--from", k_lo, "--to", "39"]) == 2
    assert "window start" in capsys.readouterr().err


@pytest.mark.parametrize("k_lo, k_hi", [("100", "50"), ("100", "100")])
def test_report_reversed_window_exits_2_naming_both_ends(tmp_path, capsys, k_lo, k_hi):
    # the trace has enough records on either side; the window itself is the fault
    path = tmp_path / "trace.csv"
    write_trace_csv([TraceRecord(k=k, mu=1.0, tau=0.1, a=0.5, norm_G=1.0 / k, infeas=0.0) for k in range(1, 201)], path)
    assert main(["report", "--trace", str(path), "--field", "norm_G", "--from", k_lo, "--to", k_hi]) == 2
    err = capsys.readouterr().err
    assert f"window [{k_lo}, {k_hi}] is reversed" in err and "need >= 10 records" not in err


def test_report_schema_1_trace_exits_2_naming_schema_2(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("k,mu,tau,a,norm_G,obj_smooth,norm_grad_Fmu,infeas,norm_eps,wall_ns\n1,1.0,0.1,1,1,,,0,,0\n")
    assert main(["report", "--trace", str(path), "--field", "norm_G", "--from", "1", "--to", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace format error: line 1: bad header") and "schema 2" in err


def test_report_window_too_small(tmp_path):
    trace = [
        TraceRecord(k=k, mu=1.0, tau=0.1, a=0.5, norm_G=1.0, norm_grad_Fmu=1.0, infeas=0.0)
        for k in range(1, 30)
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert main(["report", "--trace", str(path), "--field", "norm_grad_Fmu",
                 "--from", "25", "--to", "29"]) == 2


def test_report_malformed_csv_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("k,mu,tau,a,norm_G,obj_smooth,norm_grad_Fmu,infeas,norm_eps\n1,oops,0.1,1,1,,,0,\n")
    assert main(["report", "--trace", str(path), "--field", "norm_G",
                 "--from", "1", "--to", "10"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [b"1,0.5\xff,0.1,1,1,,,0,\n", b"1," + b"9" * 200_000 + b",0.1,1,1,,,0,\n"],
    ids=["not-utf8", "field-over-csv-limit"],
)
def test_report_unreadable_trace_exits_2_naming_the_line(tmp_path, capsys, row):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"k,mu,tau,a,norm_G,obj_smooth,norm_grad_Fmu,infeas,norm_eps\n" + row)
    assert main(["report", "--trace", str(path), "--field", "norm_G", "--from", "1", "--to", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace format error: line 2: ") and "Traceback" not in err


def test_report_missing_file():
    assert main(["report", "--trace", "/nonexistent/trace.csv", "--field", "norm_G",
                 "--from", "1", "--to", "10"]) == 2
