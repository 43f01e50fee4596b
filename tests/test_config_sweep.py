"""Generated config sweep: every leaf of four small valid configs, mutated.

Each case sets one leaf to one of a fixed set of bad or edge values (or
drops it), or adds a misspelt key at one level, and runs ``cli.main``
in-process.  Whatever the input, ``run`` must exit 0, 2 or 3 without a
traceback, and an exit 2 must name a config field: the mutated one, or a
``solver`` constant the message asks to supply because it cannot be
derived at the mutated value.
"""

import copy
import json
import re

import pytest

from manismooth.cli import main

BASES = {
    "pca": {
        "algorithm": "lipschitz",
        "problem": {"family": "sparse_pca", "n": 4, "p": 2, "N": 5, "lambda": 0.1},
        "seed": 1,
        "max_iters": 5,
        "trace_every": 2,
        "diagnostics": True,
        "output_dir": "out",
        "solver": {},
    },
    **{
        kind: {
            "algorithm": "indicator",
            "problem": {"family": "constrained_sphere", "n": 4, "m": 2, "N": 5, "quad_weight": 1.0, "set": spec},
            "seed": 1,
            "max_iters": 5,
            "trace_every": 2,
            "diagnostics": True,
            "output_dir": "out",
            "solver": solver,
        }
        for kind, spec, solver in (
            # the ball base supplies every constant, so its cases skip the estimation
            ("ball", {"kind": "ball", "center": [0.2, 0.2], "radius": 0.8},
             {"theta": 1.0, "safety": 2.0, "zeta": 1.0, "c_tau": 0.01, "c_a": 0.5, "trunc_radius": 10.0}),
            ("box", {"kind": "box", "lower": [-0.5, -0.5], "upper": [0.5, 0.5]}, {"theta": 1.0, "safety": 2.0}),
            ("singleton", {"kind": "singleton", "target": [0.1, 0.0]}, {"theta": 2.0}),
        )
    },
}
MISSING = object()
VALUES = {"missing": MISSING, "null": None, "bool": True, "string": "x", "list": [1.0], "zero": 0, "minus_one": -1,
          "huge": 1e308, "tiny": 5e-324, "nul": "a\x00b"}
# for values whose arithmetic overflows on purpose; any other RuntimeWarning fails the case
OVERFLOWS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _leaves(obj, prefix=""):
    """Dotted paths of the non-object values of a config, and of its empty objects."""
    for key, value in obj.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def _levels(obj, prefix=""):
    """Dotted prefixes of the config's objects, the top level first."""
    yield prefix
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _levels(value, f"{prefix}{key}.")


def _cases():
    for base, cfg in BASES.items():
        for path in _leaves(cfg):
            for kind, value in VALUES.items():
                marks = OVERFLOWS if kind == "huge" else ()
                yield pytest.param(base, path, value, marks=marks, id=f"{base}-{path}-{kind}")
        for level in _levels(cfg):
            yield pytest.param(base, f"{level}misspelt", 1, id=f"{base}-{level}misspelt")


def _mutated(base, path, value):
    cfg = copy.deepcopy(BASES[base])
    *parents, leaf = path.split(".")
    obj = cfg
    for key in parents:
        obj = obj[key]
    if value is MISSING:
        del obj[leaf]
    else:
        obj[leaf] = value
    return cfg


@pytest.mark.parametrize("base, path, value", list(_cases()))
def test_mutated_config_exits_cleanly(tmp_path, monkeypatch, capsys, base, path, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MANISMOOTH_OUT", raising=False)
    (tmp_path / "cfg.json").write_text(json.dumps(_mutated(base, path, value)))
    code = main(["run", "--config", "cfg.json"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        supplied = re.search(r"config error: solver\.\w+: .*supply", err)
        assert f"config error: {path}:" in err or supplied, err
