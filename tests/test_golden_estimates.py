"""Pinned constant estimates, bit for bit.

The sampled estimators (``estimate_constants``,
``estimate_retraction_constants``, ``error_bound_probe`` and the
``default_config`` that assembles them) draw each pass as whole stacks
(see :func:`manismooth.manifolds.tangent_blocks`) and evaluate it in
blocks of ``SAMPLE_BLOCK``; a refactor must reproduce every value
exactly, whatever the block size, so the values are stored as
``float.hex`` strings and compared for equality, not to a tolerance.

Regenerate only for an intended change of behaviour; the run prints each
value that moved, old -> new:

    PYTHONPATH=src python tests/test_golden_estimates.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import manismooth as ms
from manismooth import manifolds as mf
from manismooth import solver_indicator as si
from manismooth.checks import DESCRIPTORS
from manismooth.cli import build_problem
from manismooth.rng import derive_seed
from test_acceptance import build_binding_sphere_problem

GOLDEN = Path(__file__).with_name("golden_estimates.json")

# the constrained-sphere instance of the ``sphere_seeds`` benchmark workload
SPHERE_SEEDS = {
    "family": "constrained_sphere",
    "n": 50,
    "m": 10,
    "N": 1000,
    "set": {"kind": "ball", "center": [0.2] * 10, "radius": 0.5},
}


def _pca():
    return ms.make_sparse_pca(10, 2, 40, 0.2, seed=3)


def _csphere(set_term=None):
    return ms.make_constrained_sphere(8, 4, 30, set_term or ms.IndicatorBall(np.full(4, 0.3), 0.9), seed=4)


def _box():
    return _csphere(ms.IndicatorBox(np.array([-0.2, -0.4, 0.0, -1.0]), np.array([0.3, 0.1, 0.5, 0.2])))


def _singleton():
    return _csphere(ms.IndicatorSingleton(np.array([0.1, -0.2, 0.3, 0.0])))


def _golden_indicator():
    return ms.make_constrained_sphere(10, 4, 12, ms.IndicatorBall(np.full(4, 0.35), 0.7), seed=3)


def _binding_config():
    # the constants of acceptance criteria 06-08: the ``binding_sphere`` fixture's probe and default_config
    problem = build_binding_sphere_problem()
    zeta_probe, _ = si.error_bound_probe(problem, 300, seed=17)
    return si.default_config(problem, theta=1.0, safety=2.0, zeta=0.3 * zeta_probe, samples=150, seed=23)


def _fields(obj) -> dict:
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else dict(zip(("zeta", "theta"), obj))


def _cases() -> dict:
    """Name -> zero-argument callable returning a dataclass or a (zeta, theta) pair."""
    cases = {
        "estimate_constants/pca/300/21": lambda: ms.estimate_constants(_pca(), 300, seed=21),
        "estimate_constants/csphere/300/21": lambda: ms.estimate_constants(_csphere(), 300, seed=21),
        "estimate_constants/csphere/101/5": lambda: ms.estimate_constants(_csphere(), 101, seed=5),
        "error_bound_probe/csphere/300/7": lambda: si.error_bound_probe(_csphere(), 300, 7),
        "error_bound_probe/box/150/7": lambda: si.error_bound_probe(_box(), 150, 7),
        "error_bound_probe/singleton/150/7": lambda: si.error_bound_probe(_singleton(), 150, 7),
        "default_config/golden_indicator": lambda: si.default_config(
            _golden_indicator(), theta=1.0, safety=2.0, samples=120, seed=8),
        "default_config/box": lambda: si.default_config(_box(), theta=2.0, safety=1.5, samples=130, seed=3),
        "default_config/singleton": lambda: si.default_config(_singleton(), theta=1.0, seed=4),
        "error_bound_probe/binding_sphere/300/17": (
            lambda: si.error_bound_probe(build_binding_sphere_problem(), 300, 17)),
        "default_config/binding_sphere": _binding_config,
    }
    for desc in DESCRIPTORS:
        cases[f"estimate_retraction_constants/{desc.kind}/500/99"] = (
            lambda desc=desc: ms.estimate_retraction_constants(desc, 500, 99))
    for seed in (101, 102):
        probe = derive_seed(seed, "probe")
        cases[f"estimate_constants/sphere_seeds/{seed}"] = (
            lambda seed=seed, probe=probe: ms.estimate_constants(build_problem(SPHERE_SEEDS, seed), 200, probe))
        cases[f"error_bound_probe/sphere_seeds/{seed}"] = (
            lambda seed=seed, probe=probe: si.error_bound_probe(build_problem(SPHERE_SEEDS, seed), 200, probe + 3))
        cases[f"default_config/sphere_seeds/{seed}"] = (
            lambda seed=seed, probe=probe: si.default_config(build_problem(SPHERE_SEEDS, seed), theta=1, seed=probe))
    return cases


CASES = _cases()


def _hex(obj) -> dict:
    return {k: float(v).hex() for k, v in _fields(obj).items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_estimate(name):
    assert _hex(CASES[name]()) == json.loads(GOLDEN.read_text())[name]


def test_estimates_do_not_depend_on_the_block_size(monkeypatch):
    problem = build_problem(SPHERE_SEEDS, 1000)
    seed = derive_seed(1000, "probe")
    estimates = []
    for block in (7, 32, 1000):
        monkeypatch.setattr(mf, "SAMPLE_BLOCK", block)
        estimates.append([_hex(ms.estimate_constants(problem, 200, seed)),
                          _hex(ms.estimate_retraction_constants(problem.manifold, 200, seed + 1)),
                          _hex(si.default_config(problem, theta=1, seed=seed))])
    assert estimates[0] == estimates[1] == estimates[2]


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {name: _hex(make()) for name, make in sorted(CASES.items())}
    for name, fields in golden.items():
        for field, new in fields.items():
            old = recorded.get(name, {}).get(field)
            if old != new:
                print(f"{name} {field}: {old and float.fromhex(old)!r} -> {float.fromhex(new)!r}")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
