"""Bit-for-bit digests of the benchmark's long runs.

The golden traces pin about 1000 steps at small sizes.  The benchmark's
output check compares whole runs: ``pca_rate`` (sparse PCA on St(50, 3),
Lipschitz solver, K = 5000) and ``sphere_seeds`` (constrained sphere S^49,
indicator solver with its estimated configuration, K = 2000 per seed).
These tests run both instances as ``manismooth run`` builds them, with
diagnostics off: the steps' products are too small for BLAS to split over
threads, but the diagnostics' full gradients are not, so only the steps'
bits are independent of the BLAS thread count.  Each digest hashes every
record's step fields (k, mu, tau, a, norm_G, infeas) and the final
iterate and momentum bytes; a change that moves one bit of any step fails.

The ``pca_rate`` digest was recorded before the one-matrix step lost its
Python layers, the ``sphere_seeds`` one when the estimators' sampled
passes became whole stacked draws.  Regenerate only for an intended
change of the iteration's arithmetic or of the estimated configuration:

    PYTHONPATH=src python tests/test_long_runs.py

prints each digest that moved, old -> new, for ``DIGESTS``.
"""

import hashlib
import struct

from manismooth import cli, solver_indicator, solver_lipschitz
from manismooth.rng import derive_seed

PCA_RATE = {"family": "sparse_pca", "n": 50, "p": 3, "N": 1000, "lambda": 0.1}
SPHERE_SEEDS = {"family": "constrained_sphere", "n": 50, "m": 10, "N": 1000,
                "set": {"kind": "ball", "center": [0.2] * 10, "radius": 0.5}}
DIGESTS = {
    "pca_rate": "bd5566d3012424391c8e5b0fc06ce5c88fafe2e3951755c4b9e581f42fcf67f0",
    "sphere_seeds": "e0343eb7aac2736ca4d6c1f350e466929da5f132393eab04d3d6c9a4442d5f46",
}


def _digest(state, trace) -> str:
    h = hashlib.sha256()
    for r in trace:
        h.update(struct.pack("<q5d", r.k, r.mu, r.tau, r.a, r.norm_G, r.infeas))
    h.update(state.x.tobytes())
    h.update(state.delta.tobytes())
    return h.hexdigest()


def pca_rate_run(seed: int = 1) -> str:
    problem = cli.build_problem(PCA_RATE, seed)
    return _digest(*solver_lipschitz.run(problem, None, derive_seed(seed, "sampling"), 5000))


def sphere_seeds_run(seed: int = 1) -> str:
    problem = cli.build_problem(SPHERE_SEEDS, seed)
    config = solver_indicator.default_config(problem, theta=1, seed=derive_seed(seed, "probe"))
    return _digest(*solver_indicator.run(problem, None, config, derive_seed(seed, "sampling"), 2000))


def test_pca_rate_run_is_pinned_bit_for_bit():
    assert pca_rate_run() == DIGESTS["pca_rate"]


def test_sphere_seeds_run_is_pinned_bit_for_bit():
    assert sphere_seeds_run() == DIGESTS["sphere_seeds"]


if __name__ == "__main__":
    for name, new in {"pca_rate": pca_rate_run(), "sphere_seeds": sphere_seeds_run()}.items():
        print(f"{name}: {DIGESTS[name]} -> {new}" if new != DIGESTS[name] else f"{name}: unchanged")
