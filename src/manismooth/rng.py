"""Deterministic random-stream management.

All randomness in a run flows from one user-facing seed.  Independent
purposes (problem data, sample draws, probes) get their own named streams
so that, for example, regenerating problem data does not perturb the
solver's sample sequence.
"""

import zlib

import numpy as np


def derive_seed(seed: int, stream: str) -> int:
    """Derive a child seed for a named stream from a master seed."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(stream.encode())])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
