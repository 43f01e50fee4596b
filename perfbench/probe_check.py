"""A/A check of the speed probe: its reading must not depend on the program's working set.

    python3 perfbench/probe_check.py [--reps 8]

Runs two synthetic children on the probe's CPU, alternately, 3 s each:
``small`` works on a 50x3 array (Python-bound, like ``pca_rate``) and
``large`` streams over two 32 MB arrays (more than the cache holds, like
``pca_wide``).  The CPU's speed is the same for both, so a probe that
reads the CPU and not the child gives the same time during each.  Two
probes run side by side: the one ``run.py`` uses, which warms the caches
with an untimed pass before each timed one, and a ``cold`` one that times
its first pass.  Printed per probe: the ratio of its mean time during
``large`` to that during ``small``, per repetition and as a median.
Other tenants of the host move single ratios; the median should be near 1
for the probe ``run.py`` uses.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

from run import PROBE_PERIOD_S, PROBE_REF_S, PROBE_ROUNDS, SpeedProbe  # this script's directory is on sys.path

CHILDREN = {
    "small": "import numpy as np, time\n"
             "a = np.ones((50, 3)); t = time.time()\n"
             "while time.time() - t < 3:\n"
             "    for i in range(1000): a = a * 1.0000001 + np.linalg.norm(a) * 0\n",
    "large": "import numpy as np, time\n"
             "a = np.ones(4_000_000); b = np.ones(4_000_000); t = time.time()\n"
             "while time.time() - t < 3:\n"
             "    a += b; s = a.sum()\n",
}


class ColdProbe(SpeedProbe):
    """The probe without its warm-up pass."""

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        out = self.samples[cpu]
        while not self._stop.is_set():
            c0 = time.thread_time()
            self._work(PROBE_ROUNDS)
            out.append((time.perf_counter(), time.thread_time() - c0))
            self._stop.wait(PROBE_PERIOD_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=8)
    args = parser.parse_args()
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by the children
    probes = {"run.py": SpeedProbe([cpu]), "cold": ColdProbe([cpu])}
    readings = {(p, c): [] for p in probes for c in CHILDREN}
    try:
        for _ in range(args.reps):
            for child, code in CHILDREN.items():
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True)
                t1 = time.perf_counter()
                for name, probe in probes.items():  # skip the child's import
                    readings[name, child].append(PROBE_REF_S / probe.scale(t0 + 0.5, t1))
    finally:
        for probe in probes.values():
            probe.stop()
    for name in probes:
        ratios = [lg / sm for lg, sm in zip(readings[name, "large"], readings[name, "small"])]
        print(f"probe {name:7s} large/small {statistics.median(ratios):.3f}  per rep {[round(r, 3) for r in ratios]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
