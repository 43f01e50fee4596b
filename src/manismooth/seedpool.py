"""The seeds of ``manismooth run --seeds``, one forked process per usable CPU.

CLI seeds share nothing (each builds its own problem), so they run in
parallel: :func:`seed_results` shares them out over W = min(seeds, usable
CPUs) processes, the calling one and W - 1 children forked from it after
import, so no child imports numpy again.  Processes do not share a GIL,
which is why a thread pool lost to running the seeds one after another.
Each process runs at T // W of the T OpenBLAS threads in effect (at least
one): OpenBLAS workers spin after each threaded call, so uncapped
processes oversubscribe the CPUs.  Where ``os.fork`` or numpy's bundled
OpenBLAS is missing, W = 1 and the seeds run one after another in the
calling process.  Only ``run`` with several seeds imports this module.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import signal
import sys
import traceback
from pathlib import Path

import numpy as np


@functools.cache
def blas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None where numpy bundles none."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:  # the library is already loaded, so this finds it rather than loading a second copy
        lib = ctypes.CDLL(str(libs[0]))
        get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def workers(n_seeds: int) -> int:
    """Processes for n_seeds seeds: one per usable CPU, or 1 without ``os.fork`` or numpy's OpenBLAS."""
    if n_seeds < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    count = min(n_seeds, len(os.sched_getaffinity(0)))
    return count if count > 1 and blas_threads() is not None else 1


def _child(run_one, seeds: list[int], share: list[int], fd: int, parent: int) -> None:
    """A forked child's whole life: run its share of the seeds, send one JSON line per seed, exit.

    It never returns into its caller's stack, so the caller's clean-up (a test's teardown, a
    tracer's dump) runs in the parent alone.  It dies with the parent.
    """
    status = 1
    try:
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG, Linux's "kill me when my parent dies"
        if os.getppid() == parent:  # else the parent died before prctl took effect
            with open(fd, "w") as pipe:
                for i in share:
                    try:
                        code, message = run_one(seeds[i])
                    except Exception:  # the serial path would print this traceback and exit 1
                        code, message = 1, f"seed {seeds[i]}: {traceback.format_exc().rstrip()}"
                    pipe.write(json.dumps([i, code, message]) + "\n")
                    pipe.flush()
            status = 0
    finally:
        os._exit(status)


def _collect(pid: int, fd: int, seeds: list[int], share: list[int]) -> dict[int, tuple[int, str]]:
    """Read a child's results to the end of its pipe and reap it; a seed it did not report fails with 1."""
    with open(fd) as pipe:
        lines = pipe.read().splitlines()
    _, status = os.waitpid(pid, 0)
    got = {}
    for line in lines:
        try:
            i, code, message = json.loads(line)
        except ValueError:  # a line cut short by the child's death
            continue
        got[i] = (code, message)
    status = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
    for i in share:
        got.setdefault(i, (1, f"seed {seeds[i]}: its process {how} before the seed finished"))
    return got


def seed_results(run_one, seeds: list[int]):
    """``run_one(s)``, an (exit code, message) pair, for each seed, yielded in seed order.

    Seed i goes to process i mod W, process 0 being this one.  This process's BLAS thread count
    is restored afterwards.  With W = 1 the thread count is left alone.
    """
    count = workers(len(seeds))
    if count == 1:
        yield from map(run_one, seeds)
        return
    get_threads, set_threads = blas_threads()
    threads = get_threads()
    set_threads(max(1, threads // count))
    own, *shares = [list(range(w, len(seeds), count)) for w in range(count)]
    children = []  # (pid, read end of its pipe, its share)
    results = {}
    finished = False
    parent = os.getpid()
    sys.stdout.flush()  # so no child inherits a buffered line and writes it a second time
    sys.stderr.flush()
    try:
        for share in shares:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one runs the share
                os.close(read)
                os.close(write)
                own += share
                continue
            if pid == 0:
                os.close(read)
                _child(run_one, seeds, share, write, parent)
            os.close(write)
            children.append((pid, read, share))
        for i in own:
            results[i] = run_one(seeds[i])
        finished = True
    finally:
        for pid, read, share in children:
            if not finished:  # this process's own share raised: the command fails now, as a serial run would
                os.kill(pid, signal.SIGKILL)
            results.update(_collect(pid, read, seeds, share))
        set_threads(threads)
    for i in range(len(seeds)):
        yield results[i]
