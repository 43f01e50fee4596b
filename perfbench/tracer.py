"""Run one ``manismooth`` command in-process with per-layer spans.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py SPANS.json run --config cfg.json [--seeds 1,2]
    python3 perfbench/tracer.py SPANS.json check --suite all

Before the command starts, every public function of the traced modules
is replaced by a timing wrapper in each ``manismooth`` module that binds
it, because callers look functions up in their own namespace
(``solver_lipschitz.retract`` is the same object as
``manifolds.retract`` until it is replaced).  Nothing under ``src/`` is
edited.  Each call records a span ``(id, parent, thread, name, start_ns,
end_ns, points, tangents)``, where ``points``/``tangents`` count the
``ManifoldPoint``/``TangentVector`` constructions made inside the span.
Spans stay in memory and are written to SPANS.json when the command
exits, together with the count of nonsmooth-term ``value`` calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

TRACED_MODULES = (
    "manifolds",
    "smoothing",
    "problems",
    "solver_lipschitz",
    "solver_indicator",
    "harness",
    "checks",
    "cli",
)
# constructors whose returned problem gets a spanned ``full_egrad`` closure
PROBLEM_FACTORIES = ("make_sparse_pca", "make_constrained_sphere")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._h_value_calls = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()

    def _thread_state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.tid = threading.get_ident()
            loc.points = 0
            loc.tangents = 0
        return loc

    def span(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        state = self._thread_state

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            loc = state()
            stack = loc.stack
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            p0, v0 = loc.points, loc.tangents
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, loc.tid, name, t0, t1, loc.points - p0, loc.tangents - v0))

        return spanned

    def _counting_post_init(self, cls, attr: str):
        original = cls.__post_init__
        state = self._thread_state

        def __post_init__(obj):
            loc = state()
            setattr(loc, attr, getattr(loc, attr) + 1)
            original(obj)

        cls.__post_init__ = __post_init__

    def _counting_value(self, cls):
        original = cls.value
        calls = self._h_value_calls

        def value(obj, y):
            next(calls)
            return original(obj, y)

        cls.value = value

    def _spanned_factory(self, name: str, fn):
        egrad_name = "problems.full_egrad"

        def factory(*args, **kwargs):
            problem = fn(*args, **kwargs)
            return dataclasses.replace(problem, full_egrad=self.span(egrad_name, problem.full_egrad))

        return self.span(name, functools.wraps(fn)(factory))

    def install(self) -> None:
        """Replace every traced function wherever a manismooth module binds it."""
        modules = {m: importlib.import_module(f"manismooth.{m}") for m in TRACED_MODULES}
        package = [mod for name, mod in sys.modules.items() if name.startswith("manismooth")]
        replacements = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if attr in PROBLEM_FACTORIES:
                    replacements[id(obj)] = self._spanned_factory(name, obj)
                else:
                    replacements[id(obj)] = self.span(name, obj)
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    setattr(mod, attr, replacements[id(obj)])

        manifolds = modules["manifolds"]
        self._counting_post_init(manifolds.ManifoldPoint, "points")
        self._counting_post_init(manifolds.TangentVector, "tangents")
        smoothing = modules["smoothing"]
        for cls in (smoothing.NonsmoothTerm, *_subclasses(smoothing.NonsmoothTerm)):
            if "value" in vars(cls):
                self._counting_value(cls)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "h_value_calls": next(self._h_value_calls)}, fh)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from manismooth import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
