"""Run records (iterations, certificates, rate fits), rate fitting, and trace/summary I/O.

File formats (schema ``SCHEMA_VERSION``):

- trace CSV columns: the ``TraceRecord`` fields in order (``TRACE_COLUMNS``).
  Missing diagnostics are serialized as empty fields; floats use the
  shortest round-trip decimal representation.
- summary JSON keys: schema_version, algorithm, problem, seed, K,
  config, certificate, rate_fits, wall_seconds.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError, TraceFormatError
from .manifolds import ManifoldPoint

SCHEMA_VERSION = "2"


@dataclass(kw_only=True, slots=True)
class TraceRecord:
    """One iteration as its step reports it; the diagnostic fields stay None unless a diagnostics row fills them.

    Not frozen: a frozen dataclass sets each of its nine fields through
    ``object.__setattr__``, which triples the cost of the record each step
    returns, and :func:`.driver.run` fills the diagnostics in place.
    """

    k: int
    mu: float
    tau: float
    a: float
    norm_G: float
    obj_smooth: float | None = None
    norm_grad_Fmu: float | None = None
    infeas: float
    norm_eps: float | None = None


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


@dataclass(frozen=True)
class Certificate:
    """Stationarity witness (y, z) at a randomly selected iterate."""

    i_K: int
    x: ManifoldPoint
    y: np.ndarray
    z: np.ndarray
    grad_residual: float
    feas_residual: float
    membership_ok: bool


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of one trace field, in one mode, over a window of iteration indices."""

    field: str
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]
    mode: str

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ParameterError("window requires k_lo < k_hi")

    def as_dict(self) -> dict:
        """The fit as the JSON object ``summary.json`` and ``report`` write."""
        return dict(field=self.field, slope=self.slope, intercept=self.intercept, r_squared=self.r_squared,
                    k_lo=self.window[0], k_hi=self.window[1], mode=self.mode)


def fit_rate(
    trace: Sequence[TraceRecord],
    field: str,
    window: tuple[int, int],
    mode: str = "mean_sq",
) -> RateFit:
    """OLS fit of log(series) against log(k) over a window.

    mode "mean_sq" (default) fits the running mean of the squared field
    values, accumulated from the start of the trace; mode "raw" fits the
    field values themselves.  Needs at least 10 in-window records with
    the field present, and every in-window value of the fitted series
    finite; otherwise InsufficientDataError names the field (and the
    first non-finite k).
    """
    if mode not in ("mean_sq", "raw"):
        raise ParameterError(f"unknown fit mode {mode!r}")
    k_lo, k_hi = window
    if k_lo < 1:  # the fit takes log(k)
        raise ParameterError(f"window start {k_lo} must be >= 1")
    if k_lo >= k_hi:
        raise ParameterError(f"window [{k_lo}, {k_hi}] is reversed or one iteration wide; need start < end")
    ks, ys = [], []
    acc = 0.0
    count = 0
    for rec in sorted(trace, key=lambda r: r.k):
        v = getattr(rec, field)
        if v is None:
            continue
        if mode == "mean_sq":
            acc += v * v
            count += 1
            val = acc / count
        else:
            val = v
        if not k_lo <= rec.k <= k_hi:
            continue
        if not math.isfinite(val):
            series = "running mean of squares" if mode == "mean_sq" else "value"
            raise InsufficientDataError(f"field {field!r}: the {series} at k = {rec.k} is {val}, not finite")
        if val > 0:
            ks.append(rec.k)
            ys.append(val)
    if len(ks) < 10:
        raise InsufficientDataError(
            f"need >= 10 records with field {field!r} in window [{k_lo}, {k_hi}], got {len(ks)}"
        )
    lx = np.log(np.asarray(ks, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(field=field, slope=float(slope), intercept=float(intercept), r_squared=max(0.0, min(1.0, r2)),
                   window=(k_lo, k_hi), mode=mode)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


_row = operator.attrgetter(*TRACE_COLUMNS)
_FLOATS = {float, np.float64}  # np.float64 subclasses float, so float.__repr__ reads its value
TRACE_BLOCK = 256  # rows formatted per write: it bounds the text held at once, which sets the run's peak memory


def _column_text(values: tuple):
    """The ``_fmt`` string of each value, one C-level call per value where a column holds one kind of value.

    A column of floats is ``float.__repr__`` of each, a column of ``int``
    ``int.__repr__``, a column of None empty fields; any other mix takes
    ``_fmt`` value by value.
    """
    kinds = set(map(type, values))
    if kinds <= _FLOATS:
        return map(float.__repr__, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {type(None)}:
        return itertools.repeat("", len(values))
    return map(_fmt, values)


def write_trace_csv(trace: Sequence[TraceRecord], path) -> None:
    """Write trace records in the fixed column order (header mandatory).

    The records are formatted a column at a time, ``TRACE_BLOCK`` rows
    at a time (:func:`_column_text`), and each block is joined and
    written as one string: the bytes ``csv.writer`` writes from the
    ``_fmt`` of each field (lines end in ``\r\n``; no column name or
    number needs quoting, and a row has more fields than one, so no empty
    field is quoted) without a Python call per field.
    """
    records = iter(trace)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        while block := list(itertools.islice(records, TRACE_BLOCK)):
            columns = map(_column_text, zip(*map(_row, block)))  # BENCH_fast_paths.json "trace_columns"
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


_OPTIONAL_COLUMNS = frozenset(f.name for f in fields(TraceRecord) if f.default is None)


def _parse(column: str, text: str):
    if column == "k":
        return int(text)
    if column in _OPTIONAL_COLUMNS and not text:
        return None
    return float(text)


def read_trace_csv(path) -> list[TraceRecord]:
    """Parse a trace CSV; raises TraceFormatError with the offending line.

    A byte that is not UTF-8 is read as a lone surrogate, so the field
    holding it fails to parse and names its line.
    """
    records: list[TraceRecord] = []
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise TraceFormatError("missing header row", 1)
            if tuple(header) != TRACE_COLUMNS:
                expected = ",".join(TRACE_COLUMNS)
                raise TraceFormatError(f"bad header {header!r}; schema {SCHEMA_VERSION} expects {expected}", 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(TRACE_COLUMNS):
                    raise TraceFormatError(f"expected {len(TRACE_COLUMNS)} fields, got {len(row)}", lineno)
                try:
                    records.append(TraceRecord(**{c: _parse(c, text) for c, text in zip(TRACE_COLUMNS, row)}))
                except ValueError as exc:
                    raise TraceFormatError(str(exc), lineno) from None
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise TraceFormatError(str(exc), reader.line_num) from None
    return records


def summary_dict(
    *,
    algorithm: str,
    problem_name: str,
    seed: int,
    K: int,
    config: dict,
    certificate: Certificate,
    rate_fits: Sequence[RateFit],
    wall_seconds: float,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": algorithm,
        "problem": problem_name,
        "seed": int(seed),
        "K": int(K),
        "config": config,
        "certificate": {
            "i_K": certificate.i_K,
            "grad_residual": float(certificate.grad_residual),
            "feas_residual": float(certificate.feas_residual),
            "membership_ok": bool(certificate.membership_ok),
        },
        "rate_fits": [f.as_dict() for f in rate_fits],
        "wall_seconds": float(wall_seconds),
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
