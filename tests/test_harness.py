import csv
import io
import re
from pathlib import Path

import numpy as np
import pytest

import manismooth as ms
from manismooth.checks import (
    check_lemmas,
    largest_premise_solution,
    lemma_implicit_bound_check,
    lemma_seq_bound_check,
    retr_smooth_constant_check,
)
from manismooth.errors import InsufficientDataError, ParameterError, TraceFormatError
from manismooth.harness import (
    TRACE_COLUMNS,
    TraceRecord,
    _fmt,
    fit_rate,
    read_summary_json,
    read_trace_csv,
    summary_dict,
    write_summary_json,
    write_trace_csv,
)


@pytest.fixture(scope="module")
def lemma_battery():
    # the randomized lemma properties live once, in the `check` battery
    # (10k draws each); these tests assert its verdict property by property
    return {r.name: r for r in check_lemmas()}


def synthetic_trace(values):
    return [TraceRecord(k=k, mu=1.0, tau=0.1, a=0.5, norm_G=v, norm_grad_Fmu=v, infeas=0.0) for k, v in values]


def test_fit_rate_exact_power_law_raw():
    trace = synthetic_trace([(k, float(k) ** (-2.0 / 3.0)) for k in range(1, 201)])
    fit = fit_rate(trace, "norm_G", (1, 200), mode="raw")
    assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_constant_field():
    trace = synthetic_trace([(k, 2.5) for k in range(1, 101)])
    fit = fit_rate(trace, "norm_G", (1, 100), mode="raw")
    assert fit.slope == pytest.approx(0.0, abs=1e-9)


def test_fit_rate_noisy_power_law():
    trace = synthetic_trace(
        [(k, float(k) ** (-1.0 / 3.0) * (1.0 + 0.01 * np.sin(k))) for k in range(1, 2001)]
    )
    fit = fit_rate(trace, "norm_G", (1, 2000), mode="raw")
    assert abs(fit.slope + 1.0 / 3.0) <= 0.02


def test_fit_rate_running_mean_sq():
    # field k^{-1/3}: the running mean of its square decays like k^{-2/3},
    # up to a k^{-1/3} finite-window correction that biases the fit slightly
    trace = synthetic_trace([(k, float(k) ** (-1.0 / 3.0)) for k in range(1, 3001)])
    fit = fit_rate(trace, "norm_grad_Fmu", (100, 3000))
    assert abs(fit.slope + 2.0 / 3.0) <= 0.05


def test_fit_rate_insufficient_data():
    trace = synthetic_trace([(k, 1.0) for k in range(1, 6)])
    with pytest.raises(InsufficientDataError):
        fit_rate(trace, "norm_G", (1, 5))


def test_lemma_seq_bound_worked_example():
    lhs = 1.0 + 1.0 / np.sqrt(2.0) + 1.0 / np.sqrt(3.0) + 0.5
    assert lhs == pytest.approx(2.7844, abs=1e-3)
    assert lemma_seq_bound_check([1.0, 1.0, 1.0, 1.0], 0.5)


def test_lemma_seq_bound_single_element():
    assert lemma_seq_bound_check([3.7], 0.3)


def test_lemma_seq_bound_validates():
    with pytest.raises(ParameterError):
        lemma_seq_bound_check([0.0, 1.0], 0.5)
    with pytest.raises(ParameterError):
        lemma_seq_bound_check([1.0], 1.5)


def test_lemma_seq_bound_randomized(lemma_battery):
    result = lemma_battery["sequence partial-sum bound"]
    assert result.passed, result.detail


def test_lemma_implicit_bound_worked_example():
    # alpha = beta = 1/2, c = d = 1, e = 0: premise forces x <= 4, bound is 8
    x = largest_premise_solution(1.0, 1.0, 0.0, 0.5, 0.5)
    assert x == pytest.approx(4.0, abs=1e-9)
    assert lemma_implicit_bound_check(1.0, 1.0, 0.0, 0.5, 0.5, x)
    assert lemma_implicit_bound_check(1.0, 1.0, 0.0, 0.5, 0.5, 0.0)


def test_stacked_lemma_checks_agree_with_per_row_calls():
    # zero-padded rows of the sequence bound, and rows of the implicit bound
    # with their bisected premise solutions: the same verdicts as one call per
    # row, and the solutions within 1e-12 of a Python-float bisection
    rng = np.random.default_rng(17)
    lengths = rng.integers(1, 12, 200)
    b = np.zeros((200, 11))
    for row, n in enumerate(lengths):
        b[row, :n] = rng.uniform(0.0, 5.0, n)
    b[:, 0] += 0.01
    p = rng.uniform(0.02, 0.98, 200)
    verdicts = lemma_seq_bound_check(b, p)
    assert verdicts.shape == (200,)
    assert verdicts.tolist() == [lemma_seq_bound_check(row[:n], q) for row, n, q in zip(b, lengths, p)]
    c, d, e, al, be = rng.uniform([0.05, 0.05, 0.0, 0.05, 0.05], [5.0, 5.0, 5.0, 0.95, 0.95], (200, 5)).T
    x = largest_premise_solution(c, d, e, al, be)
    for row in range(200):
        args = (float(c[row]), float(d[row]), float(e[row]), float(al[row]), float(be[row]))
        lo, hi = 0.0, 1.0
        while args[0] * hi ** args[3] + args[1] * hi ** args[4] + args[2] >= hi:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if args[0] * mid ** args[3] + args[1] * mid ** args[4] + args[2] >= mid else (lo, mid)
        assert x[row] == pytest.approx(lo, rel=1e-12, abs=0.0)
    assert largest_premise_solution(*(v[3] for v in (c, d, e, al, be))) == x[3]
    verdicts = lemma_implicit_bound_check(c, d, e, al, be, x)
    assert verdicts.tolist() == [lemma_implicit_bound_check(*args, xr) for *args, xr in zip(c, d, e, al, be, x)]
    b[7, 0] = 0.0  # one bad row rejects the stack
    with pytest.raises(ParameterError):
        lemma_seq_bound_check(b, p)


def test_lemma_implicit_bound_validates_premise():
    with pytest.raises(ParameterError):
        lemma_implicit_bound_check(0.1, 0.1, 0.0, 0.5, 0.5, 100.0)


def test_lemma_implicit_bound_randomized(lemma_battery):
    result = lemma_battery["implicit power bound"]
    assert result.passed, result.detail


def test_retr_smooth_quadratic_on_sphere():
    p = ms.make_sparse_pca(8, 1, 6, 0.0, seed=41)
    emp, bound = retr_smooth_constant_check(p, 1.0, 150, seed=42)
    assert emp <= bound


def test_trace_csv_roundtrip(tmp_path):
    trace = [
        TraceRecord(k=1, mu=1.0, tau=0.5, a=1.0, norm_G=0.123456789012345678,
                    obj_smooth=None, norm_grad_Fmu=None, infeas=1e-300, norm_eps=None),
        TraceRecord(k=10, mu=10.0 ** (-1 / 3), tau=0.3, a=0.25, norm_G=2.0,
                    obj_smooth=-1.5, norm_grad_Fmu=0.7, infeas=0.0, norm_eps=0.1),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert back == trace


def test_trace_csv_writes_the_bytes_of_csv_writer(tmp_path):
    # each row is joined and written as one string; the file must hold exactly what
    # csv.writer wrote: \r\n line ends, and empty, unquoted fields where a row has no diagnostics
    trace = [
        TraceRecord(k=0, mu=1.0, tau=0.5, a=1.0, norm_G=0.123456789012345678, infeas=1e-300),
        TraceRecord(k=np.int64(20), mu=20.0 ** (-1 / 3), tau=-0.0, a=np.float64(0.25), norm_G=float("inf"),
                    obj_smooth=-1.5, norm_grad_Fmu=float("nan"), infeas=0.0, norm_eps=5e-324),
        TraceRecord(k=21, mu=0.3, tau=0.3, a=0.2, norm_G=2.0, obj_smooth=None, norm_grad_Fmu=0.7, infeas=3.0),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(TRACE_COLUMNS)
    for rec in trace:
        writer.writerow([_fmt(getattr(rec, column)) for column in TRACE_COLUMNS])
    assert path.read_bytes() == expected.getvalue().encode()
    assert path.read_bytes().count(b"\r\n") == 4 and b",,,1e-300,\r\n" in path.read_bytes()


def test_readme_lists_the_trace_columns():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    columns = re.search(r"`trace\.csv` has the fixed columns\s+`([^`]*)`", readme)
    assert columns and columns.group(1) == ", ".join(TRACE_COLUMNS)


def test_trace_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_trace_csv([], path)
    assert path.read_text().strip() == "k,mu,tau,a,norm_G,obj_smooth,norm_grad_Fmu,infeas,norm_eps"
    assert read_trace_csv(path) == []


def test_trace_csv_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_trace_csv([TraceRecord(k=1, mu=1.0, tau=0.1, a=1.0, norm_G=1.0, infeas=0.0)], path)
    with open(path, "a") as fh:
        fh.write("2,nope,0.1,1.0,1.0,,,0.0,\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace_csv(path)
    assert err.value.line == 3


def test_summary_json_roundtrip(tmp_path):
    cert = ms.Certificate(i_K=7, x=None, y=np.zeros(2), z=np.zeros(2),
                          grad_residual=0.125, feas_residual=1e-17, membership_ok=True)
    fit = ms.RateFit(field="norm_G", slope=-0.66, intercept=1.0, r_squared=0.99, window=(100, 1000), mode="raw")
    summary = summary_dict(
        algorithm="lipschitz", problem_name="sparse_pca", seed=3, K=100,
        config={"trace_every": 10}, certificate=cert, rate_fits=[fit], wall_seconds=0.5,
    )
    path = tmp_path / "summary.json"
    write_summary_json(summary, path)
    back = read_summary_json(path)
    assert back == summary
    assert back["schema_version"] == "2"
    assert back["rate_fits"] == [{"field": "norm_G", "slope": -0.66, "intercept": 1.0, "r_squared": 0.99,
                                  "k_lo": 100, "k_hi": 1000, "mode": "raw"}]
    assert back["certificate"]["feas_residual"] == 1e-17
