"""Tests for the benchmark harness's own logic.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import pytest

import checks
import layertrace
from checks import Outcome
from layertrace import Span
from run import tail
from workloads import WORKLOADS, Op, make_ops

SRC = Path(__file__).resolve().parent.parent / "src"


# -- percentile rule ---------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = tail([float(x) for x in range(30, 0, -1)])
    assert (value, beyond) == (20.0, 10)
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_with_exactly_eleven_samples_is_the_minimum():
    assert tail([float(x) for x in range(11)]) == (0.0, 100 / 11, 10)


def test_tail_with_too_few_samples_reports_how_many_are_beyond():
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 2)


# -- self time from spans ----------------------------------------------------

def _nested_spans() -> list[Span]:
    # root calls a (which calls g) and then b; each wrapper adds 0.1 s on
    # either side of its call, the root 0.5 s.
    return [
        Span("root", None, -0.5, 0.0, 10.0, 10.5, None),
        Span("a", 0, 0.9, 1.0, 4.0, 4.1, None),
        Span("g", 1, 1.9, 2.0, 3.0, 3.1, None),
        Span("b", 0, 4.9, 5.0, 6.0, 6.1, None),
    ]


def test_self_time_subtracts_children_outer_durations():
    selfs, overheads = layertrace.self_times(_nested_spans())
    assert selfs == pytest.approx([10.0 - 3.2 - 1.2, 3.0 - 1.2, 1.0, 1.0])
    assert overheads == pytest.approx([1.0, 0.2, 0.2, 0.2])


def test_self_times_and_overhead_add_up_to_the_root():
    spans = _nested_spans()
    selfs, overheads = layertrace.self_times(spans)
    assert sum(selfs) + sum(overheads) == pytest.approx(
        spans[0].outer_end - spans[0].outer_start)


def test_net_time_is_subtree_self_time():
    spans = _nested_spans()
    selfs, _ = layertrace.self_times(spans)
    net = layertrace.net_times(spans, selfs)
    assert net == pytest.approx([10.0 - 0.6, 3.0 - 0.2, 1.0, 1.0])


def test_tracer_records_parents_and_accounts_for_wall_time():
    tracer = layertrace.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    start = time.perf_counter()
    traced_middle()
    wall = time.perf_counter() - start
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("middle", None), ("leaf", 0), ("leaf", 0)]
    selfs, overheads = layertrace.self_times(tracer.spans)
    assert sum(selfs) + sum(overheads) == pytest.approx(wall, abs=1e-3)
    assert selfs[1] >= 0.002 and selfs[2] >= 0.002


def test_tracer_records_a_span_when_the_call_raises():
    tracer = layertrace.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom, lambda a, kw, r: {"result": r})()
    assert tracer.spans[0].attrs == {"result": None}


def test_install_patches_every_alias_and_restores():
    sys.path.insert(0, str(SRC))
    try:
        from johnsonwalk import analysis, linalg
        original = linalg.eig_sym
        tracer = layertrace.Tracer()
        restore = layertrace.install("johnsonwalk", tracer)
        try:
            assert analysis.eig_sym is linalg.eig_sym is not original
            analysis.overlap_balance(100, 3, 0.00345)
        finally:
            restore()
        assert analysis.eig_sym is linalg.eig_sym is original
    finally:
        sys.path.remove(str(SRC))
    names = {span.name: (i, span) for i, span in enumerate(tracer.spans)}
    parent_index, _ = names["analysis.overlap_balance"]
    _, eig = names["linalg.eig_sym"]
    assert eig.parent == parent_index and eig.attrs == {"dim": 4}
    metrics = layertrace.layer_metrics(tracer.spans, passes=1)
    assert metrics["linalg.eig_sym.small.calls"] == (1.0, "count")
    assert metrics["baseline.eig_sym_4x4_s"][0] > 0


# -- workloads ---------------------------------------------------------------

def test_same_seed_same_ops_and_other_seed_other_draws():
    for workload in WORKLOADS:
        assert make_ops(workload, 5) == make_ops(workload, 5)
    assert make_ops("rate-oracle", 5) != make_ops("rate-oracle", 6)


# -- output checks -----------------------------------------------------------

def _op(slot: str, *argv: str, refusal: bool = False, output=None, **params) -> Op:
    return Op(slot, argv, params, refusal=refusal, output=output)


CRIT_K3_N100 = ("formula_k3 gamma_c = 0.0034500000000000004\n"
                "numeric    gamma_c = 0.0034548217385114792  "
                "(overlap-balance residual 4.039e-09)\n")


def test_critical_gamma_k3_offset_within_band_passes():
    op = _op("critical-gamma-k3-1e2", "critical-gamma", n=100, k=3)
    assert checks.check(op, Outcome(0, CRIT_K3_N100, "")) is None


def test_critical_gamma_k3_drifted_rate_is_known_only_from_1e4():
    stdout = ("formula_k3 gamma_c = 3.3334499999999998e-06\n"
              "numeric    gamma_c = 3.3334500590960185e-06  "
              "(overlap-balance residual 1.045e-01)\n")
    op = _op("critical-gamma-k3-1e5", "critical-gamma", n=100000, k=3)
    reason = checks.check(op, Outcome(0, stdout, ""))
    assert reason.startswith("gamma_c offset")
    assert checks.known_defect(op, reason).id == "bisection-absolute-tolerance"
    small = _op("critical-gamma-k3-1e2", "critical-gamma", n=100000, k=3)
    assert checks.known_defect(small, reason) is None


def test_critical_gamma_other_k_checks_leading_order():
    op = _op("critical-gamma-2000-20", "critical-gamma", n=2000, k=20)
    good = "numeric    gamma_c = 2.5253196712583306e-05  (overlap-balance residual -1.000e+00)\n"
    assert checks.check(op, Outcome(0, good, "")) is None
    bad = good.replace("2.5253", "3.5253")
    assert checks.check(op, Outcome(0, bad, "")).startswith("gamma_c*k*n")


def test_traceback_is_a_failure_and_overflow_is_known():
    stderr = ("Traceback (most recent call last):\n"
              "  File \"x.py\", line 1, in <module>\n"
              "OverflowError: int too large to convert to float\n")
    op = _op("refuse-binomial-overflow", "spectrum", refusal=True, n=3000, k=500)
    reason = checks.check(op, Outcome(1, "", stderr))
    assert reason == "traceback: OverflowError: int too large to convert to float"
    assert checks.known_defect(op, reason).id == "binomial-float-overflow"
    success_op = _op("spectrum-1e2", "spectrum", n=100, k=3)
    assert checks.check(success_op, Outcome(1, "", stderr)).startswith("traceback")


def test_refusal_needs_exit_one_and_a_single_error_line():
    op = _op("refuse-vertex-cap", "verify", refusal=True, n=30, k=3)
    assert checks.check(op, Outcome(1, "", "error: above the cap\n")) is None
    assert checks.check(op, Outcome(1, "", "warning\nerror: x\n")) is not None
    assert checks.check(op, Outcome(1, "", "")) is not None
    reason = checks.check(op, Outcome(0, "time,probability\nnan,nan\n", ""))
    assert reason == "exit 0, expected 1"
    assert checks.known_defect(op, reason) is None
    tmax = _op("refuse-t-max-inf", "simulate", refusal=True, n=100, k=3)
    assert checks.known_defect(tmax, reason).id == "t-max-inf-accepted"


def test_verify_deviation_bound():
    op = _op("verify-10-3", "verify", n=10, k=3, steps=250)
    line = "J(10,3) gamma=0.045: max |p_full - p_reduced| = {} over 250 points\n"
    assert checks.check(op, Outcome(0, line.format("2.083e-13"), "")) is None
    assert checks.check(op, Outcome(0, line.format("2.0e-9"), "")).startswith("deviation")
    assert checks.check(op, Outcome(0, line.format("nan"), "")).startswith("deviation")
    wrong_steps = line.format("2.083e-13").replace("250", "200")
    assert checks.check(op, Outcome(0, wrong_steps, "")).startswith("verify reports")


def _curve(probabilities: list[float]) -> str:
    rows = [f"{i * 0.5!r},{p!r}" for i, p in enumerate(probabilities)]
    return "time,probability\n" + "\n".join(rows) + "\n"


def test_simulate_csv_rows_range_and_peak():
    op = _op("simulate-csv-1e3-3", "simulate", output="csv", n=1000, k=3, steps=4)
    assert checks.check(op, Outcome(0, "", "", _curve([0.0, 0.5, 0.95, 0.1]))) is None
    assert checks.check(op, Outcome(0, "", "", _curve([0.0, 0.5, 0.95]))).startswith("3 rows")
    assert checks.check(op, Outcome(0, "", "", _curve([0.0, 0.5, 1.01, 0.1]))) is not None
    assert checks.check(op, Outcome(0, "", "", _curve([0.0, math.nan, 0.95, 0.1]))) is not None
    assert checks.check(op, Outcome(0, "", "", _curve([0.0, 0.5, 0.8, 0.1]))).startswith("peak")
    k20 = _op("simulate-csv-2000-20", "simulate", output="csv", n=2000, k=20, steps=4)
    assert checks.check(k20, Outcome(0, "", "", _curve([0.0, 1e-40, 2e-43, 0.0]))) is None
    assert checks.check(op, Outcome(0, "", "", None)) is not None


def _svg(ys: list[float]) -> str:
    ticks = "".join(f'<text text-anchor="end">{y:.4g}</text>'
                    for y in (min(ys) + i / 4 * (max(ys) - min(ys)) for i in range(5)))
    points = " ".join(f"{70 + i},{400 - 300 * y:.2f}" for i, y in enumerate(ys))
    return ('<svg xmlns="http://www.w3.org/2000/svg">'
            f'{ticks}<polyline points="{points}"/></svg>')


def test_simulate_svg_points_and_tick_range():
    op = _op("simulate-svg-1e2-3", "simulate", output="svg", n=100, k=3, steps=3)
    assert checks.check(op, Outcome(0, "", "", _svg([0.0, 0.92, 0.3]))) is None
    assert checks.check(op, Outcome(0, "", "", _svg([0.0, 0.8, 0.3]))).startswith("peak")
    assert checks.check(op, Outcome(0, "", "", _svg([0.0, 0.9, 0.3, 0.1]))).startswith("4 points")
    assert checks.check(op, Outcome(0, "", "", "<svg")).startswith("SVG does not parse")


def test_sweep_overlaps_sum_to_one_per_gamma():
    op = _op("sweep-gamma-100-3", "sweep-gamma", n=100, k=1, points=2)
    header = "gamma,eig_index,energy,overlap_s,overlap_w\n"
    good = header + "0.1,0,-2,0.25,0.75\n0.1,1,-1,0.75,0.25\n0.2,0,-3,0.5,0.5\n0.2,1,-1,0.5,0.5\n"
    assert checks.check(op, Outcome(0, good, "")) is None
    bad = good.replace("0.2,1,-1,0.5,0.5", "0.2,1,-1,0.5,0.49")
    assert "overlap_w sums to" in checks.check(op, Outcome(0, bad, ""))
    assert checks.check(op, Outcome(0, header, "")).startswith("0 rows")


def test_spectrum_checks_indices_order_and_sums():
    op = _op("spectrum-1e2", "spectrum", n=100, k=1)
    header = "eig_index,energy,overlap_s,overlap_w\n"
    assert checks.check(op, Outcome(0, header + "0,-2,0.4,0.6\n1,-1,0.6,0.4\n", "")) is None
    assert checks.check(op, Outcome(0, header + "0,-1,0.4,0.6\n1,-2,0.6,0.4\n", "")) == \
        "energies not ascending"


def test_analyze_pt_gap_law_and_consistency():
    n = 100
    gap = 2 * math.sqrt(6) / n ** 1.5
    values = dict.fromkeys(checks.ANALYZE_PT_KEYS, 0.5)
    values.update(n=n, e_minus=-1.0, e_plus=-1.0 + gap, predicted_gap=gap,
                  predicted_runtime=math.pi / gap)
    text = "key,value\n" + "".join(f"{k},{v!r}\n" for k, v in values.items())
    op = _op("analyze-pt-1e2", "analyze-pt", n=n, k=3)
    assert checks.check(op, Outcome(0, text, "")) is None
    wrong_n = _op("analyze-pt-1e2", "analyze-pt", n=200, k=3)
    assert checks.check(wrong_n, Outcome(0, text, "")).startswith("n = ")
    values["predicted_runtime"] = 1.0
    text = "key,value\n" + "".join(f"{k},{v!r}\n" for k, v in values.items())
    assert checks.check(op, Outcome(0, text, "")) == "predicted_runtime != pi / gap"


def test_unparsable_output_is_a_failure_not_a_crash():
    op = _op("spectrum-1e2", "spectrum", n=100, k=1)
    text = "eig_index,energy,overlap_s,overlap_w\n0,x,0.4,0.6\n1,-1,0.6,0.4\n"
    assert checks.check(op, Outcome(0, text, "")).startswith("unparsable output")
