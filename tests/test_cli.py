"""CLI dispatch, CSV/SVG emission, and exit codes."""

import contextlib
import csv
import functools
import io
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import johnsonwalk
from johnsonwalk import _split, analysis, cli, output, reduced, linalg


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_simulate_csv_roundtrip(tmp_path):
    target = tmp_path / "curve.csv"
    rc = cli.main(["simulate", "--n", "8", "--k", "3", "--gamma", "0.03",
                   "--t-max", "20", "--steps", "50", "--output", str(target)])
    assert rc == 0
    header, rows = _read_csv(str(target))
    assert header == ["time", "probability"]
    assert len(rows) == 50
    curve = linalg.success_curve(reduced.search_hamiltonian(8, 3, 0.03),
                                 reduced.initial_state(8, 3), 20.0, 50)
    # 17 significant digits round-trip float64 exactly
    for row, t, p in zip(rows, curve.times, curve.probabilities):
        assert float(row[0]) == t
        assert float(row[1]) == p


def test_csv_is_lf_and_utf8(tmp_path):
    target = tmp_path / "curve.csv"
    cli.main(["simulate", "--n", "6", "--k", "3", "--steps", "5",
              "--output", str(target)])
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").count("\n") == 6


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--n", "10", "--k", "3", "--steps", "40"]
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_header_only(tmp_path):
    target = tmp_path / "empty.csv"
    output.write_csv(str(target), ["x", "y"], [[], []])
    assert target.read_text(encoding="utf-8") == "x,y\n"


def test_write_csv_stdout(capsys):
    output.write_csv(None, ["a"], [[1.5, 2]])
    assert capsys.readouterr().out == "a\n1.5\n2\n"


def _reference_csv(header, columns):
    """The row-at-a-time writer that write_csv replaced."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in zip(*columns):
        writer.writerow([output._format_value(value) for value in row])
    return buffer.getvalue().encode("utf-8")


def _written_csv(tmp_path, header, columns):
    target = tmp_path / "out.csv"
    output.write_csv(str(target), header, columns)
    return target.read_bytes()


def test_write_csv_matches_row_writer_on_curve(tmp_path):
    curve = linalg.success_curve(reduced.search_hamiltonian(100, 3, 0.00345),
                                 reduced.initial_state(100, 3), 700.0, 2801)
    header = ["time", "probability"]
    columns = [curve.times, curve.probabilities]
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


def test_write_csv_matches_row_writer_on_mixed_columns(tmp_path):
    header = ["text", "flag", "np_flag", "i64", "u8", "py_int", "f64", "f32",
              "py_mixed", "obj"]
    columns = [
        ["plain", "a,b", 'say "hi"', "two\nlines", "", " "],
        [True, False, True, False, True, False],
        np.array([True, False, False, True, True, False]),
        np.array([0, -1, 2**62, -(2**63), 7, 42], dtype=np.int64),
        np.array([0, 1, 2, 200, 254, 255], dtype=np.uint8),
        [0, -5, 2**70, np.int32(3), np.int64(-4), 10],
        np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]),
        np.array([0.1, -0.0, math.nan, 1e38, 3.5, -2.25], dtype=np.float32),
        [1.5, 2, "x,y", None, np.float32(0.1), np.float64(-0.0)],
        np.array(["s", 1, 2.5, True, None, 'q"'], dtype=object),
    ]
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


def test_write_csv_matches_row_writer_on_lone_text_column(tmp_path):
    # csv.writer quotes an empty field that is the whole row
    header, columns = [""], [["", "a", "", "b,c"]]
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


@pytest.mark.parametrize("header, columns", [
    (["a,b", 'q"'], [np.array([0.5, -0.0]), np.array([3, -4])]),
    ([""], [np.array([1.5, math.nan])]),
    (["text"], [["a\rb", " lead", "trail ", " both ", "\r"]]),
    (["flag", "z"], [np.array([True, False]),
                     np.array([1 + 2j, complex(math.nan, -0.0)])]),
    ([], []),
], ids=["numeric-header", "numeric-lone-empty-header", "cr-and-spaces",
        "bool-and-complex", "no-columns"])
def test_write_csv_matches_row_writer_on_quoting(tmp_path, header, columns):
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


def test_write_csv_without_columns_is_one_empty_line(tmp_path):
    assert _written_csv(tmp_path, [], []) == b"\n"


@pytest.mark.parametrize("rows", [0, output._CHUNK_ROWS + 1])
def test_write_csv_matches_row_writer_across_chunks(tmp_path, rows):
    rng = np.random.default_rng(rows)
    header = ["x", "i", "label"]
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
               rng.integers(-(2**40), 2**40, rows),
               [f"row {i}" if i % 3 else f"row,{i}" for i in range(rows)]]
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """Split the work as on a machine with 1, 2 or 3 CPUs."""
    monkeypatch.setattr(_split, "worker_count", lambda: request.param)
    return request.param


@functools.lru_cache(maxsize=None)
def _numeric_table(rows):
    """Header, numeric columns and the row writer's bytes for them."""
    rng = np.random.default_rng(rows)
    f64 = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]
    f64[:6] = specials
    f64[-6:] = specials
    u64 = rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)
    u64[:3] = [2**63, 2**64 - 1, 0]
    u64[-3:] = [2**64 - 1, 2**63 - 1, 2**63]
    i64 = rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64, endpoint=True)
    i64[:2] = [-(2**63), 2**63 - 1]
    header = ["f64", "f32", "i64", "u8", "u64"]
    columns = [f64, (f64 * 1e-280).astype(np.float32), i64,
               rng.integers(0, 256, rows).astype(np.uint8), u64]
    return header, columns, _reference_csv(header, columns)


@pytest.mark.parametrize("rows", [output._CHUNK_ROWS + 1, 2 * output._CHUNK_ROWS + 3])
def test_write_csv_split_matches_row_writer(tmp_path, workers, rows):
    header, columns, expected = _numeric_table(rows)
    assert _written_csv(tmp_path, header, columns) == expected


def test_write_csv_split_to_stdout(workers, capsys):
    header, columns, expected = _numeric_table(output._CHUNK_ROWS + 1)
    output.write_csv(None, header, columns)
    assert capsys.readouterr().out.encode() == expected


_LONG_SIMULATE = ["simulate", "--n", "100", "--k", "3", "--steps", "70000"]


def test_simulate_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    outputs = []
    for count in (1, 2, 3):
        monkeypatch.setattr(_split, "worker_count", lambda: count)
        target = tmp_path / f"{count}.csv"
        assert cli.main(_LONG_SIMULATE + ["--output", str(target)]) == 0
        outputs.append(target.read_bytes())
    assert outputs[0].count(b"\n") == 70001
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_failing_row_helper_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_split, "worker_count", lambda: 2)
    monkeypatch.setattr(output, "_HELPER_ARGV",
                        (sys.executable, "-c", "raise SystemExit(3)"))
    threads = threading.enumerate()
    rc = cli.main(_LONG_SIMULATE + ["--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: CSV row helper exited with status 3\n"
    assert threading.enumerate() == threads


def test_memory_error_in_a_curve_thread_exits_one(monkeypatch, capsys):
    # With two workers the second 2^14-time block is computed off the main
    # thread.
    exp = np.exp

    def exhausted_off_main(x):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 256. KiB")
        return exp(x)

    monkeypatch.setattr(_split, "worker_count", lambda: 2)
    monkeypatch.setattr(np, "exp", exhausted_off_main)
    threads = threading.enumerate()
    assert cli.main(["simulate", "--n", "100", "--k", "3", "--steps", "40000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 256. KiB\n"
    assert threading.enumerate() == threads


def test_write_csv_rejects_ragged_columns():
    with pytest.raises(ValueError, match="same length"):
        output.write_csv(None, ["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="header"):
        output.write_csv(None, ["a", "b"], [np.zeros(3)])


def test_sweep_gamma_csv(tmp_path):
    target = tmp_path / "sweep.csv"
    rc = cli.main(["sweep-gamma", "--n", "20", "--k", "3", "--points", "7",
                   "--output", str(target)])
    assert rc == 0
    header, rows = _read_csv(str(target))
    assert header == ["gamma", "eig_index", "energy", "overlap_s", "overlap_w"]
    assert len(rows) == 7 * 4
    assert [r[1] for r in rows[:4]] == ["0", "1", "2", "3"]
    # grid endpoints are the default bracket
    assert float(rows[0][0]) == pytest.approx(1.0 / (2 * 3 * 20), abs=1e-15)
    assert float(rows[-1][0]) == pytest.approx(2.0 / (3 * 20), abs=1e-15)


def test_sweep_gamma_svg_has_four_series(tmp_path):
    target = tmp_path / "sweep.svg"
    rc = cli.main(["sweep-gamma", "--n", "20", "--k", "3", "--points", "6",
                   "--format", "svg", "--output", str(target)])
    assert rc == 0
    text = target.read_text(encoding="utf-8")
    assert text.count("<polyline") == 4
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')


def test_simulate_svg_single_curve(tmp_path):
    target = tmp_path / "curve.svg"
    rc = cli.main(["simulate", "--n", "6", "--k", "3", "--steps", "30",
                   "--format", "svg", "--output", str(target)])
    assert rc == 0
    text = target.read_text(encoding="utf-8")
    assert text.count("<polyline") == 1
    assert 'width="800" height="500"' in text
    assert "<svg xmlns=" in text and text.rstrip().endswith("</svg>")


def test_render_svg_single_point_marker(tmp_path):
    target = tmp_path / "point.svg"
    output.render_svg(str(target), [(np.array([1.0]), np.array([0.5]))])
    text = target.read_text(encoding="utf-8")
    assert "<circle" in text
    assert "<polyline" not in text


def test_render_svg_rejects_empty():
    with pytest.raises(ValueError):
        output.render_svg(None, [])
    with pytest.raises(ValueError):
        output.render_svg(None, [(np.array([]), np.array([]))])


def test_render_svg_flat_series(tmp_path):
    target = tmp_path / "flat.svg"
    ts = np.linspace(0.0, 1.0, 5)
    output.render_svg(str(target), [(ts, np.full(5, 0.25))])
    assert "<polyline" in target.read_text(encoding="utf-8")


def _scalar_points(series):
    """Polyline points by the per-point px/py formula render_svg replaced."""
    x_lo, x_hi = output._padded(min(float(xs.min()) for xs, _ in series),
                                max(float(xs.max()) for xs, _ in series))
    y_lo, y_hi = output._padded(min(float(ys.min()) for _, ys in series),
                                max(float(ys.max()) for _, ys in series))
    plot_w = output.CANVAS_WIDTH - output._MARGIN_LEFT - output._MARGIN_RIGHT
    plot_h = output.CANVAS_HEIGHT - output._MARGIN_TOP - output._MARGIN_BOTTOM
    base_y = output.CANVAS_HEIGHT - output._MARGIN_BOTTOM

    def px(x):
        return output._MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return base_y - (y - y_lo) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            for xs, ys in series]


@pytest.mark.parametrize("case", ["random", "flat", "several"])
def test_render_svg_points_match_scalar_formula(tmp_path, case):
    rng = np.random.default_rng(17)
    ts = np.sort(rng.uniform(-3.0, 40.0, 500))
    if case == "random":
        series = [(ts, rng.standard_normal(500))]
    elif case == "flat":
        series = [(ts, np.full(500, 0.25))]
    else:
        series = [(ts, np.sin(j * ts) * 10.0 ** -j) for j in range(7)]
        series.append((ts[:3] * 1e-3, np.array([1e5, -1e5, 0.0])))
    target = tmp_path / "chart.svg"
    output.render_svg(str(target), series)
    points = re.findall(r'points="([^"]*)"', target.read_text(encoding="utf-8"))
    assert points == _scalar_points(series)


def test_spectrum_csv(capsys):
    rc = cli.main(["spectrum", "--n", "7", "--k", "3", "--gamma", "0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "eig_index,energy,overlap_s,overlap_w"
    assert len(lines) == 5
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert energies == sorted(energies)


def test_critical_gamma_output(capsys):
    rc = cli.main(["critical-gamma", "--n", "100", "--k", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "formula_k3" in out
    assert "numeric" in out
    assert "residual" in out


def test_critical_gamma_k2_numeric_only(capsys):
    rc = cli.main(["critical-gamma", "--n", "10", "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "formula_k3" not in out
    assert "numeric" in out


def test_verify_exit_zero(capsys):
    rc = cli.main(["verify", "--n", "6", "--k", "3"])
    assert rc == 0
    assert "max |p_full - p_reduced|" in capsys.readouterr().out


def test_analyze_pt_key_value(capsys):
    rc = cli.main(["analyze-pt", "--n", "100"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "key,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert float(table["gamma"]) == pytest.approx(1 / 300 + 7 / 60000, abs=1e-15)
    assert float(table["lambda_u"]) == pytest.approx(-1.0055617747640058,
                                                     abs=1e-12)
    assert float(table["predicted_runtime"]) == pytest.approx(
        math.pi / float(table["predicted_gap"]), rel=1e-12)


def test_analyze_pt_text(capsys):
    assert cli.main(["analyze-pt", "--n", "100"]) == 0
    report = analysis.perturbation_report(100)
    h = report.effective_2x2
    values = [report.gamma, *report.cubic_coefficients, report.lambda_u,
              *report.u, h[0, 0], h[0, 1], h[1, 1], report.e_minus,
              report.e_plus, report.predicted_gap, report.predicted_runtime]
    keys = ["gamma", "cubic_lambda3", "cubic_lambda2", "cubic_lambda1",
            "cubic_lambda0", "lambda_u", "u_d0", "u_rprime", "u_rdoubleprime",
            "h_rr", "h_ru", "h_uu", "e_minus", "e_plus", "predicted_gap",
            "predicted_runtime"]
    expected = "key,value\nn,100\n" + "".join(
        f"{key},{format(float(value), '.17g')}\n" for key, value in zip(keys, values))
    assert capsys.readouterr().out == expected


def test_analyze_pt_where_the_block_has_a_zero_component(capsys):
    # n=9, gamma=1: lambda_u = -1 exactly and u_r'' = 0, where a closed-form
    # ratio for u_r' would divide by 2n - 17 + lambda_u/gamma = 0
    assert cli.main(["analyze-pt", "--n", "9", "--gamma", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    table = {key: float(value) for key, value in
             (line.split(",", 1) for line in lines[1:])}
    lam = table["lambda_u"]
    u = np.array([table["u_d0"], table["u_rprime"], table["u_rdoubleprime"]])
    block = analysis.pt_block(9, 1.0)
    assert lam == pytest.approx(-1.0, abs=1e-14)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    assert u[0] > 0
    assert np.linalg.norm(block @ u - lam * u) <= 1e-14


def test_domain_error_exits_one(capsys):
    assert cli.main(["simulate", "--n", "3", "--k", "3"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "150", "--k", "3", "--gamma", "nan"],
    ["simulate", "--n", "100", "--k", "3", "--t-max", "inf", "--steps", "5"],
    ["spectrum", "--n", "3000", "--k", "500", "--gamma", "0.001"],
], ids=["gamma-nan", "t-max-inf", "binomial-overflow"])
def test_non_finite_input_exits_one(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("steps", ["-5", "0", "1"])
def test_verify_zero_window_still_checks_steps(steps, capsys):
    argv = ["verify", "--n", "7", "--k", "3", "--t-max", "0", "--steps", steps]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: steps must be an integer >= 2, got {steps}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["analyze-pt", "--n", "100", "--gamma", "nan"],
    ["analyze-pt", "--n", "100", "--gamma", "inf"],
    ["analyze-pt", "--n", "100", "--gamma", "1e308"],
    ["analyze-pt", "--n", "100", "--gamma", "1e102"],
    ["verify", "--n", "7", "--k", "3", "--gamma", "1e308"],
    ["sweep-gamma", "--n", "10", "--k", "3", "--points", "2",
     "--gamma-max", "1e308"],
    ["sweep-gamma", "--n", "10", "--k", "3", "--gamma-min=-inf",
     "--gamma-max=inf"],
    ["simulate", "--n", "2", "--k", "1", "--gamma", "1e308"],
    # Grids of 2^63 - 1 points: numpy's linspace raised an IndexError.
    ["simulate", "--n", "100", "--k", "3", "--steps", "9223372036854775807"],
    ["verify", "--n", "7", "--k", "3", "--steps", "9223372036854775807"],
    ["sweep-gamma", "--n", "10", "--k", "3", "--points",
     "9223372036854775807"],
], ids=["pt-nan", "pt-inf", "pt-1e308", "pt-1e102", "verify-1e308",
        "sweep-1e308", "sweep-infinite-range", "simulate-phase-overflow",
        "simulate-huge-grid", "verify-huge-grid", "sweep-huge-grid"])
def test_overflowing_input_exits_one(argv, capsys):
    # Warnings are errors here: a RuntimeWarning would reach stderr in a
    # real run, next to the error line.
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["critical-gamma", "--n", "0", "--k", "0"], "require 1 <= k < n"),
    (["critical-gamma", "--n", "3", "--k", "2"], "requires n >= 2k"),
    (["critical-gamma", "--n", "2", "--k", "1"], "no sign change"),
    (["analyze-pt", "--n", str(10**25)], "not resolved in double precision"),
], ids=["n0-k0", "n-below-2k", "no-bracket", "pt-unresolved-gap"])
def test_refused_input_is_one_error_line(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_analyze_pt_reports_just_below_overflow(capsys):
    # The cubic's gamma^3 n^2 term is finite at gamma = 1e101 and overflows
    # at 1e102 (see test_overflowing_input_exits_one).
    assert cli.main(["analyze-pt", "--n", "100", "--gamma", "1e101"]) == 0
    table = dict(line.split(",", 1)
                 for line in capsys.readouterr().out.splitlines()[1:])
    assert table["cubic_lambda0"] == "5.4899999999999997e+307"
    assert all(math.isfinite(float(value)) for value in table.values())


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_t_max_exits_one(command, capsys):
    argv = [command, "--n", "8", "--k", "3", "--t-max", "-3", "--steps", "3"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t_max must be non-negative, got -3.0\n"


def test_simulate_bytes_do_not_depend_on_blas_threads():
    # OpenBLAS reads its thread count when it loads, so each count needs its
    # own process.  A curve built from BLAS products changed bytes here.
    src =os.path.dirname(os.path.dirname(johnsonwalk.__file__))
    argv = [sys.executable, "-m", "johnsonwalk.cli", "simulate", "--n", "2000",
            "--k", "20", "--gamma", "2.5e-05", "--steps", "50001"]
    outputs = []
    for threads in ("1", "2", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(argv, env=env, capture_output=True, check=True,
                             timeout=120)
        assert run.stderr == b""
        outputs.append(run.stdout)
    assert outputs[0].count(b"\n") == 50002
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_import_loads_neither_csv_nor_subprocess():
    # Both are imported where CSV output needs them, so start-up stays lean.
    src = os.path.dirname(os.path.dirname(johnsonwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, johnsonwalk.cli; "
            "print(sorted({'csv', 'subprocess'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True, timeout=60)
    assert run.stdout == b"[]\n"


def _program_env():
    """Environment for running the CLI as a program, with buffered stdout."""
    src = os.path.dirname(os.path.dirname(johnsonwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_package_import_loads_no_submodule_or_numpy():
    # The package root is a plain namespace; the modules are the API.
    code = ("import sys, johnsonwalk; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('johnsonwalk.')))")
    run = subprocess.run([sys.executable, "-c", code], env=_program_env(),
                         capture_output=True, check=True, timeout=60)
    assert run.stdout == b"[]\n"


def test_import_loads_no_dataclasses():
    # The result records are NamedTuples, which are cheaper to define.
    code = "import sys, johnsonwalk.cli; print('dataclasses' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=_program_env(),
                         capture_output=True, check=True, timeout=60)
    assert run.stdout == b"False\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["critical-gamma", "--n", "100", "--k", "3"],
    ["verify", "--n", "9", "--k", "3"],
    ["spectrum", "--n", "100", "--k", "3"],
], ids=lambda argv: argv[0])
def test_failed_final_write_exits_one(argv):
    # Buffered stdout holds the whole output until the program flushes it.
    with open("/dev/full", "wb") as full:
        run = subprocess.run([sys.executable, "-m", "johnsonwalk.cli", *argv],
                             env=_program_env(), stdout=full,
                             stderr=subprocess.PIPE, timeout=60)
    assert run.returncode == 1
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr


@pytest.mark.parametrize("argv", [
    ["critical-gamma", "--n", "100", "--k", "3"],
    ["simulate", "--n", "150", "--k", "3", "--gamma", "nan"],
    ["simulate", "--n", "6"],
], ids=["success", "refusal", "usage-error"])
def test_program_matches_in_process_main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    run = subprocess.run([sys.executable, "-m", "johnsonwalk.cli", *argv],
                         env=_program_env(), capture_output=True, timeout=60)
    assert run.returncode == code
    assert run.stdout == captured.out.encode()
    assert run.stderr == captured.err.encode()


def test_verbose_writes_one_info_line_to_stderr():
    src = os.path.dirname(os.path.dirname(johnsonwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["spectrum", "--n", "100", "--k", "3"]
    quiet, verbose = (
        subprocess.run([sys.executable, "-m", "johnsonwalk.cli", *flags, *argv],
                       env=env, capture_output=True, check=True, timeout=60)
        for flags in ([], ["--verbose"]))
    assert quiet.stderr == b""
    assert verbose.stderr == b"INFO using formula gamma_c = 0.00345\n"
    assert verbose.stdout == quiet.stdout


@pytest.mark.parametrize("order", [(False, True), (True, False)],
                         ids=["quiet-first", "verbose-first"])
def test_verbose_holds_for_each_in_process_call(order, caplog, capsys):
    # Every call logs at its own level, whatever an earlier call asked for.
    for verbose in order:
        caplog.clear()
        argv = ["--verbose"] * verbose + ["spectrum", "--n", "100", "--k", "3"]
        assert cli.main(argv) == 0
        expected = ["using formula gamma_c = 0.00345"] if verbose else []
        assert caplog.messages == expected


def test_verify_failure_is_one_error_line(capsys):
    # Phases near 1e308 keep no precision, so the two curves disagree.
    argv = ["verify", "--n", "7", "--k", "2", "--t-max", "1e308"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: verification FAILED (tolerance 1.0e-08)\n"


def test_cap_error_exits_one(capsys):
    assert cli.main(["verify", "--n", "30", "--k", "3", "--cap", "50"]) == 1
    assert "cap" in capsys.readouterr().err


def test_unwritable_output_exits_one(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    rc = cli.main(["simulate", "--n", "6", "--k", "3", "--steps", "5",
                   "--output", str(missing_dir)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--n", "6"])   # missing --k
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--n", "6", "--k", "3", "--format", "png"])
    assert err.value.code == 2


def test_sweep_rejects_bad_grid(capsys):
    assert cli.main(["sweep-gamma", "--n", "12", "--k", "3", "--points", "1"]) == 1
    assert cli.main(["sweep-gamma", "--n", "12", "--k", "3",
                     "--gamma-min", "0.2", "--gamma-max", "0.1"]) == 1
    capsys.readouterr()


def _run_cli(argv):
    """Exit code and stderr of cli.main, with warnings raised as errors."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_ADVERSE = ["nan", "inf", "-inf", "0", "-1", "1e308"]
_N = st.sampled_from(_ADVERSE + ["-7", "1", "2", "6", "7", "10", "100",
                                 "10000000", str(10**308)])
_K = st.sampled_from(_ADVERSE + ["1", "2", "3", "4"])
_GAMMA = st.sampled_from(_ADVERSE + ["-1e308", "5e-324", "0.01", "0.3"])
_T_MAX = st.sampled_from(_ADVERSE + ["1e-300", "20"])
_STEPS = st.sampled_from(_ADVERSE + ["1", "2", "37", "500"])
_POINTS = st.sampled_from(_ADVERSE + ["1", "2", "20"])


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


_SUBCOMMANDS = {
    "simulate": ["n", "k", "gamma", "t-max", "steps"],
    "sweep-gamma": ["n", "k", "gamma-min", "gamma-max", "points"],
    "critical-gamma": ["n", "k"],
    "spectrum": ["n", "k", "gamma"],
    "verify": ["n", "k", "gamma", "t-max", "steps"],
    "analyze-pt": ["n", "gamma"],
}
_VALUES = {"n": _N, "k": _K, "gamma": _GAMMA, "gamma-min": _GAMMA,
           "gamma-max": _GAMMA, "t-max": _T_MAX, "steps": _STEPS,
           "points": _POINTS}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for name in _SUBCOMMANDS[command]:
        argv += draw(_option(name, _VALUES[name]))
    if command == "verify":
        argv.append("--cap=200")
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_argv())
def test_cli_contract_on_adversarial_arguments(argv):
    code, err = _run_cli(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                "(4, 100000000) and data type complex128"),
    MemoryError(),
], ids=["numpy-message", "bare"])
def test_out_of_memory_exits_one(exc, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise exc
    monkeypatch.setattr(linalg, "success_curve", exhausted)
    assert cli.main(["simulate", "--n", "100", "--k", "3", "--steps", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0] == f"error: {str(exc) or 'out of memory'}"
