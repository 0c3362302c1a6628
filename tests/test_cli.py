"""CLI dispatch, CSV/SVG emission, and exit codes."""

import array
import ast
import builtins
import contextlib
import csv
import functools
import glob
import hashlib
import io
import json
import math
import numbers
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
import reference
from johnsonwalk import _digits, analysis, cli, output, reduced, linalg, scheme


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
    curve = linalg.secular_curve(scheme.secular_spectrum(8, 3, 0.03), 20.0, 50)
    dense = reference.dense_curve(analysis.search_hamiltonian(8, 3, 0.03),
                                  analysis.initial_state(8, 3), 20.0, 50)
    # 17 significant digits round-trip float64 exactly
    for row, t, p, q in zip(rows, curve.times, curve.probabilities,
                            dense.probabilities):
        assert float(row[0]) == t
        assert float(row[1]) == p
        assert abs(p - q) <= 1e-12


def _peak(argv, capsys):
    """The largest probability of a simulate run, and its time over pi sqrt(N)/2."""
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    t, p = max(((float(t), float(p)) for t, p in rows), key=lambda row: row[1])
    n, k = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--k") + 1])
    return p, t / scheme.predicted_peak_time(n, k)


def test_simulate_default_peaks_at_the_predicted_time(capsys):
    # At the exact S_1 the walk on J(2000,20), N = 3.9e47, peaks at
    # p = 0.999972 at t = pi sqrt(N)/2; no double lies in its window of
    # rates, about 1/sqrt(N) wide, relative.
    p, at = _peak(["simulate", "--n", "2000", "--k", "20", "--steps", "4001"], capsys)
    assert p >= 0.9999
    assert abs(at - 1.0) <= 1e-3


def test_simulate_peaks_at_the_double_critical_rate(capsys):
    # The gap 2/sqrt(N) at J(600,16) is below eps*|H|, so the curve needs the
    # secular roots' shifts (measured: 0.99981298 on 2e5 points).
    gamma = repr(scheme.gamma_c_numeric(600, 16).gamma)
    p, _ = _peak(["simulate", "--n", "600", "--k", "16", "--gamma", gamma,
                  "--steps", "4001"], capsys)
    assert abs(p - 0.999813) <= 1e-6


def test_simulate_default_rate_is_s1_for_k3(capsys):
    # The closed form 1/(3n) + 7/(6n^2) lies half a window below S_1 at
    # n = 100, where its peak is 0.918 (measured: 0.99125169 on 2e5 points).
    p, _ = _peak(["simulate", "--n", "100", "--k", "3", "--steps", "4001"], capsys)
    assert abs(p - 0.991252) <= 1e-6


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


def _reference_value(value):
    """A value as write_csv's contract prints it, formatted apart from it."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return "%.17g" % float(value)
    return str(value)


def _reference_csv(header, columns):
    """The row-at-a-time writer that write_csv replaced."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in zip(*columns):
        writer.writerow([_reference_value(value) for value in row])
    return buffer.getvalue().encode("utf-8")


def _written_csv(tmp_path, header, columns):
    target = tmp_path / "out.csv"
    output.write_csv(str(target), header, columns)
    return target.read_bytes()


def test_write_csv_matches_row_writer_on_curve(tmp_path):
    curve = linalg.secular_curve(scheme.secular_spectrum(100, 3, 0.00345), 700.0, 2801)
    header = ["time", "probability"]
    columns = [curve.times, curve.probabilities]
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


def _mixed_table():
    """A header and columns of every kind of value, bulk and not."""
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
    return header, columns


def test_write_csv_matches_row_writer_on_mixed_columns(tmp_path):
    header, columns = _mixed_table()
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


@pytest.mark.parametrize("rows", [0, 8 * output.CHUNK_ROWS + 1])
def test_write_csv_matches_row_writer_across_chunks(tmp_path, rows):
    rng = np.random.default_rng(rows)
    header = ["x", "i", "label"]
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
               rng.integers(-(2**40), 2**40, rows),
               [f"row {i}" if i % 3 else f"row,{i}" for i in range(rows)]]
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


@pytest.fixture(params=[1, 2, 3])
def cpus(request):
    """Run as on a machine with 1, 2 or 3 CPUs: the CSV bytes must not change."""
    with reference.on_cpus(request.param):
        yield request.param


@functools.lru_cache(maxsize=None)
def _numeric_columns(rows):
    """Random numeric columns by name, with edge values at both ends."""
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
    columns = {"f64": f64, "f32": (f64 * 1e-280).astype(np.float32), "i64": i64,
               "u8": rng.integers(0, 256, rows).astype(np.uint8), "u64": u64}
    columns["p"] = rng.random(rows)
    return columns


#: Columns written in bulk by the printf template, once the int64 column is
#: an ``array('q')`` (``_plain``) as sweep-gamma's and spectrum's are.
_BULK_HEADER = ("f64", "i64")

#: Float64 columns, whose chunks of rows numpy formats.
_FLOAT_HEADER = ("f64", "p")

#: Narrower number types, which the row writer formats with the same text.
_NARROW_HEADER = ("f32", "u8")


@functools.lru_cache(maxsize=None)
def _numeric_table(rows, header=_BULK_HEADER):
    """Header, numeric columns and the row writer's bytes for them."""
    columns = [_numeric_columns(rows)[name] for name in header]
    return list(header), columns, _reference_csv(header, columns)


def _plain(columns, codes="dq"):
    """Columns as ``array.array`` of the given typecodes, each checked to be
    one that write_csv takes in bulk."""
    plain = [array.array(code, column.tolist()) for code, column in zip(codes, columns)]
    assert all(output._typecode(column) for column in plain)
    return plain


@pytest.mark.parametrize("rows", [8 * output.CHUNK_ROWS + 1, 16 * output.CHUNK_ROWS + 3])
def test_write_csv_split_matches_row_writer(tmp_path, cpus, rows):
    header, columns, expected = _numeric_table(rows, _FLOAT_HEADER)
    assert _written_csv(tmp_path, header, columns) == expected


@pytest.mark.parametrize("rows", [6, 8 * output.CHUNK_ROWS + 1])
def test_write_csv_bulk_matches_row_writer(tmp_path, rows):
    # A float64 ndarray next to an array('q'): the printf template's table.
    header, columns, expected = _numeric_table(rows)
    columns = [columns[0], *_plain(columns[1:], "q")]
    assert _written_csv(tmp_path, header, columns) == expected


def _edge_floats():
    """Float64 values where '%.17g' switches notation, rounds a tie, meets a
    power of ten or leaves the normal range, with their negatives."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        [9.9999999999999999e-05, 99999999999999999.0, 1e16 + 2, 1e16 - 2],
        [1234567890123456.5, 0.5, 1.5, 2.5, 2.0**-25, 3 * 2.0**-25],
        [0.0, math.nan, math.inf, 5e-324, 0.1, 2.2250738585072014e-308,
         1.7976931348623157e308],
    ])
    return np.concatenate([values, -values])


def test_float_csv_matches_row_writer_at_the_edges(tmp_path, cpus):
    values = _edge_floats()
    header, columns = ["x", "y"], [values, values[::-1].copy()]
    assert _written_csv(tmp_path, header, columns) == _reference_csv(header, columns)


@pytest.mark.parametrize("rows", [output.CHUNK_ROWS - 1, output.CHUNK_ROWS + 1,
                                  3 * output.CHUNK_ROWS])
def test_float_csv_matches_row_writer_across_chunks(tmp_path, cpus, rows):
    header, columns, expected = _numeric_table(rows, _FLOAT_HEADER)
    assert _written_csv(tmp_path, header, columns) == expected


def test_float_csv_takes_strided_columns(tmp_path, cpus):
    header, columns, _ = _numeric_table(2 * output.CHUNK_ROWS + 3, _FLOAT_HEADER)
    strided = [column[::2] for column in columns]
    assert len(strided[0]) > output.CHUNK_ROWS
    expected = _reference_csv(header, strided)
    assert _written_csv(tmp_path, header, strided) == expected


def test_float_csv_fallback_takes_only_what_it_cannot_certify(tmp_path):
    target = str(tmp_path / "out.csv")
    left = [math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-300, 2.0**-25]
    assert output.write_csv(target, ["x"], [np.array(left)]) == len(left)
    built = [0.0, -0.0, 0.1, 0.5, 1.5, 1234567890123456.5, 99999999999999999.0]
    assert output.write_csv(target, ["x"], [np.array(built)]) == 0
    assert output.write_csv(target, ["x", "y"], [[1.5], [2.5]]) == 0


@pytest.mark.parametrize("n,k,gamma,steps", [
    (1500, 3, None, 200000), (1500000, 3, None, 200000),
    (2000, 20, 2.5e-05, 100000),
], ids=["1500-3", "1500000-3", "2000-20"])
def test_float_csv_fallback_is_rare_on_the_curves(tmp_path, n, k, gamma, steps):
    # The benchmark's three curves: at most 1 in 10^4 values by '%.17g'.
    if gamma is None:
        gamma = scheme.critical_rate(n, k)
    curve = linalg.secular_curve(scheme.secular_spectrum(n, k, gamma),
                                 1.5 * scheme.predicted_peak_time(n, k), steps)
    header, columns = ["time", "probability"], [curve.times, curve.probabilities]
    target = tmp_path / "curve.csv"
    assert output.write_csv(str(target), header, columns) <= 2 * steps // 10**4
    assert target.read_bytes() == _reference_csv(header, columns)


def test_write_csv_narrow_columns_match_row_writer(tmp_path, cpus):
    header, columns, expected = _numeric_table(8 * output.CHUNK_ROWS + 1, _NARROW_HEADER)
    assert _written_csv(tmp_path, header, columns) == expected


def test_write_csv_int64_ndarrays_match_row_writer(tmp_path):
    # No command writes int64 or uint64 ndarrays: they go value by value.
    header, columns, expected = _numeric_table(8 * output.CHUNK_ROWS + 1, ("i64", "u64"))
    assert not any(output._typecode(column) for column in columns)
    assert _written_csv(tmp_path, header, columns) == expected


def test_write_csv_takes_strided_columns(tmp_path, cpus):
    # Every other row of each column: views longer than one chunk.
    header, columns, _ = _numeric_table(16 * output.CHUNK_ROWS + 3)
    strided = [columns[0][::2], memoryview(_plain(columns[1:], "q")[0])[::2]]
    assert len(strided[0]) > output.CHUNK_ROWS
    expected = _reference_csv(header, strided)
    assert _written_csv(tmp_path, header, strided) == expected


def test_write_csv_split_to_stdout(cpus, capsys):
    header, columns, expected = _numeric_table(8 * output.CHUNK_ROWS + 1, _FLOAT_HEADER)
    output.write_csv(None, header, columns)
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("rows", [0, 5, 16 * output.CHUNK_ROWS + 3])
def test_write_csv_takes_plain_arrays(tmp_path, cpus, rows):
    # array.array columns of typecode d and q, as sweep-gamma and spectrum
    # pass them, go through the bulk writer with the ndarrays' bytes.
    header, columns, _ = _numeric_table(max(rows, 6))
    columns = [column[:rows] for column in columns]
    assert _written_csv(tmp_path, header, _plain(columns)) == _reference_csv(header, columns)


# The sha256 of outputs whose bytes are fixed: the row-writer tests above
# hold write_csv to _reference_csv, and these hold both of them, and the
# chart writer, to the bytes they have always written.
_FROZEN_SVG = {
    "sweep-gamma --n 2000 --k 20 --points 200 --format svg":
        "a6f994aa3e5e48dc7c15ad62aa7511c9fa3844e43bec268037f281e77c103eb0",
    "simulate --n 150 --k 3 --steps 50000 --format svg":
        "602a8fa51daba7b20c933cd7a06c72fdce6e78ae232035f222e0e0cdecc31eb7",
}
_FROZEN_MIXED_CSV = "6db7b0926d2a03bd930c632c7ba6770e62d4445b0e9bdc70ab7eb9f8dba18fad"
_FROZEN_NUMERIC_CSV = "2697784761479de715e83004b623a80aa3b2b187f7094ae905f54e0833de8c38"


@pytest.mark.parametrize("argv", sorted(_FROZEN_SVG))
def test_svg_bytes_are_frozen(tmp_path, argv):
    target = tmp_path / "chart.svg"
    assert cli.main(argv.split() + ["--output", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _FROZEN_SVG[argv]


@pytest.mark.parametrize("argv", sorted(_FROZEN_SVG))
def test_svg_to_stdout_is_the_frozen_file(argv):
    # The program draws to stdout the bytes it writes to a file.
    run = subprocess.run([sys.executable, "-m", "johnsonwalk.cli", *argv.split()],
                         env=_program_env(), capture_output=True, check=True,
                         timeout=120)
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == _FROZEN_SVG[argv]


def test_mixed_csv_bytes_are_frozen(tmp_path):
    written = _written_csv(tmp_path, *_mixed_table())
    assert hashlib.sha256(written).hexdigest() == _FROZEN_MIXED_CSV


def test_numeric_csv_bytes_are_frozen(tmp_path, cpus):
    # Bulk and narrow columns in one table, which the row writer formats.
    header = ["f64", "f32", "i64", "u8", "u64"]
    columns = [_numeric_columns(65537)[name] for name in header]
    written = _written_csv(tmp_path, header, columns)
    assert hashlib.sha256(written).hexdigest() == _FROZEN_NUMERIC_CSV


_LONG_SIMULATE = ["simulate", "--n", "100", "--k", "3", "--steps", "70000"]


def test_simulate_bytes_do_not_depend_on_workers(tmp_path):
    # A fresh program pinned to 1, 2 or 3 CPUs prints the same curve:
    # pinning to fewer CPUs moves no byte.
    env = _program_env()
    outputs = []
    for count in (1, 2, 3):
        target = tmp_path / f"{count}.csv"
        argv = [sys.executable, "-m", "johnsonwalk.cli", *_LONG_SIMULATE,
                "--output", str(target)]
        with reference.on_cpus(count):
            subprocess.run(argv, env=env, check=True, timeout=120)
        outputs.append(target.read_bytes())
    assert outputs[0].count(b"\n") == 70001
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_simulate_without_simd_dispatch_stays_within_the_curve_bound():
    # numpy fuses the curve's complex multiply-adds on a CPU with FMA, so
    # its last bits depend on the SIMD code numpy dispatches to.  A fresh
    # program with every dispatch target numpy found turned off prints the
    # same times, and probabilities within 2e-15, the curve's bound against
    # a 60-digit reference (measured: 2467 rows differ, by at most 4.4e-16).
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    argv = [sys.executable, "-m", "johnsonwalk.cli", *_LONG_SIMULATE]
    outputs = []
    plain_env = _program_env()
    for env in (plain_env, dict(plain_env, NPY_DISABLE_CPU_FEATURES=" ".join(found))):
        run = subprocess.run(argv, env=env, capture_output=True, check=True,
                             timeout=120)
        assert run.stderr == b""
        outputs.append([line.split(b",") for line in run.stdout.splitlines()[1:]])
    plain, baseline = outputs
    assert len(plain) == len(baseline) == 70000
    assert [row[0] for row in baseline] == [row[0] for row in plain]
    assert max(abs(float(a[1]) - float(b[1])) for a, b in zip(plain, baseline)) <= 2e-15


@pytest.mark.parametrize("argv", [
    _LONG_SIMULATE,
    ["simulate", "--n", "100", "--k", "3", "--steps", "3", "--t-max", "1e-320"],
    ["sweep-gamma", "--n", "2000", "--k", "20", "--points", "200"],
    ["spectrum", "--n", "100", "--k", "3"],
], ids=["curve", "subnormal-times", "sweep", "spectrum"])
def test_every_csv_field_is_its_float_at_17_digits(argv, capsys):
    # Both formatters of the chunk loop: numpy's on the curve and on
    # subnormal times, which take the '%.17g' fallback, and the printf
    # template on a sweep and a spectrum.  An eig_index prints the same way.
    assert cli.main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) > 0
    for row in rows:
        fields = row.split(",")
        assert ["%.17g" % float(field) for field in fields] == fields, row


def test_simulate_starts_no_thread(tmp_path, monkeypatch):
    # The curve and its CSV rows are computed on the calling thread.
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    target = tmp_path / "curve.csv"
    assert cli.main(_LONG_SIMULATE + ["--output", str(target)]) == 0
    assert started == []
    assert target.read_bytes().count(b"\n") == 70001


def test_memory_error_in_formatting_exits_one(tmp_path, monkeypatch, capsys):
    # The second chunk of rows runs out of memory after the first is written.
    format_values = _digits._format
    callers = []

    def exhausted_on_second_chunk(x, words):
        callers.append(threading.current_thread())
        if len(callers) == 2:
            raise MemoryError("Unable to allocate 416. KiB")
        return format_values(x, words)

    monkeypatch.setattr(_digits, "_format", exhausted_on_second_chunk)
    threads = threading.enumerate()
    rc = cli.main(_LONG_SIMULATE + ["--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: Unable to allocate 416. KiB\n"
    assert callers == [threading.main_thread()] * 2
    assert threading.enumerate() == threads


def test_memory_error_inside_the_curve_exits_one(monkeypatch, capsys):
    # The sixth exponential is the second anchor's, after the table's four
    # rows and the first anchor's.
    exp = np.exp
    callers = []

    def exhausted_on_sixth_call(*args, **kwargs):
        callers.append(threading.current_thread())
        if len(callers) == 6:
            raise MemoryError("Unable to allocate 256. KiB")
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", exhausted_on_sixth_call)
    threads = threading.enumerate()
    assert cli.main(["simulate", "--n", "100", "--k", "3", "--steps", "40000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 256. KiB\n"
    assert callers == [threading.main_thread()] * 6
    assert threading.enumerate() == threads


def test_write_csv_rejects_ragged_columns():
    with pytest.raises(ValueError, match="same length"):
        output.write_csv(None, ["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="header"):
        output.write_csv(None, ["a", "b"], [np.zeros(3)])
    with pytest.raises(ValueError, match=r"1-d, got shape \(2, 2\)"):
        output.write_csv(None, ["a"], [np.zeros((2, 2), dtype=np.uint8)])


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


def test_sweep_gamma_blocks_are_the_spectrum_at_each_rate(capsys):
    assert cli.main(["sweep-gamma", "--n", "20", "--k", "3", "--points", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for start in range(0, len(rows), 4):
        gamma = rows[start].split(",")[0]
        assert cli.main(["spectrum", "--n", "20", "--k", "3", "--gamma", gamma]) == 0
        spectrum = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",", 1)[1] for row in rows[start:start + 4]] == spectrum


def test_sweep_overlap_columns_sum_to_one_in_every_block(capsys):
    assert cli.main(["sweep-gamma", "--n", "2000", "--k", "20", "--points", "200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 200 * 21
    for start in range(0, len(rows), 21):
        for column in (3, 4):
            total = math.fsum(float(row[column]) for row in rows[start:start + 21])
            assert abs(total - 1.0) <= 1e-12, (rows[start][0], column, total)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
       st.integers(2, 300), st.booleans())
def test_sweep_grid_is_numpy_linspace(lo, hi, points, subnormal):
    if subnormal:  # a step that underflows to 0 takes numpy's other branch
        lo, hi = lo * 5e-324 / 1e300, hi * 5e-324 / 1e300
    assert list(scheme._grid(lo, hi, points)) == np.linspace(lo, hi, points).tolist()


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


def test_render_svg_refuses_a_one_point_series(tmp_path):
    # No command draws a grid of fewer than 2 points, so the chart has one
    # drawing path: a polyline per series.
    target = tmp_path / "point.svg"
    with pytest.raises(ValueError, match="at least 2 points"):
        output.render_svg(str(target), [(np.linspace(0.0, 1.0, 3), np.zeros(3)),
                                        (np.array([1.0]), np.array([0.5]))])
    assert not target.exists()


def test_render_svg_refuses_series_of_unequal_lengths():
    with pytest.raises(ValueError, match="matching"):
        output.render_svg(None, [(np.linspace(0.0, 1.0, 3), np.zeros(4))])


def test_render_svg_to_stdout_writes_the_file_bytes(tmp_path, capsys):
    ts = np.linspace(0.0, 1.0, 7)
    series = [(ts, np.sin(ts)), (ts, np.cos(ts))]
    target = tmp_path / "chart.svg"
    output.render_svg(str(target), series, "t", "p")
    output.render_svg(None, series, "t", "p")
    assert capsys.readouterr().out == target.read_text(encoding="utf-8")


def test_render_svg_nan_in_either_series_makes_its_axis_nan(tmp_path):
    # Each axis is one extent over every value of every series, so where
    # the NaN sits does not matter: every y pixel and y label is NaN.
    ts = np.linspace(0.0, 1.0, 5)
    charts = []
    for faulty in range(2):
        series = [(ts, np.full(5, 0.25)), (ts, np.linspace(0.0, 1.0, 5))]
        series[faulty][1][2] = math.nan
        target = tmp_path / f"nan{faulty}.svg"
        output.render_svg(str(target), series)
        charts.append(target.read_text(encoding="utf-8"))
    assert charts[0] == charts[1]
    assert re.findall(r'text-anchor="end">([^<]*)<', charts[0]) == ["nan"] * 5
    assert re.findall(r'text-anchor="middle">([^<]*)<', charts[0]) == [
        "0", "0.25", "0.5", "0.75", "1"]


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


@pytest.mark.parametrize("n,k", [(3, 1), (100, 3), (2000, 20)])
def test_printed_numeric_rate_is_at_most_s1(n, k, capsys):
    # The balance lies below S_1, so the printed rate is at most S_1 rounded
    # (on K_3 it is 1/9 = S_1/2).
    assert cli.main(["critical-gamma", "--n", str(n), "--k", str(k)]) == 0
    match = re.search(r"^numeric +gamma_c = (\S+)  ", capsys.readouterr().out, re.M)
    assert match and float(match.group(1)) <= float(scheme.critical_rate(n, k))


def test_critical_gamma_k2_numeric_only(capsys):
    rc = cli.main(["critical-gamma", "--n", "10", "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "formula_k3" not in out
    assert "numeric" in out


@pytest.mark.parametrize("k", [3, 2])
def test_critical_gamma_refuses_an_unresolved_balance(monkeypatch, capsys, k):
    # A balance search that ends with a residual of 1e-9, above the 1e-12
    # the command holds, prints no rate, not even the k = 3 formula's.
    monkeypatch.setattr(scheme, "_balance", lambda *args: (0.0, 1e-9))
    assert cli.main(["critical-gamma", "--n", "100", "--k", str(k)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: critical-gamma FAILED: overlap-balance residual "
                            "1.000e-09 above tolerance 1.0e-12\n")


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
    report = reduced.perturbation_report(100)
    h = report.effective_2x2
    values = [report.gamma, *report.cubic_coefficients, report.lambda_u,
              *report.u, h[0][0], h[0][1], h[1][1], report.e_minus,
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
    block = reference.pt_block(9, 1.0)
    assert lam == pytest.approx(-1.0, abs=1e-14)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    assert u[0] > 0
    assert np.linalg.norm(block @ u - lam * u) <= 1e-14


@pytest.mark.parametrize("gamma", ["0", "5e-324"])
def test_analyze_pt_at_a_vanishing_rate_is_the_oracle(gamma, capsys):
    # At gamma = 0 and at the smallest subnormal rate, H' is the oracle and
    # the report's h_uu is -1.
    assert cli.main(["analyze-pt", "--n", "100", "--gamma", gamma]) == 0
    assert "h_uu,-1" in capsys.readouterr().out.splitlines()


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
    assert captured.err == ("error: a grid needs an integer number of points >= 2, "
                            f"got {steps}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["analyze-pt", "--n", "100", "--gamma", "nan"],
    ["analyze-pt", "--n", "100", "--gamma", "inf"],
    ["analyze-pt", "--n", "100", "--gamma", "1e308"],
    ["analyze-pt", "--n", "100", "--gamma", "1e102"],
    # Every entry of the k=3 block is finite, but not every number its
    # rotations would form: at n = 10 one of them divided by zero.
    ["analyze-pt", "--n", "100", "--gamma", "6e305"],
    ["analyze-pt", "--n", "10", "--gamma", "1.8e307"],
    ["verify", "--n", "7", "--k", "3", "--gamma", "1e308"],
    ["sweep-gamma", "--n", "10", "--k", "3", "--points", "2",
     "--gamma-max", "1e308"],
    ["sweep-gamma", "--n", "10", "--k", "3", "--gamma-min=-inf",
     "--gamma-max=inf"],
    # The top-pole rate rule refuses this rate before any phase is formed;
    # test_refused_input_is_one_error_line reaches the phase refusal.
    ["simulate", "--n", "2", "--k", "1", "--gamma", "1e308"],
    # Grids of 2^63 - 1 points: numpy's linspace raised an IndexError.
    ["simulate", "--n", "100", "--k", "3", "--steps", "9223372036854775807"],
    ["verify", "--n", "7", "--k", "3", "--steps", "9223372036854775807"],
    ["sweep-gamma", "--n", "10", "--k", "3", "--points",
     "9223372036854775807"],
], ids=["pt-nan", "pt-inf", "pt-1e308", "pt-1e102", "pt-6e305", "pt-n10-1.8e307",
        "verify-1e308",
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
    (["analyze-pt", "--n", str(10**103)], "not resolved in double precision"),
    # Rates the model takes, with energies times t_max past the float range.
    (["simulate", "--n", "100", "--k", "3", "--gamma", "1", "--t-max", "1e307",
      "--steps", "3"], "phases E*t overflow"),
    (["verify", "--n", "7", "--k", "3", "--gamma", "1", "--t-max", "1e308",
      "--steps", "3"], "phases E*t overflow"),
], ids=["n0-k0", "n-below-2k", "no-bracket", "pt-unresolved-gap",
        "pt-top-of-n-range", "simulate-phases-overflow", "verify-phases-overflow"])
def test_refused_input_is_one_error_line(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.fixture
def faulty_overlap(monkeypatch):
    """``scheme._weights`` with a 1e-12 relative fault in the first overlap
    with |s> above 1/4, which every spectrum of k = 3 has."""
    weights = scheme._weights
    faults = []

    def faulty(*args):
        weight_s, weight_w = weights(*args)
        if not faults and weight_s > 0.25:
            faults.append(weight_s)
            weight_s *= 1.0 + 1e-12
        return weight_s, weight_w

    monkeypatch.setattr(scheme, "_weights", faulty)
    return faults


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "100", "--k", "3"],
    ["sweep-gamma", "--n", "100", "--k", "3", "--points", "5"],
    ["simulate", "--n", "100", "--k", "3", "--steps", "50"],
    ["verify", "--n", "9", "--k", "3"],
], ids=["spectrum", "sweep-gamma", "simulate", "verify"])
def test_a_spectrum_failing_its_sums_is_one_error_line(argv, faulty_overlap, capsys):
    assert cli.main(argv) == 1
    assert len(faulty_overlap) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: secular spectrum FAILED: sum of overlap_s off by ")


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


#: Runs the CLI as a program, through ``cli.main_entry()`` or as
#: ``python -m johnsonwalk.cli``, and writes the number of OS threads the
#: process has at exit to stderr.
_THREAD_COUNTING_PROGRAM = (
    "import atexit, os, runpy, sys\n"
    "atexit.register(lambda: os.write(\n"
    "    2, b'%d threads\\n' % len(os.listdir('/proc/self/task'))))\n"
    "if sys.argv.pop(1) == 'main_entry':\n"
    "    from johnsonwalk import cli\n"
    "    cli.main_entry()\n"
    "else:\n"
    "    runpy.run_module('johnsonwalk.cli', run_name='__main__')\n")

# On one CPU OpenBLAS starts no worker, so a count of one would test nothing.
_COUNTS_OS_THREADS = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task and at least 2 allowed CPUs")


def _run_counting_threads(entry, argv, **blas_env):
    """(stdout, threads at exit) of the CLI run as a program through ``entry``,
    with no BLAS thread count in its environment but ``blas_env``."""
    env = _program_env()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env.update(blas_env)
    run = subprocess.run([sys.executable, "-c", _THREAD_COUNTING_PROGRAM, entry, *argv],
                         env=env, capture_output=True, check=True, timeout=60)
    threads = re.fullmatch(rb"(\d+) threads\n", run.stderr)
    assert threads, run.stderr
    return run.stdout, int(threads.group(1))


_SIMULATE_CSV = ["simulate", "--n", "1500", "--k", "3", "--steps", "2000"]


@_COUNTS_OS_THREADS
@pytest.mark.parametrize("entry", ["main_entry", "run_module"])
@pytest.mark.parametrize("argv", [
    _SIMULATE_CSV,
    ["simulate", "--n", "150", "--k", "3", "--steps", "2000", "--format", "svg"],
    ["critical-gamma", "--n", "100", "--k", "3"],
], ids=["simulate-csv", "simulate-svg", "critical-gamma"])
def test_cli_process_runs_on_one_os_thread(argv, entry):
    # No command makes a BLAS call, so the program starts no BLAS worker
    # pool when it loads numpy, and no thread of its own.
    _, threads = _run_counting_threads(entry, argv)
    assert threads == 1


@_COUNTS_OS_THREADS
def test_a_blas_thread_count_in_the_environment_wins():
    default, threads = _run_counting_threads("main_entry", _SIMULATE_CSV)
    assert threads == 1
    asked, threads = _run_counting_threads("main_entry", _SIMULATE_CSV,
                                           OPENBLAS_NUM_THREADS="2")
    assert threads == 2
    assert asked == default
    assert default.count(b"\n") == 2001


def test_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    # Only the program sets the BLAS thread count; an in-process caller
    # keeps its own environment.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert cli.main(_SIMULATE_CSV + ["--output", str(tmp_path / "curve.csv")]) == 0
    assert dict(os.environ) == before


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


def test_long_simulate_csv_loads_no_subprocess(tmp_path):
    # Its rows are formatted in this process, not in helpers.
    program = ("import sys; from johnsonwalk import cli; "
               "code = cli.main(sys.argv[1:]); print(code, 'subprocess' in sys.modules)")
    argv = _LONG_SIMULATE + ["--output", str(tmp_path / "curve.csv")]
    run = subprocess.run([sys.executable, "-c", program, *argv], env=_program_env(),
                         capture_output=True, check=True, timeout=60)
    assert run.stdout == b"0 False\n"


def test_float_csv_starts_no_thread_and_loads_no_linalg(tmp_path):
    # The numpy formatter writes its chunks of rows on the calling thread.
    program = (
        "import sys, threading, numpy as np\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "def counted(thread): started.append(thread); start(thread)\n"
        "threading.Thread.start = counted\n"
        "from johnsonwalk import output\n"
        "values = np.linspace(0.0, 1.0, 5 * output.CHUNK_ROWS + 1)\n"
        "output.write_csv(sys.argv[1], ['x', 'y'], [values, values ** 2])\n"
        "print(len(started), 'johnsonwalk.linalg' in sys.modules, "
        "'johnsonwalk._digits' in sys.modules)\n")
    target = tmp_path / "table.csv"
    run = subprocess.run([sys.executable, "-c", program, str(target)],
                         env=_program_env(), capture_output=True, check=True,
                         timeout=60)
    assert run.stdout == b"0 False True\n"
    assert target.read_bytes().count(b"\n") == 5 * output.CHUNK_ROWS + 2


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


@pytest.mark.parametrize("argv,code", [
    (["critical-gamma", "--n", "100", "--k", "3"], 0),
    (["critical-gamma", "--n", "2000", "--k", "20"], 0),
    (["critical-gamma", "--n", "0", "--k", "0"], 1),
    (["critical-gamma", "--n", "3", "--k", "2"], 1),
    (["critical-gamma", "--n", "2", "--k", "1"], 1),
    (["critical-gamma", "--n", "5", "--k", "3"], 1),
    (["simulate", "--n", "150", "--k", "3", "--gamma", "nan"], 1),
    (["spectrum", "--n", "3000", "--k", "500", "--gamma", "0.001"], 1),
    (["spectrum", "--n", "150000", "--k", "3"], 0),
    (["sweep-gamma", "--n", "100", "--k", "3", "--points", "200"], 0),
    (["sweep-gamma", "--n", "100", "--k", "3", "--points", "20", "--format", "svg"], 0),
    (["verify", "--n", "30", "--k", "3"], 1),
    (["simulate", "--n", "100", "--k", "3", "--t-max", "inf"], 1),
    (["simulate", "--n", "2", "--k", "1", "--gamma", "1e308"], 1),
    (["simulate", "--n", "100", "--k", "3", "--gamma", "1", "--t-max", "1e307",
      "--steps", "3"], 1),
    (["sweep-gamma", "--n", "0", "--k", "0"], 1),
    (["analyze-pt", "--n", "5"], 1),
    (["verify", "--n", "9", "--k", "4"], 0),
    (["analyze-pt", "--n", "100"], 0),
    (["analyze-pt", "--n", "150000"], 0),
    (["analyze-pt", "--n", "9", "--gamma", "1"], 0),
], ids=["k3", "2000-20", "n0-k0", "n-below-2k", "no-bracket", "k3-n5",
        "simulate-gamma-nan", "spectrum-float-range", "spectrum", "sweep-csv",
        "sweep-svg", "verify-vertex-cap", "simulate-t-max-inf",
        "simulate-phase-overflow", "simulate-phases-overflow", "sweep-n0-k0",
        "pt-n5", "verify", "pt", "pt-150000", "pt-9-gamma-1"])
def test_scalar_run_or_refusal_loads_no_numpy(argv, code):
    # critical-gamma, spectrum and a sweep (CSV or SVG) need only the
    # scheme's spectrum and its secular roots, verify adds the full graph's
    # matrix-free oracle, analyze-pt solves its 3x3 block and 2x2 system in closed form,
    # and these refusals are decided before a command loads the array
    # modules.  A run without --verbose does not load logging either.
    program = ("import sys; from johnsonwalk import cli; code = cli.main(sys.argv[1:]); "
               "print(code, 'numpy' in sys.modules, 'logging' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", program, *argv],
                         env=_program_env(), capture_output=True, timeout=60)
    assert run.stdout.decode().splitlines()[-1] == f"{code} False False"


@pytest.mark.parametrize("argv,modules", [
    (["critical-gamma", "--n", "100", "--k", "3"], ["cli", "scheme"]),
    (["spectrum", "--n", "100", "--k", "3"], ["cli", "output", "scheme"]),
    (["sweep-gamma", "--n", "100", "--k", "3", "--points", "20"],
     ["cli", "output", "scheme"]),
    (["verify", "--n", "9", "--k", "4"], ["cli", "johnson", "scheme"]),
    (["analyze-pt", "--n", "100"], ["cli", "output", "reduced", "scheme"]),
    (["spectrum", "--n", "3000", "--k", "500", "--gamma", "0.001"], ["cli", "scheme"]),
    (["sweep-gamma", "--n", "100", "--k", "3", "--gamma-min", "1e308",
      "--gamma-max", "1.7e308", "--points", "3"], ["cli", "scheme"]),
    (["analyze-pt", "--n", "100", "--gamma", "6e305"], ["cli", "reduced", "scheme"]),
    (["simulate", "--n", "100", "--k", "3", "--t-max", "inf"], ["cli", "scheme"]),
    (["simulate", "--n", "150", "--k", "3", "--gamma", "nan"], ["cli", "scheme"]),
], ids=["critical-gamma", "spectrum", "sweep-csv", "verify", "analyze-pt",
        "refused-spectrum", "refused-sweep", "refused-analyze-pt",
        "refused-simulate-grid", "refused-simulate-rate"])
def test_numpy_free_run_loads_only_the_modules_it_runs(argv, modules):
    # Each process compiles the package modules it imports.  The secular
    # roots live in scheme, which every command loads, so these runs
    # compile no module that they do not run; a refused run loads no
    # CSV writer.  simulate loads linalg once its grid is accepted, and
    # linalg refuses a phase before it loads numpy.
    program = ("import sys; from johnsonwalk import cli; cli.main(sys.argv[1:]); "
               "print(sorted(m.split('.', 1)[1] for m in sys.modules "
               "if m.startswith('johnsonwalk.')))")
    run = subprocess.run([sys.executable, "-c", program, *argv],
                         env=_program_env(), capture_output=True, check=True,
                         timeout=60)
    assert run.stdout.decode().splitlines()[-1] == str(modules)


#: Every package function that no command line enters, with the reason it
#: is kept in ``src``.
UNRUN_FUNCTIONS = {
    "analysis.initial_state": "used by the benchmark harness and the test references",
    "analysis.overlap_balance": "used by the benchmark harness and the test references",
    "analysis.reduced_adjacency": "used by the benchmark harness and the test references",
    "analysis.search_hamiltonian": "used by the benchmark harness and the test references",
    "linalg.eig_sym": "used by the benchmark harness and the test references",
    "reduced.intersection_array": "called only by analysis.reduced_adjacency",
    "reduced.basis_change_T": "the paper's change of basis",
    "cli.main_entry": "runs only as a program, the console script",
}

_TRACE_PROGRAM = """
import importlib, inspect, json, pkgutil, sys
import johnsonwalk
from johnsonwalk import cli

out, argvs = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
codes = [cli.main([arg.replace("{out}", out) for arg in argv]) for argv in argvs]
sys.setprofile(None)
unrun = []
for info in pkgutil.iter_modules(johnsonwalk.__path__):
    module = importlib.import_module("johnsonwalk." + info.name)
    for obj in list(vars(module).values()):
        for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
            member = inspect.unwrap(getattr(member, "__func__", member))
            # A NamedTuple's generated methods have no code in the package.
            if (inspect.isfunction(member)
                    and member.__code__.co_filename == module.__file__
                    and member.__code__ not in entered):
                unrun.append(info.name + "." + member.__qualname__)
print(json.dumps([codes, sorted(unrun)]))
"""


def test_every_function_but_the_listed_ones_runs_in_a_command(tmp_path):
    # Every command, the rates 0, 5e-324 and 1e300, both output formats and
    # the cap, phase and overflow refusals, each through cli.main in one
    # interpreter under a profile hook: every package function is entered
    # by some command line but those of UNRUN_FUNCTIONS.
    runs = [
        (["critical-gamma", "--n", "100", "--k", "3"], 0),
        (["critical-gamma", "--n", "2", "--k", "1"], 1),
        (["spectrum", "--n", "100", "--k", "3"], 0),
        (["spectrum", "--n", "10", "--k", "3", "--gamma", "0"], 0),
        (["spectrum", "--n", "10", "--k", "3", "--gamma", "5e-324"], 0),
        (["spectrum", "--n", "10", "--k", "3", "--gamma", "1e300"], 0),
        (["spectrum", "--n", "10", "--k", "3", "--gamma", "1e307"], 1),
        (["sweep-gamma", "--n", "100", "--k", "3", "--points", "5"], 0),
        (["sweep-gamma", "--n", "100", "--k", "3", "--points", "5",
          "--format", "svg", "--output", "{out}/sweep.svg"], 0),
        (["simulate", "--n", "100", "--k", "3", "--steps", "50"], 0),
        (["simulate", "--n", "100", "--k", "3", "--steps", "50", "--gamma", "0"], 0),
        (["--verbose", "simulate", "--n", "100", "--k", "3", "--steps", "50",
          "--output", "{out}/curve.csv"], 0),
        (["simulate", "--n", "100", "--k", "3", "--steps", "50", "--format", "svg",
          "--output", "{out}/curve.svg"], 0),
        (["simulate", "--n", "100", "--k", "3", "--gamma", "1", "--t-max", "1e307",
          "--steps", "3"], 1),
        (["verify", "--n", "9", "--k", "3"], 0),
        (["verify", "--n", "9", "--k", "3", "--gamma", "5e-324"], 0),
        (["verify", "--n", "30", "--k", "3"], 1),
        (["analyze-pt", "--n", "100"], 0),
        (["analyze-pt", "--n", "100", "--gamma", "0"], 0),
        (["analyze-pt", "--n", "100", "--gamma", "1e300"], 1),
    ]
    run = subprocess.run(
        [sys.executable, "-c", _TRACE_PROGRAM, str(tmp_path),
         json.dumps([argv for argv, _ in runs])],
        env=_program_env(), capture_output=True, check=True, timeout=120)
    codes, unrun = json.loads(run.stdout.decode().splitlines()[-1])
    assert codes == [code for _, code in runs]
    assert unrun == sorted(UNRUN_FUNCTIONS)


def test_linalg_import_loads_no_numpy():
    # eig_sym and secular_curve each import numpy when they run.
    code = "import sys, johnsonwalk.linalg; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=_program_env(),
                         capture_output=True, check=True, timeout=60)
    assert run.stdout == b"False\n"


def test_digits_import_loads_numpy_and_no_other_module():
    # output owns the chunk loop; _digits only formats the rows it is given.
    code = ("import sys, johnsonwalk._digits; print('numpy' in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('johnsonwalk.')))")
    run = subprocess.run([sys.executable, "-c", code], env=_program_env(),
                         capture_output=True, check=True, timeout=60)
    assert run.stdout == b"True ['johnsonwalk._digits']\n"


def _module_bindings(tree):
    """Builtins and the names a module binds at its top level or under
    ``if TYPE_CHECKING:``."""
    bound = set(dir(builtins))

    def bind(statements):
        for stmt in statements:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound.update((alias.asname or alias.name).split(".")[0]
                             for alias in stmt.names)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound.update(node.id for target in targets for node in ast.walk(target)
                             if isinstance(node, ast.Name))
            elif (isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name)
                  and stmt.test.id == "TYPE_CHECKING"):
                bind(stmt.body)

    bind(tree.body)
    return bound


def _annotation_names(annotation):
    """The names an annotation reads, inside string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval"))
        elif isinstance(node, ast.Name):
            yield node.id


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
    os.path.dirname(johnsonwalk.__file__), "*.py"))), ids=os.path.basename)
def test_annotations_name_only_module_level_bindings(path):
    # Postponed annotations are never evaluated at run time, but a static
    # checker resolves them in the module's namespace: a name a module binds
    # only inside its functions, such as a lazily imported numpy, must also
    # be bound under ``if TYPE_CHECKING:``.
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            arguments = node.args
            annotations += [arg.annotation for arg in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                arguments.vararg, arguments.kwarg) if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = {name for annotation in annotations if annotation is not None
             for name in _annotation_names(annotation)}
    assert sorted(names - _module_bindings(tree)) == []


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
    ["simulate", "--n", "100", "--k", "3", "--steps", "2000"],
], ids=lambda argv: argv[0])
def test_failed_final_write_exits_one(argv):
    # Buffered stdout holds a short output until the program flushes it at
    # the end.  simulate's 2000 rows overflow the buffer, so there the write
    # fails inside write_csv, before that final flush: one error line either
    # way.
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


def test_console_script_runs_main_entry():
    # The installed johnsonwalk script calls the function pyproject.toml names.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as handle:
        text = handle.read()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert scripts, "no [project.scripts] table"
    entries = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', scripts.group(1), re.M)
    assert entries == [("johnsonwalk", "johnsonwalk.cli", "main_entry")]
    assert callable(cli.main_entry)


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
    assert verbose.stderr == b"INFO using critical rate S_1 = 0.003454843629\n"
    assert verbose.stdout == quiet.stdout


def test_quiet_main_leaves_the_callers_logging_alone():
    # A run without --verbose adds no handler to the root logger and keeps
    # the level the calling process gave the package logger.
    program = (
        "import logging, sys; from johnsonwalk import cli\n"
        "logging.getLogger('johnsonwalk').setLevel(logging.DEBUG)\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, logging.getLogger().handlers, "
        "logging.getLevelName(logging.getLogger('johnsonwalk').level))\n")
    argv = ["spectrum", "--n", "100", "--k", "3"]
    run = subprocess.run([sys.executable, "-c", program, *argv],
                         env=_program_env(), capture_output=True, check=True,
                         timeout=60)
    assert run.stderr == b""
    assert run.stdout.decode().splitlines()[-1] == "0 [] DEBUG"


@pytest.mark.parametrize("order", [(False, True), (True, False)],
                         ids=["quiet-first", "verbose-first"])
def test_verbose_holds_for_each_in_process_call(order, caplog, capsys):
    # Every call logs at its own level, whatever an earlier call asked for.
    for verbose in order:
        caplog.clear()
        argv = ["--verbose"] * verbose + ["spectrum", "--n", "100", "--k", "3"]
        assert cli.main(argv) == 0
        expected = ["using critical rate S_1 = 0.003454843629"] if verbose else []
        assert caplog.messages == expected


@pytest.mark.parametrize("argv,line", [
    (["--steps", "2000"],
     r"wrote 2000 rows in (\d+\.\d{3}) s, 0 values by the %\.17g fallback"),
    (["--steps", "3", "--t-max", "1e-320"],
     r"wrote 3 rows in (\d+\.\d{3}) s, 2 values by the %\.17g fallback"),
], ids=["curve", "subnormal-times"])
def test_simulate_verbose_logs_the_csv_write(argv, line, tmp_path, caplog):
    argv = ["--verbose", "simulate", "--n", "100", "--k", "3", *argv,
            "--output", str(tmp_path / "curve.csv")]
    assert cli.main(argv) == 0
    assert caplog.messages[0] == "using critical rate S_1 = 0.003454843629"
    assert len(caplog.messages) == 2
    match = re.fullmatch(line, caplog.messages[1])
    assert match and float(match.group(1)) < 60.0


def test_verify_verbose_logs_the_oracle(caplog, capsys):
    assert cli.main(["--verbose", "verify", "--n", "9", "--k", "4"]) == 0
    assert caplog.messages[0] == "using critical rate S_1 = 0.05247700932"
    assert len(caplog.messages) == 2
    match = re.fullmatch(r"verified on N = 126 vertices: Krylov dimension 5, "
                         r"closure residual (\S+)", caplog.messages[1])
    assert match and float(match.group(1)) <= 1e-20
    assert capsys.readouterr().out.startswith("J(9,4) gamma=0.05247700932: ")


def test_verify_failure_is_one_error_line(capsys):
    # Phases near 1e308 keep no precision, so the two curves disagree.
    argv = ["verify", "--n", "7", "--k", "2", "--t-max", "1e308"]
    assert cli.main(argv) == 1
    match = re.fullmatch(r"error: verification FAILED: deviation (\S+) "
                         r"above tolerance 1\.0e-08\n", capsys.readouterr().err)
    assert match and float(match.group(1)) > 0.1


def test_verify_names_the_closure_bound_it_fails_on(capsys):
    # The closure bound gamma * beta * |A| * t_max is far above the tolerance
    # at t_max = 1e300, so verify prints no deviation and names the bound.
    assert cli.main(["verify", "--n", "9", "--k", "3", "--t-max", "1e300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: verification FAILED: closure bound 1.268e+252 "
                            "above tolerance 1.0e-08\n")


def test_cap_error_exits_one(capsys):
    assert cli.main(["verify", "--n", "30", "--k", "3", "--cap", "50"]) == 1
    assert capsys.readouterr().err == (
        "error: J(30,3) has 4060 vertices, above the configured cap 50; "
        "raise the cap to force brute-force construction\n")


@pytest.mark.parametrize("argv", [
    ["--n", "4000", "--k", "1", "--steps", "20"],
    ["--n", "14", "--k", "7"],
    ["--n", "40", "--k", "4", "--cap", "100000"],
], ids=["K4000-at-the-cap", "J14-7-largest-k-under-it", "J40-4-past-it"])
def test_the_oracle_reaches_as_far_as_its_cap(argv, capsys):
    # K_4000 has N equal to the default cap, J(14,7) (N = 3432) is the
    # largest k under it, and J(40,4) (N = 91390) runs with the cap raised.
    assert cli.main(["verify", *argv]) == 0
    match = re.fullmatch(r"J\(\d+,\d+\) gamma=\S+: max \|p_full - p_reduced\| "
                         r"= (\S+) over \d+ points\n", capsys.readouterr().out)
    assert match and float(match.group(1)) <= 1e-8


@pytest.mark.parametrize("n,k,cap", [(4001, 1, None), (40, 4, 91389)],
                         ids=["K4001-default-cap", "J40-4-cap-one-below"])
def test_one_vertex_past_the_cap_is_the_cap_line(n, k, cap):
    argv = ["verify", "--n", str(n), "--k", str(k)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    message = (f"J({n},{k}) has {math.comb(n, k)} vertices, above the configured "
               f"cap {cap or scheme.DEFAULT_VERTEX_CAP}; raise the cap to force "
               "brute-force construction")
    assert _run_cli(argv) == (1, "", f"error: {message}\n")


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
    """Exit code, stdout and stderr of cli.main, with warnings raised as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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
    code, out, err = _run_cli(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        # a run that succeeds answers in finite numbers
        fields = re.split(r"[\s,=]+", out)
        assert not any(f.lower().lstrip("+-") in ("inf", "nan") for f in fields), out
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("n,k", [(4, 1), (10, 3), (14, 7)])
def test_the_first_rate_past_the_degree_is_refused_everywhere(n, k):
    # The model's one rate rule bounds gamma * k(n-k+1), the top pole, which
    # is above the degree k(n-k), so the first rate past either edge is
    # refused.  Up to the largest rate where the product is finite, every
    # command that takes a rate answers in finite numbers, a walk at t = 0
    # included; the next double is refused by the model, by the dense
    # Hamiltonian and by every one of those commands, with the same line.
    top = reference.largest_rate(n, k)
    below, over = math.nextafter(top, 0.0), math.nextafter(top, math.inf)
    size = ["--n", str(n), "--k", str(k)]

    def commands(previous, gamma):
        at_zero = ["--t-max", "0", "--steps", "2"]
        return (["spectrum", *size, "--gamma", repr(gamma)],
                ["sweep-gamma", *size, "--gamma-min", repr(previous),
                 "--gamma-max", repr(gamma), "--points", "2"],
                ["simulate", *size, "--gamma", repr(gamma), *at_zero],
                ["verify", *size, "--gamma", repr(gamma), *at_zero])

    for argv in commands(below, top):
        code, out, err = _run_cli(argv)
        assert (code, err) == (0, ""), argv
        fields = re.split(r"[\s,=]+", out)
        assert not any(f.lower().lstrip("+-") in ("inf", "nan") for f in fields), out
        if argv[0] == "simulate":
            rows = [float(row.split(",")[1]) for row in out.splitlines()[1:]]
            assert rows == pytest.approx([1.0 / math.comb(n, k)] * 2, abs=1e-15)
    message = f"gamma={over!r} overflows the J({n},{k}) Hamiltonian"
    for build in (scheme.secular_spectrum, analysis.search_hamiltonian):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(n, k, over)
    for argv in commands(top, over):
        assert _run_cli(argv) == (1, "", f"error: {message}\n"), argv


def _bad_inputs():
    """Each bad input, with every command that takes it."""
    cases = {}
    for n in ("5", "3"):
        graph = ["--n", n, "--k", "3"]
        cases[f"J({n},3)"] = [
            *([command, *graph] for command in ("spectrum", "simulate", "verify",
                                                "sweep-gamma", "critical-gamma")),
            ["analyze-pt", "--n", n]]
    graph = ["--n", "100", "--k", "3"]
    for gamma in ("nan", "inf", "-1"):
        lo, hi = ("0.001", gamma) if gamma == "inf" else (gamma, "0.1")
        cases[f"gamma={gamma}"] = [
            *([command, *graph, "--gamma", gamma]
              for command in ("spectrum", "simulate", "verify")),
            ["analyze-pt", "--n", "100", "--gamma", gamma],
            ["sweep-gamma", *graph, "--gamma-min", lo, "--gamma-max", hi]]
    graph = ["--n", "7", "--k", "3"]
    cases["1-point-grid"] = [["simulate", *graph, "--steps", "1"],
                             ["verify", *graph, "--steps", "1"],
                             ["sweep-gamma", *graph, "--points", "1"]]
    # Two bad inputs: the rate's own rule comes before the graph's and the
    # grid's, in every command.
    for name, n, k in (("J(5,3)", "5", "3"), ("C(3000,500)", "3000", "500")):
        graph = ["--n", n, "--k", k]
        cases[f"gamma=nan,{name}"] = [
            *([command, *graph, "--gamma", "nan"]
              for command in ("spectrum", "simulate", "verify")),
            ["sweep-gamma", *graph, "--gamma-min", "nan", "--gamma-max", "0.1"]]
    cases["gamma=nan,J(5,3)"].append(["analyze-pt", "--n", "5", "--gamma", "nan"])
    graph = ["--n", "7", "--k", "3"]
    cases["gamma=nan,1-point-grid"] = [
        ["simulate", *graph, "--gamma", "nan", "--steps", "1"],
        ["verify", *graph, "--gamma", "nan", "--steps", "1"],
        ["sweep-gamma", *graph, "--gamma-min", "nan", "--gamma-max", "0.1",
         "--points", "1"]]
    return cases


_BAD_INPUTS = _bad_inputs()

#: The line of each input with two faults: the first rule it fails.
_FIRST_FAULT = dict.fromkeys(
    ("gamma=nan,J(5,3)", "gamma=nan,C(3000,500)", "gamma=nan,1-point-grid"),
    "error: gamma must be finite and non-negative, got nan\n")


@pytest.mark.parametrize("bad", sorted(_BAD_INPUTS))
def test_a_bad_input_is_the_same_line_in_every_command(bad):
    # Each input has one rule, so every command that takes it refuses it
    # with the same single line; an input with two faults, with the line
    # of the first rule in the order every command checks them.
    first, *others = _BAD_INPUTS[bad]
    code, out, err = _run_cli(first)
    assert (code, out) == (1, "") and re.fullmatch(r"error: [^\n]*\n", err), err
    assert err == _FIRST_FAULT.get(bad, err)
    for argv in others:
        assert _run_cli(argv) == (code, out, err), argv


_CAP = "raise the cap to force brute-force construction"


@pytest.mark.parametrize("argv,line", [
    ("verify --n 800 --k 400",
     f"J(800,400) has far more vertices than the configured cap 4000; {_CAP}"),
    ("verify --n 30 --k 3",
     f"J(30,3) has 4060 vertices, above the configured cap 4000; {_CAP}"),
    ("verify --n 7 --k 3 --t-max inf", "t_max must be finite, got inf"),
    ("simulate --n 800 --k 400 --t-max inf", "t_max must be finite, got inf"),
    ("simulate --n 100 --k 3 --steps 1",
     "a grid needs an integer number of points >= 2, got 1"),
    ("sweep-gamma --n 10 --k 3 --gamma-min 0.001 --gamma-max 1e307",
     "gamma=7.575757575757575e+306 overflows the J(10,3) Hamiltonian"),
], ids=["verify-far-over-cap", "verify-over-cap", "verify-t-max-inf",
        "simulate-t-max-inf", "simulate-1-step", "sweep-overflow"])
def test_a_refusal_builds_no_pole_table(argv, line, monkeypatch):
    # Every input rule runs before the secular roots are solved, so a
    # refused run never enters the pole table.
    reference.forbid_pole_table(monkeypatch)
    assert _run_cli(argv.split()) == (1, "", f"error: {line}\n")


def test_the_zero_rate_spectrum_builds_no_pole_table(monkeypatch):
    # At gamma = 0 the spectrum comes from the graph's record alone.
    reference.forbid_pole_table(monkeypatch)
    code, out, err = _run_cli(["spectrum", "--n", "1029", "--k", "514",
                               "--gamma", "0"])
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["eig_index,energy,overlap_s,overlap_w",
                                    "0,-1,6.993883984491967e-309,1"]


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                "(4, 100000000) and data type complex128"),
    MemoryError(),
], ids=["numpy-message", "bare"])
def test_out_of_memory_exits_one(exc, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise exc
    monkeypatch.setattr(linalg, "secular_curve", exhausted)
    assert cli.main(["simulate", "--n", "100", "--k", "3", "--steps", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0] == f"error: {str(exc) or 'out of memory'}"
