"""CLI dispatch, CSV/SVG emission, and exit codes."""

import csv
import math

import numpy as np
import pytest

from johnsonwalk import cli, output, reduced, linalg


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
    model = reduced.search_hamiltonian(8, 3, 0.03)
    curve = linalg.success_curve(model.hamiltonian, reduced.initial_state(8, 3),
                                 0, 20.0, 50)
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
    output.write_csv(str(target), ["x", "y"], [])
    assert target.read_text(encoding="utf-8") == "x,y\n"


def test_write_csv_stdout(capsys):
    output.write_csv(None, ["a"], [(1.5,), (2,)])
    assert capsys.readouterr().out == "a\n1.5\n2\n"


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
