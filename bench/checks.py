"""Output checks for every benchmark op, and the seed code's known defects.

``check(op, outcome)`` returns None when the op's exit status and output are
right, otherwise a one-line reason.  Reasons start with a fixed phrase so a
known defect can be recognised by its slot and that phrase.  The checks run
after an op's timer has stopped.
"""

from __future__ import annotations

import csv
import io
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

from workloads import Op

#: (numeric - formula) * n^3 for k = 3.  An ulp-level bisection gives
#: 4.82-4.84 for n from 1e2 to 2e7, so this checks the closed form
#: 1/(3n) + 7/(6n^2) to the next order.
K3_OFFSET = 4.83
K3_OFFSET_TOL = 0.5
#: For k != 3 there is no closed form; the rate must sit within this
#: relative distance of its leading order 1/(kn).
LEADING_ORDER_TOL = 0.1
OVERLAP_SUM_TOL = 1e-9
VERIFY_MAX_DEVIATION = 1e-10
#: |amplitude|^2 may round a hair above 1.
PROBABILITY_SLACK = 1e-12
K3_MIN_PEAK = 0.9
#: analyze-pt's gap must be within this relative distance of 2 sqrt(6) / n^1.5.
GAP_LAW_TOL = 0.1

ANALYZE_PT_KEYS = (
    "n", "gamma", "cubic_lambda3", "cubic_lambda2", "cubic_lambda1",
    "cubic_lambda0", "lambda_u", "u_d0", "u_rprime", "u_rdoubleprime",
    "h_rr", "h_ru", "h_uu", "e_minus", "e_plus", "predicted_gap",
    "predicted_runtime",
)


@dataclass(frozen=True)
class Outcome:
    """What one op produced: exit status, streams and its --output file."""

    returncode: int
    stdout: str
    stderr: str
    output: Optional[str] = None


@dataclass(frozen=True)
class KnownDefect:
    """A failure the seed code is known to have, matched by slot and reason."""

    id: str
    slots: tuple[str, ...]
    reason_prefix: str
    description: str


KNOWN_DEFECTS = (
    KnownDefect(
        "bisection-absolute-tolerance",
        ("critical-gamma-k3-1e4", "critical-gamma-k3-1e5",
         "critical-gamma-k3-1e6", "critical-gamma-k3-1e7"),
        "gamma_c offset",
        "gamma_c_numeric stops at an absolute gamma bracket of 1e-12, coarser "
        "than the n^-3 term once n >= 1e4 (residuals up to +-1), and "
        "critical-gamma still exits 0. Fails always from 1e5, for some n "
        "in [1e4, 2e4)."),
    KnownDefect(
        "binomial-float-overflow",
        ("refuse-binomial-overflow",),
        "traceback: OverflowError",
        "initial_state turns C(n,k) into a float, so --n 3000 --k 500 ends "
        "in an uncaught OverflowError traceback."),
    KnownDefect(
        "t-max-inf-accepted",
        ("refuse-t-max-inf",),
        "exit 0, expected 1",
        "simulate --t-max inf writes NaN rows and exits 0."),
)


def known_defect(op: Op, reason: str) -> Optional[KnownDefect]:
    """The known defect that explains this failure, if any."""
    for defect in KNOWN_DEFECTS:
        if op.slot in defect.slots and reason.startswith(defect.reason_prefix):
            return defect
    return None


def _last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1].strip() if lines else ""


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_refusal(out: Outcome) -> Optional[str]:
    if out.returncode != 1:
        return f"exit {out.returncode}, expected 1"
    lines = out.stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return "stderr is not exactly one 'error:' line"
    return None


def _check_critical_gamma(op: Op, out: Outcome) -> Optional[str]:
    n, k = op.params["n"], op.params["k"]
    numeric = re.search(r"^numeric\s+gamma_c = (\S+)\s+"
                        r"\(overlap-balance residual (\S+)\)$",
                        out.stdout, re.M)
    if not numeric:
        return "no numeric gamma_c line"
    gamma, residual = float(numeric.group(1)), float(numeric.group(2))
    if not (math.isfinite(gamma) and gamma > 0 and abs(residual) <= 1.0):
        return f"bad numeric gamma_c {gamma!r} or residual {residual!r}"
    if k != 3:
        if abs(gamma * k * n - 1.0) > LEADING_ORDER_TOL:
            return f"gamma_c*k*n = {gamma * k * n:.4g}, expected 1 +- {LEADING_ORDER_TOL}"
        return None
    formula = re.search(r"^formula_k3 gamma_c = (\S+)$", out.stdout, re.M)
    if not formula:
        return "no formula_k3 line"
    expected = 1.0 / (3.0 * n) + 7.0 / (6.0 * n * n)
    if not _close(float(formula.group(1)), expected, 1e-15):
        return f"formula_k3 {formula.group(1)} != 1/(3n)+7/(6n^2) = {expected!r}"
    offset = (gamma - expected) * n ** 3
    if abs(offset - K3_OFFSET) > K3_OFFSET_TOL:
        return (f"gamma_c offset (numeric-formula)*n^3 = {offset:.4g}, "
                f"expected {K3_OFFSET} +- {K3_OFFSET_TOL}")
    return None


def _overlap_block_error(block: list[list[float]]) -> Optional[str]:
    """Energies ascend and both overlap columns sum to one."""
    energies = [row[0] for row in block]
    if energies != sorted(energies):
        return "energies not ascending"
    for column, name in ((1, "overlap_s"), (2, "overlap_w")):
        total = math.fsum(row[column] for row in block)
        if abs(total - 1.0) > OVERLAP_SUM_TOL:
            return f"{name} sums to {total!r}, expected 1 +- {OVERLAP_SUM_TOL}"
    return None


def _check_spectrum(op: Op, out: Outcome) -> Optional[str]:
    rows = _rows(out.stdout)
    if not rows or rows[0] != ["eig_index", "energy", "overlap_s", "overlap_w"]:
        return "bad spectrum header"
    body = rows[1:]
    k = op.params["k"]
    if [row[0] for row in body] != [str(i) for i in range(k + 1)]:
        return f"expected eig_index 0..{k}"
    return _overlap_block_error([[float(x) for x in row[1:]] for row in body])


def _check_sweep(op: Op, out: Outcome) -> Optional[str]:
    rows = _rows(out.stdout)
    if not rows or rows[0] != ["gamma", "eig_index", "energy", "overlap_s",
                               "overlap_w"]:
        return "bad sweep header"
    k, points = op.params["k"], op.params["points"]
    body = rows[1:]
    if len(body) != points * (k + 1):
        return f"{len(body)} rows, expected {points * (k + 1)}"
    for start in range(0, len(body), k + 1):
        block = body[start:start + k + 1]
        if len({row[0] for row in block}) != 1:
            return f"rows {start}..{start + k} mix gamma values"
        if [row[1] for row in block] != [str(i) for i in range(k + 1)]:
            return f"rows {start}..{start + k}: expected eig_index 0..{k}"
        error = _overlap_block_error([[float(x) for x in row[2:]]
                                      for row in block])
        if error:
            return f"gamma {block[0][0]}: {error}"
    return None


def _check_analyze_pt(op: Op, out: Outcome) -> Optional[str]:
    rows = _rows(out.stdout)
    if not rows or rows[0] != ["key", "value"]:
        return "bad analyze-pt header"
    if tuple(row[0] for row in rows[1:]) != ANALYZE_PT_KEYS:
        return "analyze-pt keys differ"
    values = {key: float(value) for key, value in rows[1:]}
    if not all(math.isfinite(v) for v in values.values()):
        return "non-finite analyze-pt value"
    n = op.params["n"]
    if values["n"] != n:
        return f"n = {values['n']}, expected {n}"
    gap = values["e_plus"] - values["e_minus"]
    if not (gap > 0 and _close(values["predicted_gap"], gap, 1e-12)):
        return "predicted_gap != e_plus - e_minus > 0"
    if not _close(values["predicted_runtime"], math.pi / gap, 1e-12):
        return "predicted_runtime != pi / gap"
    law = 2.0 * math.sqrt(6.0) / n ** 1.5
    if abs(gap / law - 1.0) > GAP_LAW_TOL:
        return f"gap {gap:.4g} is not 2 sqrt(6)/n^1.5 = {law:.4g} +- {GAP_LAW_TOL:.0%}"
    return None


def _check_verify(op: Op, out: Outcome) -> Optional[str]:
    line = re.search(r"^J\((\d+),(\d+)\) gamma=\S+: max \|p_full - p_reduced\| "
                     r"= (\S+) over (\d+) points$", out.stdout, re.M)
    if not line:
        return "no verify result line"
    n, k, deviation, points = line.groups()
    if (int(n), int(k), int(points)) != (op.params["n"], op.params["k"],
                                         op.params["steps"]):
        return f"verify reports J({n},{k}) over {points} points"
    if not float(deviation) <= VERIFY_MAX_DEVIATION:
        return f"deviation {deviation} above {VERIFY_MAX_DEVIATION}"
    return None


def _probability_error(probabilities: list[float], k: int) -> Optional[str]:
    if not all(0.0 <= p <= 1.0 + PROBABILITY_SLACK for p in probabilities):
        return "a probability lies outside [0, 1]"
    if k == 3 and max(probabilities) < K3_MIN_PEAK:
        return f"peak {max(probabilities):.4g} below {K3_MIN_PEAK}"
    return None


def _check_simulate_csv(op: Op, out: Outcome) -> Optional[str]:
    rows = _rows(out.output or "")
    if not rows or rows[0] != ["time", "probability"]:
        return "bad simulate header"
    body = rows[1:]
    if len(body) != op.params["steps"]:
        return f"{len(body)} rows, expected {op.params['steps']}"
    times = [float(row[0]) for row in body]
    if times[0] != 0.0 or not all(a < b for a, b in zip(times, times[1:])):
        return "time grid does not rise from 0"
    return _probability_error([float(row[1]) for row in body], op.params["k"])


def _check_simulate_svg(op: Op, out: Outcome) -> Optional[str]:
    try:
        root = ET.fromstring(out.output or "")
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f"{ns}polyline")
    if len(lines) != 1:
        return f"{len(lines)} polylines, expected 1"
    points = lines[0].get("points", "").split()
    if len(points) != op.params["steps"]:
        return f"{len(points)} points, expected {op.params['steps']}"
    coords = [float(c) for point in points for c in point.split(",")]
    if not all(math.isfinite(c) for c in coords):
        return "non-finite SVG coordinate"
    # The y axis spans exactly [min p, max p]; its five tick labels say so.
    ticks = [float(t.text) for t in root.findall(f"{ns}text")
             if t.get("text-anchor") == "end"]
    if len(ticks) != 5:
        return f"{len(ticks)} y tick labels, expected 5"
    return _probability_error([min(ticks), max(ticks)], op.params["k"])


_CHECKS = {
    "critical-gamma": _check_critical_gamma,
    "spectrum": _check_spectrum,
    "sweep-gamma": _check_sweep,
    "analyze-pt": _check_analyze_pt,
    "verify": _check_verify,
}


def check(op: Op, out: Outcome) -> Optional[str]:
    """None if the op behaved, else a one-line reason."""
    if "Traceback" in out.stderr:
        return f"traceback: {_last_line(out.stderr)}"
    if op.refusal:
        return _check_refusal(out)
    if out.returncode != 0:
        return f"exit {out.returncode}, expected 0: {_last_line(out.stderr)}"
    if op.command == "simulate":
        checker = _check_simulate_svg if op.output == "svg" else _check_simulate_csv
    else:
        checker = _CHECKS[op.command]
    try:
        return checker(op, out)
    except (ValueError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc}"
