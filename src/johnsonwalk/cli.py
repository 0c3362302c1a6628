"""Command-line front end for the Johnson-graph walk toolkit.

Subcommands:

  simulate        success-probability curve for one (n, k, gamma)
  sweep-gamma     eigenstate overlaps across a jumping-rate grid
  critical-gamma  closed-form (k=3) and numeric critical jumping rate
  spectrum        eigenvalues and overlaps at a single jumping rate
  verify          brute-force graph vs secular-root cross-check
  analyze-pt      perturbation-theory report for k = 3

CSV goes to stdout unless --output is given; simulate and sweep-gamma can
emit an SVG chart instead via --format svg.  Exit status is 0 on success,
1 for domain or computation errors, 2 for usage errors.  An exit-1 run
writes exactly one line, starting "error: ", to stderr.  That includes a
grid (--steps, --points) of over 2^60 - 1 points, refused before any array
is made, and an error inside simulate's curve (``linalg.secular_curve``),
such as running out of memory.  It also includes a failed final write, such
as buffered stdout flushed to a full disk or a closed pipe.
With --verbose, simulate logs the rows it wrote as CSV, the
seconds that took, and how many values the formatter left to '%.17g'.

critical-gamma, spectrum, sweep-gamma (as CSV or SVG), verify and
analyze-pt run without numpy: what they print comes from ``scheme``, the
Johnson scheme's exact spectrum and the roots of its secular equation, which
verify checks against the full graph through ``johnson``'s matrix-free
oracle, or from ``reduced``'s closed forms for k = 3, and ``output`` writes
it with the standard library alone.  The default rate is the exact critical
rate S_1.  Only simulate loads numpy, for its curve in ``linalg``, after
every input check that needs no arrays, so a refused input costs no numpy
import in any command.  A command loads ``output`` only once it has
something to write, so a refusal loads no writer either.  The ``logging``
module is imported only by a run that logs (--verbose).
"""

from __future__ import annotations

import argparse
import gc
import math
import numbers
import os
import sys
import time
from array import array
from typing import Optional

from . import scheme
from .scheme import DEFAULT_VERTEX_CAP

#: verify exits nonzero when the deviation or the oracle's bound exceeds this.
VERIFY_TOLERANCE = 1e-8


def _info(args: argparse.Namespace, message: str, *values) -> None:
    """Log ``message`` on the package logger if the run is --verbose.

    Any other run leaves ``logging`` alone.  basicConfig acts only while the
    root logger has no handler, so the level is set on the package logger.
    """
    if not args.verbose:
        return
    import logging

    logging.basicConfig(format="%(levelname)s %(message)s")
    logger = logging.getLogger("johnsonwalk")
    logger.setLevel(logging.INFO)
    logger.info(message, *values)


def _rate(args: argparse.Namespace) -> numbers.Real:
    """--gamma, or the critical rate S_1 as an exact ``Fraction``."""
    if args.gamma is not None:
        return args.gamma
    rate = scheme.critical_rate(args.n, args.k)
    _info(args, "using critical rate S_1 = %.10g", float(rate))
    return rate


def _add_output_options(sub: argparse.ArgumentParser, formats: bool) -> None:
    sub.add_argument("--output", metavar="PATH", default=None,
                     help="output file (default: stdout)")
    if formats:
        sub.add_argument("--format", choices=("csv", "svg"), default="csv",
                         help="output format (default: csv)")


def create_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="johnsonwalk",
        description="spatial search by continuous-time quantum walk "
                    "on Johnson graphs J(n,k)")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)
    n_only = argparse.ArgumentParser(add_help=False)
    n_only.add_argument("--n", type=int, required=True)
    n_and_k = argparse.ArgumentParser(add_help=False, parents=[n_only])
    n_and_k.add_argument("--k", type=int, required=True)

    sim = commands.add_parser("simulate", parents=[n_and_k],
                              help="success probability as a function of time")
    sim.add_argument("--gamma", type=float, default=None,
                     help="jumping rate (default: the critical rate S_1, exact)")
    sim.add_argument("--t-max", type=float, default=None,
                     help="end of the time grid (default: 1.5x predicted peak)")
    sim.add_argument("--steps", type=int, default=1000,
                     help="number of grid points (default: 1000)")
    _add_output_options(sim, formats=True)

    sweep = commands.add_parser("sweep-gamma", parents=[n_and_k],
                                help="eigenstate overlaps across a gamma grid")
    sweep.add_argument("--gamma-min", type=float, default=None,
                       help="grid start (default: 1/(2kn))")
    sweep.add_argument("--gamma-max", type=float, default=None,
                       help="grid end (default: 2/(kn))")
    sweep.add_argument("--points", type=int, default=100,
                       help="grid size (default: 100)")
    _add_output_options(sweep, formats=True)

    crit = commands.add_parser("critical-gamma", parents=[n_and_k],
                               help="critical jumping rate (formula and numeric)")

    spec = commands.add_parser("spectrum", parents=[n_and_k],
                               help="eigenvalues and overlaps at one gamma")
    spec.add_argument("--gamma", type=float, default=None,
                      help="jumping rate (default: the critical rate S_1, exact)")
    _add_output_options(spec, formats=False)

    verify = commands.add_parser("verify", parents=[n_and_k],
                                 help="compare against the brute-force graph")
    verify.add_argument("--gamma", type=float, default=None,
                        help="jumping rate (default: the critical rate S_1, exact)")
    verify.add_argument("--t-max", type=float, default=None,
                        help="end of the time grid (default: 2*pi*sqrt(N))")
    verify.add_argument("--steps", type=int, default=200,
                        help="number of grid points (default: 200)")
    verify.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP,
                        help="brute-force vertex cap "
                             f"(default: {DEFAULT_VERTEX_CAP})")

    pt = commands.add_parser("analyze-pt", parents=[n_only],
                             help="perturbation-theory report (k = 3)")
    pt.add_argument("--gamma", type=float, default=None,
                    help="jumping rate (default: critical formula)")
    _add_output_options(pt, formats=False)
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    gamma = _rate(args)
    t_max = (args.t_max if args.t_max is not None
             else 1.5 * scheme.predicted_peak_time(args.n, args.k))
    spectrum = scheme.secular_spectrum(args.n, args.k, gamma)  # checks the model
    from . import linalg
    curve = linalg.secular_curve(spectrum, t_max, args.steps)
    from . import output
    if args.format == "svg":
        output.render_svg(args.output, [(curve.times, curve.probabilities)],
                          x_label="time", y_label="success probability")
    else:
        start = time.perf_counter()
        fallbacks = output.write_csv(args.output, ["time", "probability"],
                                     [curve.times, curve.probabilities])
        _info(args, "wrote %d rows in %.3f s, %d values by the %%.17g fallback",
              args.steps, time.perf_counter() - start, fallbacks)
    return 0


def cmd_sweep_gamma(args: argparse.Namespace) -> int:
    n, k, points = args.n, args.k, args.points
    # Validates (n, k) before the default bounds divide by them.
    scheme._check_reduced_params(n, k)
    lo = args.gamma_min if args.gamma_min is not None else 1.0 / (2.0 * k * n)
    hi = args.gamma_max if args.gamma_max is not None else 2.0 / (k * n)
    if points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {points}")
    scheme._check_steps(points)  # refuses a grid too large to address
    if not math.isfinite(hi - lo):
        raise ValueError(f"gamma range [{lo}, {hi}] is not finite")
    if not hi > lo:
        raise ValueError(f"empty gamma range [{lo}, {hi}]")
    gammas = list(scheme._grid(lo, hi, points))
    spectra = [scheme.secular_spectrum(n, k, gamma) for gamma in gammas]
    from . import output
    if args.format == "svg":
        series = [(gammas, [spectrum.overlap_s[j] for spectrum in spectra])
                  for j in range(k + 1)]
        output.render_svg(args.output, series,
                          x_label="gamma", y_label="overlap with |s>")
        return 0
    energies, overlap_s, overlap_w = array("d"), array("d"), array("d")
    for spectrum in spectra:
        energies.extend(spectrum.energies)
        overlap_s.extend(spectrum.overlap_s)
        overlap_w.extend(spectrum.overlap_w)
    columns = [array("d", [gamma for gamma in gammas for _ in range(k + 1)]),
               array("q", range(k + 1)) * points, energies, overlap_s, overlap_w]
    output.write_csv(args.output,
                     ["gamma", "eig_index", "energy", "overlap_s", "overlap_w"],
                     columns)
    return 0


def cmd_critical_gamma(args: argparse.Namespace) -> int:
    if args.k == 3:
        formula = scheme.gamma_c_formula_k3(args.n)
        print(f"formula_k3 gamma_c = {formula:.17g}")
    numeric = scheme.gamma_c_numeric(args.n, args.k)
    print(f"numeric    gamma_c = {numeric.gamma:.17g}  "
          f"(overlap-balance residual {numeric.residual:.3e})")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    gamma = _rate(args)
    spectrum = scheme.secular_spectrum(args.n, args.k, gamma)
    from . import output
    output.write_csv(args.output,
                     ["eig_index", "energy", "overlap_s", "overlap_w"],
                     [array("q", range(args.k + 1)), array("d", spectrum.energies),
                      array("d", spectrum.overlap_s), array("d", spectrum.overlap_w)])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    gamma = _rate(args)
    from . import johnson
    result = johnson.run_verification(args.n, args.k, gamma,
                                      t_max=args.t_max, steps=args.steps,
                                      cap=args.cap)
    _info(args, "verified on N = %d vertices: Krylov dimension %d, "
          "closure residual %.3e", scheme.binomial(args.n, args.k),
          result.krylov_dimension, result.closure_residual)
    if result.closure_residual <= VERIFY_TOLERANCE:  # else no full-graph curve
        print(f"J({args.n},{args.k}) gamma={float(gamma):.10g}: "
              f"max |p_full - p_reduced| = {result.max_deviation:.3e} "
              f"over {result.steps} points")
    for bound, value in (("closure bound", result.closure_residual),
                         ("deviation", result.max_deviation)):
        if value > VERIFY_TOLERANCE:
            raise ValueError(f"verification FAILED: {bound} {value:.3e} "
                             f"above tolerance {VERIFY_TOLERANCE:.1e}")
    return 0


def cmd_analyze_pt(args: argparse.Namespace) -> int:
    from . import reduced
    report = reduced.perturbation_report(args.n, args.gamma)
    (h_rr, h_ru), (_, h_uu) = report.effective_2x2
    rows = [
        ("n", report.n), ("gamma", report.gamma),
        *zip(("cubic_lambda3", "cubic_lambda2", "cubic_lambda1", "cubic_lambda0"),
             report.cubic_coefficients),
        ("lambda_u", report.lambda_u),
        *zip(("u_d0", "u_rprime", "u_rdoubleprime"), report.u),
        ("h_rr", h_rr), ("h_ru", h_ru), ("h_uu", h_uu),
        ("e_minus", report.e_minus), ("e_plus", report.e_plus),
        ("predicted_gap", report.predicted_gap),
        ("predicted_runtime", report.predicted_runtime),
    ]
    keys, values = zip(*rows)
    from . import output
    output.write_csv(args.output, ["key", "value"], [keys, values])
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep-gamma": cmd_sweep_gamma,
    "critical-gamma": cmd_critical_gamma,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "analyze-pt": cmd_analyze_pt,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = create_parser()
    args = parser.parse_args(argv)
    handler = COMMANDS[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main_entry() -> None:
    """Run ``main`` as the program (``johnsonwalk``, ``python -m johnsonwalk.cli``).

    stdout is flushed here, inside the exit-1 contract: when that final
    write fails, a run that has not yet reported an error reports this one,
    and fd 1 is pointed at the null device so the interpreter's own flush
    at shutdown cannot fail again.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        if not code:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    # What is alive now stays alive until exit; frozen, it is left out of the
    # collections the interpreter runs at shutdown, which would otherwise
    # walk the ~22k objects numpy and the package keep once numpy is loaded.
    # Atexit handlers and the flush of the std streams still run, unlike
    # after os._exit.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
