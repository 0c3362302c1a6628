"""Command-line front end for the Johnson-graph walk toolkit.

Subcommands:

  simulate        success-probability curve for one (n, k, gamma)
  sweep-gamma     eigenstate overlaps across a jumping-rate grid
  critical-gamma  closed-form (k=3) and numeric critical jumping rate
  spectrum        eigenvalues and overlaps at a single jumping rate
  verify          brute-force vs reduced-model cross-check
  analyze-pt      perturbation-theory report for k = 3

CSV goes to stdout unless --output is given; simulate and sweep-gamma can
emit an SVG chart instead via --format svg.  Exit status is 0 on success,
1 for domain or computation errors, 2 for usage errors.  An exit-1 run
writes exactly one line, starting "error: ", to stderr.  That includes a
grid (--steps, --points) of over 2^60 - 1 points, refused before any array
is made, and a CSV row helper process that fails: a long numeric table,
such as a long simulate curve or sweep-gamma grid, is formatted in helper
processes, one per CPU beyond the first.  It also includes a failed final
write, such as buffered stdout flushed to a full disk or a closed pipe.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from typing import Optional

import numpy as np

from . import analysis, linalg, output, reduced
from .johnson import DEFAULT_VERTEX_CAP

logger = logging.getLogger("johnsonwalk")

#: verify exits nonzero when the full-vs-reduced deviation exceeds this.
VERIFY_TOLERANCE = 1e-8


def _default_gamma(n: int, k: int) -> float:
    """Critical jumping rate: closed form for k = 3, bisection otherwise."""
    if k == 3:
        gamma = analysis.gamma_c_formula_k3(n)
        logger.info("using formula gamma_c = %.10g", gamma)
    else:
        gamma = analysis.gamma_c_numeric(n, k).gamma
        logger.info("using numeric gamma_c = %.10g", gamma)
    return gamma


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
                     help="jumping rate (default: critical)")
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
                      help="jumping rate (default: critical)")
    _add_output_options(spec, formats=False)

    verify = commands.add_parser("verify", parents=[n_and_k],
                                 help="compare against the brute-force graph")
    verify.add_argument("--gamma", type=float, default=None,
                        help="jumping rate (default: critical)")
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
    gamma = args.gamma if args.gamma is not None else _default_gamma(args.n, args.k)
    t_max = (args.t_max if args.t_max is not None
             else 1.5 * analysis.predicted_peak_time(args.n, args.k))
    curve = linalg.success_curve(reduced.search_hamiltonian(args.n, args.k, gamma),
                                 reduced.initial_state(args.n, args.k),
                                 t_max, steps=args.steps)
    if args.format == "svg":
        output.render_svg(args.output, [(curve.times, curve.probabilities)],
                          x_label="time", y_label="success probability")
    else:
        output.write_csv(args.output, ["time", "probability"],
                         [curve.times, curve.probabilities])
    return 0


def cmd_sweep_gamma(args: argparse.Namespace) -> int:
    # Validates (n, k) before the default bounds divide by them.
    s = reduced.initial_state(args.n, args.k)
    lo = args.gamma_min if args.gamma_min is not None else 1.0 / (2.0 * args.k * args.n)
    hi = args.gamma_max if args.gamma_max is not None else 2.0 / (args.k * args.n)
    if args.points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {args.points}")
    linalg._check_steps(args.points)  # refuses a grid too large to address
    if not np.isfinite(hi - lo):
        raise ValueError(f"gamma range [{lo}, {hi}] is not finite")
    if not hi > lo:
        raise ValueError(f"empty gamma range [{lo}, {hi}]")
    gammas = np.linspace(lo, hi, args.points)
    energies, overlaps_s, overlaps_w = np.empty((3, args.points, args.k + 1))
    for row_index, gamma in enumerate(gammas):
        spectrum = linalg.overlap_spectrum(
            reduced.search_hamiltonian(args.n, args.k, gamma), s)
        energies[row_index] = spectrum.energies
        overlaps_s[row_index] = spectrum.overlap_s
        overlaps_w[row_index] = spectrum.overlap_w
    if args.format == "svg":
        series = [(gammas, overlaps_s[:, j]) for j in range(args.k + 1)]
        output.render_svg(args.output, series,
                          x_label="gamma", y_label="overlap with |s>")
    else:
        output.write_csv(args.output,
                         ["gamma", "eig_index", "energy", "overlap_s", "overlap_w"],
                         [np.repeat(gammas, args.k + 1),
                          np.tile(np.arange(args.k + 1), args.points),
                          energies.ravel(), overlaps_s.ravel(), overlaps_w.ravel()])
    return 0


def cmd_critical_gamma(args: argparse.Namespace) -> int:
    if args.k == 3:
        formula = analysis.gamma_c_formula_k3(args.n)
        print(f"formula_k3 gamma_c = {formula:.17g}")
    numeric = analysis.gamma_c_numeric(args.n, args.k)
    print(f"numeric    gamma_c = {numeric.gamma:.17g}  "
          f"(overlap-balance residual {numeric.residual:.3e})")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    gamma = args.gamma if args.gamma is not None else _default_gamma(args.n, args.k)
    spectrum = linalg.overlap_spectrum(
        reduced.search_hamiltonian(args.n, args.k, gamma),
        reduced.initial_state(args.n, args.k))
    output.write_csv(args.output,
                     ["eig_index", "energy", "overlap_s", "overlap_w"],
                     [np.arange(spectrum.energies.size), spectrum.energies,
                      spectrum.overlap_s, spectrum.overlap_w])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    gamma = args.gamma if args.gamma is not None else _default_gamma(args.n, args.k)
    result = analysis.run_verification(args.n, args.k, gamma,
                                       t_max=args.t_max, steps=args.steps,
                                       cap=args.cap)
    print(f"J({args.n},{args.k}) gamma={gamma:.10g}: "
          f"max |p_full - p_reduced| = {result.max_deviation:.3e} "
          f"over {result.steps} points")
    if result.max_deviation > VERIFY_TOLERANCE:
        raise ValueError(f"verification FAILED (tolerance {VERIFY_TOLERANCE:.1e})")
    return 0


def cmd_analyze_pt(args: argparse.Namespace) -> int:
    report = analysis.perturbation_report(args.n, args.gamma)
    c3, c2, c1, c0 = report.cubic_coefficients
    rows = [
        ("n", report.n),
        ("gamma", report.gamma),
        ("cubic_lambda3", c3),
        ("cubic_lambda2", c2),
        ("cubic_lambda1", c1),
        ("cubic_lambda0", c0),
        ("lambda_u", report.lambda_u),
        ("u_d0", report.u[0]),
        ("u_rprime", report.u[1]),
        ("u_rdoubleprime", report.u[2]),
        ("h_rr", report.effective_2x2[0, 0]),
        ("h_ru", report.effective_2x2[0, 1]),
        ("h_uu", report.effective_2x2[1, 1]),
        ("e_minus", report.e_minus),
        ("e_plus", report.e_plus),
        ("predicted_gap", report.predicted_gap),
        ("predicted_runtime", report.predicted_runtime),
    ]
    keys, values = zip(*rows)
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
    # basicConfig acts only while the root logger has no handler, so the
    # level is set on the package logger, afresh for every call.
    logging.basicConfig(format="%(levelname)s %(message)s")
    logger.setLevel(logging.INFO if args.verbose else logging.WARNING)
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
    # walk the ~22k objects numpy and the package keep.  Atexit handlers and
    # the flush of the std streams still run, unlike after os._exit.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
