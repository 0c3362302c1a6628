"""Spatial search by continuous-time quantum walk on Johnson graphs.

The package simulates the search Hamiltonian H = -gamma*A - |w><w| on
J(n,k) two ways: brute force on the full vertex set, and in the
(k+1)-dimensional distance basis that the graph's distance-transitivity
makes exact.  On top of the simulator sit the analysis tools: critical
jumping rate (closed form for k = 3 and numeric bisection for any k),
energy-gap and runtime predictions, and a numerical rebuild of the
degenerate-perturbation-theory picture that explains why the walk works.
"""

from .errors import SearchBracketError, VertexCapError, WalkError
from .johnson import (DEFAULT_VERTEX_CAP, FullGraph, binomial, class_sizes,
                      distance_classes, enumerate_vertices, full_adjacency)
from .reduced import (IntersectionArray, basis_change_T, initial_state,
                      intersection_array, reduced_adjacency, search_hamiltonian,
                      transformed_hamiltonian, transformed_hamiltonian_closed)
from .linalg import (OverlapSpectrum, SpectralDecomposition, TimeSeries,
                     eig_sym, evolve, overlap_spectrum, success_curve)
from .analysis import (CriticalGammaResult, NaiveSplitting, PerturbationReport,
                       TwoLevelSystem, VerificationResult, char_cubic_coeffs,
                       effective_two_level, energy_gap, gamma_c_formula_k3,
                       gamma_c_numeric, naive_splitting_diagnostic,
                       overlap_balance, perturbation_report, predicted_peak_time,
                       pt_block, run_verification)
from .output import render_svg, write_csv

__version__ = "0.1.0"

__all__ = [
    "SearchBracketError", "VertexCapError", "WalkError",
    "DEFAULT_VERTEX_CAP", "FullGraph", "binomial", "class_sizes",
    "distance_classes", "enumerate_vertices", "full_adjacency",
    "IntersectionArray", "basis_change_T", "initial_state",
    "intersection_array", "reduced_adjacency", "search_hamiltonian",
    "transformed_hamiltonian", "transformed_hamiltonian_closed",
    "OverlapSpectrum", "SpectralDecomposition", "TimeSeries", "eig_sym",
    "evolve", "overlap_spectrum", "success_curve",
    "CriticalGammaResult", "NaiveSplitting", "PerturbationReport",
    "TwoLevelSystem", "VerificationResult", "char_cubic_coeffs",
    "effective_two_level", "energy_gap", "gamma_c_formula_k3",
    "gamma_c_numeric", "naive_splitting_diagnostic",
    "overlap_balance", "perturbation_report", "predicted_peak_time",
    "pt_block", "run_verification",
    "render_svg", "write_csv",
    "__version__",
]
