"""Spatial search by continuous-time quantum walk on Johnson graphs.

The package simulates the search Hamiltonian H = -gamma*A - |w><w| on
J(n,k) two ways: brute force on the full vertex set, and in the
(k+1)-dimensional distance basis that the graph's distance-transitivity
makes exact.  On top of the simulator sit the analysis tools: critical
jumping rate (closed form for k = 3, and for any k from the Johnson
scheme's exact spectrum), energy-gap and runtime predictions, and a
numerical rebuild of the degenerate-perturbation-theory picture that
explains why the walk works.

Import the modules; they are the API, and this root imports none of them.
"""

__version__ = "0.1.0"
