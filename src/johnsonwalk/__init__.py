"""Spatial search by continuous-time quantum walk on Johnson graphs.

The package simulates the search Hamiltonian H = -gamma*A - |w><w| on
J(n,k) from the k+1 eigenstates that |s> and |w> span.  ``scheme`` takes
them from the secular equation over the Johnson scheme's exact spectrum,
with no matrix; a brute-force walk on the full vertex set checks them.  On
top of the simulator sit the analysis tools: critical jumping rate (closed
form for k = 3, and for any k from the scheme's spectrum), runtime
predictions, and a numerical rebuild of the degenerate-perturbation-theory
picture that explains why the walk works, in the (k+1)-dimensional
distance basis that the graph's distance-transitivity makes exact.

Import the modules; they are the API, and this root imports none of them.
"""

__version__ = "0.1.0"
