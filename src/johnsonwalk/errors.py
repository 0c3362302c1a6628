"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary domain errors (bad n, k, gamma,
shape mismatches).  The classes here cover the brute-force vertex cap and a
root search that finds no bracket, which callers may want to catch
separately.
"""

from __future__ import annotations


class WalkError(Exception):
    """Base class for package-specific runtime failures."""


class VertexCapError(WalkError):
    """Brute-force construction refused: the vertex count exceeds the cap."""

    def __init__(self, n_vertices: int, cap: int):
        self.n_vertices = n_vertices
        self.cap = cap
        super().__init__(
            f"J(n,k) has {n_vertices} vertices, above the configured cap {cap}; "
            f"raise the cap to force brute-force construction"
        )


class SearchBracketError(WalkError):
    """Root bracketing failed: no sign change after the allowed expansions."""
