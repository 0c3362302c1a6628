"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary domain errors (bad n, k, gamma,
shape mismatches).  The classes here cover the brute-force vertex cap and a
root search that finds no bracket, which callers may want to catch
separately.
"""

from __future__ import annotations

from typing import Optional


class WalkError(Exception):
    """Base class for package-specific runtime failures."""


def _count_text(count: int) -> str:
    """A count in decimal, or as a power of two once it is long.

    Python refuses to print an integer of more than 4300 digits.
    """
    if count.bit_length() <= 64:
        return str(count)
    return f"about 2^{count.bit_length() - 1}"


class VertexCapError(WalkError):
    """Brute-force construction refused: the vertex count exceeds the cap.

    ``n_vertices`` is None when the count is far enough above the cap to be
    refused without computing it.
    """

    def __init__(self, n_vertices: Optional[int], cap: int):
        self.n_vertices = n_vertices
        self.cap = cap
        if n_vertices is None:
            size = f"far more vertices than the configured cap {_count_text(cap)}"
        else:
            size = (f"{_count_text(n_vertices)} vertices, above the configured "
                    f"cap {_count_text(cap)}")
        super().__init__(
            f"J(n,k) has {size}; raise the cap to force brute-force construction")


class SearchBracketError(WalkError):
    """Root bracketing failed: no sign change after the allowed expansions."""
