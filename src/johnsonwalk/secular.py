"""All k+1 roots of the Johnson scheme's secular equation, with overlaps.

In the scheme's eigenbasis the search Hamiltonian is H = diag(-gamma*theta_j)
- z z^T, z_j^2 = m_j/N (``scheme``), so its eigenvalues are the roots of the
secular equation 1 = sum_j z_j^2/(d_j - lambda), d_j = -gamma*theta_j, one
below d_0 and one between each pair of neighbouring poles, and a root's
eigenvector has components z_j/(d_j - lambda).  ``secular_spectrum`` solves
each root as an offset from its nearest pole, which double precision
resolves at any N: the two beside d_0 with ``scheme._pole_roots``, in
eta = gamma/S_1 - 1 as the balance search does, and the others by the
two-pole rational iteration of LAPACK's dlaed4 (Bunch, Nielsen & Sorensen,
Numer. Math. 31, 31 (1978); Li's "middle way"; Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 172 (1995)).  spectrum and sweep-gamma print nothing
else, and simulate and verify draw the success curve from these roots.

This is a module of its own so that the commands that do not need it do not
compile it at start-up.  It imports the standard library only.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .scheme import (_check_model, _pole_balance, _pole_roots, _root, class_sizes,
                     critical_rate, scheme_spectrum)

if TYPE_CHECKING:
    from fractions import Fraction


class SecularSpectrum(NamedTuple):
    """Ascending eigenvalues of H with |<s|psi_i>|^2 and |<w|psi_i>|^2 each.

    ``shifts`` are the eigenvalues measured from the pole -gamma*theta_0,
    which keep the digits that the energies round away at large N (the
    two lowest are 2/sqrt(N) apart near the critical rate).
    """

    energies: list[float]
    overlap_s: list[float]
    overlap_w: list[float]
    shifts: list[float]

    def weights(self) -> list[float]:
        """<w|psi_i><psi_i|s> = -sign(shift_i) sqrt(overlap_s_i overlap_w_i) per root,
        as <w|psi_i> = 1/|v_i|, <psi_i|s> = -z_0/(shift_i |v_i|); sum: 1/sqrt(N)."""
        return [-math.copysign(math.sqrt(s * w), shift)
                for s, w, shift in zip(self.overlap_s, self.overlap_w, self.shifts)]


class _Scheme(NamedTuple):
    """What the secular equation of J(n,k) needs apart from gamma.

    In units of gamma the secular function at an offset t from pole o is
    gamma - sum_j z_j^2/(p_j - t), with the pole gaps p_j = D_j - D_o.  Row
    o of ``poles`` holds (z_j^2, p_j, 1/p_j, z_j^2/z_o^2), with 0 for 1/p_o.
    ``consts[o]`` is sum_{j != o} z_j^2/p_j, the rate at which pole o's own
    term balances the others (``_pole_balance`` gives it exactly), and
    ``halves[i]`` the sum at the point halfway from pole i down to pole i-1.
    """

    theta: list[int]
    d: list[int]
    z2: list[float]
    poles: list[list[tuple[float, float, float, float]]]
    consts: list[float]
    halves: list[float]
    rate: Fraction
    r: float


@functools.lru_cache(maxsize=4)
def _scheme(n: int, k: int) -> _Scheme:
    theta, mult = scheme_spectrum(n, k)
    count = sum(mult)
    d = [theta[0] - t for t in theta]
    z2 = [m / count for m in mult]
    poles = []
    for do, zo in zip(d, z2):
        gaps = [float(dj - do) for dj in d]
        poles.append([(zj, pj, 1.0 / pj if pj else 0.0, zj / zo)
                      for zj, pj in zip(z2, gaps)])
    consts = [sum(zj * ipj for zj, _, ipj, _ in row) for row in poles]
    halves = [0.0] + [sum(zj / (pj + 0.5 * (d[i] - d[i - 1]))
                          for zj, pj, _, _ in poles[i]) for i in range(1, k + 1)]
    return _Scheme(theta, d, z2, poles, consts, halves,
                   critical_rate(n, k), math.sqrt(count))


def _lowest_step(poles: list[tuple[float, float, float, float]]):
    """phi for ``_root``: the secular function 1 - sum_j z_j^2/(g_j - t) at an
    offset t below the lowest pole g_0 = 0, with the step of the one-pole
    rational model c + s/(g_0 - t) of the sum, matched in value and slope.
    """
    def phi(t: float) -> tuple[float, float]:
        f, qb = 1.0, 0.0
        for zj, gj, _, _ in poles:
            inv = 1.0 / (gj - t)
            term = zj * inv
            f -= term
            qb -= term * (t * inv)
        den = f + qb
        return f, (t * f / den if den else math.inf)

    return phi


def _pole_step(h: float, poles: list[tuple[float, float, float, float]], o: int,
               i: int):
    """phi for ``_root``: the secular function at an offset t from pole o,
    between the poles i-1 and i, with the step of the two-pole rational model
    of LAPACK's dlaed4 ("middle way") as its correction.

    The function is taken as h + z_o^2/t - t sum_{j != o} z_j^2/(p_j (p_j - t)),
    where h is its value at the pole without the pole's own term, so that
    no two terms cancel when h is given exactly.  The sums below and above
    the root are each modelled as c + s/(pole - t), matched in value and
    slope at t, with the pole nearest the root on that side.  The model's
    root solves a quadratic, written in units of the distance between the
    two poles, so that no product of gaps overflows.
    """
    below, above = poles[:i], poles[i:]
    zo = poles[o][0]
    p_below, p_above = poles[i - 1][1], poles[i][1]
    width = p_above - p_below

    def phi(t: float) -> tuple[float, float]:
        a, b = p_below - t, p_above - t
        f, pa, qb = h + zo / t, 0.0, 0.0
        for zj, pj, ipj, _ in below:
            inv = 1.0 / (pj - t)
            term = zj * inv
            f -= term * (t * ipj)
            pa += term * (a * inv)
        for zj, pj, ipj, _ in above:
            inv = 1.0 / (pj - t)
            term = zj * inv
            f -= term * (t * ipj)
            qb += term * (b * inv)
        a, b = a / width, b / width
        c, q = f + pa + qb, f * (a + b) + b * pa + a * qb
        root = math.sqrt(max(q * q - 4.0 * c * a * b * f, 0.0))
        num, den = (2.0 * a * b * f, q - root) if q <= 0.0 else (q + root, 2.0 * c)
        return f, (-num * width / den if den else math.inf)

    return phi


def _weights(sigma: float, t: float, poles: list[tuple[float, float, float, float]],
             zo: float) -> tuple[float, float]:
    """|<s|psi>|^2 and |<w|psi>|^2 for the root at offset t from pole o.

    The eigenvector has components z_j/(sigma (p_j - t)); each is taken
    relative to the component at pole o (the rows hold z_j^2/z_o^2), so
    every term of the sum is at most z_j^2/z_o^2 <= N, and none overflows
    or underflows to a division by zero.  The overlap with |w> is 1/|v|^2,
    since sum_j z_j v_j = 1 at a root; ``zo`` is z_o^2.
    """
    total = 0.0
    for _, pj, _, wj in poles:
        ratio = t / (pj - t)
        total += wj * ratio * ratio
    ratio = t / (poles[0][1] - t)
    tau = sigma * t
    return poles[0][3] * ratio * ratio / total, tau * (tau / zo) / total


def secular_spectrum(n: int, k: int, gamma: float) -> SecularSpectrum:
    """All k+1 eigenvalues of H = diag(-gamma*theta_j) - z z^T, ascending,
    with the squared overlaps of their eigenvectors with |s> and |w>.

    H is the search Hamiltonian in the Johnson scheme's eigenbasis, so these
    are the eigenvalues and overlaps of the distance-basis H, without a
    matrix.  ``gamma`` is a float or, for an exact eta, a ``Fraction``.

    Each eigenvalue is solved as an offset from its nearest pole: root 0
    lies in [-1, 0) from the pole -gamma*theta_0, and root i >= 1 between
    the poles i-1 and i, within 1 below pole i.  Near a pole, the secular
    function's value there without the pole's own term, h, is a difference
    of two nearly equal numbers, so it is rounded once from exact fractions
    where it would lose more than six bits: eta/(1+eta) at pole 0, from the
    exact S_1, and gamma minus ``_pole_balance`` at the others.  Within
    gamma = S_1 (1 + eta), -1/2 <= eta <= 1, the two roots beside pole 0
    come from ``_pole_roots``, which the balance search shares; elsewhere
    root 0 takes the one-pole step of ``_lowest_step``.  The other roots
    take the two-pole step of ``_pole_step``, in units of
    sigma = min(gamma, 1), where the pole gaps are gamma/sigma times the
    exact integers D_j - D_o, so that neither a small nor a large gamma
    pushes an offset out of the float range.

    At gamma = 0, H is -|w><w|: the eigenvalue -1 with |w>, then k zeros
    (-0) whose eigenvectors are taken to be the other distance states, as
    the eigensolver of the distance basis returns them.
    """
    _check_model(n, k, gamma)
    scheme = _scheme(n, k)
    theta, d, z2, r = scheme.theta, scheme.d, scheme.z2, scheme.r
    if gamma == 0:
        parts = [math.sqrt(float(size)) / r for size in class_sizes(n, k)]
        return SecularSpectrum([-1.0] + [-0.0] * k, [p * p for p in parts],
                               [1.0] + [0.0] * k, [-1.0] + [0.0] * k)
    from fractions import Fraction

    exact_gamma, gamma = Fraction(gamma), float(gamma)
    scale = max(gamma, 1.0)
    sigma = gamma / scale
    s1 = float(scheme.rate)
    result = SecularSpectrum([], [], [], [])

    def add(o: int, unit: float, t: float, poles: list[tuple[float, ...]]) -> None:
        result.energies.append(-gamma * theta[o] + unit * t)
        result.shifts.append(gamma * d[o] + unit * t)
        weight_s, weight_w = _weights(unit, t, poles, z2[o])
        result.overlap_s.append(weight_s)
        result.overlap_w.append(weight_w)

    def nearest(i: int) -> tuple[int, float, float]:
        """The pole nearest root i >= 1, and the root's bracket measured
        from it in units of sigma: within 1 below pole i, and nearer pole
        i-1 when the secular function is not positive halfway."""
        gap = scale * (d[i] - d[i - 1])
        low, half = max(-gap, -1.0 / sigma), -0.5 * gap
        if low < half and gamma <= scheme.halves[i]:
            return i - 1, max(low + gap, 0.0), -half
        return i, max(low, half), 0.0

    # Root 0's poles, in units of one
    lowest = [(zj, gamma * pj, 0.0, wj) for zj, pj, _, wj in scheme.poles[0]]
    first = nearest(1)
    x1 = None
    if 0.5 * s1 <= gamma <= 2.0 * s1:
        h = float(1 - scheme.rate / exact_gamma)
        g = [gj for _, gj, _, _ in lowest[1:]]
        a = [zj / gj for zj, gj, _, _ in lowest[1:]]
        top = sigma * first[2] * r if first[0] == 0 else 0.0
        x0, x1 = _pole_roots(h * r, a, g, r, top)
        add(0, 1.0, x0 / r, lowest)
    else:
        h = 1.0 - s1 / gamma
        t = -z2[0] / h if h > z2[0] else -0.5
        add(0, 1.0, _root(_lowest_step(lowest), -1.0, 0.0, t, False),
            lowest)
    for i in range(1, k + 1):
        if i == 1 and x1 is not None:
            add(0, 1.0, x1 / r, lowest)
            continue
        o, lo, hi = first if i == 1 else nearest(i)
        poles = scheme.poles[o]
        if scale != 1.0:
            poles = [(zj, scale * pj, ipj / scale, wj) for zj, pj, ipj, wj in poles]
        h = (gamma - scheme.consts[o]) / scale
        if abs(h) < sigma / 64.0:  # rounded from the exact value instead
            h = float((exact_gamma - _pole_balance(n, k, o)) / Fraction(scale))
        t = -z2[o] / h if h else math.inf
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        add(o, sigma, _root(_pole_step(h, poles, o, i), lo, hi, t, False), poles)
    return result
