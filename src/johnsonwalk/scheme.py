"""The Johnson scheme's exact spectrum, its secular equation, and the input rules.

The adjacency matrix of J(n,k) has the eigenvalues theta_j = (k-j)(n-k-j) - j
with multiplicities m_j = C(n,j) - C(n,j-1), j = 0..k (Delsarte, 1973).  In
the basis of the normalised projections of the marked vertex |w> onto those
eigenspaces, the search Hamiltonian -gamma*A - |w><w| is diag(d_j) - z z^T
with d_j = -gamma*theta_j and z_j^2 = m_j/N, and the uniform state |s> is
basis vector 0.  Its eigenvalues are the k+1 roots of the secular equation
1 = sum_j z_j^2/(d_j - lambda), one below d_0 and one between each pair of
neighbouring poles, and a root's eigenvector has components
z_j/(d_j - lambda), so its overlaps with |s> and |w> need no matrix.

Each root is solved as an offset from its nearest pole, which double
precision resolves at any N (the diagonal-plus-rank-one problem of Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)).  With gamma written
as S_1 (1 + eta), where S_1 = sum_{j>=1} z_j^2/D_j, D_j = theta_0 - theta_j
= j(n-j+1), is the critical rate of Childs & Goldstone (PRA 70, 022314
(2004)), and lambda as d_0 + delta, the equation reads

    eta/(1+eta) + z_0^2/delta - delta * sum_{j>=1} z_j^2 / (g_j (g_j - delta))

with g_j = gamma*D_j.  No term is a difference of numbers of order one, and
``_pole_step`` solves the roots from it at their nearest pole, for both the
balance search (``gamma_c_numeric``) and ``secular_spectrum``, with the
two-pole rational step of LAPACK's dlaed4 (Bunch, Nielsen & Sorensen,
Numer. Math. 31, 31 (1978); Li's "middle way"), or below the lowest pole
the one-pole step from above.  Each spectrum carries its own check:
``secular_spectrum`` refuses one whose overlaps with |s> or with |w> do not
sum to 1 within 4(k+1) eps, or whose weights <w|psi_i><psi_i|s> do not sum
to 1/sqrt(N) within 1e-15.

The module imports the standard library only: critical-gamma, spectrum,
sweep-gamma and every input rule of the package run without numpy.  It also
holds ``_jacobi``, the small symmetric eigensolver of ``verify`` and
``analyze-pt``, which load this module anyway.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from fractions import Fraction

#: Default ceiling on C(n,k) for brute-force construction, the dense oracle's
#: old limit; the matrix-free one runs far past it when the cap is raised.  It
#: is defined here so that the command line's help can show it without numpy.
DEFAULT_VERTEX_CAP = 4000

#: The eigenvector sign rule of ``linalg.eig_sym`` and ``reduced`` makes the
#: first component of magnitude above this non-negative.
SIGN_EPS = 1e-8


class SearchBracketError(ValueError):
    """The overlap balance has no sign change, so there is no critical rate."""


def _count_text(count: int) -> str:
    """A count in decimal, or as a power of two once it is long.

    Python refuses to print an integer of more than 4300 digits.
    """
    if count.bit_length() <= 64:
        return str(count)
    return f"about 2^{count.bit_length() - 1}"


class VertexCapError(ValueError):
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


class CriticalGammaResult(NamedTuple):
    """Critical jumping rate from the numeric search, with its check.

    ``residual`` is the overlap balance at the returned rate, computed in eta.
    """

    gamma: float
    residual: float


def _check_params(n: int, k: int) -> None:
    if not isinstance(n, numbers.Integral) or not isinstance(k, numbers.Integral):
        raise ValueError("n and k must be integers")
    if not 1 <= k < n:
        raise ValueError(f"require 1 <= k < n, got n={n}, k={k}")


def _check_class_params(n: int, k: int) -> None:
    """Validate integers n >= 2k >= 2, where all k+1 distance classes exist."""
    _check_params(n, k)
    if n < 2 * k:
        raise ValueError(f"reduced model requires n >= 2k, got n={n}, k={k}")


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n,k), through ``math.comb``."""
    if not isinstance(n, numbers.Integral) or not isinstance(k, numbers.Integral):
        raise ValueError("binomial arguments must be integers")
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    return math.comb(int(n), int(k))


def _check_reduced_params(n: int, k: int) -> float:
    """Validate integers n >= 2k >= 2 and return N = C(n,k) as a float.

    N must be within the float range; every class size |d_i| is at most N,
    and N >= n, so n and the entries built from it are then in range too.

    The lower bound C(n,k) >= (n/k)^k refuses a far-out N before the exact
    value is computed, which takes most of a minute at k ~ 1e6.  Where the
    bound passes, k <= n/2 and C(n,k) <= (e n/k)^k keep k below 1030 and N
    below e^1740, so the exact value is cheap.
    """
    _check_class_params(n, k)
    if k * (math.log(n) - math.log(k)) <= math.log(sys.float_info.max) + 1.0:
        count = binomial(n, k)
        if count <= sys.float_info.max:
            return float(count)
    raise ValueError(f"C({n},{k}) vertices exceed the float range "
                     f"(about {sys.float_info.max:.1e})")


def _check_k3_params(n: int) -> None:
    """Validate n for the k = 3 perturbation picture: an integer n >= 6."""
    if not isinstance(n, numbers.Integral) or n < 6:
        raise ValueError(f"the k=3 analysis requires integer n >= 6, got {n}")
    _check_reduced_params(n, 3)


def _check_gamma(gamma: float) -> None:
    """Validate a jumping rate: finite and non-negative (0 leaves the oracle)."""
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")


def _check_positive_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")


def _check_model(n: int, k: int, gamma: float) -> None:
    """The search Hamiltonian's input rules, in order: gamma, (n, k), and a
    gamma whose product with the degree k(n-k) overflows.  The model forms
    the energies -gamma*theta_j, and |theta_j| <= theta_0 = k(n-k); every
    entry of the reduced adjacency is at most the degree too.  The degree is
    at most N = C(n,k), so it is a float once (n, k) pass."""
    _check_gamma(gamma)
    _check_reduced_params(n, k)
    if not math.isfinite(gamma * float(k * (n - k))):
        raise ValueError(f"gamma={gamma} overflows the J({n},{k}) Hamiltonian")


def _check_vertex_cap(n: int, k: int, cap: int) -> int:
    """Validate 1 <= k < n and return C(n,k), refusing a count above ``cap``.

    The lower bound C(n,k) >= (n/m)^m, m = min(k, n-k), refuses a count more
    than 2^64 times the cap before the exact count is computed, which takes
    most of a minute at m ~ 1e6.
    """
    _check_params(n, k)
    m = min(k, n - k)
    if m * (math.log(n) - math.log(m)) > math.log(max(cap, 1)) + 64 * math.log(2):
        raise VertexCapError(None, cap)
    n_vertices = binomial(n, k)
    if n_vertices > cap:
        raise VertexCapError(n_vertices, cap)
    return n_vertices


def _check_steps(steps) -> None:
    """Validate a grid size: an integer >= 2 that a float64 array can hold."""
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps}")
    if steps > sys.maxsize // 8:  # the most float64s numpy addresses
        raise ValueError(f"a grid of {steps} points is too large to address")


def _grid(lo: float, hi: float, points: int) -> Iterator[float]:
    """``np.linspace(lo, hi, points)``, bit for bit, one point at a time:
    lo + i*step, ending at hi."""
    div = points - 1
    step = (hi - lo) / div
    for i in range(div):
        # numpy's branch for a step that underflows
        yield i / div * (hi - lo) + lo if step == 0 else i * step + lo
    yield hi


def _check_phases(energy: float, t_max: float) -> None:
    """Validate the phases up to t_max, given max|E|: max|E| * t_max is finite."""
    if not math.isfinite(energy * t_max):
        raise ValueError(f"phases E*t overflow at t_max={t_max}")


def _check_grid(t_max: float, steps) -> None:
    """Validate a time grid [0, t_max] of ``steps`` points, in this order;
    ``_check_phases`` checks E * t_max once E is known."""
    _check_steps(steps)
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")


def class_sizes(n: int, k: int) -> list[int]:
    """Sizes |d_i| = C(k,i) * C(n-k,i) of the k+1 distance classes.

    Requires n >= 2k so that all k+1 classes are nonempty.  The sizes sum
    to C(n,k).
    """
    _check_class_params(n, k)
    return [binomial(k, i) * binomial(n - k, i) for i in range(k + 1)]


def predicted_peak_time(n: int, k: int) -> float:
    """Time pi*sqrt(N)/2 at which the marked amplitude should peak.

    Raises ValueError when N = C(n,k) does not fit in a float.
    """
    return math.pi * math.sqrt(_check_reduced_params(n, k)) / 2.0


def scheme_spectrum(n: int, k: int) -> tuple[list[int], list[int]]:
    """Exact eigenvalues theta_j and multiplicities m_j of A(J(n,k)), j = 0..k."""
    _check_reduced_params(n, k)
    n, k = int(n), int(k)
    theta = [(k - j) * (n - k - j) - j for j in range(k + 1)]
    binomials = [1]
    for j in range(1, k + 1):
        binomials.append(binomials[-1] * (n - j + 1) // j)
    mult = [1] + [b - a for a, b in zip(binomials, binomials[1:])]
    return theta, mult


@functools.lru_cache(maxsize=64)
def _pole_balance(n: int, k: int, o: int) -> Fraction:
    """sum_{j != o} m_j / (N (D_j - D_o)), exactly: at this rate pole o's own
    term of the secular function balances the others (at o = 0 it is S_1)."""
    from fractions import Fraction  # 2.3 ms that analyze-pt and early refusals skip

    theta, mult = scheme_spectrum(n, k)
    return sum(Fraction(m, theta[o] - t) for j, (t, m) in enumerate(zip(theta, mult))
               if j != o) / sum(mult)  # the m_j add up to N = C(n,k)


def critical_rate(n: int, k: int) -> Fraction:
    """S_1 = (1/N) sum_{j>=1} m_j / D_j, exactly, with D_j = j(n-j+1).

    In powers of 1/n, S_1 = 1/(kn) + (k^2-k+1)/(k(k-1)n^2) + O(n^-3) for
    k >= 2; at k = 3 the first two terms are the closed form 1/(3n) +
    7/(6n^2), and the n^-3 coefficient is 29/6.
    """
    return _pole_balance(n, k, 0)


def gamma_c_formula_k3(n: int) -> float:
    """Closed-form critical jumping rate 1/(3n) + 7/(6n^2) for k = 3."""
    _check_k3_params(n)
    return 1.0 / (3.0 * n) + 7.0 / (6.0 * n * n)


def _root(phi, lo: float, hi: float, x: float) -> float:
    """The root of phi in (lo, hi), where phi falls through zero, by
    safeguarded steps from x, or from the midpoint when x is not inside.

    ``phi`` returns (value, correction): the step is x - correction, a Newton
    step when the correction is value/slope.  Each evaluation shrinks the
    bracket; a step that leaves it, or that would not halve the step before
    last, is replaced by the bracket's midpoint (Press et al., rtsafe), so
    the bracket at least halves every two steps.
    """
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    last = hi - lo
    while True:
        f, correction = phi(x)
        if f == 0.0:
            return x
        if f < 0.0:
            hi = x
        else:
            lo = x
        before_last, last = last, correction
        if abs(last) <= 4.0 * sys.float_info.epsilon * abs(x):
            return x - last
        step = x - last
        if not lo < step < hi or abs(2.0 * last) > abs(before_last):
            step = 0.5 * (lo + hi)
            last = step - x
            if step in (lo, hi):
                return x
        x = step


def _pole_row(z2: list[float], gaps: list[float], o: int
              ) -> list[tuple[float, float, float, float]]:
    """Row o of the secular equation: (z_j^2, p_j, 1/p_j, z_j^2/z_o^2) for the
    poles p_j measured from pole o, with 0 for 1/p_o."""
    return [(zj, pj, 1.0 / pj if pj else 0.0, zj / z2[o]) for zj, pj in zip(z2, gaps)]


def _pole_start(h: float, poles: list[tuple[float, float, float, float]]
                ) -> tuple[float, float]:
    """The roots t_0 < 0 < t_1 of h + z_0^2/t - c t, c = sum_j z_j^2/p_j^2: the
    secular function beside pole 0 with its other terms to first order in t.
    For large N they are close to the two roots beside the pole, and start
    their searches; where c underflows, one is infinite, and ``_root`` starts
    from the midpoint instead.
    """
    zo = poles[0][0]
    c = sum(zj * ipj * ipj for zj, _, ipj, _ in poles)
    near = abs(h) + math.sqrt(h * h + 4.0 * c * zo)
    far = near / (2.0 * c) if c else math.inf
    near = 2.0 * zo / near if near else math.inf
    return (-near, far) if h >= 0.0 else (-far, near)


def _balance(eta: float, s1: float, d: list[int], z2: list[float]
             ) -> tuple[float, float]:
    """log(q_1/q_0) and the balance |<s|psi_0>|^2 - |<s|psi_1>|^2 at eta < 0.

    q_i = (1 - o_i)/o_i, o_i = |<s|psi_i>|^2, for the offsets t_0 in (-1, 0) and
    t_1 in (0, p_1/2) of the roots from pole 0, p_j = gamma*D_j.  Below S_1 <
    1/D_1, p_1 < 1, and the secular function at p_1/2 is negative while gamma <
    H = (1/N) sum_j m_j/(D_j - D_1/2) = S_1 + (n-3)/(nN) + (1/N) sum_{j>=2} m_j
    D_1/(2 D_j (D_j - D_1/2)): S_1 on K_3, else measured >= S_1 (1 + 2.5e-3).
    """
    gamma, h = s1 * (1.0 + eta), eta / (1.0 + eta)
    row = _pole_row(z2, [gamma * dj for dj in d], 0)
    t0, t1 = _pole_start(h, row)
    roots = [_root(_pole_step(h, row, 0, 0), -1.0, 0.0, t0),
             _root(_pole_step(h, row, 0, 1), 0.0, 0.5 * row[1][1], t1)]
    q = [t ** 2 * sum(zj / (pj - t) ** 2 for zj, pj, _, _ in row[1:]) / row[0][0]
         for t in roots]
    return math.log(q[1]) - math.log(q[0]), 1.0 / (1.0 + q[0]) - 1.0 / (1.0 + q[1])


def gamma_c_numeric(n: int, k: int) -> CriticalGammaResult:
    """The rate at which |s> is equally supported on the two lowest eigenstates.

    The balance point eta* is found by secant steps on log(q_1/q_0), nearly
    linear in eta around it, from eta = -1/N, the balance point to leading
    order (on K_n it is -1/(n-1) exactly), inside a bracket that starts as
    (-1, 0), shrinks with each evaluation and bisects where a step leaves it.
    It ends when a step would move eta by at most two ulps, or when the
    balance is at rounding level and the step would not change the rate: at
    large N double precision cannot place eta* to its last bits, but every
    eta it cannot tell apart rounds to the same rate.  J(2,1) balances only
    at gamma = 0 (eta = -1) and is refused with SearchBracketError.

    eta* < 0: at S_1 (h = 0) a root t_i beside pole 0 has z_0^2 = t_i^2 G(t_i),
    G(t) = sum_{j>=1} z_j^2/(p_j (p_j - t)); so q_i = K(t_i)/G(t_i), K(t) =
    sum_{j>=1} z_j^2/(p_j - t)^2, a positive-weight mean of p_j/(p_j - t_i),
    below 1 at t_0 < 0 and above 1 at t_1 > 0: q_0 < 1 < q_1.
    """
    n_vertices = _check_reduced_params(n, k)
    if n_vertices <= 2.0:
        raise SearchBracketError(
            f"overlap balance has no sign change for gamma > 0 (J({n},{k}) "
            "balances only at gamma = 0)")
    from fractions import Fraction

    theta, mult = scheme_spectrum(n, k)
    rate = critical_rate(n, k)
    d = [theta[0] - t for t in theta]
    count = sum(mult)
    z2 = [m / count for m in mult]
    r = math.sqrt(n_vertices)
    s1 = float(rate)

    def rounded(eta: float) -> float:
        return float(rate * (1 + Fraction(eta)))

    lo, hi = -1.0, 0.0
    eta, prev = -1.0 / n_vertices, None
    while True:
        f, residual = _balance(eta, s1, d, z2)
        if f == 0.0:
            break
        if f < 0.0:
            lo = eta
        else:
            hi = eta
        if prev is None:  # near eta*, log(q_1/q_0) ~ 4 asinh(eta r / 2)
            step = eta - f / (2.0 * r)
        elif f != prev[1]:
            step = eta - f * (eta - prev[0]) / (f - prev[1])
        else:
            step = math.inf
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - eta) <= 2.0 * sys.float_info.epsilon * abs(eta) or (
                abs(f) <= 16.0 * sys.float_info.epsilon
                and rounded(step) == rounded(eta)):
            break
        prev, eta = (eta, f), step
    return CriticalGammaResult(rounded(eta), residual)


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
    gamma - sum_j z_j^2/(p_j - t), p_j = D_j - D_o.  Row o of ``poles``
    holds (z_j^2, p_j, 1/p_j, z_j^2/z_o^2), with 0 for 1/p_o; ``consts[o]``
    is ``_pole_balance(n, k, o)`` summed in floats, and ``halves[i]`` the sum
    at the point halfway from pole i down to pole i-1.
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
    poles = [_pole_row(z2, [float(dj - do) for dj in d], o) for o, do in enumerate(d)]
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
    of LAPACK's dlaed4 ("middle way") as its correction; below the lowest
    pole (i = 0, o = 0), with the one-pole step of ``_lowest_step``.

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
        if not i:  # no pole below: b = -t, and qb is -t times the slope
            den = f + qb
            return f, (t * f / den if den else math.inf)
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


def _checked(spectrum: SecularSpectrum, k: int, r: float) -> SecularSpectrum:
    """``spectrum``, once both its overlap sums are within 4(k+1) eps of 1 and
    its weights' sum within 1e-15 of 1/sqrt(N) = 1/r; else ValueError naming
    the sum.  The weights need an absolute bound: near S_1 the two largest,
    near +-1/2, cancel to 1/sqrt(N)."""
    bound = 4.0 * (k + 1) * sys.float_info.epsilon
    for name, values, target, tolerance in (
            ("overlap_s", spectrum.overlap_s, 1.0, bound),
            ("overlap_w", spectrum.overlap_w, 1.0, bound),
            ("weights", spectrum.weights(), 1.0 / r, 1e-15)):
        error = math.fsum(values) - target
        if not abs(error) <= tolerance:
            raise ValueError(f"secular spectrum FAILED: sum of {name} off by "
                             f"{error:.3e}, above tolerance {tolerance:.1e}")
    return spectrum


def secular_spectrum(n: int, k: int, gamma: float) -> SecularSpectrum:
    """The k+1 eigenvalues of the search Hamiltonian, ascending, with the
    squared overlaps of their eigenvectors with |s> and |w>.

    ``gamma`` is a float or, for an exact eta, a ``Fraction``.  Root 0 lies
    in [-1, 0) from the pole -gamma*theta_0, and root i >= 1 between the
    poles i-1 and i, within 1 below pole i.  Near pole o, the secular
    function's value without the pole's own term, h, is a difference of two
    nearly equal numbers; where that loses more than six bits, h is rounded
    once from exact fractions: eta/(1+eta) at pole 0, and gamma minus
    ``_pole_balance`` at the others.  The roots take the two-pole step of
    ``_pole_step``, in units of sigma = min(gamma, 1), so that neither a
    small nor a large gamma pushes an offset out of the float range.  For
    -1/2 <= eta <= 1 the roots taken from pole 0 are solved as the balance
    search solves them, in units of one from the exact eta/(1+eta), root 0
    with the one-pole step of ``_pole_step`` (elsewhere, ``_lowest_step``'s).

    At gamma = 0, H is -|w><w|: the eigenvalue -1 with |w>, then k zeros
    (-0) whose eigenvectors are taken to be the other distance states, as
    the eigensolver of the distance basis returns them.  Every spectrum,
    that one included, passes ``_checked`` before it is returned.
    """
    _check_model(n, k, gamma)
    scheme = _scheme(n, k)
    theta, d, z2, r = scheme.theta, scheme.d, scheme.z2, scheme.r
    if gamma == 0:
        parts = [math.sqrt(float(size)) / r for size in class_sizes(n, k)]
        return _checked(SecularSpectrum([-1.0] + [-0.0] * k, [p * p for p in parts],
                                        [1.0] + [0.0] * k, [-1.0] + [0.0] * k),
                        k, r)
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
        from it in units of sigma: within 1 below pole i, or from pole i-1
        (a bound 1 below pole i can round past a root there, as on K_n at
        S_1) when the secular function is not positive halfway."""
        gap = scale * (d[i] - d[i - 1])
        low, half = max(-gap, -1.0 / sigma), -0.5 * gap
        if low < half and gamma <= scheme.halves[i]:
            return i - 1, 0.0, -half
        return i, max(low, half), 0.0

    # Root 0, in units of one, where h at pole 0 is eta/(1+eta)
    lowest = _pole_row(z2, [gamma * dj for dj in d], 0)
    window = 0.5 * s1 <= gamma <= 2.0 * s1
    if window:
        h0 = float(1 - scheme.rate / exact_gamma)
        t, phi = _pole_start(h0, lowest)[0], _pole_step(h0, lowest, 0, 0)
    else:  # where 1/(gamma p_j) may overflow, and |h0| > 1/2
        h0 = 1.0 - s1 / gamma
        t, phi = -z2[0] / h0, _lowest_step(lowest)
    add(0, 1.0, _root(phi, -1.0, 0.0, t), lowest)
    for i in range(1, k + 1):
        o, lo, hi = nearest(i)
        if o == 0 and window:  # in units of sigma = gamma, f can underflow
            unit, poles, h, hi = 1.0, lowest, h0, sigma * hi
        else:
            unit, poles = sigma, scheme.poles[o]
            if scale != 1.0:
                poles = [(zj, scale * pj, ipj / scale, wj) for zj, pj, ipj, wj in poles]
            h = (gamma - scheme.consts[o]) / scale
            if abs(h) < sigma / 64.0:  # rounded from the exact value instead
                h = float((exact_gamma - _pole_balance(n, k, o)) / Fraction(scale))
        t = _pole_start(h, poles)[1] if o == 0 else -z2[o] / h if h else math.inf
        add(o, unit, _root(_pole_step(h, poles, o, i), lo, hi, t), poles)
    return _checked(result, k, r)


def _jacobi(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (columns) of a small symmetric matrix by
    cyclic Jacobi rotations, each skipped where the entry is negligible
    beside both diagonal entries of its pair (Numerical Recipes' jacobi)."""
    m = len(a)
    v = [[float(i == j) for j in range(m)] for i in range(m)]
    for _ in range(64):
        rotated = False
        for p, q in itertools.combinations(range(m), 2):
            g = 100.0 * abs(a[p][q])
            if abs(a[p][p]) + g == abs(a[p][p]) and abs(a[q][q]) + g == abs(a[q][q]):
                continue
            rotated = True
            theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            for row in a + v:  # the columns of A and V, then the rows of A
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                          [s * x + c * y for x, y in zip(a[p], a[q])])
            a[p][q] = a[q][p] = 0.0
        if not rotated:
            return [a[i][i] for i in range(m)], v
    raise ValueError("the Jacobi rotations did not converge")
