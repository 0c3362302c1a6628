"""All roots of the secular equation: against the dense eigensolver, an
extended-precision reference, and at rates near the float range's ends."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from johnsonwalk import scheme


def _eigensolver(n, k, gamma):
    """The distance-basis H's spectrum through the dense eigensolver."""
    pytest.importorskip("numpy")
    import reference

    return reference.overlap_spectrum(n, k, gamma)


def test_secular_spectrum_matches_the_eigensolver():
    # Within 1e-13, or within the eigensolver's own error where that is
    # larger: LAPACK's eigenvectors are good to about eps*|H|/gap, and the
    # two lowest eigenvalues are 2/sqrt(N) apart near S_1 (measured: at most
    # 1.6 eps*|H|/gap, at J(38,18), where N = 3.4e10).
    eps = sys.float_info.epsilon
    for n in range(2, 40):
        for k in range(1, n // 2 + 1):
            s1 = float(scheme.critical_rate(n, k))
            for gamma in (0.5 * s1, s1, 2.0 * s1):
                roots = scheme.secular_spectrum(n, k, gamma)
                reference = _eigensolver(n, k, gamma)
                norm = gamma * k * (n - k) + 1.0
                for i, shift in enumerate(roots.shifts):
                    gap = min(abs(shift - other) for j, other in
                              enumerate(roots.shifts) if j != i)
                    tol = max(1e-13, 4.0 * eps * norm / gap)
                    for ours, theirs in zip(roots[:3], reference):
                        assert abs(ours[i] - theirs[i]) <= tol, (n, k, gamma, i)


def _distance_basis(mpmath, n, k, gamma):
    """The distance-basis H at rate ``gamma`` (a Fraction) and |s> in it, as
    mpmath values at the working precision."""
    g = mpmath.mpf(gamma.numerator) / gamma.denominator
    h = mpmath.zeros(k + 1)
    for i in range(k + 1):
        h[i, i] = -g * i * (n - 2 * i)
        if i < k:
            off = -g * (i + 1) * mpmath.sqrt((k - i) * (n - k - i))
            h[i, i + 1] = h[i + 1, i] = off
    h[0, 0] -= 1
    sizes = scheme.class_sizes(n, k)
    return h, [mpmath.sqrt(mpmath.mpf(size) / sum(sizes)) for size in sizes]


def _reference(n, k, gamma, digits):
    """Eigenvalues and overlaps of the distance-basis H from mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        g = mpmath.mpf(gamma.numerator) / gamma.denominator
        h, s = _distance_basis(mpmath, n, k, gamma)
        energies, vectors = mpmath.eigsy(h)
        order = sorted(range(k + 1), key=lambda i: energies[i])
        shifts = [energies[i] + g * k * (n - k) for i in order]
        overlap_s = [mpmath.fsum(vectors[j, i] * s[j] for j in range(k + 1)) ** 2
                     for i in order]
        overlap_w = [vectors[0, i] ** 2 for i in order]
        return ([float(energies[i]) for i in order], [float(x) for x in overlap_s],
                [float(x) for x in overlap_w], [float(x) for x in shifts])


@pytest.mark.parametrize("n,k", [(150000, 3), (150, 20), (2000, 20)])
@pytest.mark.parametrize("rate", ["gamma_c", "float_s1", 0.49, 0.5, 0.7, 2.0, 2.01])
def test_secular_spectrum_matches_extended_precision(n, k, rate):
    # The multiples of the float S_1 are the edges of the window
    # [S_1/2, 2 S_1], where root 0 changes its step, and a rate inside it.
    s1 = scheme.critical_rate(n, k)
    if rate == "gamma_c":
        gamma = scheme.gamma_c_numeric(n, k).gamma
    else:
        gamma = float(s1) * (1.0 if rate == "float_s1" else rate)
    roots = scheme.secular_spectrum(n, k, gamma)
    energies, overlap_s, overlap_w, shifts = _reference(
        n, k, Fraction(gamma), int(math.log10(math.comb(n, k))) + 40)
    eps = sys.float_info.epsilon
    for ours, theirs in zip(roots.energies, energies):
        assert abs(ours - theirs) <= 2.0 * eps * abs(theirs)
    for ours, theirs in zip(roots.shifts, shifts):
        assert abs(ours - theirs) <= 4.0 * eps * abs(theirs)
    # Measured: at most 15 eps relative, even on overlaps of 1e-68.
    for column, reference in ((roots.overlap_s, overlap_s),
                              (roots.overlap_w, overlap_w)):
        for ours, theirs in zip(column, reference):
            assert abs(ours - theirs) <= 64.0 * eps * theirs


@pytest.mark.parametrize("n,k,o", [(2000, 20, 5), (10**7, 4, 2), (10**150, 2, 1)],
                         ids=["2000-20-pole5", "1e7-4-pole2", "1e150-2-pole1"])
def test_secular_spectrum_where_a_pole_balances(n, k, o):
    # At gamma = sum_{j != o} z_j^2/(D_j - D_o), pole o's own term balances
    # the others, and the two roots beside it mix |w> about evenly.  Without
    # the exact balance, overlap_w was off by 0.49 at J(2000,20) and 0.5 at
    # J(1e150,2), while still summing to one.
    theta, mult = scheme.scheme_spectrum(n, k)
    count, d = sum(mult), [theta[0] - t for t in theta]
    gamma = float(sum(Fraction(m, (dj - d[o]) * count)
                      for j, (m, dj) in enumerate(zip(mult, d)) if j != o))
    roots = scheme.secular_spectrum(n, k, gamma)
    reference = _reference(n, k, Fraction(gamma), int(math.log10(count)) + 40)
    for ours, theirs in zip(roots[:3], reference):
        for x, y in zip(ours, theirs):
            assert abs(x - y) <= 1e-15


@pytest.mark.parametrize("n,k,rate", [
    (2000, 20, None), (2000, 20, 10.0), (40, 20, None), (40, 20, 0.1), (200, 100, 1.0),
], ids=["2000-20-s1", "2000-20-10s1", "40-20-s1", "40-20-0.1s1", "200-100-float-s1"])
def test_every_secular_root_is_certified_exactly(monkeypatch, n, k, rate):
    # Each root is found as an offset t from a pole o in units u, as
    # ``_weights`` receives them.  In exact arithmetic, the secular function
    # 1 - sum_j (m_j/N)/(gamma (theta_o - theta_j) - u x) must change sign
    # between x = t - 64 ulps and t + 64 ulps with no pole in between, so a
    # root lies there.  None is the exact S_1, a number the float multiple
    # of it.  This sees roots 2-9 of J(2000,20) at S_1, which lie nearer
    # their pole than one ulp of the shift.  Measured: within 44 ulps, at
    # J(2000,20) and 10 S_1.
    offsets = []
    weights = scheme._weights

    def record(unit, t, poles, zo):
        offsets.append((unit, t))
        return weights(unit, t, poles, zo)

    monkeypatch.setattr(scheme, "_weights", record)
    s1 = scheme.critical_rate(n, k)
    gamma = s1 if rate is None else rate * float(s1)
    spectrum = scheme.secular_spectrum(n, k, gamma)
    theta, mult = scheme.scheme_spectrum(n, k)
    exact, gamma = Fraction(gamma), float(gamma)
    assert len(offsets) == k + 1
    for i, (energy, (unit, t)) in enumerate(zip(spectrum.energies, offsets)):
        o = min(range(k + 1), key=lambda j: abs(-gamma * theta[j] + unit * t - energy))
        gaps = [exact * (theta[o] - tj) for tj in theta]
        u, step = Fraction(unit), 64 * Fraction(math.ulp(t))
        lo, hi = Fraction(t) - step, Fraction(t) + step
        assert not any(lo <= gap / u <= hi for gap in gaps), i

        def secular(x):
            return 1 - sum(m / (gap - u * x) for gap, m in zip(gaps, mult)) / sum(mult)

        assert secular(lo) * secular(hi) < 0, i


@pytest.mark.parametrize("n,k", [(100, 3), (30, 10), (2000, 20)])
def test_secular_curve_matches_extended_precision(n, k):
    # The curve simulate prints at the float S_1, against the walk on the
    # distance-basis H in 60 digits at the same times: both ends, the peak
    # near 2/3 of the grid, and both sides of the anchors at 4096 and 8192.
    # At J(2000,20) no float rate reaches the crossing and p stays below
    # 1e-14, so |amplitude| is held too.  Measured over 216 times of each
    # curve: at most 1.0e-15 in p and 5.6e-16 in |amplitude|, as before the
    # phase tables (7.8e-16 and 4.4e-16).
    mpmath = pytest.importorskip("mpmath")
    pytest.importorskip("numpy")
    from johnsonwalk import linalg

    gamma = float(scheme.critical_rate(n, k))
    t_max = 1.5 * scheme.predicted_peak_time(n, k)
    curve = linalg.secular_curve(scheme.secular_spectrum(n, k, gamma), t_max, 20001)
    picks = [0, 1, 4095, 4096, 4097, 8191, 8192, 13333, 17000, 20000]
    with mpmath.workdps(60):
        h, s = _distance_basis(mpmath, n, k, Fraction(gamma))
        energies, vectors = mpmath.eigsy(h)
        weights = [vectors[0, i] * mpmath.fsum(vectors[j, i] * s[j] for j in range(k + 1))
                   for i in range(k + 1)]
        for j in picks:
            t = mpmath.mpf(float(curve.times[j]))
            amplitude = mpmath.fsum(w * mpmath.expj(-e * t)
                                    for w, e in zip(weights, energies))
            p = curve.probabilities[j]
            assert abs(float(abs(amplitude) ** 2) - p) <= 2e-15, j
            assert abs(float(abs(amplitude)) - math.sqrt(p)) <= 1e-15, j


def test_secular_gap_at_the_exact_critical_rate():
    # gap*sqrt(N)/2 at J(2000,20), as in the ROADMAP's 90-digit table; the
    # gap, 5e-24, is taken from the shifts, since the energies round it away.
    n, k = 2000, 20
    spectrum = scheme.secular_spectrum(n, k, scheme.critical_rate(n, k))
    gap = spectrum.shifts[1] - spectrum.shifts[0]
    assert abs(gap * math.sqrt(math.comb(n, k)) / 2.0 - 0.99998599) <= 1e-6
    assert spectrum.overlap_s[:2] == pytest.approx([0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("n,k", [(7, 3), (2, 1), (40, 20), (100, 1)])
def test_secular_spectrum_at_zero_rate_is_the_eigensolver_s(n, k):
    # H = -|w><w|: the eigensolver returns the distance states themselves.
    roots = scheme.secular_spectrum(n, k, 0.0)
    reference = _eigensolver(n, k, 0.0)
    for ours, theirs in zip(roots[:3], reference):
        assert [(x, math.copysign(1.0, x)) for x in ours] == \
            [(float(x), math.copysign(1.0, x)) for x in theirs]


@pytest.mark.parametrize("n,k", [(10**5, 60), (1029, 514)])
def test_secular_spectrum_in_range_near_the_float_limit(n, k):
    # N is 1.2e218 and 1.4e307: z_j^2 reaches 1/N and the offsets z_j^2.
    s1 = float(scheme.critical_rate(n, k))
    for gamma in (0.5 * s1, s1, 2.0 * s1):
        spectrum = scheme.secular_spectrum(n, k, gamma)
        for column in spectrum:
            assert all(math.isfinite(x) for x in column)
        assert spectrum.shifts == sorted(spectrum.shifts)
        assert spectrum.shifts[0] < 0.0 < spectrum.shifts[1]
        assert all(x > 0.0 for x in spectrum.overlap_w)
        assert abs(math.fsum(spectrum.overlap_s) - 1.0) <= 1e-12
        assert abs(math.fsum(spectrum.overlap_w) - 1.0) <= 1e-12


@pytest.mark.parametrize("n,k", [(10**300, 1), (10**200, 1), (10**154, 2)],
                         ids=["1e300-1", "1e200-1", "1e154-2"])
def test_the_crossing_where_the_rate_is_tiny(n, k):
    # At the exact S_1 of K_1e300, gamma = 1e-300: in its units the secular
    # function beside pole 0 underflows to zero 1e126 times past the root.
    # In units of one, the two roots beside the pole split |s> evenly, as
    # at J(2000,20).
    spectrum = scheme.secular_spectrum(n, k, scheme.critical_rate(n, k))
    assert spectrum.overlap_s[:2] == pytest.approx([0.5, 0.5], abs=1e-12)
    gap = spectrum.shifts[1] - spectrum.shifts[0]
    assert gap * math.sqrt(math.comb(n, k)) == pytest.approx(2.0)


@pytest.mark.parametrize("n,k,gamma", [
    (2, 1, 1e308), (3, 1, 8.5e307), (10, 3, 5e-324), (10**7, 4, 1e-300),
    (10**150, 2, 1e-150), (10**7, 4, 5e-08), (2000, 20, 1e10)],
    ids=["2-1-1e308", "3-1-8.5e307", "10-3-5e-324", "1e7-4-1e-300",
         "1e150-2-1e-150", "1e7-4-5e-08", "2000-20-1e10"])
def test_secular_spectrum_at_extreme_rates(n, k, gamma):
    # Rates where a pole gap overflows, where gamma is subnormal, and where
    # a pole's own term balances the others (J(1e150,2) at 1/n, J(1e7,4) at
    # 2 S_1): the overlaps still sum to one.
    # The shifts from the top pole overflow where its gap does.
    spectrum = scheme.secular_spectrum(n, k, gamma)
    for column in spectrum[:3]:
        assert all(math.isfinite(x) for x in column)
    assert spectrum.energies == sorted(spectrum.energies)
    assert abs(math.fsum(spectrum.overlap_s) - 1.0) <= 1e-12
    assert abs(math.fsum(spectrum.overlap_w) - 1.0) <= 1e-12


def test_weights_sum_to_the_marked_overlap():
    # <w|psi_i><psi_i|s> summed over the roots is <w|s> = 1/sqrt(N), even
    # where the two largest weights, near +-1/2, cancel to 1e-24 (measured:
    # within 1.9 eps over the small graphs).
    eps = sys.float_info.epsilon
    cases = [(n, k) for n in range(2, 30) for k in range(1, n // 2 + 1)]
    for n, k in cases + [(600, 16), (2000, 20), (150000, 3), (200, 100)]:
        s1 = scheme.critical_rate(n, k)
        for gamma in (0.0, 0.5 * float(s1), s1, 2.0 * float(s1)):
            weights = scheme.secular_spectrum(n, k, gamma).weights()
            assert len(weights) == k + 1
            total = math.fsum(weights)
            assert abs(total - 1.0 / math.sqrt(math.comb(n, k))) <= 4.0 * eps, (n, k)


@pytest.mark.parametrize("fault,name", [
    ({"overlap_s": [0.5, 0.5 + 1e-14]}, "overlap_s"),
    ({"overlap_w": [0.5 - 1e-14, 0.5]}, "overlap_w"),
    ({"shifts": [-1.0, 1.0]}, "weights"),
    ({"overlap_s": [0.5, math.nan]}, "overlap_s"),
], ids=["overlap_s", "overlap_w", "weights", "nan"])
def test_a_spectrum_is_refused_by_the_sum_it_fails(fault, name):
    # k = 1: the overlaps each sum to 1 within 8 eps, and the weights, here
    # 1/2 + 1/2, to 1/sqrt(N) = 1 within 1e-15.
    spectrum = scheme.SecularSpectrum([], [0.5, 0.5], [0.5, 0.5], [-1.0, -1.0])
    assert scheme._checked(spectrum, 1, 1.0) is spectrum
    with pytest.raises(ValueError, match=f"sum of {name} off by "):
        scheme._checked(spectrum._replace(**fault), 1, 1.0)


def test_a_spectrum_at_zero_rate_is_checked(monkeypatch):
    # One vertex more in the last distance class moves the sum of the
    # overlaps with |s> by 1/N.
    sizes = scheme.class_sizes(100, 3)
    monkeypatch.setattr(scheme, "class_sizes", lambda n, k: sizes[:-1] + [sizes[-1] + 1])
    with pytest.raises(ValueError, match="sum of overlap_s off by 6.184e-06"):
        scheme.secular_spectrum(100, 3, 0.0)


@st.composite
def _scan_rates(draw):
    """(n, k, gamma) with k <= 40 and n log-uniform from 2k to 1e7, where
    C(n,k) stays below 1e233; gamma is log-uniform in [1e-14, 1e6], or
    within a relative 1e-16 .. 0.1 of S_1 when a draw in [0, 1) is below
    0.4."""
    k = draw(st.integers(1, 40))
    n = max(2 * k, round(2 * k * (1e7 / (2 * k)) ** draw(st.floats(0.0, 1.0))))
    if draw(st.floats(0.0, 1.0, exclude_max=True)) < 0.4:
        offset = 10.0 ** draw(st.floats(-16.0, -1.0))
        sign = draw(st.sampled_from((-1.0, 1.0)))
        return n, k, float(scheme.critical_rate(n, k)) * (1.0 + sign * offset)
    return n, k, 10.0 ** draw(st.floats(-14.0, 6.0))


@given(_scan_rates())
@settings(max_examples=300, deadline=None)
def test_secular_sums_hold_over_the_scan_domain(rates):
    # Measured over 39 000 uniform draws of this domain and 20 000 of this
    # strategy's: at most 1.0 (k+1) eps for overlap_s, 1.5 (k+1) eps for
    # overlap_w and 4.0e-16 for the weights, so the bounds leave margins of
    # 4, 2.7 and 2.5.  The weights need an absolute bound: their sum is
    # 1/sqrt(N), down to 1e-116 here, and near S_1 the two largest weights,
    # near +-1/2, cancel to it.
    n, k, gamma = rates
    spectrum = scheme.secular_spectrum(n, k, gamma)
    eps = sys.float_info.epsilon
    assert abs(math.fsum(spectrum.overlap_s) - 1.0) <= 4.0 * (k + 1) * eps
    assert abs(math.fsum(spectrum.overlap_w) - 1.0) <= 4.0 * (k + 1) * eps
    total = math.fsum(spectrum.weights())
    assert abs(total - 1.0 / math.sqrt(math.comb(n, k))) <= 1e-15
