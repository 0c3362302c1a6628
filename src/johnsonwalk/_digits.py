"""Float64 columns as CSV rows, each value byte-identical to ``'%.17g'``.

``formatter`` serves ``output.write_csv`` for a table whose columns are
all float64, once numpy is loaded: it takes the columns as float64 arrays
once per table, and turns the rows of each chunk ``output`` asks for into
text with whole-array numpy operations.  The module imports numpy only.

Digits.  With e the decimal exponent of |x|, y = |x| * 10^(16 - e) lies in
[1e16, 1e17).  The power of ten is a pair of doubles (hi, lo) whose sum is
10^(16 - e) to within 2^-106, built exactly with integer arithmetic;
|x| * hi is a double plus an exact error term by Dekker's product (Numer.
Math. 18, 224 (1971)) with Veltkamp's 2^27 + 1 split, so y is known to
within 1e-14.  When y's fraction is further than 1e-9 from one half,
rounding y half-even gives the 17 digits D exactly, as an int64.

Layout.  Each value becomes 13 four-byte words, NUL-padded:

    [sign, first digit][16 integer digits, right-aligned][point, zeros]
    [first digit][16 fraction digits, left-aligned][e+XX, separator]

The integer and the fraction are D cut where ``%g`` puts the point (fixed
notation for -4 <= e <= 16, else one integer digit and an exponent); each
four-digit group is one word from a table of "0000" .. "9999" in variants
with leading or trailing zeros as NULs, which drops the zeros ``%g`` drops,
and the point with them when no fraction is left.  The words of a chunk
lie in output order, and its text is one selection of the non-NUL bytes;
the NULs come in runs, which keeps that selection cheap.

Fallback.  A value this does not certify is formatted by ``'%.17g'`` itself:
NaN, an infinity, one outside [1e-280, 1e280] other than a zero, one
within 1e-9 of a tie, and one next to a power of ten, where e may be off by
one.
"""

from __future__ import annotations

import numpy as np

#: Decimal exponents the digit step covers: |x| in [1e-280, 1e280] has
#: floor(log10 |x|) in [-281, 280], and for those e every partial product
#: of Dekker's method is a normal double.
_E_MIN, _E_MAX = -281, 281

#: Veltkamp's splitter for float64: 2^27 + 1.
_SPLIT = 134217729.0

_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _powers_of_ten() -> np.ndarray:
    """Rows hi, lo, hi's high half and hi's low half, for e = ``_E_MIN`` ..
    ``_E_MAX``, of 10^(16 - e) = hi + lo: hi is it rounded to a double, lo
    the exact rest rounded, and hi is split for Dekker's product."""
    pairs = []
    for s in range(16 - _E_MIN, 15 - _E_MAX, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        pairs.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    table = np.empty((4, len(pairs)))
    table[:2] = np.transpose(pairs)
    split = table[0] * _SPLIT
    table[2] = split - (split - table[0])
    table[3] = table[0] - table[2]
    return table


_TENS = _powers_of_ten()


def _words(strings) -> np.ndarray:
    """Byte strings of at most four bytes as NUL-padded 4-byte words."""
    return np.frombuffer(b"".join(s.ljust(4, b"\0") for s in strings), np.uint32)


def _quads() -> np.ndarray:
    """"0000" .. "9999" four times over: as they are, with leading zeros as
    NULs, the same but "0" for 0, and with trailing zeros as NULs."""
    n = np.arange(10000)[:, None]
    chars = (n // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    leading = n < np.array([1000, 100, 10, 1])
    last = n < np.array([1000, 100, 10, 0])
    trailing = n % np.array([10000, 1000, 100, 10]) == 0
    table = np.concatenate([chars, chars * ~leading, chars * ~last, chars * ~trailing])
    return table.view(np.uint32).ravel()


_QUADS = _quads()
#: Offsets of the variants in ``_QUADS``.
_LEADING, _LAST, _TRAILING = 10000, 20000, 30000

#: Word 0: the sign, and the integer's first digit unless it is 0.
_SIGN_DIGIT = _words([sign + b"\0\0" + (b"%d" % d if d else b"")
                      for sign in (b"\0", b"-") for d in range(10)])
#: Word 5: the point and 0 to 3 zeros after it, or NULs without a fraction.
_POINT = _words([b""] * 4 + [b"." + b"\0" * (3 - z) + b"0" * z for z in range(4)])
#: Word 6: the fraction's first digit, or NULs without a fraction.
_FIRST = _words([b"\0\0\0%d" % d for d in range(10)] + [b""])
#: Words 11 and 12: "e-281" .. "e+281" NUL-padded to 8 bytes, then NULs
#: for fixed notation; the separator goes in the last byte.
_SUFFIXES = np.frombuffer(
    b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(_E_MIN, _E_MAX + 1))
    + bytes(8), np.uint32).reshape(-1, 2).T.copy()
_NO_SUFFIX = _SUFFIXES.shape[1] - 1

#: Words per value.
_WORDS = 13


def _groups(values: np.ndarray) -> tuple[list, list]:
    """The five base-10^4 digit groups of each value below 10^17, the first
    holding one digit, and the value modulo 10^16, 10^12, 10^8 and 10^4."""
    groups, rests = [], []
    for scale in (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4):
        top = values // scale
        values = values - top * scale
        groups.append(top)
        rests.append(values)
    groups.append(values)
    return groups, rests


def _format(x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Lay each value of ``x`` out in the matching column of ``words``, a
    (``_WORDS``, x.size) uint32 array, all but its separator; return the
    indices of the values left to ``'%.17g'``, whose columns the caller
    must overwrite."""
    a = np.abs(x)
    zero = a == 0.0
    inside = (a >= 1e-280) & (a <= 1e280)  # False for NaN and infinities
    a[~inside] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    row = e - _E_MIN
    hi, lo, hi_high, hi_low = (table.take(row) for table in _TENS)

    # y = a * (hi + lo) = product + error + a * lo, to within 1e-14, where
    # product + error = a * hi exactly and product, above 2^53, is whole.
    product = a * hi
    split = a * _SPLIT
    high = split - (split - a)
    low = a - high
    error = ((high * hi_high - product) + high * hi_low + low * hi_high) + low * hi_low
    rest = error + a * lo
    whole = np.floor(rest)
    tail = rest - whole
    digits = product.astype(np.int64) + whole.astype(np.int64) + (tail > 0.5)
    fallback = ~(inside | zero)
    fallback |= np.abs(tail - 0.5) < 1e-9
    # y below 1e16, or rounding up to 1e17: e is one too large or too small.
    fallback |= (product < 1e16) | ((product == 1e16) & (rest < 0.0))
    fallback |= digits >= 10 ** 17
    fallback &= ~zero

    # A zero is "0" after its sign: fixed notation with digits 0.  A value
    # left to the fallback gets digits 0 too, which keeps its words in range.
    digits[fallback | zero] = 0
    e[zero] = -1
    fixed = (e >= -4) & (e <= 16)
    # Digits after the point: all 17 for e < 0, 16 - e for e >= 0 and 16 in
    # exponent notation; the fraction's are moved to the top of 17.
    after = np.minimum(16 - e, 17)
    after[~fixed] = 16
    scale = _POW10.take(after)
    integer = digits // scale
    fraction = (digits - integer * scale) * _POW10.take(17 - after)

    groups, _ = _groups(integer)
    np.take(_SIGN_DIGIT, groups[0] + 10 * np.signbit(x), out=words[0])
    for j in range(1, 4):
        np.take(_QUADS, groups[j] + _LEADING * (integer < 10 ** (20 - 4 * j)),
                out=words[j])
    np.take(_QUADS, groups[4] + _LAST * (integer < 10 ** 4), out=words[4])
    zeros = (-1 - e) * (fixed & (e < 0))
    np.take(_POINT, zeros + 4 * (fraction != 0), out=words[5])
    groups, rests = _groups(fraction)
    np.take(_FIRST, groups[0] + 10 * (fraction == 0), out=words[6])
    for j in range(1, 4):
        np.take(_QUADS, groups[j] + _TRAILING * (rests[j] == 0), out=words[6 + j])
    np.take(_QUADS, groups[4] + _TRAILING, out=words[10])
    row[fixed] = _NO_SUFFIX
    np.take(_SUFFIXES[0], row, out=words[11])
    np.take(_SUFFIXES[1], row, out=words[12])
    return np.flatnonzero(fallback)


def formatter(columns):
    """The formatter of rows [start, stop) of the float64 ``columns`` (1-d
    buffers): it returns their text and how many of their values
    ``'%.17g'`` formatted itself."""
    # Freeing an array this large raises glibc's mmap and trim thresholds,
    # so the chunks' temporaries reuse heap pages instead of faulting in
    # fresh ones.
    np.empty(1 << 21)
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    width = len(columns)
    separators = _words([b"\0\0\0,"] * (width - 1) + [b"\0\0\0\n"])

    def rows(start: int, stop: int) -> tuple[str, int]:
        values = np.empty((stop - start, width))
        for j, column in enumerate(columns):
            values[:, j] = column[start:stop]
        values = values.ravel()
        words = np.empty((_WORDS, values.size), np.uint32)
        left = _format(values, words)
        words[-1].reshape(-1, width)[:] |= separators
        text = words.T.copy().view(np.uint8)
        for i in left.tolist():
            digits = b"%.17g" % values[i]
            text[i, :-1] = 0
            text[i, :len(digits)] = np.frombuffer(digits, np.uint8)
        return str(text[text != 0], "ascii"), len(left)
    return rows
