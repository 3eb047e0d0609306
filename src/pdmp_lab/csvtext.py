"""CSV rows formatted column by column: the bytes of "%.17g" and "%d", by numpy arithmetic.

``encode_rows`` gives, byte for byte, the text that one ``"%.17g"`` per float
and one ``"%d"`` per integer would give, with a comma between cells and a
newline after each row.

A float x with 1e-4 <= |x| < 1e16 is written by "%.17g" in fixed notation:
the 17 significant digits D of |x| rounded half-even, the decimal point after
the first X + 1 of them (X = floor(log10|x|)), and trailing fraction zeros
dropped. These digits are computed exactly:

- X is estimated by floor(log10|x|). p = |x| * 10^(16 - X) is rounded, but
  10^q is an exact double for q <= 22, so Dekker's exact product (the operands
  split at 2^27 + 1) gives the rounding error e, and p + e is the exact
  product. X moves by one where p + e lies outside [1e16, 1e17). The test is
  on p + e, never on p alone: 0.099999999999999992 * 1e17 rounds to exactly
  1e16, while the exact product lies below it.
- p >= 1e16 > 2^53 is an even integer, so the half-even rounding of p + e is
  p plus the half-even rounding of e: D = int64(p) + int64(rint(e)).
- D never reaches 10^17: that would need |x| below a power of ten 10^m by
  less than 5e-18 * 10^m, and no double in this range is that close (10^0 to
  10^16 are doubles and one ulp below them is at least 1.1e-16 of them; the
  largest doubles below 10^-3, 10^-2 and 10^-1 are checked in the tests).
- With k = 16 - X fraction digits (1 to 20), the integer part D // 10^k and
  the first 20 fraction digits are cut into 4-digit groups, point-aligned.

An integer is written from the 4-digit groups of its absolute value. Any other
value goes through "%.17g" or "%d" on its own: 0, -0.0, NaN, +-inf,
subnormals, the scientific-notation range, int64's minimum and a uint64 past
int64's maximum.

The text is assembled from 4-byte words, one per group, sign, point and
separator, taken from ``_WORDS``; NUL bytes in a word are padding (the leading
zeros of an integer part, the trailing zeros of a fraction, an absent sign or
point) and are removed from the block in one pass.
"""

from __future__ import annotations

import numpy as np


def _word_table() -> np.ndarray:
    """The words of every 4-digit group: in full, with its leading zeros as NUL
    (a lone 0 kept) and with its trailing zeros as NUL (0 all NUL); then the
    sign, point, comma and newline."""
    group = np.arange(10000)
    digits = group[:, None] // np.array([1000, 100, 10, 1]) % 10
    full = (digits + ord("0")).astype(np.uint8)
    place = np.arange(4)
    first = np.where(group > 0, (digits != 0).argmax(1), 3)
    last = np.where(group > 0, 3 - (digits[:, ::-1] != 0).argmax(1), -1)
    lead = np.where(place >= first[:, None], full, np.uint8(0))
    trail = np.where(place <= last[:, None], full, np.uint8(0))
    marks = np.zeros((4, 4), np.uint8)
    marks[:, 0] = np.frombuffer(b"-.,\n", np.uint8)
    return np.concatenate([full, lead, trail, marks]).view(np.uint32).ravel()


_WORDS = _word_table()
_FULL, _LEAD, _TRAIL = 0, 10000, 20000
_BLANK = _TRAIL  # the trailing-zero word of group 0 is all NUL
_MINUS, _POINT, _COMMA, _NEWLINE = 30000, 30001, 30002, 30003

_SPLIT = 2.0 ** 27 + 1
_POW = 10.0 ** np.arange(23)
_POW_HI = _POW * _SPLIT - (_POW * _SPLIT - _POW)
_POW_LO = _POW - _POW_HI
# Tables by k = 16 - X, the count of D's digits after the point: the divisor that
# leaves D's integer part, and the divisor and scales that cut its fraction into the
# first 8 and the next 12 of 20 digits.
_K = np.arange(21)
_INT_DIV = 10 ** np.minimum(_K, 17)  # D < 10^17
_HEAD_DIV = 10 ** np.maximum(_K - 8, 0)
_HEAD_MUL = 10 ** np.maximum(8 - _K, 0)
_TAIL_MUL = 10 ** np.minimum(20 - _K, 12)


def _exact_product(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(a * 10^q) and its exact rounding error e (Dekker's product)."""
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    pow_hi, pow_lo = _POW_HI[q], _POW_LO[q]
    p = a * _POW[q]
    e = ((a_hi * pow_hi - p) + a_hi * pow_lo + a_lo * pow_hi) + a_lo * pow_lo
    return p, e


def _groups(v: np.ndarray, n: int) -> list[np.ndarray]:
    """The last n 4-digit groups of v >= 0, most significant first."""
    out = []
    for _ in range(n):
        q = v // 10000
        out.append(v - q * 10000)
        v = q
    return out[::-1]


def _integer_words(groups: list[np.ndarray]) -> list[np.ndarray]:
    """Words of an integer from its groups: leading zeros NUL, a lone 0 kept."""
    seen = np.zeros(groups[0].shape, bool)
    words = []
    for g in groups[:-1]:
        nonzero = g != 0
        words.append(g + np.where(seen, _FULL, np.where(nonzero, _LEAD, _BLANK)))
        seen |= nonzero
    words.append(groups[-1] + np.where(seen, _FULL, _LEAD))
    return words


def _fraction_words(groups: list[np.ndarray]) -> list[np.ndarray]:
    """The point and the words of a fraction's groups: trailing zeros NUL, and
    the point too when every digit is 0."""
    later = np.zeros(groups[0].shape, bool)
    words = []
    for h in groups[::-1]:
        words.append(h + np.where(later, _FULL, _TRAIL))
        later |= h != 0
    return [np.where(later, _POINT, _BLANK)] + words[::-1]


def _float_cell(x: np.ndarray):
    """Words of "%.17g" of each float, and the rows left to the per-value format."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1e15)
    X = np.floor(np.log10(a)).astype(np.int64)
    np.clip(X, -4, 15, out=X)
    p, e = _exact_product(a, 16 - X)
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if off.size:  # near a power of 10: move X where the exact product is outside [1e16, 1e17)
        p_off, e_off = p[off], e[off]
        X[off] += (((p_off > 1e17) | ((p_off == 1e17) & (e_off >= 0))).astype(np.int64)
                   - ((p_off < 1e16) | ((p_off == 1e16) & (e_off < 0))))
        p[off], e[off] = _exact_product(a[off], 16 - X[off])
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    k = 16 - X
    div = _INT_DIV[k]
    integer = D // div
    fraction = D - integer * div
    div = _HEAD_DIV[k]
    head = fraction // div
    tail = (fraction - head * div) * _TAIL_MUL[k]
    slow = np.flatnonzero(~fast)
    # ceil((X + 1) / 4) + ceil((16 - X) / 4) >= 5 group words and the point: room
    # for the 24 bytes of the longest per-value text, "-2.2250738585072014e-308"
    n_int = -(-max(int(X.max()) + 1, 1) // 4)
    n_frac = -(-int(k.max()) // 4)
    words = (_sign(x < 0) + _integer_words(_groups(integer, n_int))
             + _fraction_words((_groups(head * _HEAD_MUL[k], 2) + _groups(tail, 3))[:n_frac]))
    return words, slow, [b"%.17g" % value for value in x[slow].tolist()]


def _int_cell(c: np.ndarray):
    """Words of "%d" of each integer, and the rows left to the per-value format."""
    v = c.astype(np.int64)
    fast = v >= 0 if c.dtype.kind == "u" else v != np.iinfo(np.int64).min
    slow = np.flatnonzero(~fast)
    a = np.abs(np.where(fast, v, 0))
    # 5 group words where a value is left to "%d": room for its 20 digits
    n_int = 5 if slow.size else -(-len(str(int(a.max()))) // 4)
    words = _sign(v < 0) + _integer_words(_groups(a, n_int))
    return words, slow, [b"%d" % value for value in c[slow].tolist()]


def _sign(negative: np.ndarray) -> list[np.ndarray]:
    """The sign word, if any value is negative."""
    return [np.where(negative, _MINUS, _BLANK)] if negative.any() else []


def encode_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV text of equal-length columns of at least one row: integers as
    "%d", other columns as floats in "%.17g"."""
    cells = [(_int_cell(c) if np.issubdtype(c.dtype, np.integer)
              else _float_cell(np.asarray(c, dtype=np.float64))) for c in columns]
    # one row of words per word of a cell and per separator, then one row of text per CSV row
    words = np.empty((sum(len(cell) + 1 for cell, _, _ in cells), len(columns[0])), np.uint32)
    at = 0
    spans = []
    for cell, _, _ in cells:
        spans.append((4 * at, 4 * (at + len(cell))))
        for w in cell:
            _WORDS.take(w, out=words[at])
            at += 1
        words[at] = _WORDS[_COMMA]
        at += 1
    words[-1] = _WORDS[_NEWLINE]
    text = np.ascontiguousarray(words.T).view(np.uint8)
    for (lo, hi), (_, slow, fallback) in zip(spans, cells):
        if fallback:
            text[slow, lo:hi] = np.array(fallback, dtype=f"S{hi - lo}")[:, None].view(np.uint8)
    return text.tobytes().translate(None, b"\0")
