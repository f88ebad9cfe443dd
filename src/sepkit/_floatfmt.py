"""``float.__repr__`` for whole float64 arrays, in numpy integer arithmetic.

``repr_join(values, sep)`` is ``sep.join(map(float.__repr__, values))``
byte for byte for finite doubles. It costs a few hundred nanoseconds per
value, a third to a half of CPython's bignum ``repr``, plus a fixed cost
per call, so ``stateio`` calls it for long lists alone.

Digits: the Schubfach algorithm (R. Giulietti, "The Schubfach way to render
doubles", 2020; ``DoubleToDecimal`` in the JDK since 19) gives the shortest
decimal that rounds back to the double, the closest one when several are
that short, and the even one on a tie. Its two Java-only rules are left
out: Java prints at least two digits (``4.9E-324``), Python prints the
shortest (``5e-324``). Layout, as ``float.__repr__``: exponent form iff the
decimal point position is <= -4 or > 16, with a sign and at least two
exponent digits; ``.0`` on integral fixed-form values; ``-0.0``.

Text is assembled in uint64 words, eight little-endian bytes each, one row
of words per value; NUL bytes pad each piece and are dropped at the end.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 14  # values per pass: bounded temporaries that stay in cache

_LOW32 = 0xFFFF_FFFF
_LOW63 = (1 << 63) - 1
_ASCII0 = 0x3030_3030_3030_3030  # b"0" in every byte
_HIDDEN = 1 << 52  # the implicit leading bit of a normal significand
_Q_MIN = -1074  # binary exponent of the smallest subnormal
_E_MIN, _E_MAX = -324, 308  # decimal exponents of doubles' shortest forms
_NO_POINT = 24  # a point position past the three digit words
_LONGEST = 24  # bytes in the longest repr, -2.2250738585072014e-308


def _word(text: str, right: bool = False) -> int:
    """``text`` as one uint64 of eight little-endian bytes, NUL-padded."""
    raw = text.encode("ascii")
    return int.from_bytes(raw.rjust(8, b"\0") if right else raw.ljust(8, b"\0"), "little")


def _tables() -> tuple:
    """Per-exponent Schubfach constants, from exact integer arithmetic.

    Row ``bq + 2048 * edge`` serves biased exponent ``bq``; ``edge`` marks a
    power of two above the smallest normal, whose rounding interval is
    narrower below than above. A row holds k, the decimal exponent of the
    result, h, the shift that aligns the significand, and the 126-bit
    g = floor(10**-k * 2**-r) + 1, 2**125 <= g < 2**126, as 63-bit halves
    g1, g0 and the 32-bit limbs of each. 617 values of k occur.
    """
    span = 330
    ten = [10**i for i in range(span + 1)]
    js = range(-span, span + 1)
    # floor(j * log2(10)); 10**j is a power of two only at j = 0
    log2_ten = np.array([ten[j].bit_length() - 1 if j >= 0 else -ten[-j].bit_length() for j in js])
    # least q with 10**j <= 2**q, and with 10**j <= (3/4) * 2**q
    least = [
        log2_ten + (np.array(js) != 0),
        np.array([2 + (ten[j] // 3).bit_length() if j > 0 else 3 - (3 * ten[-j]).bit_length() for j in js]),
    ]
    q = np.arange(2048) - 1075
    q[0] = _Q_MIN  # subnormals share the smallest normal's exponent
    k = np.concatenate([np.searchsorted(t, q, side="right") - 1 - span for t in least])
    h = np.concatenate([q, q]) + log2_ten[span - k] + 2  # q + floor(-k * log2(10)) + 2
    g1, g0 = [], []
    for kk in range(k.min(), k.max() + 1):
        r = int(log2_ten[span - kk]) - 125
        num, den = (ten[-kk], 1) if kk <= 0 else (1, ten[kk])
        g = (num << max(-r, 0)) // (den << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & _LOW63)
    at = k - k.min()
    g1, g0 = np.array(g1, dtype=np.uint64)[at], np.array(g0, dtype=np.uint64)[at]
    return k, np.stack([h.astype(np.uint64), g1, g1 & _LOW32, g1 >> 32, g0 & _LOW32, g0 >> 32])


_K, _TAB = _tables()
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_POW2_DIGITS = np.array([len(str(1 << e)) for e in range(64)])
# "e+XX" for every exponent form, the last row empty (fixed form)
_EXP = np.array([_word(f"e{e:+03d}") for e in range(_E_MIN, _E_MAX + 1)] + [0], dtype=np.uint64)
# sign, then "0." and 0..3 zeros in front of the digits, right-aligned
_PREFIX = np.array(
    [_word(sign + lead, right=True) for lead in ("", "0.", "0.0", "0.00", "0.000") for sign in ("", "-")],
    dtype=np.uint64,
)
# [i, n]: the mask of the first n - 8i bytes (none to eight) of word i, and
# the point placed at byte n - 8i of word i
_LOW_BYTES = np.array(
    [[(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for n in range(_NO_POINT + 1)] for i in range(3)],
    dtype=np.uint64,
)
_POINT = np.array(
    [[0x2E << 8 * (n - 8 * i) if 0 <= n - 8 * i < 8 else 0 for n in range(_NO_POINT + 1)] for i in range(3)],
    dtype=np.uint64,
)


def _pick(mask, a, b):
    """``np.where(mask, a, b)`` for uint64 ``a`` and ``b``, without the branch
    that a random boolean ``mask`` mispredicts."""
    return b ^ ((a ^ b) & (0 - mask.astype(np.uint64)))


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of a * b for a < 2**63 and b < 2**60 given as 32-bit limbs.

    Under these bounds the middle sum stays below 2**64."""
    mid = a_lo * b_hi + a_hi * b_lo + ((a_lo * b_lo) >> 32)
    return a_hi * b_hi + (mid >> 32)


def _shortest(bits):
    """(f, k) with |x| = f * 10**k the shortest decimal of each double ``bits``.

    Zeros give f == 0 and k == 0.
    """
    bq = (bits >> 52) & 0x7FF
    t = bits & (_HIDDEN - 1)
    c = np.where(bq > 0, t | _HIDDEN, t)
    edge = (t == 0) & (bq > 1)
    row = bq.astype(np.intp) + 2048 * edge
    h, g1, g1_lo, g1_hi, g0_lo, g0_hi = _TAB[:, row]
    cb = c << 2
    # rop(g * cp / 2**127), the JDK's round to odd, for the double and the
    # lower and upper ends of its rounding interval, scaled by 4 * 2**h
    cp = np.stack([cb, cb - 2 + edge, cb + 2]) << h
    lo, hi = cp & _LOW32, cp >> 32
    z = ((g1 * cp) >> 1) + _mulhi(g0_lo, g0_hi, lo, hi)
    v = _mulhi(g1_lo, g1_hi, lo, hi) + (z >> 63)
    vb, vbl, vbr = v | (((z & _LOW63) + _LOW63) >> 63)
    odd = c & 1  # an odd significand's interval excludes its ends
    s = vb >> 2
    sp10 = s // 10 * 10
    # u in the interval iff vbl + odd <= 4u; w iff 4w <= vbr - odd, for
    # u, w = sp10, sp10 + 10 (one digit fewer) and s, s + 1
    low = np.stack([sp10, s]) << 2
    upin, uin = vbl + odd <= low
    wpin, win = low + np.array([[40], [4]], dtype=np.uint64) <= vbr - odd
    # both of s, s + 1 in: the closer, the even one on a tie
    up = win & (~uin | ((vb & 3) + (s & 1) > 2))
    f = _pick(upin ^ wpin, sp10 + 10 * wpin.astype(np.uint64), s + up)
    # integers below 2**53, zero included, are their own shortest decimal
    mq = 1075 - bq  # the significand's fraction bits: shifts of 64 and more give 0
    whole = (c & ((1 << mq) - 1)) == 0
    return np.where(whole, c >> mq, f), np.where(whole, 0, _K[row])


def _swar8(v):
    """Eight decimal digits of each ``v < 10**8`` as byte values 0..9, most
    significant digit in the lowest byte."""
    hi = v // 10_000
    x = hi | ((v - hi * 10_000) << 32)
    hi = ((x * 5243) >> 19) & 0x0000_007F_0000_007F  # // 100 in each 32-bit lane
    x = hi | ((x - hi * 100) << 16)
    hi = ((x * 103) >> 10) & 0x000F_000F_000F_000F  # // 10 in each 16-bit lane
    return hi | ((x - hi * 10) << 8)


def _log2(w):
    """floor(log2(w)) of each ``0 < w < 2**63``, from its double's exponent
    (-1023 for 0). Rounding w to 53 bits can carry it to the next power of
    two only from within 2**-53 of it, where callers do not look."""
    return (w.view(np.int64).astype(np.float64).view(np.int64) >> 52) - 1023


def _rows(x, sep_words):
    """The text of each double in ``x`` followed by ``sep``, as rows of uint64."""
    bits = x.view(np.uint64)
    f, k = _shortest(bits)
    # digits: those of 2**floor(log2(f)), or one more (no power of ten lies
    # within 2**-53 below a power of two); zero counts as one digit
    nd = _POW2_DIGITS[_log2(f | (f == 0))]
    nd += f >= _POW10[nd]
    point = nd + k  # decimal point position: x = 0.DIGITS * 10**point
    # the digits left-aligned in 17 places: d0..d7, d8..d15, d16
    f = f * _POW10[17 - nd]
    head = f // 1_000_000_000
    rest = f - head * 1_000_000_000
    mid = rest // 10
    words = np.empty((3, len(x)), dtype=np.uint64)
    words[:2] = _swar8(np.stack([head, mid]))
    words[2] = rest - mid * 10
    # significant digits: up to the last nonzero byte, which a word of
    # digits 0..9 keeps far below the next power of two
    ns = np.maximum(((_log2(words[:2]) >> 3) + np.array([[1], [9]])).max(axis=0), 17 * (words[2] != 0))
    sci = (point < -3) | (point > 16)
    small = (point <= 0) & ~sci  # 0.000ddd
    fixed = ~sci & ~small  # ddd.ddd: the integer part's zeros, at least one fraction digit
    shown = np.maximum(ns, (point + 1) * fixed)
    at = np.where(fixed, point, np.where(sci & (ns > 1), 1, _NO_POINT))  # the "." goes before digit at
    words |= _ASCII0 & _LOW_BYTES[:, shown]
    low = words & _LOW_BYTES[:, at]
    high = words ^ low
    digits = low | (high << 8) | _POINT[:, at]
    digits[1:] |= high[:-1] >> 56
    neg = (bits >> 63).astype(np.intp)
    cols = [_PREFIX[neg + 2 * small * (1 - point)]] if (neg.any() or small.any()) else []
    if sci.any():  # "e+XX" after byte 17, the last a digit or point can take
        digits[2] |= _EXP[np.where(sci, point - 1 - _E_MIN, len(_EXP) - 1)] << 16
        cols += list(digits)
    else:
        cols += list(digits[: 2 if (shown + (at < _NO_POINT)).max() <= 16 else 3])
    out = np.empty((len(x), len(cols) + len(sep_words)), dtype=np.uint64)
    for j, col in enumerate(cols):
        out[:, j] = col
    out[:, len(cols):] = sep_words
    return out


def repr_join(values, sep: str) -> str | None:
    """``sep.join(map(float.__repr__, values))`` for a float64 vector (or a
    list of floats) and an ASCII ``sep``, or None if a value is not finite.

    The text of every chunk goes into one buffer, sized for the longest
    repr, and becomes one string. A string per chunk left a trail of holes
    in the heap once joined and freed, and with it a process's peak memory
    swung by the size of the text from one run to the next.
    """
    raw = sep.encode("ascii")
    sep_words = np.frombuffer(raw + b"\0" * (-len(raw) % 8), dtype=np.uint64)
    buf = np.empty(len(values) * (_LONGEST + len(raw)), dtype=np.uint8)  # untouched past the text
    end = 0
    for start in range(0, len(values), CHUNK):
        x = np.asarray(values[start:start + CHUNK], dtype=np.float64)  # no copy of an array
        if not np.isfinite(x).all():
            return None
        text = _rows(x, sep_words).view(np.uint8)
        text = text[text != 0]
        buf[end:end + len(text)] = text
        end += len(text)
    return str(buf[:max(end - len(raw), 0)], "ascii")
