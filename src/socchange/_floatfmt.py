"""Python's ``repr`` of float64 arrays, as CSV bytes, in whole-array numpy.

``format_rows`` writes the same bytes as ``",".join(map(repr, row))`` per row
of a block of columns, for every finite float64 and for integers up to 2^53
in magnitude. The digits are Schubfach's (R. Giulietti, "The Schubfach way to
render doubles", 2020; the JDK's ``Double.toString`` since 19): the shortest
decimal in the rounding interval of each double, the closest of those, ties
to an even last digit, which is also what ``repr`` prints. Java's two rules
for at least two digits are left out, since ``repr(5e-324)`` is ``5e-324``.

The significand arithmetic is explicit ``uint64``: the 126-bit constants g
are split into 63-bit halves and every 64 x 64-bit product is formed from
32-bit halves. A ``uint64`` value never meets an ``int64`` one, which numpy
would promote to float64, so the results do not depend on numpy's promotion
rules, which numpy 2 changed (NEP 50).

The text is laid out for a whole block at once: each value's 17 digits and
its sign, exponent and separator characters are source slots, one template
per layout and digit count picks the slots of a cell, NUL-padded to a
fixed width, and one ``bytes.translate`` drops the NULs.
"""

import numpy as np

_U64 = np.uint64
_S1, _S2, _S32, _S63 = _U64(1), _U64(2), _U64(32), _U64(63)
_M32 = _U64(2 ** 32 - 1)
_M63 = _U64(2 ** 63 - 1)
_K_MIN = -324   # the decimal exponents k of the doubles are -324..292
_POW10 = np.array([10 ** i for i in range(18)], np.uint64)
_POSITIONS = np.arange(1, 18, dtype=np.uint8)[:, None]

EXACT_INT = 2 ** 53   # integers beyond this have no exact float64


def _g_table():
    """g = floor(10^-k 2^-r) + 1, 2^125 <= g < 2^126, for k = -324..292, as
    g1 = g >> 63, its 32-bit halves, and the halves of g0 = g mod 2^63."""
    g = []
    for k in range(_K_MIN, 293):
        r = ((-k * 913_124_641_741) >> 38) - 125   # floor(log2 10^-k) - 125
        if k <= 0:
            g.append((10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1)
        else:
            g.append((1 << -r) // 10 ** k + 1)
    g1 = [v >> 63 for v in g]
    g0 = [v & (2 ** 63 - 1) for v in g]
    return tuple(np.array(a, np.uint64) for a in (
        g1, [v >> 32 for v in g1], [v & 0xFFFFFFFF for v in g1],
        [v >> 32 for v in g0], [v & 0xFFFFFFFF for v in g0]))


_G = _g_table()


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of a b, from the 32-bit halves of a and b."""
    lolo = al * bl
    hilo = ah * bl
    cross = (lolo >> _S32) + (hilo & _M32) + al * bh
    return ah * bh + (hilo >> _S32) + (cross >> _S32)


def _rop(g, cp):
    """floor(g cp / 2^127), its last bit set if the division is inexact
    (rounding to odd, as Schubfach's ``rop``)."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> _S32, cp & _M32
    z = ((g1 * cp) >> _S1) + _mulhi(g0h, g0l, ch, cl)
    return ((_mulhi(g1h, g1l, ch, cl) + (z >> _S63))
            | (((z & _M63) + _M63) >> _S63))


def _shortest(bits):
    """(f, k) with x = f 10^k the shortest closest decimal, for the nonzero
    finite doubles whose bits are given; f may end in zeros."""
    t = bits & _U64(2 ** 52 - 1)
    bq = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    normal = bq != 0
    c = np.where(normal, t | _U64(2 ** 52), t)
    q = np.where(normal, bq - 1075, -1074)
    # at a power of 2 the next double down is half as far as the next up
    irregular = (t == 0) & (bq > 1)
    out = c & _S1
    cb = c << _S2
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = [np.take(a, k - _K_MIN) for a in _G]
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _S2 + irregular) << h) + out
    vbr = _rop(g, (cb + _S2) << h) - out
    # s 10^k and (s + 1) 10^k bracket x; sp10 10^k and (sp10 + 10) 10^k are
    # the candidates one digit shorter; a candidate is in the rounding
    # interval when it lies in [vbl, vbr] (both ends open for odd c)
    s = vb >> _S2
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _S2
    wpin = (sp10 + _U64(10)) << _S2 <= vbr
    uin = vbl <= s << _S2
    win = (s + _S1) << _S2 <= vbr
    mid = (s << _S2) + _S2
    up = np.where(uin != win, win,
                  (vb > mid) | ((vb == mid) & (s & _S1).astype(bool)))
    return np.where(upin != wpin, np.where(wpin, sp10 + _U64(10), sp10),
                    s + up), k


# A cell is gathered from 27 source slots per value: its 17 digits,
# left-aligned and zero-filled, then these
_DOT, _ZERO, _E, _ESIGN, _E100, _E10, _E1, _NUL, _SIGN, _SEP = range(17, 27)
_WIDTH = 25   # the longest cell, -1.2345678901234567e-308, and a separator


def _templates():
    """The slots of each layout, NUL-padded, one row per key: rows 0-339
    for 0.000d1...dn up to d1...d16.0 by (decpt + 3) 17 + n - 1, rows
    340-373 for exponent forms by n (two, then three exponent digits),
    rows 374-389 for integers of 1-16 digits."""
    rows = []

    def add(slots):
        slots = [_SIGN, *slots, _SEP]
        rows.append(slots + [_NUL] * (_WIDTH - len(slots)))
    for decpt in range(-3, 17):   # 0.000ddd up to ddddddddddddddd.d
        for n in range(1, 18):
            if decpt <= 0:
                add([_ZERO, _DOT] + [_ZERO] * -decpt + list(range(n)))
            else:
                add(list(range(decpt)) + [_DOT]
                    + (list(range(decpt, n)) or [_ZERO]))
    for exp_slots in ([_E10, _E1], [_E100, _E10, _E1]):
        for n in range(1, 18):
            mantissa = [0] + ([_DOT, *range(1, n)] if n > 1 else [])
            add(mantissa + [_E, _ESIGN] + exp_slots)
    for decpt in range(1, 17):   # integers
        add(list(range(decpt)))
    return np.array(rows, np.int32)


_TEMPLATES = _templates()


def _keys(decpt, n, exp_abs):
    """Template rows for x = 0.d1...dn 10^decpt, |decpt - 1| = exp_abs:
    repr prints 1e-05 and 1e+16 in exponent form and 0.0001 and
    9999999999999998.0 in full."""
    exponent = (decpt < -3) | (decpt > 16)
    return np.where(exponent, 20 + (exp_abs >= 100), decpt + 3) * 17 + n - 1


_INT_KEY = 22 * 17 - 1   # + decpt, the integer's digit count


def format_rows(columns) -> bytes:
    """The CSV lines of equal-length 1-D columns, each row's cells joined by
    commas and ended by a newline: floats as ``repr`` prints them, integer
    columns as integers. Values must be finite, and integers at most
    ``EXACT_INT`` in magnitude; the caller checks both."""
    nrows, ncols = len(columns[0]), len(columns)
    x = np.empty((nrows, ncols))
    for j, column in enumerate(columns):
        x[:, j] = column
    x = x.ravel()
    bits = x.view(np.uint64)
    nonzero = x != 0
    f, k = _shortest(np.where(nonzero, bits, _S1))
    # f <= c 2^q / 10^k + 10 < 2^53 10 + 10 < 10^17: at most 17 digits
    ndig = np.searchsorted(_POW10, f, side="right")
    digits = np.where(nonzero, f * np.take(_POW10, 17 - ndig), _U64(0))
    decpt = np.where(nonzero, k + ndig, 1)

    # the 17 digits as rows, from two halves of at most 9 digits
    src = np.empty((27, len(x)), np.uint8)
    hi = digits // _U64(10 ** 8)
    halves = np.empty((2, len(x)), np.uint32)
    halves[1] = digits - hi * _U64(10 ** 8)
    src[0] = lead = hi // _U64(10 ** 8)
    halves[0] = hi - lead * _U64(10 ** 8)
    quads = np.empty((2, 2, len(x)), np.uint32)
    quads[:, 0] = halves // np.uint32(10 ** 4)
    quads[:, 1] = halves - quads[:, 0] * np.uint32(10 ** 4)
    pairs = np.empty((4, 2, len(x)), np.uint32)
    pairs[:, 0] = quads.reshape(4, -1) // np.uint32(100)
    pairs[:, 1] = quads.reshape(4, -1) - pairs[:, 0] * np.uint32(100)
    pairs = pairs.reshape(8, -1)
    src[1:17:2] = tens = pairs // np.uint32(10)
    src[2:17:2] = pairs - tens * np.uint32(10)
    src[:17] += np.uint8(48)
    # the significant digits run up to the last digit that is not 0
    n = np.maximum(((src[:17] != 48) * _POSITIONS).max(axis=0), 1)

    exp_abs = np.abs(decpt - 1)
    src[_DOT], src[_ZERO], src[_E], src[_NUL] = 46, 48, 101, 0
    src[_ESIGN] = np.where(decpt < 1, 45, 43)
    src[_E100] = exp_abs // 100 + 48
    src[_E10] = exp_abs // 10 % 10 + 48
    src[_E1] = exp_abs % 10 + 48
    src[_SIGN] = (bits >> _S63).astype(np.uint8) * np.uint8(45)
    src[_SEP].reshape(nrows, ncols)[:] = [44] * (ncols - 1) + [10]

    key = _keys(decpt, n, exp_abs).reshape(nrows, ncols)
    is_int = [column.dtype.kind in "iu" for column in columns]
    key[:, is_int] = _INT_KEY + decpt.reshape(nrows, ncols)[:, is_int]
    index = np.take(_TEMPLATES * np.int32(len(x)), key.ravel(), axis=0)
    index += np.arange(len(x), dtype=np.int32)[:, None]
    return np.take(src, index).tobytes().translate(None, b"\0")
