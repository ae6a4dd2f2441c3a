"""float64 arrays as JSON text, formatted by numpy: each value as float.__repr__ writes it.

float_text formats a whole array in one pass of array operations, where
writing its tolist() calls float.__repr__ once per value. The digits are
Ryu's (Adams 2018, "Ryu: fast float-to-string conversion", PLDI): of the
decimals that read back as the same double, the shortest, and of those the
nearest, ties to even, as Python's repr picks them. Ryu multiplies the 55-bit
significand by a 125-bit power of five; here the product is exact on 32-bit
limbs held in int64, and Ryu's one-digit-at-a-time division loops become
divisions of whole arrays by one power of ten. Each text then takes one of
repr's four layouts, 0.000ddd, dd.ddd, ddd.0 or d.ddde+XX, by one gather from
a per-element pool of bytes. NaN and the infinities are written as json
writes them: NaN, Infinity and -Infinity.

float_text reads the tables that build_tables() makes, about 0.2 MB in
under a millisecond: a caller that formats many arrays builds them once, and
none is built at import or kept by the module.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_ONE = 0x3FF0000000000000  # the bits of 1.0, a stand-in for the values Ryu does not take

# each element's text is gathered from a pool of 28 bytes: digits 2-17 of its
# significand, its first digit, "0.e", its exponent's sign and three digits,
# ",-" and pad bytes, which are dropped
_FIRST, _ZERO, _DOT, _E, _COMMA, _MINUS, _PAD = 16, 17, 18, 19, 24, 25, 26
_CHARS = 28
_WORD4 = int.from_bytes(b"00.e", "little")  # plus the first digit: "d0.e"
_WORD6 = int.from_bytes(b",-\0\0", "little")
_WIDTH = 25  # the longest text, -d.dddddddddddddddde-XXX, and its comma


def _exponents():
    """Per biased exponent of a finite double: Ryu's multiplier as four 32-bit
    limbs, low first; the left shift of the significand that puts the decimal
    digits of its product at bit 127; the power of ten of those digits; 5^q
    where Ryu tests a product for q trailing decimal zeros by its factors of 5
    (0 elsewhere); 2^q - 1 where it tests by its factors of 2 (all ones, which
    no nonzero value passes, elsewhere); and where q <= 1 in the second case."""
    p5 = [1]
    for _ in range(325):
        p5.append(5 * p5[-1])
    inv = [(1 << (p.bit_length() + 124)) // p + 1 for p in p5[:292]]  # 2^k / 5^q, rounded up
    fwd = [(p << 125) >> p.bit_length() for p in p5]  # the top 125 bits of 5^i
    base = np.frombuffer(b"".join(m.to_bytes(16, "little") for m in inv + fwd), "<u4")
    e2 = np.maximum(np.arange(2047), 1) - 1077  # the significand is scaled by 4
    up = e2 >= 0
    a = np.abs(e2)
    q = np.where(up, (a * 78913 >> 18) - (a > 3), (a * 732923 >> 20) - (a > 1))
    i = np.where(up, q, a - q)
    bits5 = (i * 1217359 >> 19) + 1  # the bit length of 5^i
    limbs = base.reshape(-1, 4)[np.where(up, q, 292 + i)].T
    shift = 127 - np.where(up, q - e2 + 124 + bits5, q - bits5 + 125)  # 2 to 9
    five = np.where(up & (q <= 21), 5 ** np.minimum(q, 21), 0).astype(np.uint64)
    two = np.where(~up & (q < 63), (1 << np.minimum(q, 62)) - 1, -1).astype(np.uint64)
    return (np.ascontiguousarray(limbs), shift.astype(np.uint64),
            np.where(up, q, q + e2).astype(np.int16), five, two, ~up & (q <= 1))


def _at_127(low, top):
    """Bits 127-190 of the sum of low[k] * 2^(32k) and top * 2^127, where low
    holds four int64 columns of partial sums and the sum is below 2^191."""
    carry = low[0] >> 32
    for column in low[1:3]:
        carry = (column + carry) >> 32
    return (((low[3] + carry) >> 31) + top).view(np.uint64)


def _shortest(bits, exponents):
    """The shortest round-trip decimal of each positive finite double, given
    by its bits, as Ryu finds it: digits d and exponent e with value d * 10^e."""
    limbs, shifts, e10, five, two, close = exponents
    e = (bits >> 52).astype(np.intp)
    mant = bits & ((1 << 52) - 1)
    m2 = np.where(e > 0, mant | (1 << 52), mant)
    mv = m2 << 2  # the value; mv + 2 and mv - below bound the values that round to it
    even = (m2 & 1) == 0
    below = np.where((mant != 0) | (e <= 1), 2, 1)  # the gap below a power of two is narrower
    b = limbs.take(e, axis=1)
    shift = shifts.take(e)
    # mv times the multiplier in columns of 32-bit partial sums; the products
    # of mv + 2 and mv - below add multiples of the multiplier to them
    cols = np.zeros((6, len(bits)), np.int64)
    mv_shifted = mv << shift
    for k, a in enumerate((mv_shifted & _M32, mv_shifted >> 32)):
        p = a * b
        cols[k:k + 4] += (p & _M32).view(np.int64)
        cols[k + 1:k + 5] += (p >> 32).view(np.int64)
    top = (cols[4] << 1) + (cols[5] << 33)
    step = (1 << shift).view(np.int64) * b
    vr = _at_127(cols, top)
    vp = _at_127(cols[:4] + 2 * step, top)
    vm = _at_127(cols[:4] - below * step, top)
    # Ryu's tests of whether vr or vm drop only zeros when digits are removed
    vr_zeros = (mv & two[e]) == 0
    vm_zeros = close[e] & even & (below == 2)
    vp -= close[e] & ~even
    big = np.flatnonzero(five[e])
    if big.size:
        f, m, ev = five[e[big]], mv[big], even[big]
        by5 = m % 5 == 0
        vr_zeros[big] = by5 & (m % f == 0)
        vm_zeros[big] = ~by5 & ev & ((m - below[big].astype(np.uint64)) % f == 0)
        vp[big] -= ~by5 & ~ev & ((m + 2) % f == 0)
    # remove the digits in which vp and vm differ: vp // 10^r > vm // 10^r
    # holds for r up to the count, most often 1-3, and for no r past it
    removed = np.zeros(len(bits), np.intp)
    hi, lo = vp, vm
    for _ in range(4):
        hi, lo = hi // 10, lo // 10
        removed += hi > lo
    live = np.flatnonzero(hi > lo)  # the few left remove up to 19 in all
    vp_live, vm_live = vp[live], vm[live]
    removed[live] = _last_true(lambda r: vp_live // _POW10[r] > vm_live // _POW10[r],
                               4, 20, live.size)
    digits = vr // _POW10[removed]
    last = vr // _POW10[removed - 1] % 10  # if none was removed, vr // 10^19: 0 or 1
    up = (digits == vm // _POW10[removed]) | (last >= 5)
    general = np.flatnonzero(vr_zeros | vm_zeros)
    if general.size:
        d, r, u = _general_case(vr[general], vm[general], removed[general], even[general],
                                vr_zeros[general], vm_zeros[general])
        digits[general], removed[general], up[general] = d, r, u
    return digits + up, e10[e] + removed


def _last_true(test, low: int, high: int, size: int):
    """For each of size elements, the largest r from low to high - 1 at which
    test is true, by bisection: test maps an array of r to a boolean array,
    and is true at low, false at high and false past its first false."""
    true, false = np.full(size, low), np.full(size, high)
    for _ in range((high - low - 1).bit_length()):
        mid = (true + false) // 2
        ok = test(mid)
        true, false = np.where(ok, mid, true), np.where(ok, false, mid)
    return true


def _general_case(vr, vm, removed, even, vr_zeros, vm_zeros):
    """Ryu's rounding where vr or vm may end in zeros: vm drops trailing zeros
    too when its removed digits were all zero, and an exact tie rounds to even."""
    vm_zeros &= vm % _POW10[removed] == 0
    live = np.flatnonzero(vm_zeros)
    rest = vm[live] // _POW10[removed[live]]
    removed[live] += _last_true(lambda k: rest % _POW10[k] == 0, 0, 20, live.size)
    digits, low = vr // _POW10[removed], vm // _POW10[removed]
    last = vr // _POW10[removed - 1] % 10
    vr_zeros &= (vr % _POW10[removed - 1] == 0) | (removed == 0)
    last[vr_zeros & (last == 5) & (digits % 2 == 0)] = 4
    return digits, removed, ((digits == low) & ~(even & vm_zeros)) | (last >= 5)


def _layouts():
    """The tables of the text. A key is a sign, a digit count n and a layout:
    a decimal exponent x from -4 to 15, written positionally, or scientific
    with a two- or three-digit exponent. For each key: the pool byte of each
    byte of the text and its comma, then pad; and the length of the text with
    its comma. Then the four digits of each number below 10^4, and the sign
    and three digits of each decimal exponent from -324 to 308."""
    neg, rest = np.divmod(np.arange(2 * 17 * 22, dtype=np.int16), 17 * 22)
    neg, n, form = neg.astype(np.int8), (rest // 22 + 1).astype(np.int8), rest % 22
    sci = form >= 20
    point = np.where(sci, 1, form - 3)  # digits before the decimal point, x + 1
    lead = np.maximum(point, 1)
    frac = np.where(sci, n - 1, np.maximum(n - point, 1))
    dot = frac > 0
    mant = lead + dot + frac
    size = mant + np.where(sci, 4 + (form == 21), 0)
    r = np.arange(_WIDTH, dtype=np.int8) - neg[:, None]
    digit = r - (r > lead[:, None]) - lead[:, None] + point[:, None]
    col = np.where(digit < 0, _ZERO, np.where(digit == 0, _FIRST, digit - 1))
    col = np.where(dot[:, None] & (r == lead[:, None]), _DOT, col)
    j = r - mant[:, None]
    col = np.where(j >= 0, _E + j + ((j >= 2) & (form[:, None] == 20)), col)
    col = np.where(r < 0, _MINUS, col)
    col = np.where(r == size[:, None], _COMMA, col)
    col = np.where(r > size[:, None], _PAD, col)
    pairs = np.arange(100, dtype=np.uint32)
    pairs = (pairs // 10 + 48) | (pairs % 10 + 48) << 8  # "00" to "99"
    quads = (pairs[:, None] | pairs << 16).ravel()
    x = np.arange(-324, 309, dtype=np.int16)[:, None]
    exps = np.abs(x) // np.array([100, 10, 1], np.int16) % 10 + 48
    exps = np.concatenate([np.where(x < 0, ord("-"), ord("+")), exps], 1)
    return col.astype(np.int8), neg + size + 1, quads, exps.astype(np.uint8).view("<u4").ravel()


def _pool(digits, n, x, quads, exps):
    """The pool bytes of each element, as seven 32-bit words, from its n
    digits and its decimal exponent x."""
    left = digits * _POW10[17 - n]  # the digits from the left, then zeros
    first = left // 10**16
    rest = left - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    fours = np.stack([high, low]) // 10**4
    pool = np.empty((len(digits), _CHARS // 4), np.uint32)
    pool[:, :4] = quads.take(np.stack([fours[0], high - fours[0] * 10**4,
                                       fours[1], low - fours[1] * 10**4]), axis=0).T
    pool[:, 4] = first + _WORD4
    pool[:, 5] = exps.take(x + 324)
    pool[:, 6] = _WORD6
    return pool


def build_tables():
    """The tables that float_text reads."""
    return _exponents(), _layouts()


def float_text(values, tables) -> tuple[str, np.ndarray]:
    """The JSON tokens of a 1-D float64 array, each followed by a comma, and the
    offset just past each comma: every token is the value's float.__repr__, or
    NaN, Infinity or -Infinity. tables is what build_tables() returns."""
    exponents, (columns, sizes, quads, exps) = tables
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    bits = bits & 0x7FFFFFFFFFFFFFFF
    zero = bits == 0
    finite = bits < 0x7FF0000000000000
    digits, e10 = _shortest(np.where(zero | ~finite, _ONE, bits), exponents)
    digits[zero] = e10[zero] = 0
    n = np.maximum(np.searchsorted(_POW10[:18], digits, side="right"), 1)
    x = e10 + n - 1
    form = np.where((x < -4) | (x > 15), 20 + (np.abs(x) >= 100), x + 4)
    key = (neg * 17 + n - 1) * 22 + form
    pool = _pool(digits, n, x, quads, exps)
    del digits, e10, n, x, form  # the gather below sets the peak of memory
    index = columns.take(key, axis=0) + (np.arange(len(key)) * _CHARS)[:, None]
    text = pool.view(np.uint8).ravel().take(index)
    sizes = sizes.take(key)
    for i in np.flatnonzero(~finite).tolist():  # NaN and the infinities
        token = repr(float(values[i])).replace("nan", "NaN").replace("inf", "Infinity")
        text[i] = 0
        text[i, :len(token) + 1] = np.frombuffer(token.encode() + b",", np.uint8)
        sizes[i] = len(token) + 1
    return text[text != 0].tobytes().decode("ascii"), np.cumsum(sizes)
