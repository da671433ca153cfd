"""Truncated formal power series with exact integer coefficients.

Every generating function in this package lives in Z[[q]] truncated at a
fixed inclusive order N: coefficients of q^0 .. q^N are tracked exactly as
Python ints, everything above is discarded.  Binary operations return the
minimum of the operand orders, so long identity pipelines compose without
bookkeeping.  A GF(2) mirror (ParitySeries) stores the coefficients mod 2
packed into a single int, which keeps parity scans at order ~10^7 cheap.

No floating point is used anywhere.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from math import gcd, isqrt
from operator import add, and_, mul, neg, sub


class NonUnitConstantTerm(ValueError):
    """Inversion requires a constant term of +1 or -1."""


class DegenerateFactor(ValueError):
    """A q-Pochhammer factor (1 - q^0) is identically zero."""


class OrderExceeded(ValueError):
    """Requested a coefficient beyond the truncation order."""


def require_order(order: int, what: str = "order") -> int:
    """Return order, or raise ValueError when it is negative."""
    if order < 0:
        raise ValueError(f"{what} must be nonnegative, got {order}")
    return order


def require_reach(name: str, series, order: int) -> None:
    """Raise OrderExceeded, by name, for a supplied series short of order."""
    if series is not None and series.order < order:
        raise OrderExceeded(f"{name} stops at {series.order}, need {order}")


# ---------------------------------------------------------------------------
# binomial passes on coefficient lists
#
# Multiplying or dividing by a single binomial (1 + c*q^m) is a linear pass,
# and every infinite product in this package factors into such binomials.
# Each pass leaves its input as it is and returns the list it builds: the
# first m coefficients copied, then one `extend` whose per-coefficient work
# runs at C level (`map` over iterators), on exact Python ints.  A division
# reads its own finished output: its lag operand is an iterator over the
# list being extended, and a list iterator yields the items appended after
# it was made.
# ---------------------------------------------------------------------------


def mul_binomial(coeffs: list[int], c: int, m: int) -> list[int]:
    """coeffs times (1 + c*q^m), as a new list of the same length (for
    m = 0, coeffs scaled by 1 + c)."""
    out = coeffs[:m]
    lag = coeffs if c in (1, -1) else map(mul, coeffs, repeat(c))
    # map stops at the end of the islice, before reading the lag again
    out.extend(map(sub if c == -1 else add, islice(coeffs, m, None), lag))
    return out


def div_binomial(coeffs, c: int, m: int) -> list[int]:
    """coeffs, any iterable of ints read once in order, divided by
    (1 + c*q^m), as a new list; requires m >= 1.

    Solves out[i] = coeffs[i] - c*out[i-m] in one pass: out starts as the
    first m coefficients and is extended from the rest and an iterator over
    out itself, which reads out[i-m] when out[i] is appended.
    """
    if m < 1:
        raise ValueError("cannot divide by a constant binomial factor")
    source = iter(coeffs)
    out = list(islice(source, m))
    lag = iter(out) if c in (1, -1) else map(mul, iter(out), repeat(c))
    out.extend(map(add if c == -1 else sub, source, lag))
    return out


def _lag_segments(base: list[int], terms, lagged: list[int] | None = None) -> list[int]:
    """out(n) = base(n) + sum c*lagged(n - g) over the (g, c) in terms with
    g <= n, for n < len(base), g increasing and c nonzero.  lagged None
    stands for out itself, so that out is base / (1 - sum c*q^g), every
    g >= 1; a product is base 0 with the denser factor lagged.

    Term g's lag, an iterator over lagged, starts at n = g on lagged(0).
    Between consecutive g the lags are fixed, so each segment of out is one
    pass at C level.  Lags of c = 1 are summed with base and those of -1
    subtracted; those of a value two or more terms carry are summed, then
    scaled once.  Every other lag is scaled alone and summed with base: a
    group per value adds a map layer per value to every segment (a dense
    product at order 2000 took 12 times as long).
    """
    size = len(base)
    out = base[:terms[0][0] if terms else size]
    src = islice(base, len(out), None)
    lagged = out if lagged is None else lagged
    count = Counter(c for _, c in terms)
    plus, minus, groups = [], [], {}
    for (g, c), (stop, _) in zip(terms, terms[1:] + [(size, 0)]):
        if g >= size:
            break
        lag = iter(lagged)
        if c == 1:
            plus.append(lag)
        elif c == -1:
            minus.append(lag)
        elif count[c] > 1:
            groups.setdefault(c, []).append(lag)
        else:
            plus.append(map(mul, lag, repeat(c)))
        # base leads every zip and map, so no lag is read past the segment
        segment = map(sum, zip(islice(src, stop - g), *plus))
        if minus:
            segment = map(sub, segment, map(sum, zip(*minus)))
        for value, lags in groups.items():
            segment = map(add, segment, map(mul, map(sum, zip(*lags)), repeat(value)))
        out.extend(segment)
    return out


@dataclass(frozen=True)
class TruncatedSeries:
    """Immutable power series known exactly for exponents 0..order."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a series carries at least the q^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries((0,) * (order + 1))

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries((1,) + (0,) * order)

    # -- access --------------------------------------------------------------

    def coefficient(self, n: int) -> int:
        if n < 0:
            raise ValueError("exponents are nonnegative")
        if n > self.order:
            raise OrderExceeded(f"coefficient {n} beyond order {self.order}")
        return self.coeffs[n]

    def nonzero_count(self) -> int:
        return len(self.coeffs) - self.coeffs.count(0)

    # -- ring operations (order = min of operand orders) ---------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # map stops at the shorter operand: order = min of the orders
        return TruncatedSeries(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(neg, self.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        # the operand with fewer nonzero terms gives the lags
        a, b = self.coeffs, other.coeffs
        if self.nonzero_count() > other.nonzero_count():
            a, b = b, a
        terms = [(g, c) for g, c in enumerate(a[:n + 1]) if c]
        return TruncatedSeries(tuple(_lag_segments([0] * (n + 1), terms, b)))

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """self / other, other(0) being 1 or -1, by one _lag_segments division."""
        n = min(self.order, other.order)
        u = other.coeffs[0]
        if u not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {u} is not a unit")
        terms = [(g, -u * c) for g, c in enumerate(other.coeffs[1:n + 1], 1) if c]
        base = list(map(mul, self.coeffs[:n + 1], repeat(u)))
        return TruncatedSeries(tuple(_lag_segments(base, terms)))

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(mul, self.coeffs, repeat(c))))

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by q^m, truncating at the same order."""
        if m < 0:
            raise ValueError("negative exponents are not representable")
        if m == 0:
            return self
        n = self.order
        return TruncatedSeries((0,) * min(m, n + 1) + self.coeffs[: max(n + 1 - m, 0)])

    def stretch(self, factor: int, order: int) -> "TruncatedSeries":
        """Substitute q -> q^factor, returning a series of the given order.

        Requires self.order*factor >= order so no information is missing.
        """
        if factor < 1:
            raise ValueError("stretch factor must be >= 1")
        # exponents <= order are determined iff every multiple of factor up
        # to order comes from a known coefficient
        if (self.order + 1) * factor <= order:
            raise OrderExceeded("source series too short for requested order")
        out = [0] * (order + 1)
        out[::factor] = self.coeffs[:order // factor + 1]
        return TruncatedSeries(tuple(out))

    def reduce_mod2(self) -> "ParitySeries":
        # one byte per coefficient; the bytes at positions j mod 8, read as
        # one int, hold those coefficients' parities at bits 8i, so shifting
        # that int by j puts each parity in place
        low = bytearray(map(and_, self.coeffs, repeat(1)))
        bits = 0
        for j in range(8):
            bits |= int.from_bytes(low[j::8], "little") << j
        return ParitySeries(self.order, bits)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


# ---------------------------------------------------------------------------
# q-Pochhammer products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QPochhammerSpec:
    """The infinite product (sign*q^offset; q^step)oo.

    Factor k is (1 - sign*q^(offset + k*step)).  The degenerate case
    sign=+1, offset=0 contains (1 - 1) and is rejected at construction.
    """

    sign: int
    offset: int
    step: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.step < 1:
            raise ValueError("step must be positive")
        if self.sign == 1 and self.offset == 0:
            raise DegenerateFactor("(+q^0; ...) contains the zero factor 1-1")


def _binomial_exponents(numerators, denominators, order: int) -> tuple[int, list[int]]:
    """(lead, c) with prod(numerators) / prod(denominators) equal to
    lead * prod_{m=1..order} (1 - q^m)^c[m] up to q^order.

    A factor (1 + q^e) is (1 - q^2e) / (1 - q^e); at e = 0 it is the
    constant 2, which goes into lead and which a denominator may not hold.
    c[0] is always 0.
    """
    c = [0] * (require_order(order) + 1)
    lead = 1
    for d, specs in ((1, numerators), (-1, denominators)):
        for spec in specs:
            e, step = spec.offset, spec.step
            if spec.sign == 1:
                c[e::step] = map(add, c[e::step], repeat(d))
                continue
            if e == 0:
                if d < 0:
                    raise ValueError("cannot divide by a constant binomial factor")
                lead *= 2
            # the two updates of c[0] cancel when e = 0
            c[e::step] = map(sub, c[e::step], repeat(d))
            c[2 * e::2 * step] = map(add, c[2 * e::2 * step], repeat(d))
    return lead, c


# positions read back from the packed pending sums at a time
_WINDOW = 128


def _divisor_sums(c: list[int]) -> list[int]:
    """g with g[k] = -sum_{d|k} d*c[d] for k = 1..len(c)-1, and g[0] = 0.

    Hyperbola split: with N = len(c) - 1 and r = isqrt(N), every pair
    d*e = k <= N has d <= r or else e <= N//(r+1).  The first kind is one
    strided pass per d <= r; the second, one strided pass per multiplier e,
    adding -d*c[d] for d = r+1 .. N//e to the positions e*d.  That is about
    2*sqrt(N) passes, whatever the number of nonzero c[d].
    """
    order = len(c) - 1
    h = list(map(mul, c, range(0, -order - 1, -1)))  # h[d] = -d*c[d]
    g = [0] * (order + 1)
    r = isqrt(order)
    for d in range(1, r + 1):
        if h[d]:
            g[d::d] = map(add, g[d::d], repeat(h[d]))
    for e in range(1, order // (r + 1) + 1):
        g[e * (r + 1)::e] = map(add, g[e * (r + 1)::e], h[r + 1:order // e + 1])
    return g


def _repeated_slot(value: int, width: int, count: int) -> int:
    """The int whose count width-byte slots all hold value (0 <= value <
    2^(8*width))."""
    return int.from_bytes(value.to_bytes(width, "little") * count, "little")


# slot widths in bytes that struct reads and writes whole, little-endian
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(values: list[int], width: int) -> int:
    """values, each |v| < 2^(8*width - 1), as one int: slot i (bytes
    width*i .. width*(i+1) - 1) holds values[i] + 2^(8*width - 1)."""
    biased = list(map(add, values, repeat(1 << 8 * width - 1)))
    if width in _STRUCT_CODES:
        raw = struct.pack(f"<{len(biased)}{_STRUCT_CODES[width]}", *biased)
    else:
        raw = b"".join(map(int.to_bytes, biased, repeat(width), repeat("little")))
    return int.from_bytes(raw, "little")


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The values in the first count slots of a biased packed int (_pack)."""
    size = width * count
    raw = (packed & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    if width in _STRUCT_CODES:
        slots = struct.unpack(f"<{count}{_STRUCT_CODES[width]}", raw)
    else:
        slots = [int.from_bytes(raw[i:i + width], "little") for i in range(0, size, width)]
    return list(map(sub, slots, repeat(1 << 8 * width - 1)))


def _restride(packed: int, width: int, wider: int, count: int) -> int:
    """A packed int of count nonnegative slots re-encoded at a wider slot
    width: each slot's bytes go to the low bytes of its wider slot, one
    strided copy per byte."""
    raw = packed.to_bytes(width * count, "little")
    out = bytearray(wider * count)
    for i in range(width):
        out[i::wider] = raw[i::width]
    return int.from_bytes(out, "little")


def _widen(packed: int, width: int, wider: int, count: int) -> int:
    """A biased packed int of count slots re-encoded at a wider slot width
    (_restride), with the bias raised by the difference, which no slot
    carries out of."""
    raise_bias = (1 << 8 * wider - 1) - (1 << 8 * width - 1)
    return _restride(packed, width, wider, count) + _repeated_slot(raise_bias, wider, count)


def _slot_width(bound: int, width: int) -> int:
    """The slot width in bytes for pending sums up to |bound|, grown from
    width: doubling up to 8 bytes, so that struct reads a window whole, then
    by at least a quarter, so that a bound that keeps rising re-encodes the
    slots O(log) times, while every push, whose cost is proportional to the
    width, pays for at most a quarter more than it needs."""
    need = bound.bit_length() // 8 + 1
    while width < need:
        width = 2 * width if width < 8 else max(need, width + (width + 3) // 4)
    return width


def _expand_by_recurrence(lead: int, c: list[int]) -> list[int]:
    """Coefficients of lead * prod_{m>=1} (1 - q^m)^c[m] up to q^(len(c)-1).

    The logarithmic derivative gives n*f(n) = sum_{k=1..n} g(k)*f(n-k) with
    g(k) = -sum_{d|k} d*c[d] (_divisor_sums; Euler's n*p(n) = sum
    sigma(k)*p(n-k) is the case c = -1).  Each nonzero f(j), once known,
    adds f(j)*g(k) to the pending sum of every later n = j + k; zeros cost
    nothing.

    The pending sums are kept packed (Kronecker substitution): one exact
    int whose slot i, B = 8*width bits wide, holds the pending sum of
    position s + i plus the bias 2^(B-1), s being the first position of the
    current window.  A push of f(j) is one shifted big-int multiply-add of
    the packed g, cut to the positions a later window reads.  The slots are
    read back _WINDOW positions at a time; pushes made inside a window are
    also applied to that window's list, one short list pass each.  Every
    pending sum is bounded by max|g| times the sum of |f(j)| pushed so far;
    before a push that would take this bound past a slot, the slots are
    re-encoded (_widen) at the width _slot_width gives.  No value is ever
    rounded.

    n*f(n) must divide exactly: a remainder means the input is not a
    product in Z[[q]] and raises ArithmeticError.  So does a c[m] that is
    not an int, which no slot can hold.
    """
    if set(map(type, c)) - {int}:
        raise ArithmeticError("the exponents c[m] must be ints")
    order = len(c) - 1
    g = _divisor_sums(c)
    gmax = max(map(abs, g))
    # pushes from window s reach at most position order + _WINDOW - 1
    slots = order + _WINDOW
    width, bound = _slot_width(gmax, 1), 0
    packed = _repeated_slot(1 << 8 * width - 1, width, slots)
    packed_g, zeros_g = _pack(g, width), _repeated_slot(1 << 8 * width - 1, width, order + 1)
    out = []
    for s in range(0, order + 1, _WINDOW):
        window = _unpack(packed, width, min(_WINDOW, order + 1 - s))
        if s == 0:
            window[0] = lead
        later = s + _WINDOW <= order  # whether a later window reads pushes
        head = None
        for i, t in enumerate(window):
            if not t:
                continue
            n = s + i
            if n:
                t, r = divmod(t, n)
                if r:
                    raise ArithmeticError(f"{n} does not divide {window[i]} at q^{n}")
                window[i] = t
            rest = g[1:len(window) - i]
            if t == 1:
                window[i + 1:] = map(add, window[i + 1:], rest)
            elif t == -1:
                window[i + 1:] = map(sub, window[i + 1:], rest)
            else:
                window[i + 1:] = map(add, window[i + 1:], map(mul, rest, repeat(t)))
            if not later:
                continue
            bound += gmax * abs(t)
            if bound.bit_length() >= 8 * width:
                wider = _slot_width(bound, width)
                packed = _widen(packed, width, wider, slots - s)
                packed_g = _widen(packed_g, width, wider, order + 1)
                zeros_g = _repeated_slot(1 << 8 * wider - 1, wider, order + 1)
                width, head = wider, None
            if head is None:
                # g(0..order - s), exact: pushes from this window then stop
                # below position order + _WINDOW
                cut = (1 << 8 * width * (order + 1 - s)) - 1
                head = (packed_g & cut) - (zeros_g & cut)
            push = head << 8 * width * i
            if t == 1:
                packed += push
            elif t == -1:
                packed -= push
            else:
                packed += t * push
        out += window
        packed >>= 8 * width * _WINDOW
    return out


def _divide_by_euler(coeffs: list[int], d: int, times: int) -> None:
    """Divide coeffs in place by (q^d;q^d)oo^times.

    Every residue class mod d is a run in x = q^d, divided times over by
    (x;x)oo = sum_k (-1)^k x^(k(3k-1)/2) (Euler) in _lag_segments, which on
    run = [1, 0, ...] is the p(n) recurrence.  A run of zeros stays zero
    and is skipped: a product in q^d has only its class 0 nonzero.
    """
    # every k(3k -+ 1)/2 below len(coeffs) has k <= isqrt(len(coeffs))
    terms = [(k * (3 * k + e) // 2, k % 2 or -1)
             for k in range(1, isqrt(len(coeffs)) + 1) for e in (-1, 1)]
    for r in range(min(d, len(coeffs))):
        run = coeffs[r::d]
        if not any(run):
            continue
        for _ in range(times):
            run = _lag_segments(run, terms)
        coeffs[r::d] = run


def pochhammer_quotient(numerators, denominators, order: int,
                        start: TruncatedSeries | None = None) -> TruncatedSeries:
    """start * prod(numerators) / prod(denominators) up to q^order, start
    None standing for 1: the one expansion entry point for q-Pochhammer
    products, by one route for every spec list.  A start shorter than order
    raises OrderExceeded.

    The quotient, written as lead * prod (1 - q^m)^c[m]
    (_binomial_exponents), is split into numerator / (q^d;q^d)oo^k:
    - net exponent sum(c) >= 0: k = 0, and the numerator is the quotient;
    - net < 0 (a pole at q = 1; coefficients grow like partition numbers):
      d is the gcd of the m with c[m] != 0, and k the least count that,
      added to c at every multiple of d, makes the net >= 0.  Where every
      exponent is then >= 0, the numerator is a sparse theta-type series:
      (q^2;q^2)oo for 1/(q;q^2)oo, the quintuple product of the regime-IV
      product, (q^4;q^4)oo for (-q^2;q^2)oo/(q^2;q^2)oo.
    _expand_by_recurrence expands the numerator, start is multiplied by it
    (a sparse multiply), and _divide_by_euler divides by (q^d;q^d)oo^k.

    Every step is exact on every input; the route is fast where the
    numerator is sparse.  It is not for 1/(-q;q)oo, whose net is positive
    but whose coefficients are all nonzero and grow (its pole is at
    q = -1): 93 ms at order 3000.  Nor for the literal q^2 reading of
    eq42_sides (first_decade_exponent=2 in place of the first numerator of
    theta.r_factors): its net is >= 0 with (q;q)oo left in the denominator,
    so the recurrence runs on a dense series, 45-48 ms against 3-4 ms for
    the q^s reading at order 3000 (best of 3, 2-vCPU VM).  A spec
    (a*q^o; q^t)oo with o > t leaves c at 0 below m = o, and the k added
    there a dense numerator: theta.truncated_gauss_rhs, whose quotient has
    that shape, divides by Gauss's theta series instead.
    """
    require_reach("start", start, order)
    lead, c = _binomial_exponents(numerators, denominators, order)
    net = sum(c)
    d, k = 1, 0
    if net < 0:
        d = gcd(*(m for m, cm in enumerate(c) if cm))
        k = -(net // (order // d))  # ceil(-net / number of multiples of d)
        c[d::d] = map(add, c[d::d], repeat(k))
    out = _expand_by_recurrence(lead, c)
    if start is not None:
        out = list((start * TruncatedSeries(tuple(out))).coeffs)
    if k:
        _divide_by_euler(out, d, k)
    return TruncatedSeries(tuple(out))


# ---------------------------------------------------------------------------
# GF(2) mirror
# ---------------------------------------------------------------------------


# nibble v -> its bits spread to the even positions, and its bits reversed
_NIBBLE_SPREAD = [sum((v >> i & 1) << 2 * i for i in range(4)) for v in range(16)]
_NIBBLE_REVERSE = [int(f"{v:04b}"[::-1], 2) for v in range(16)]
# byte v -> the low byte, and the high byte, of v's bits spread to 2i
_SPREAD_LOW = bytes(_NIBBLE_SPREAD * 16)
_SPREAD_HIGH = bytes(_NIBBLE_SPREAD[v >> 4] for v in range(256))
# byte v -> v with its 8 bits in reverse order
_REVERSE_BYTE = bytes(_NIBBLE_REVERSE[v & 15] << 4 | _NIBBLE_REVERSE[v >> 4] for v in range(256))


@dataclass(frozen=True)
class ParitySeries:
    """Coefficients mod 2, bit n of `bits` being the parity of q^n.

    The static kernels work on raw bit ints, where multiplying by (1 + q^m)
    is one shifted XOR, so congruence checks scale to order ~10^7.
    """

    order: int
    bits: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.bits >> (self.order + 1):
            raise ValueError("bits extend beyond the truncation order")

    @staticmethod
    def from_bit_positions(order: int, positions) -> "ParitySeries":
        """The series with a 1 at each position in 0..order (others are
        ignored), set byte by byte and read back as one int."""
        buf = bytearray(order // 8 + 1)
        for n in positions:
            if 0 <= n <= order:
                buf[n >> 3] |= 1 << (n & 7)
        return ParitySeries(order, int.from_bytes(buf, "little"))

    @staticmethod
    def spread_bits(bits: int) -> int:
        """Move bit i of a raw bit int to bit 2i: x(q) -> x(q^2).

        Runs at C level: byte j of bits spreads to bytes 2j and 2j + 1 of
        the result, which two `bytes.translate` tables fill through strided
        slices of one bytearray.
        """
        raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        out = bytearray(2 * len(raw))
        out[0::2] = raw.translate(_SPREAD_LOW)
        out[1::2] = raw.translate(_SPREAD_HIGH)
        return int.from_bytes(out, "little")

    @staticmethod
    def reverse_bits(bits: int, top: int) -> int:
        """Bit j of a raw bit int, 0 <= j <= top, moved to bit top - j:
        the switch between the normal layout and the top-down one.

        Runs at C level: the bytes of bits, most significant first, each
        reversed by a `bytes.translate` table and read least significant
        first, reverse bits over a whole number of bytes; a shift drops the
        padding bits below.
        """
        raw = bits.to_bytes(require_order(top, "top") // 8 + 1, "big")
        return int.from_bytes(raw.translate(_REVERSE_BYTE), "little") >> (7 - top % 8)

    @staticmethod
    def reciprocal_bits(exponents, top: int) -> int:
        """1/prod_{m in exponents} (1 + q^m) mod 2 up to q^top on a raw bit
        int in top-down layout, the coefficient of q^j at bit top - j, by
        multiplications only; exponents may repeat.

        Mod 2, (1 + q^m)^2 = 1 + q^2m, so a repeated exponent carries to its
        double, and the product runs over a set.  With O the product over
        the odd exponents of that set and E(q^2) the product over the even
        ones, O(q)^2 = O(q^2) (Frobenius) gives

            1/(O(q) E(q^2)) = O(q) * [1/(O E)](q^2).

        The bracket is this function at precision top//2 on the odd
        exponents and the halved even ones, spread to q^2 (and moved up one
        bit for odd top, so that q^0 sits at bit top); then one shifted XOR
        per odd exponent, x ^ (x >> m), which drops the terms past q^top by
        itself.  Only the exponents present are visited, and the precision
        halves at each level.
        """
        present = set()
        for m in exponents:
            if m < 1:
                raise ValueError("cannot divide by a constant binomial factor")
            while m <= top and m in present:
                present.remove(m)
                m <<= 1
            if m <= top:
                present.add(m)
        if require_order(top, "top") == 0:
            return 1
        odd = [m for m in present if m & 1]
        halved = [m >> 1 for m in present if not m & 1]
        bits = ParitySeries.spread_bits(ParitySeries.reciprocal_bits(odd + halved, top // 2))
        bits <<= top & 1
        for m in odd:
            bits ^= bits >> m
        return bits

    def __repr__(self) -> str:
        return f"ParitySeries(order={self.order}, weight={self.bits.bit_count()})"
