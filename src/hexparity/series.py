"""Truncated formal power series with exact integer coefficients.

Every generating function in this package lives in Z[[q]] truncated at a
fixed inclusive order N: coefficients of q^0 .. q^N are tracked exactly as
Python ints, everything above is discarded.  Binary operations return the
minimum of the operand orders, so long identity pipelines compose without
bookkeeping.  A GF(2) mirror (ParitySeries) stores the coefficients mod 2
packed into a single int, which keeps parity scans at order ~10^5 cheap.

No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


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


# ---------------------------------------------------------------------------
# in-place helpers on coefficient lists
#
# Multiplying or dividing by a single binomial (1 + c*q^m) is a linear pass,
# and every infinite product in this package factors into such binomials.
# ---------------------------------------------------------------------------


def mul_binomial_inplace(coeffs: list[int], c: int, m: int) -> None:
    """Multiply by (1 + c*q^m) in place."""
    if m == 0:
        scale = 1 + c
        for i in range(len(coeffs)):
            coeffs[i] *= scale
        return
    for i in range(len(coeffs) - 1, m - 1, -1):
        coeffs[i] += c * coeffs[i - m]


def div_binomial_inplace(coeffs: list[int], c: int, m: int) -> None:
    """Divide by (1 + c*q^m) in place; requires m >= 1."""
    if m < 1:
        raise ValueError("cannot divide by a constant binomial factor")
    for i in range(m, len(coeffs)):
        coeffs[i] -= c * coeffs[i - m]


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
    def of(coeffs) -> "TruncatedSeries":
        return TruncatedSeries(tuple(int(c) for c in coeffs))

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

    def __getitem__(self, n: int) -> int:
        return self.coefficient(n)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def nonzero_count(self) -> int:
        return sum(1 for c in self.coeffs if c)

    # -- ring operations (order = min of operand orders) ---------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        # iterate over the operand with fewer nonzero terms
        a, b = self.coeffs, other.coeffs
        if self.nonzero_count() > other.nonzero_count():
            a, b = b, a
        out = [0] * (n + 1)
        for i in range(min(len(a), n + 1)):
            ai = a[i]
            if ai == 0:
                continue
            if ai == 1:
                for j in range(min(len(b), n + 1 - i)):
                    out[i + j] += b[j]
            else:
                for j in range(min(len(b), n + 1 - i)):
                    out[i + j] += ai * b[j]
        return TruncatedSeries(tuple(out))

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * v for v in self.coeffs))

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by q^m, truncating at the same order."""
        if m < 0:
            raise ValueError("negative exponents are not representable")
        if m == 0:
            return self
        n = self.order
        return TruncatedSeries((0,) * min(m, n + 1) + self.coeffs[: n + 1 - m])

    def times_binomial(self, c: int, m: int) -> "TruncatedSeries":
        out = list(self.coeffs)
        mul_binomial_inplace(out, c, m)
        return TruncatedSeries(tuple(out))

    def div_binomial(self, c: int, m: int) -> "TruncatedSeries":
        out = list(self.coeffs)
        div_binomial_inplace(out, c, m)
        return TruncatedSeries(tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be +1 or -1."""
        a = self.coeffs
        if a[0] not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {a[0]} is not a unit")
        u = a[0]
        n = self.order
        out = [0] * (n + 1)
        out[0] = u
        for i in range(1, n + 1):
            acc = 0
            for k in range(1, i + 1):
                if a[k]:
                    acc += a[k] * out[i - k]
            out[i] = -u * acc
        return TruncatedSeries(tuple(out))

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
        for i, c in enumerate(self.coeffs):
            e = i * factor
            if e > order:
                break
            out[e] = c
        return TruncatedSeries(tuple(out))

    def reduce_mod2(self) -> "ParitySeries":
        bits = 0
        for i, c in enumerate(self.coeffs):
            if c & 1:
                bits |= 1 << i
        return ParitySeries(self.order, bits)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def monomial(coef: int, exp: int, order: int) -> TruncatedSeries:
    """The series coef*q^exp (the zero series if exp > order)."""
    if exp < 0:
        raise ValueError("exponents are nonnegative")
    out = [0] * (order + 1)
    if exp <= order:
        out[exp] = coef
    return TruncatedSeries(tuple(out))


# ---------------------------------------------------------------------------
# q-Pochhammer products
# ---------------------------------------------------------------------------

INFINITE = None  # count marker for (a;q)_infinity


@dataclass(frozen=True)
class QPochhammerSpec:
    """The product (sign*q^offset; q^step)_count, count=None meaning infinite.

    Factor k is (1 - sign*q^(offset + k*step)).  The degenerate case
    sign=+1, offset=0 with at least one factor contains (1 - 1) and is
    rejected at construction.
    """

    sign: int
    offset: int
    step: int
    count: int | None = INFINITE

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.step < 1:
            raise ValueError("step must be positive")
        if self.count is not None and self.count < 0:
            raise ValueError("count must be nonnegative or INFINITE")
        if self.sign == 1 and self.offset == 0 and self.count != 0:
            raise DegenerateFactor("(+q^0; ...) contains the zero factor 1-1")

    def factor_exponents(self, order: int):
        """Exponents of the factors that can affect coefficients 0..order."""
        k = 0
        while self.count is None or k < self.count:
            e = self.offset + k * self.step
            if e > order:
                return
            yield e
            k += 1


def pochhammer_quotient_inplace(coeffs: list[int], numerators, denominators=()) -> None:
    """Multiply coeffs in place by prod(numerators) / prod(denominators).

    The one expansion path for q-Pochhammer products: every factor
    (1 - sign*q^e) is a single binomial pass over the list, so the cost is
    linear per factor.  Denominator factors must have exponent >= 1 so the
    quotient stays in Z[[q]].
    """
    order = len(coeffs) - 1
    for spec in numerators:
        for e in spec.factor_exponents(order):
            mul_binomial_inplace(coeffs, -spec.sign, e)
    for spec in denominators:
        for e in spec.factor_exponents(order):
            div_binomial_inplace(coeffs, -spec.sign, e)


def pochhammer_quotient(numerators, denominators, order: int) -> TruncatedSeries:
    """Expand prod(numerators) / prod(denominators) factor by factor.

    Equivalent to product_of(numerators) * product_of(denominators).inverse()
    but linear per factor.
    """
    out = [1] + [0] * require_order(order)
    pochhammer_quotient_inplace(out, numerators, denominators)
    return TruncatedSeries(tuple(out))


def pochhammer(spec: QPochhammerSpec, order: int) -> TruncatedSeries:
    """Exact truncated expansion of a q-Pochhammer symbol."""
    return pochhammer_quotient([spec], [], order)


def product_of(specs, order: int) -> TruncatedSeries:
    """Product of several q-Pochhammer symbols."""
    return pochhammer_quotient(specs, [], order)


# ---------------------------------------------------------------------------
# GF(2) mirror
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParitySeries:
    """Coefficients mod 2, bit n of `bits` being the parity of q^n.

    Addition is XOR; multiplication is carry-less.  Multiplying or dividing
    by (1 + q^m) costs one shifted XOR (respectively log2(order/m) of them),
    so congruence checks scale to order ~10^6.
    """

    order: int
    bits: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.bits >> (self.order + 1):
            raise ValueError("bits extend beyond the truncation order")

    @staticmethod
    def zero(order: int) -> "ParitySeries":
        return ParitySeries(order, 0)

    @staticmethod
    def one(order: int) -> "ParitySeries":
        return ParitySeries(order, 1)

    @staticmethod
    def from_bit_positions(order: int, positions) -> "ParitySeries":
        bits = 0
        for n in positions:
            if 0 <= n <= order:
                bits |= 1 << n
        return ParitySeries(order, bits)

    def _mask(self, order: int) -> int:
        return (1 << (order + 1)) - 1

    def bit(self, n: int) -> int:
        if n > self.order:
            raise OrderExceeded(f"bit {n} beyond order {self.order}")
        return (self.bits >> n) & 1

    coefficient = bit

    def bit_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.order + 1)]

    def nonzero_positions(self) -> list[int]:
        out = []
        x = self.bits
        while x:
            low = x & -x
            out.append(low.bit_length() - 1)
            x ^= low
        return out

    def __add__(self, other: "ParitySeries") -> "ParitySeries":
        n = min(self.order, other.order)
        m = self._mask(n)
        return ParitySeries(n, (self.bits ^ other.bits) & m)

    __sub__ = __add__

    def __mul__(self, other: "ParitySeries") -> "ParitySeries":
        n = min(self.order, other.order)
        m = self._mask(n)
        a, b = self.bits & m, other.bits & m
        if a.bit_count() > b.bit_count():
            a, b = b, a
        acc = 0
        while a:
            low = a & -a
            acc ^= b << (low.bit_length() - 1)
            a ^= low
        return ParitySeries(n, acc & m)

    def shift(self, m: int) -> "ParitySeries":
        return ParitySeries(self.order, (self.bits << m) & self._mask(self.order))

    def times_binomial(self, m: int) -> "ParitySeries":
        """Multiply by (1 + q^m); signs are invisible mod 2."""
        return ParitySeries(
            self.order, (self.bits ^ (self.bits << m)) & self._mask(self.order)
        )

    def div_binomial(self, m: int) -> "ParitySeries":
        """Divide by (1 + q^m): multiply by the geometric series in q^m."""
        if m < 1:
            raise ValueError("cannot divide by a constant binomial factor")
        mask = self._mask(self.order)
        x = self.bits
        sh = m
        while sh <= self.order:
            x = (x ^ (x << sh)) & mask
            sh <<= 1
        return ParitySeries(self.order, x)

    def square(self) -> "ParitySeries":
        """Frobenius: squaring mod 2 doubles every exponent."""
        out = 0
        x = self.bits
        while x:
            low = x & -x
            i = low.bit_length() - 1
            if 2 * i > self.order:
                break
            out |= 1 << (2 * i)
            x ^= low
        return ParitySeries(self.order, out)

    def inverse(self) -> "ParitySeries":
        """Newton inversion over GF(2): x -> a*x^2 doubles the precision."""
        if not self.bits & 1:
            raise NonUnitConstantTerm("constant term is 0 mod 2")
        x = ParitySeries(self.order, 1)
        prec = 1
        while prec <= self.order:
            x = self * x.square()
            prec *= 2
        return x

    def __repr__(self) -> str:
        return f"ParitySeries(order={self.order}, weight={self.bits.bit_count()})"


def reduce_mod2(a: TruncatedSeries) -> ParitySeries:
    return a.reduce_mod2()
