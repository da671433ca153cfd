"""Reference implementations that more than one test file compares against.

Each is the plain, obviously correct form of what the package computes by
a faster route: square detection by integer square root, the series
inverse by the schoolbook recurrence, q-Pochhammer quotients by one
binomial pass per factor, and the GF(2) binomial passes on raw bit ints
(bit n holding the parity of q^n).
"""

from __future__ import annotations

import math

from hexparity.series import NonUnitConstantTerm, TruncatedSeries, div_binomial, mul_binomial
from hexparity.squares import SquareProgression


def is_square(v: int) -> bool:
    """Exact perfect-square test via integer square root."""
    if v < 0:
        return False
    r = math.isqrt(v)
    return r * r == v


def holds(p: SquareProgression, n: int) -> bool:
    """Whether a*n + c is a perfect square."""
    return is_square(p.a * n + p.c)


def inverse(series: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse by the schoolbook recurrence; the constant
    term must be +1 or -1."""
    a = series.coeffs
    if a[0] not in (1, -1):
        raise NonUnitConstantTerm(f"constant term {a[0]} is not a unit")
    u = a[0]
    n = len(a) - 1
    out = [0] * (n + 1)
    out[0] = u
    for i in range(1, n + 1):
        acc = 0
        for k in range(1, i + 1):
            if a[k]:
                acc += a[k] * out[i - k]
        out[i] = -u * acc
    return TruncatedSeries(tuple(out))


def expand_by_passes(coeffs: list[int], numerators, denominators) -> list[int]:
    """coeffs times prod(numerators) / prod(denominators), q-Pochhammer
    specs, one binomial pass per factor (1 - sign*q^e) with e <= order.

    Returns the list the passes build and leaves coeffs as it is.
    Denominator factors must have exponent >= 1 so the quotient stays in
    Z[[q]]; div_binomial raises ValueError otherwise.
    """
    order = len(coeffs) - 1
    for spec in numerators:
        for e in range(spec.offset, order + 1, spec.step):
            coeffs = mul_binomial(coeffs, -spec.sign, e)
    for spec in denominators:
        for e in range(spec.offset, order + 1, spec.step):
            coeffs = div_binomial(coeffs, -spec.sign, e)
    return coeffs


def mul_binomial_bits(bits: int, m: int, order: int) -> int:
    """bits times (1 + q^m) mod 2 up to q^order; signs are invisible mod 2."""
    return (bits ^ (bits << m)) & ((1 << order + 1) - 1)


def div_binomial_bits(bits: int, m: int, order: int) -> int:
    """bits divided by (1 + q^m) mod 2 up to q^order: multiplied by the
    geometric series in q^m, which mod 2 is (1 + q^m)(1 + q^2m)(1 + q^4m)...,
    one shifted XOR per factor below q^order."""
    if m < 1:
        raise ValueError("cannot divide by a constant binomial factor")
    mask = (1 << order + 1) - 1
    while m <= order:
        bits = (bits ^ (bits << m)) & mask
        m <<= 1
    return bits
