"""Exact scalar arithmetic: rationals, quadratic extensions, exact roots.

Every coefficient in this package is an exact rational number unless a module
explicitly documents otherwise.  Where a square root of a rational D is
unavoidable, canonical bases of stable 6-forms have entries in the quadratic
extension Q(sqrt(D)) (:class:`QuadExt`); ``_float_root`` takes float roots of
exact rationals at every size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction, str]


def rat(x: RatLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(x: Fraction) -> str:
    """Normalized string form, integer-valued rationals printed without '/1'.

    Integers of any size are printed, past Python's cap on the digits of one
    int-to-str conversion: each conversion takes a block of at most 4000 digits.
    """
    x = Fraction(x)
    n, d = _int_str(x.numerator), x.denominator
    return n if d == 1 else f"{n}/{_int_str(d)}"


_BLOCK = 10 ** 4000


def _int_str(n: int) -> str:
    blocks, m = [], abs(n)
    while m >= _BLOCK:
        m, r = divmod(m, _BLOCK)
        blocks.append(str(r).zfill(4000))
    return "-" * (n < 0) + str(m) + "".join(reversed(blocks))


def isqrt_exact(n: int) -> int | None:
    """Integer square root of n, or None if n is not a perfect square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    pn = isqrt_exact(x.numerator)
    pd = isqrt_exact(x.denominator)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def icbrt_exact(n: int) -> int | None:
    """Integer cube root of n (any sign), or None if n is not a perfect cube.

    Integer Newton iteration from 2^ceil(bits/3) >= cbrt(n): the iterates
    decrease strictly to floor(cbrt(n)), exactly at every size.
    """
    if n < 0:
        r = icbrt_exact(-n)
        return None if r is None else -r
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    return x if x * x * x == n else None


def cbrt_fraction(x: Fraction) -> Fraction | None:
    """Exact cube root of a rational, or None."""
    x = Fraction(x)
    pn = icbrt_exact(x.numerator)
    pd = icbrt_exact(x.denominator)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def _float_root(x: Fraction, k: int) -> float:
    """x^(1/k) for a rational x > 0, as a normal float whatever the size of x.

    The binary exponent is shifted out first, x = y 2^(k e) with 1/2 < y < 2^(k+1),
    so neither float(y) nor its root leaves the float range; ldexp puts 2^e
    back.  A root outside the normal float range raises OverflowError, naming
    its order k and 2^e.  For k = 2 the root is math.sqrt, so wherever x and
    its root are normal floats the result is math.sqrt(float(x)) bit for bit.
    """
    e = (x.numerator.bit_length() - x.denominator.bit_length()) // k
    y = float(x / Fraction(2) ** (k * e))
    try:
        r = math.ldexp(math.sqrt(y) if k == 2 else y ** (1 / k), e)
    except OverflowError:
        raise OverflowError(f"root of order {k} near 2^{e} is above the normal float range") from None
    if r < sys.float_info.min:
        raise OverflowError(f"root of order {k} near 2^{e} is below the normal float range")
    return r


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(D) of the quadratic extension Q(sqrt(D)).

    D is a fixed non-square rational (it may be negative, giving an imaginary
    extension).  Arithmetic is exact; mixing two different radicands raises.
    """

    a: Fraction
    b: Fraction
    D: Fraction

    @staticmethod
    def of(x: RatLike, D: Fraction) -> "QuadExt":
        return QuadExt(rat(x), Fraction(0), Fraction(D))

    @staticmethod
    def root(D: Fraction) -> "QuadExt":
        return QuadExt(Fraction(0), Fraction(1), Fraction(D))

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.D != self.D:
                raise ValueError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, Fraction, str)):
            return QuadExt(rat(other), Fraction(0), self.D)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.D * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.D)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        return self.a * self.a - self.D * self.b * self.b

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero or non-invertible QuadExt element")
        c = self.conjugate()
        return QuadExt(c.a / n, c.b / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadExt):
            return self.D == other.D and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        if not self.b:
            return float(self.a)
        if self.D < 0:
            raise ValueError("imaginary QuadExt has no float value")
        return float(self.a) + float(self.b) * math.sqrt(float(self.D))

    def __repr__(self):
        return f"({rat_str(self.a)}+{rat_str(self.b)}*sqrt({rat_str(self.D)}))"
