"""Exact scalar arithmetic: rationals, quadratic extensions, roots.

Every coefficient in this package is an exact rational number unless a module
explicitly documents otherwise.  Every root of a rational is taken here, in one
of two ways: ``exact_root`` returns it as a Fraction when it is rational (on
the one integer root ``_iroot``), and ``_float_root`` returns a normal float
of it at every size of the exact rational.  No other module takes a float
root.  Where a square root of a rational D is unavoidable, canonical bases of
stable 6-forms have entries in the quadratic extension Q(sqrt(D))
(:class:`QuadExt`).
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


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for an int n >= 0 and k >= 2, exactly at every size.

    math.isqrt at k = 2; otherwise integer Newton iteration from
    2^ceil(bits/k) >= n^(1/k): the iterates decrease strictly to the floor.
    """
    if k == 2:
        return math.isqrt(n)
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def exact_root(x: Fraction, k: int) -> Fraction | None:
    """The k-th root of a rational x (or int) when it is rational, else None.

    A negative x has a root only for odd k, and it is negative.
    """
    n, d = x.numerator, x.denominator
    if n < 0 and not k % 2:
        return None
    a = _iroot(abs(n), k)
    if a ** k != abs(n):
        return None
    b = _iroot(d, k)
    if b ** k != d:
        return None
    return Fraction(-a if n < 0 else a, b)


def _float_root(x: Fraction, k: int) -> float:
    """x^(1/k) for a rational x >= 0, as a normal float whatever the size of x; 0.0 at 0.

    The binary exponent is shifted out first, x = y 2^(k e) with 1/2 < y < 2^(k+1),
    so neither float(y) nor its root leaves the float range; ldexp puts 2^e
    back.  A root outside the normal float range raises OverflowError, naming
    its order k and 2^e.  For k = 2 the root is math.sqrt, so wherever x and
    its root are normal floats the result is math.sqrt(float(x)) bit for bit,
    and at k = 1 it is float(x), with the same range check.
    """
    if not x:
        return 0.0
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
