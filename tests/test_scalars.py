"""Exact scalars: ``rat_str`` at every integer size, the hash and float of ``QuadExt``, and the
errors of ``_float_root`` outside the float range."""

import math
import re
import sys
from fractions import Fraction

import pytest

from stableforms.scalars import QuadExt, _float_root, rat_str


@pytest.mark.parametrize("digits", [5, 3999, 4000, 4001, 4300, 4301, 8000, 8001, 12345])
def test_rat_str_prints_integers_past_the_digit_cap(digits):
    """Past Python's cap on one int-to-str conversion (4300 digits), every digit is printed,
    zero blocks included, for integers, their negatives and both sides of a fraction."""
    n = 10 ** (digits - 1) + 7 * 10 ** (digits // 2) + 3
    text = rat_str(Fraction(n))
    assert len(text) == digits and text[0] == "1" and text[-1] == "3"
    assert text.count("7") == 1 and text.count("0") == digits - 3
    assert rat_str(Fraction(-n)) == "-" + text
    assert rat_str(Fraction(-n, 10 ** 4500 + 1)) == f"-{text}/1{'0' * 4499}1"
    assert int(text[:sys.int_info.default_max_str_digits]) == n // 10 ** max(digits - 4300, 0)


def test_rat_str_agrees_with_str_below_the_cap():
    for x in (Fraction(0), Fraction(-5), Fraction(3, 4), Fraction(-10 ** 4000, 3), Fraction(10 ** 3999 - 1)):
        expected = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        assert rat_str(x) == expected


def test_quadext_hash_is_consistent_with_eq():
    """An element with b = 0 equals its rational a, and hashes like it; a dict or set
    keyed by either finds the other."""
    D = Fraction(2)
    for a in (Fraction(0), Fraction(3), Fraction(-5, 7)):
        q = QuadExt(a, Fraction(0), D)
        assert q == a and hash(q) == hash(a)
        assert {a: "x"}[q] == "x" and q in {a}
    q, twin = QuadExt(Fraction(1), Fraction(2), D), QuadExt(Fraction(1), Fraction(2), Fraction(2))
    assert q == twin and hash(q) == hash(twin) and len({q, twin}) == 1
    assert q != QuadExt(Fraction(1), Fraction(2), Fraction(3)) and q != 1


def test_quadext_float():
    """A real element converts, also one with b = 0 over a negative D; an imaginary one
    (D < 0, b != 0) raises ValueError."""
    assert float(QuadExt(Fraction(1), Fraction(2), Fraction(3))) == 1 + 2 * math.sqrt(3)
    assert float(QuadExt(Fraction(-1, 2), Fraction(0), Fraction(-3))) == -0.5
    for q in (QuadExt.root(Fraction(-1)), QuadExt(Fraction(2), Fraction(-1, 3), Fraction(-5))):
        with pytest.raises(ValueError, match="imaginary"):
            float(q)


@pytest.mark.parametrize("x,k,message", [
    (Fraction(10) ** 1600, 2, "root of order 2 near 2^2657 is above the normal float range"),
    (Fraction(1, 10 ** 6000), 18, "root of order 18 near 2^-1108 is below the normal float range"),
], ids=["above", "below"])
def test_float_root_outside_the_range_names_its_order_and_exponent(x, k, message):
    """Above the range math.ldexp's bare "math range error" is replaced, below it the
    subnormal result is refused; both messages name k and the binary exponent e."""
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        _float_root(x, k)
