"""Exact scalars: ``rat_str`` at every integer size, the hash and float of ``QuadExt``, the
errors of ``_float_root`` outside the float range, and ``_iroot`` and ``exact_root`` against
the root helpers they replaced (``math.isqrt``, a Newton cube root, and that cube root taken
twice for k = 9)."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableforms.scalars import QuadExt, _float_root, _iroot, exact_root, rat_str


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


def test_float_root_of_zero_is_zero():
    assert _float_root(Fraction(0), 2) == 0.0 and _float_root(Fraction(0), 9) == 0.0


def ref_icbrt(n: int) -> int:
    """floor(cbrt(n)) for n >= 0: the integer Newton iteration the library's cube root used."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def ref_exact_int_root(n: int, k: int) -> int | None:
    """The exact k-th root of an int n >= 0 from the replaced helpers, or None."""
    if k == 2:
        r = math.isqrt(n)
        return r if r * r == n else None
    if k == 6:
        s = ref_exact_int_root(n, 2)
        return None if s is None else ref_exact_int_root(s, 3)
    if k == 9:
        c = ref_exact_int_root(n, 3)
        return None if c is None else ref_exact_int_root(c, 3)
    r = ref_icbrt(n)
    return r if r ** 3 == n else None


def ref_exact_root(x: Fraction, k: int) -> Fraction | None:
    """The exact k-th root of a rational from the replaced helpers: numerator and denominator
    apart, a negative x only for odd k."""
    if x < 0:
        if k % 2 == 0:
            return None
        r = ref_exact_root(-x, k)
        return None if r is None else -r
    a, b = ref_exact_int_root(x.numerator, k), ref_exact_int_root(x.denominator, k)
    return None if a is None or b is None else Fraction(a, b)


KS = (2, 3, 6, 9)
BASES = (2, 3, 10, 7 ** 5, 10 ** 15 + 7, 2 ** 64 - 1, 10 ** 110 + 1, 3 ** 500, 10 ** 400 - 3, 10 ** 400)


@pytest.mark.parametrize("k", KS)
def test_iroot_is_the_floor_at_powers_and_their_neighbours(k):
    """_iroot(n, k) is floor(n^(1/k)) at m^k and m^k +- 1, m up to 10^400, and at 0 and 1; at
    k = 2 it is math.isqrt, at k = 3 the Newton cube root."""
    for m in BASES:
        for n, root in ((m ** k, m), (m ** k - 1, m - 1), (m ** k + 1, m)):
            assert _iroot(n, k) == root
    assert [_iroot(n, k) for n in (0, 1, 2)] == [0, 1, 1]
    reference = {2: math.isqrt, 3: ref_icbrt}.get(k)
    if reference:
        for m in BASES:
            for n in (m ** k - 1, m ** k, m ** k + 1, m, m * m + 5):
                assert _iroot(n, k) == reference(n)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 10 ** 400), k=st.sampled_from(KS))
def test_iroot_is_the_floor(n, k):
    r = _iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
    if k == 2:
        assert r == math.isqrt(n)
    elif k == 3:
        assert r == ref_icbrt(n)


@pytest.mark.parametrize("k", KS)
def test_exact_root_at_powers_and_their_neighbours(k):
    """m^k has the root m, m^k +- 1 has none (m >= 2); a negative power has the root -m for
    odd k and none for even k; the same holds over a k-th power denominator, and each value
    agrees with the replaced helpers."""
    for m in BASES:
        cases = [(m ** k, m), (m ** k - 1, None), (m ** k + 1, None),
                 (-m ** k, -m if k % 2 else None), (-(m ** k + 1), None),
                 (Fraction(m ** k, 7 ** k), Fraction(m, 7)),
                 (Fraction(-7 ** k, m ** k), Fraction(-7, m) if k % 2 else None),
                 (Fraction(m ** k, 7 ** k + 1), None), (Fraction(1, 2 * m ** k), None)]
        for x, root in cases:
            got = exact_root(Fraction(x), k)
            assert got == root and (got is None or type(got) is Fraction)
            assert got == ref_exact_root(Fraction(x), k)
        assert exact_root(m ** k, k) == m  # an int is accepted as it is


@settings(max_examples=150, deadline=None)
@given(a=st.integers(-10 ** 400, 10 ** 400), b=st.integers(1, 10 ** 400), k=st.sampled_from(KS),
       power=st.booleans())
def test_exact_root_matches_the_replaced_helpers(a, b, k, power):
    """On random rationals, and on their k-th powers, exact_root is the replaced helpers'
    root: numerator and denominator apart, negative only for odd k."""
    x = Fraction(a, b) ** k if power else Fraction(a, b)
    got = exact_root(x, k)
    assert got == ref_exact_root(x, k)
    if power and (k % 2 or a >= 0):
        assert got == (Fraction(a, b) if k % 2 else abs(Fraction(a, b)))
    if got is not None:
        assert got ** k == x
