import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableforms.exteralg import (AltForm, InnerProduct, LinearMap, VolumeForm,
                                  alt_form, basis_form, contract, divisor_space,
                                  form_inner, hodge_star, is_decomposable,
                                  pullback, wedge)

DIM = 5


def small_form(dim, degree):
    idxs = list(itertools.combinations(range(1, dim + 1), degree))
    coeffs = st.integers(min_value=-4, max_value=4)
    return st.fixed_dictionaries({}, optional={i: coeffs for i in idxs}).map(
        lambda d: alt_form(dim, degree, {k: Fraction(v) for k, v in d.items()}))


def small_vector(dim):
    return st.lists(st.integers(min_value=-4, max_value=4), min_size=dim, max_size=dim).map(
        lambda v: [Fraction(x) for x in v])


class TestWedge:
    def test_adjacent_ascending(self):
        assert wedge(basis_form(5, 1), basis_form(5, 2, 3)) == basis_form(5, 1, 2, 3)

    def test_single_transposition_sign(self):
        left = wedge(basis_form(5, 1, 3), basis_form(5, 2, 4))
        assert left == -1 * basis_form(5, 1, 2, 3, 4)

    def test_odd_degree_squares_to_zero(self, rng):
        from conftest import random_three_form

        a = random_three_form(rng, 6)
        assert wedge(a, a).is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(basis_form(5, 1), basis_form(6, 1))

    @settings(max_examples=40)
    @given(a=small_form(DIM, 2), b=small_form(DIM, 1), c=small_form(DIM, 2))
    def test_associative(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @settings(max_examples=40)
    @given(a=small_form(DIM, 2), b=small_form(DIM, 3))
    def test_graded_commutative(self, a, b):
        assert wedge(a, b) == wedge(b, a)  # (-1)^{2*3} = +1

    @settings(max_examples=40)
    @given(a=small_form(DIM, 1), b=small_form(DIM, 2))
    def test_odd_even_sign(self, a, b):
        assert wedge(a, b) == wedge(b, a)

    @settings(max_examples=40)
    @given(a=small_form(DIM, 1), b=small_form(DIM, 1))
    def test_one_forms_anticommute(self, a, b):
        assert wedge(a, b) == -1 * wedge(b, a)


class TestContract:
    def test_basic(self):
        e1 = [Fraction(1), 0, 0, 0, 0]
        assert contract(e1, basis_form(5, 1, 2, 3)) == basis_form(5, 2, 3)

    def test_position_sign(self):
        e5 = [Fraction(0)] * 7
        e5[4] = Fraction(1)
        a = basis_form(7, 1, 2, 3, 5, 6, 7)
        assert contract(e5, a) == -1 * basis_form(7, 1, 2, 3, 6, 7)

    def test_degree_zero_errors(self):
        with pytest.raises(ValueError):
            contract([Fraction(1)] * 5, alt_form(5, 0, {(): 1}))

    def test_column_map_accepted(self):
        col = LinearMap.from_rows([[1], [0], [0], [0], [0]])
        assert contract(col, basis_form(5, 1, 2, 3)) == basis_form(5, 2, 3)

    @settings(max_examples=40)
    @given(v=small_vector(DIM), a=small_form(DIM, 3))
    def test_double_contraction_vanishes(self, v, a):
        assert contract(v, contract(v, a)).is_zero

    @settings(max_examples=30)
    @given(v=small_vector(DIM), a=small_form(DIM, 2), b=small_form(DIM, 2))
    def test_antiderivation(self, v, a, b):
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) + wedge(a, contract(v, b))
        assert lhs == rhs

    @settings(max_examples=30)
    @given(v=small_vector(DIM), a=small_form(DIM, 1), b=small_form(DIM, 2))
    def test_antiderivation_odd(self, v, a, b):
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) - wedge(a, contract(v, b))
        assert lhs == rhs


class TestPullback:
    def test_identity(self, rng):
        from conftest import random_three_form

        a = random_three_form(rng, 6)
        assert pullback(LinearMap.diagonal([1] * 6), a) == a

    def test_diagonal_scaling(self):
        g = LinearMap.diagonal([Fraction(7), 1, 1, 1, 1])
        assert pullback(g, basis_form(5, 1, 2, 3)) == Fraction(7) * basis_form(5, 1, 2, 3)

    def test_functorial(self, rng):
        from conftest import random_invertible, random_three_form

        a = random_three_form(rng, 5)
        g = random_invertible(rng, 5)
        h = random_invertible(rng, 5)
        assert pullback(h, pullback(g, a)) == pullback(g.compose(h), a)

    @settings(max_examples=25)
    @given(a=small_form(4, 1), b=small_form(4, 2),
           rows=st.lists(st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4),
                         min_size=4, max_size=4))
    def test_ring_homomorphism(self, a, b, rows):
        g = LinearMap.from_rows(rows)
        assert pullback(g, wedge(a, b)) == wedge(pullback(g, a), pullback(g, b))

    def test_commutes_with_contraction(self, rng):
        from conftest import random_invertible, random_three_form

        a = random_three_form(rng, 5)
        g = random_invertible(rng, 5)
        v = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        gv = g.apply(v)
        assert pullback(g, contract(gv, a)) == contract(v, pullback(g, a))

    def test_non_square_rejected(self):
        g = LinearMap.from_rows([[1, 0, 0, 0, 0]])
        with pytest.raises(ValueError):
            pullback(g, basis_form(5, 1))


class TestHodge:
    def test_euclidean_covector(self):
        ip = InnerProduct.euclidean(7)
        vol = VolumeForm.standard(7)
        assert hodge_star(basis_form(7, 1), ip, vol) == basis_form(7, 2, 3, 4, 5, 6, 7)

    def test_double_star_pattern(self, rng):
        from conftest import random_three_form

        for gram in ([1] * 6, [1, 1, 1, -1, -1, -1]):
            ip = InnerProduct.diagonal(gram)
            vol = VolumeForm.standard(6)
            det_sign = 1
            for d in gram:
                det_sign *= d
            a = random_three_form(rng, 6)
            expect = Fraction(det_sign * (-1) ** (3 * 3)) * a
            assert hodge_star(hodge_star(a, ip, vol), ip, vol) == expect

    def test_symmetric_pairing(self, rng):
        from conftest import random_three_form

        ip = InnerProduct.euclidean(6)
        vol = VolumeForm.standard(6)
        a = random_three_form(rng, 6)
        b = random_three_form(rng, 6)
        assert wedge(b, hodge_star(a, ip, vol)) == wedge(a, hodge_star(b, ip, vol))

    def test_defining_property(self, rng):
        from conftest import random_three_form

        ip = InnerProduct.diagonal([1, 1, 1, -1, -1, -1])
        vol = VolumeForm.standard(6)
        a = random_three_form(rng, 6)
        star = hodge_star(a, ip, vol)
        for idx in itertools.combinations(range(1, 7), 3):
            b = basis_form(6, *idx)
            assert wedge(b, star) == form_inner(b, a, ip) * vol.form

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            InnerProduct.diagonal([1, 1, 0, 1, 1, 1])

    @pytest.mark.parametrize("gram", [((1, 0, 0), (0, 0, 0), (0, 0, Fraction(-2, 3))),
                                      ((Fraction(0), 0), (0, 5))], ids=["int", "Fraction zero"])
    def test_a_zero_on_a_diagonal_gram_is_degenerate(self, gram):
        """A diagonal Gram is decided by its diagonal entries, with the det's message."""
        with pytest.raises(ValueError, match="^inner product is degenerate$"):
            InnerProduct(len(gram), gram)

    @pytest.mark.parametrize("gram", [((1.0, 0), (0, 1)), ((1, 0.0), (0.0, 1)), ((1, 0.5), (0.5, 1))],
                             ids=["float diagonal", "float zero", "float off-diagonal"])
    def test_a_float_gram_is_rejected(self, gram):
        with pytest.raises(TypeError):
            InnerProduct(2, gram)

    def test_g2_dual_display(self):
        # the classical 4-form partner of the 7-dimensional 3-form, with the
        # distinguished covector e4 and the plain sorted volume
        from stableforms.stable7 import canonical_phi_minus

        expected = alt_form(7, 4, {(1, 2, 4, 7): -1, (1, 3, 4, 6): 1, (2, 3, 4, 5): -1,
                                   (4, 5, 6, 7): 1, (1, 2, 5, 6): 1, (1, 3, 5, 7): 1,
                                   (2, 3, 6, 7): 1})
        star = hodge_star(canonical_phi_minus(), InnerProduct.euclidean(7),
                          VolumeForm.standard(7))
        assert star == expected


class TestDivisors:
    def test_monomial(self):
        basis = divisor_space(basis_form(6, 1, 2, 3))
        assert len(basis) == 3
        assert sorted(next(iter(f.terms)) for f in basis) == [(1,), (2,), (3,)]

    def test_symplectic_two_form(self):
        a = alt_form(4, 2, {(1, 2): 1, (3, 4): 1})
        assert divisor_space(a) == []
        assert not is_decomposable(a)

    def test_two_form_in_dim4(self):
        basis = divisor_space(alt_form(4, 2, {(1, 2): 1}))
        assert len(basis) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            divisor_space(AltForm.zero(6, 3))

    def test_decomposable_examples(self):
        assert is_decomposable(basis_form(6, 1, 2, 3))
        assert not is_decomposable(alt_form(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1}))

    def test_top_form_divisors(self):
        top = basis_form(4, 1, 2, 3, 4)
        assert len(divisor_space(top)) == 4
        assert is_decomposable(top)

    @settings(max_examples=40)
    @given(a=small_form(4, 2))
    def test_two_form_criterion(self, a):
        if a.is_zero:
            return
        assert is_decomposable(a) == wedge(a, a).is_zero


class TestEvaluation:
    def test_volume_ratio(self):
        vol = VolumeForm.standard(6, Fraction(-1))
        assert vol.ratio(Fraction(3) * basis_form(6, *range(1, 7))) == -3

    def test_call(self):
        a = alt_form(4, 2, {(1, 2): 1})
        assert a([1, 0, 0, 0], [0, 1, 0, 0]) == 1
        assert a([0, 1, 0, 0], [1, 0, 0, 0]) == -1


@pytest.mark.parametrize("dim,degree,idx,message", [
    (6, 3, (1, 2), "index (1, 2) has wrong length for degree 3"),
    (6, 3, (0, 1, 2), "index (0, 1, 2) out of range 1..6"),
    (6, 3, (1, 2, 7), "index (1, 2, 7) out of range 1..6"),
    (8, 3, (7, 8, 9), "index (7, 8, 9) out of range 1..8"),
    (6, 3, (2, 1, 3), "index (2, 1, 3) is not strictly increasing"),
    (6, 3, (1, 1, 2), "index (1, 1, 2) is not strictly increasing"),
    (2, 3, (1, 2, 3), "degree 3 invalid in dimension 2"),
], ids=["wrong length", "index 0", "index dim+1", "index 9", "not increasing", "repeated", "degree > dim"])
def test_a_bad_key_names_what_is_wrong(dim, degree, idx, message):
    """A key outside the table of sorted multi-indices gets the detailed checks and their messages."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AltForm(dim, degree, {idx: 1})


def test_every_sorted_key_in_range_is_accepted():
    for dim in range(9):
        for degree in range(dim + 1):
            keys = list(itertools.combinations(range(1, dim + 1), degree))
            assert AltForm(dim, degree, dict.fromkeys(keys, 1)).terms.keys() == set(keys)
