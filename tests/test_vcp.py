import random
from fractions import Fraction

import pytest

from stableforms import stable6, stable7
from stableforms.compalg import AlgebraTag
from stableforms.exteralg import InnerProduct, pullback, LinearMap
from stableforms.linalg import _clear
from stableforms.vcp import (CrossProduct, cross_2fold, cross_3fold,
                             fundamental_form, reduce_by_unit_vector,
                             verify_axioms, verify_para_extension_identities)


def basis(n):
    return [tuple(Fraction(1 if i == k else 0) for i in range(n)) for k in range(n)]


E7 = basis(7)
E8 = basis(8)


class TestEvaluation:
    def test_two_fold_table_entry(self):
        X = cross_2fold(AlgebraTag.O)
        assert X(E7[0], E7[1]) == E7[2]  # e1 x e2 = e3

    def test_three_fold_reduces_at_e0(self, rng):
        X = cross_2fold(AlgebraTag.O)
        for variant in ("X1", "X2"):
            X3 = cross_3fold(AlgebraTag.O, variant)
            for _ in range(20):
                a = tuple([Fraction(0)] + [Fraction(rng.randint(-4, 4)) for _ in range(7)])
                b = tuple([Fraction(0)] + [Fraction(rng.randint(-4, 4)) for _ in range(7)])
                out = X3(E8[0], a, b)
                expect = X(a[1:], b[1:])
                assert out[0] == 0
                assert out[1:] == expect

    def test_alternating(self, rng):
        X = cross_2fold(AlgebraTag.B)
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(7))
        assert all(c == 0 for c in X(v, v))

    def test_arity_checked(self):
        X = cross_2fold(AlgebraTag.O)
        with pytest.raises(ValueError):
            X(E7[0])

    def test_dim_checked(self):
        X3 = cross_3fold(AlgebraTag.O, "X1")
        with pytest.raises(ValueError):
            X3(E7[0], E7[1], E7[2])


class TestAxioms:
    @pytest.mark.parametrize("tag", (AlgebraTag.O, AlgebraTag.B))
    def test_two_fold(self, tag):
        rep = verify_axioms(cross_2fold(tag), 150, seed=2)
        assert rep.passed, rep.failed_checks()

    @pytest.mark.parametrize("tag", (AlgebraTag.O, AlgebraTag.B))
    @pytest.mark.parametrize("variant", ("X1", "X2"))
    def test_three_fold(self, tag, variant):
        rep = verify_axioms(cross_3fold(tag, variant), 100, seed=3)
        assert rep.passed, rep.failed_checks()

    def test_corrupted_product_fails(self):
        # dropping the <a,b> e0 correction leaves the real part of the
        # algebra product in place, and the result is no longer orthogonal
        # to its arguments
        import stableforms.compalg as compalg

        tag = AlgebraTag.O

        def bad_eval(a, b):  # on the core's integer contract: numerators and one denominator
            xa = compalg.AlgElement(tag, (Fraction(0),) + tuple(a[1:]))
            xb = compalg.AlgElement(tag, (Fraction(0),) + tuple(b[1:]))
            (nums,), (den,) = _clear(compalg.multiply(xa, xb).coords)
            return nums, den

        bad = CrossProduct(8, 2, "broken", InnerProduct.euclidean(8), bad_eval, tag=tag)
        rep = verify_axioms(bad, 50, seed=4)
        assert not rep.passed
        assert "orthogonality" in rep.failed_checks()

    def test_gram_two_fold_identity(self, rng):
        X = cross_2fold(AlgebraTag.O)
        ip = X.ip
        for _ in range(30):
            a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7))
            b = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7))
            x = X(a, b)
            assert ip.pair(x, x) == ip.pair(a, a) * ip.pair(b, b) - ip.pair(a, b) ** 2


class TestFundamentalForm:
    def test_octonion_two_fold_is_canonical_phi_minus(self):
        mu = fundamental_form(cross_2fold(AlgebraTag.O)).mu
        assert mu == stable7.canonical_phi_minus()

    def test_split_two_fold_is_canonical_phi_plus(self):
        mu = fundamental_form(cross_2fold(AlgebraTag.B)).mu
        assert mu == stable7.canonical_phi_plus()

    def test_antisymmetry_spotcheck(self, rng):
        mu = fundamental_form(cross_3fold(AlgebraTag.B, "X2")).mu
        vs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(8)) for _ in range(4)]
        swapped = [vs[1], vs[0], vs[2], vs[3]]
        assert mu(*vs) == -mu(*swapped)

    def test_z3_cycle_equivariance(self):
        # the permutation (123)(567) preserves the octonion product, so it
        # preserves the fundamental 3-form of the 2-fold cross product
        mu = fundamental_form(cross_2fold(AlgebraTag.O)).mu
        sigma = {1: 2, 2: 3, 3: 1, 4: 4, 5: 6, 6: 7, 7: 5}
        rows = [[Fraction(1 if sigma[j] == i else 0) for j in range(1, 8)] for i in range(1, 8)]
        g = LinearMap.from_rows(rows)
        assert pullback(g, mu) == mu


class TestReduction:
    def test_reduce_at_e0_matches_table(self):
        X = cross_2fold(AlgebraTag.O)
        for variant in ("X1", "X2"):
            red = reduce_by_unit_vector(cross_3fold(AlgebraTag.O, variant), E8[0])
            for i in range(7):
                for j in range(7):
                    assert red(E7[i], E7[j]) == X(E7[i], E7[j])

    def test_reduce_at_e1_satisfies_axioms(self):
        red = reduce_by_unit_vector(cross_3fold(AlgebraTag.O, "X1"), E8[1])
        rep = verify_axioms(red, 80, seed=5)
        assert rep.passed, rep.failed_checks()

    def test_null_rejected(self):
        X3 = cross_3fold(AlgebraTag.B, "X1")
        null = tuple(Fraction(1 if i in (0, 4) else 0) for i in range(8))
        with pytest.raises(ValueError, match="null"):
            reduce_by_unit_vector(X3, null)

    def test_timelike_rejected(self):
        X3 = cross_3fold(AlgebraTag.B, "X1")
        with pytest.raises(ValueError, match="<a,a> = 1"):
            reduce_by_unit_vector(X3, E8[4])

    def test_split_reduction_axioms(self):
        red = reduce_by_unit_vector(cross_3fold(AlgebraTag.B, "X2"), E8[0])
        assert red.ip.signature() == (3, 4)
        rep = verify_axioms(red, 80, seed=6)
        assert rep.passed, rep.failed_checks()


class TestParaExtension:
    @pytest.mark.parametrize("variant,branch", (("X1", "anticommuting"), ("X2", "commuting")))
    def test_identities_and_branch(self, variant, branch):
        cp3 = cross_3fold(AlgebraTag.B, variant)
        rep = verify_para_extension_identities(cp3, E8[0], E8[4], 120, seed=7)
        assert rep.identity_one and rep.identity_two
        assert rep.branch == branch
        assert rep.eigen_dims == (3, 3)
        assert rep.passed

    def test_non_lorentzian_plane_rejected(self):
        cp3 = cross_3fold(AlgebraTag.B, "X1")
        with pytest.raises(ValueError, match="Lorentzian"):
            verify_para_extension_identities(cp3, E8[0], E8[1], 5)
