import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_invertible, random_three_form, ref_pullback
from stableforms.exteralg import LinearMap, VolumeForm, alt_form, basis_form, pullback, wedge
from stableforms.linalg import mat_mul
from stableforms.scalars import QuadExt, exact_root
from stableforms.stable6 import (Canon6, NotStableError, OrbitClass6,
                                 adapted_vol6, canonical_omega_minus,
                                 canonical_omega_minus_hat,
                                 canonical_omega_plus,
                                 canonical_omega_plus_4term, canonicalize6,
                                 classify6, hat, k_endo, lambda_coeff,
                                 scaled_structure, stabilizer_dim)

VOL = VolumeForm.standard(6)

# p/q 10^e with |e| <= 40: small, tall and tiny coefficients
COEFFICIENTS = st.builds(lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
                         st.integers(-99, 99).filter(bool), st.integers(1, 99), st.integers(-40, 40))
SPARSE_FORMS = st.dictionaries(st.sampled_from(list(itertools.combinations(range(1, 7), 3))),
                               COEFFICIENTS, min_size=1, max_size=20).map(lambda t: alt_form(6, 3, t))
# c g^* of Omega_plus, Omega_minus or a form with |lambda| = 32, g integer and possibly singular
ORBIT_FORMS = st.builds(
    lambda base, entries, c: c * pullback(LinearMap.from_rows([entries[6 * i:6 * i + 6] for i in range(6)]),
                                          base),
    st.sampled_from([canonical_omega_plus(), canonical_omega_minus(),
                     alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): -2, (2, 4, 6): 2, (3, 4, 5): -2})]),
    st.lists(st.integers(-3, 3), min_size=36, max_size=36), COEFFICIENTS)


class TestKEndo:
    def test_canonical_plus_diagonal(self):
        K = k_endo(canonical_omega_plus(), VOL).K
        assert K == LinearMap.diagonal([-1, -1, -1, 1, 1, 1])

    def test_zero_form(self):
        K = k_endo(alt_form(6, 3, {}), VOL).K
        assert K == LinearMap.from_rows([[0] * 6] * 6)

    def test_decomposable_nilpotent(self):
        K = k_endo(basis_form(6, 1, 2, 3), VOL).K
        k2 = mat_mul([list(r) for r in K.matrix], [list(r) for r in K.matrix])
        assert all(x == 0 for row in k2 for x in row)

    def test_trace_free(self, rng):
        for _ in range(20):
            K = k_endo(random_three_form(rng, 6), VOL).K
            assert sum(K.matrix[i][i] for i in range(6)) == 0

    def test_equivariance(self, rng):
        omega = random_three_form(rng, 6)
        g = random_invertible(rng, 6)
        lhs = k_endo(pullback(g, omega), VOL).K
        rhs_m = mat_mul(mat_mul([list(r) for r in g.inverse().matrix],
                                [list(r) for r in k_endo(omega, VOL).K.matrix]),
                        [list(r) for r in g.matrix])
        det = g.det()
        assert lhs == LinearMap.from_rows([[det * x for x in row] for row in rhs_m])


class TestLambda:
    def test_canonical_values(self):
        assert lambda_coeff(canonical_omega_plus(), VOL).value == 1
        assert lambda_coeff(canonical_omega_minus(), VOL).value == -4
        assert lambda_coeff(canonical_omega_plus_4term(), VOL).value == 4
        assert lambda_coeff(basis_form(6, 1, 2, 3), VOL).value == 0

    def test_quartic_homogeneity(self, rng):
        omega = random_three_form(rng, 6)
        t = Fraction(3, 2)
        assert lambda_coeff(t * omega, VOL).value == t ** 4 * lambda_coeff(omega, VOL).value

    def test_det_squared_covariance(self, rng):
        for _ in range(10):
            omega = random_three_form(rng, 6)
            g = random_invertible(rng, 6)
            assert (lambda_coeff(pullback(g, omega), VOL).value
                    == g.det() ** 2 * lambda_coeff(omega, VOL).value)

    def test_orientation_invariance(self):
        assert (lambda_coeff(canonical_omega_minus(), adapted_vol6()).value
                == lambda_coeff(canonical_omega_minus(), VOL).value)


class TestClassify:
    def test_canonical_orbits(self):
        assert classify6(canonical_omega_plus(), VOL) == OrbitClass6.O6_PLUS
        assert classify6(canonical_omega_minus(), VOL) == OrbitClass6.O6_MINUS
        assert classify6(basis_form(6, 1, 2, 3), VOL) == OrbitClass6.NOT_STABLE

    def test_orbit_invariance(self, rng):
        for _ in range(25):
            g = random_invertible(rng, 6)
            assert classify6(pullback(g, canonical_omega_plus()), VOL) == OrbitClass6.O6_PLUS
            assert classify6(pullback(g, canonical_omega_minus()), VOL) == OrbitClass6.O6_MINUS

    def test_scale_invariance(self, rng):
        omega = canonical_omega_minus()
        for t in (Fraction(2), Fraction(-1), Fraction(1, 7)):
            assert classify6(t * omega, VOL) == OrbitClass6.O6_MINUS

    @pytest.mark.parametrize("coefficient", [0.5, QuadExt(Fraction(1), Fraction(1), Fraction(2))],
                             ids=["float", "QuadExt"])
    @pytest.mark.parametrize("call", [lambda omega: classify6(omega, VOL),
                                      lambda omega: lambda_coeff(omega, VOL),
                                      lambda omega: k_endo(omega, VOL), stabilizer_dim],
                             ids=["classify6", "lambda_coeff", "k_endo", "stabilizer_dim"])
    def test_non_rational_coefficients_raise_type_error(self, call, coefficient):
        """K is built on the integer kernel: int and Fraction coefficients only."""
        omega = alt_form(6, 3, {**canonical_omega_minus().terms, (1, 2, 3): coefficient})
        with pytest.raises(TypeError):
            call(omega)


class TestScaledStructure:
    def test_k_squared_is_lambda(self, rng):
        for _ in range(25):
            omega = random_three_form(rng, 6)
            lam = lambda_coeff(omega, VOL).value
            if lam == 0:
                continue
            ss = scaled_structure(omega, VOL)
            k2 = mat_mul([list(r) for r in ss.K.matrix], [list(r) for r in ss.K.matrix])
            for i in range(6):
                for j in range(6):
                    assert k2[i][j] == (lam if i == j else 0)

    def test_para_eigenspaces(self):
        ss = scaled_structure(canonical_omega_plus(), VOL)
        minus = ss.eigenspace(-1)
        plus = ss.eigenspace(+1)
        assert len(minus) == 3 and len(plus) == 3
        assert all(v[3:] == [0, 0, 0] for v in minus)
        assert all(v[:3] == [0, 0, 0] for v in plus)

    @pytest.mark.parametrize("lam_root", [2, 3])
    def test_para_eigenspaces_at_an_irrational_root(self, lam_root):
        """lambda = 32 or 108: the eigenvectors have QuadExt entries over Q(sqrt(lambda)),
        K v = sigma sqrt(lambda) v exactly, three of them for each sign."""
        omega = pullback(random_invertible(random.Random(lam_root), 6, 2),
                         alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): lam_root, (2, 4, 6): -lam_root,
                                         (3, 4, 5): lam_root}))
        ss = scaled_structure(omega, VOL)
        lam = ss.lam.value
        assert ss.is_para and exact_root(lam, 2) is None
        root = QuadExt.root(lam)
        for sigma in (1, -1):
            space = ss.eigenspace(sigma)
            assert len(space) == 3
            for v in space:
                assert all(isinstance(x, QuadExt) for x in v) and any(x.b for x in v)
                kv = [sum((k * x for k, x in zip(row, v)), QuadExt.of(0, lam)) for row in ss.K.matrix]
                assert kv == [sigma * root * x for x in v]

    def test_complex_has_no_real_eigenvectors(self):
        ss = scaled_structure(canonical_omega_minus(), VOL)
        assert ss.lam.value < 0
        with pytest.raises(NotStableError):
            ss.eigenspace(1)

    def test_not_stable_rejected(self):
        with pytest.raises(NotStableError):
            scaled_structure(basis_form(6, 1, 2, 3), VOL)

    def test_conjugation_equivariance(self, rng):
        omega = canonical_omega_plus()
        K = scaled_structure(omega, VOL).K
        for _ in range(5):
            g = random_invertible(rng, 6)
            K2 = scaled_structure(pullback(g, omega), VOL).K
            expect = mat_mul(mat_mul([list(r) for r in g.inverse().matrix],
                                     [list(r) for r in K.matrix]),
                             [list(r) for r in g.matrix])
            det = g.det()
            assert K2 == LinearMap.from_rows([[det * x for x in row] for row in expect])


class TestHat:
    def test_canonical_minus_display(self):
        h = hat(canonical_omega_minus(), adapted_vol6())
        assert h.form == canonical_omega_minus_hat()
        assert h.lam_abs == 4

    def test_canonical_plus(self):
        h = hat(canonical_omega_plus(), VOL)
        assert h.form == alt_form(6, 3, {(1, 2, 3): -1, (4, 5, 6): 1})

    def test_positivity_normalization(self, rng):
        for _ in range(10):
            omega = random_three_form(rng, 6)
            if lambda_coeff(omega, VOL).value == 0:
                continue
            h = hat(omega, VOL)
            assert VOL.ratio(wedge(omega, h.numerator)) > 0

    def test_hat_hat_is_minus_identity(self, rng):
        # both signs: the positivity normalization makes hat a quarter turn
        for omega in (canonical_omega_plus(), canonical_omega_minus()):
            h = hat(omega, VOL)
            hh = hat(h.form, VOL)
            assert hh.form == -1 * omega
        for _ in range(6):
            omega = random_three_form(rng, 6)
            lam = lambda_coeff(omega, VOL).value
            if lam == 0 or exact_root(abs(lam), 2) is None:
                continue
            hh = hat(hat(omega, VOL).form, VOL)
            assert hh.form == -1 * omega

    def test_one_slot_linearity(self, rng):
        # the lambda-scaled form of alpha(Jx, y, z) = i alpha(x, y, z):
        # Omega(Kx, y, z) = -numerator(hat)(x, y, z) in the complex case,
        # +numerator(hat) in the paracomplex one, for any orientation
        E = [[Fraction(1 if i == k else 0) for i in range(6)] for k in range(6)]
        for _ in range(8):
            omega = random_three_form(rng, 6)
            lam = lambda_coeff(omega, VOL).value
            if lam == 0:
                continue
            ss = scaled_structure(omega, VOL)
            h = hat(omega, VOL)
            sign = -1 if lam < 0 else 1
            for i in range(6):
                kx = ss.K.apply(E[i])
                for j in range(6):
                    for k in range(j + 1, 6):
                        assert omega(kx, E[j], E[k]) == sign * h.numerator(E[i], E[j], E[k])

    def test_irrational_scale_interface(self):
        # |lambda| = 28 is not a square: no exact form, only the rational numerator over sqrt(28)
        omega = alt_form(6, 3, {(3, 4, 5): -2, (2, 3, 4): -2, (3, 4, 6): -2, (1, 3, 6): 2,
                                (2, 4, 6): -2, (1, 2, 5): -2, (1, 5, 6): -1})
        h = hat(omega, VOL)
        assert h.form is None
        assert h.lam_abs == 28

    @pytest.mark.parametrize("e", [100, -100, 200, -200])
    def test_hat_at_every_size(self, e):
        """c Omega_minus at c = 10^e: |lambda| near 10^(4e) and numerator near 10^(3e) leave
        the float range; the hat is still exact, and at a non-square |lambda| it is None."""
        c = Fraction(10) ** e
        h = hat(c * canonical_omega_minus(), adapted_vol6())
        assert h.form == c * canonical_omega_minus_hat()
        omega = alt_form(6, 3, {(3, 4, 5): -2, (2, 3, 4): -2, (3, 4, 6): -2, (1, 3, 6): 2,
                                (2, 4, 6): -2, (1, 2, 5): -2, (1, 5, 6): -1})
        h = hat(c * omega, VOL)
        assert h.form is None
        # the exact parts scale with the form: |lambda| by c^4, the numerator by c^3
        assert h.lam_abs == 28 * c ** 4
        assert h.numerator == c ** 3 * hat(omega, VOL).numerator

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(omega=st.one_of(SPARSE_FORMS, ORBIT_FORMS))
    def test_omega_wedge_k_pullback_is_twice_lambda_squared(self, omega):
        """Omega ^ K^* Omega = 2 lambda^2 vol for every 3-form, unstable ones included,
        and every volume form: the identity that fixes the sign of the hat."""
        for c in (1, -1, 3, Fraction(-1, 7)):
            vol = VolumeForm.standard(6, Fraction(c))
            K, lam = k_endo(omega, vol).K, lambda_coeff(omega, vol).value
            assert vol.ratio(wedge(omega, pullback(K, omega))) == 2 * lam * lam

    def test_hat_check_fails_closed(self):
        """A K that is not Omega's breaks the identity, and hat raises: the memo entry
        of Omega+ planted in Omega-."""
        plus, minus = canonical_omega_plus(), canonical_omega_minus()
        lambda_coeff(plus, VOL)
        minus._memo["K"] = plus._memo["K"]
        with pytest.raises(ArithmeticError, match="2 lambda"):
            hat(minus, VOL)

    def test_pairing_equals_twice_sqrt_lambda(self):
        # Omega ^ hat = 2 sqrt|lambda| vol under the positivity normalization
        for omega, vol in ((canonical_omega_plus(), VOL),
                           (canonical_omega_minus(), adapted_vol6())):
            h = hat(omega, vol)
            s = exact_root(h.lam_abs, 2)
            assert vol.ratio(wedge(omega, h.form)) == 2 * s


class TestCanonicalize:
    def test_canonical_plus_identity(self):
        c = canonicalize6(canonical_omega_plus(), VOL)
        assert c.basis == LinearMap.diagonal([1] * 6)

    def test_canonical_minus_round_trip(self):
        c = canonicalize6(canonical_omega_minus(), VOL)
        assert c.orbit == OrbitClass6.O6_MINUS
        assert pullback(c.basis, canonical_omega_minus()) == canonical_omega_minus()
        # signed permutation basis: identity up to the labeled renumbering
        for row in c.basis.matrix:
            assert sum(1 for x in row if x != 0) == 1
            assert all(abs(x) in (0, 1) for x in row)

    @pytest.mark.parametrize("name,omega", (("plus", canonical_omega_plus()),
                                            ("minus", canonical_omega_minus())))
    def test_random_pullback_round_trips(self, name, omega, rng):
        for _ in range(12):
            g0 = random_invertible(rng, 6)
            moved = pullback(g0, omega)
            c = canonicalize6(moved, VOL)
            assert pullback(c.basis, omega) == moved

    def test_four_term_presentation_interconvertible(self):
        # an explicit rational change of basis between the 2-term and 4-term
        # paracomplex canonical presentations
        c = canonicalize6(canonical_omega_plus_4term(), VOL)
        assert c.orbit == OrbitClass6.O6_PLUS
        assert pullback(c.basis, canonical_omega_plus()) == canonical_omega_plus_4term()

    def test_non_square_lambda_complex(self):
        omega = alt_form(6, 3, {(3, 4, 5): -2, (2, 3, 4): -2, (3, 4, 6): -2, (1, 3, 6): 2,
                                (2, 4, 6): -2, (1, 2, 5): -2, (1, 5, 6): -1})
        assert lambda_coeff(omega, VOL).value == -28
        c = canonicalize6(omega, VOL)
        assert any(isinstance(x, QuadExt) for row in c.basis.matrix for x in row)
        assert ref_pullback(c.basis, canonical_omega_minus()) == omega

    def test_non_square_lambda_para(self):
        omega = alt_form(6, 3, {(2, 4, 5): -2, (1, 4, 6): -1, (1, 5, 6): 1, (3, 5, 6): -2,
                                (2, 3, 6): -1, (1, 2, 5): -1, (1, 2, 3): 2})
        assert lambda_coeff(omega, VOL).value == 32
        c = canonicalize6(omega, VOL)
        assert ref_pullback(c.basis, canonical_omega_plus()) == omega

    def test_not_stable_rejected(self):
        with pytest.raises(NotStableError):
            canonicalize6(basis_form(6, 1, 2, 3), VOL)


class TestStabilizer:
    def test_dimension_six(self):
        assert stabilizer_dim(canonical_omega_plus()) == 16
        assert stabilizer_dim(canonical_omega_minus()) == 16
        assert stabilizer_dim(basis_form(6, 1, 2, 3)) == 26

    def test_orbit_dimension(self):
        # 36 - 16 = 20 = C(6,3): the orbits are open
        assert 36 - stabilizer_dim(canonical_omega_plus()) == 20
