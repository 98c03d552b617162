import random
import re
from fractions import Fraction

import pytest

from conftest import random_invertible, random_three_form, rational_rotation
from stableforms import vcp
from stableforms.compalg import AlgebraTag
from stableforms.exteralg import AltForm, InnerProduct, LinearMap, VolumeForm, alt_form, basis_form, pullback
from stableforms.linalg import mat_mul
from stableforms.scalars import exact_root
from stableforms.stable6 import NotStableError, stabilizer_dim
from stableforms.stable7 import (OrbitClass7, _canonicalize7, _float_root, canonical_phi_minus,
                                 canonical_phi_plus, canonicalize7, classify7,
                                 cross_from_phi, metric_from_phi, q_form)

VOL = VolumeForm.standard(7)


class TestQForm:
    def test_canonical_minus_is_scalar(self):
        B = q_form(canonical_phi_minus(), VOL).B
        assert all(B[i][j] == (-6 if i == j else 0) for i in range(7) for j in range(7))

    def test_canonical_plus_signature_one(self):
        qf = q_form(canonical_phi_plus(), VOL)
        diag = [qf.B[i][i] for i in range(7)]
        assert sorted(str(x) for x in diag) == sorted(["-6"] * 3 + ["6"] * 4)
        pos, neg, zero = qf.signature()
        assert abs(pos - neg) == 1 and zero == 0

    def test_decomposable_is_singular(self):
        qf = q_form(basis_form(7, 1, 2, 3), VOL)
        assert qf.signature()[2] > 0

    def test_covariance(self, rng):
        for _ in range(8):
            phi = random_three_form(rng, 7)
            g = random_invertible(rng, 7)
            B = q_form(phi, VOL).B
            B2 = q_form(pullback(g, phi), VOL).B
            gt_b_g = mat_mul(mat_mul([list(r) for r in zip(*g.matrix)],
                                     [list(r) for r in B]),
                             [list(r) for r in g.matrix])
            det = g.det()
            assert all(B2[i][j] == det * gt_b_g[i][j] for i in range(7) for j in range(7))


class TestClassify:
    def test_canonical_orbits(self):
        assert classify7(canonical_phi_minus(), VOL) == OrbitClass7.O7_MINUS
        assert classify7(canonical_phi_plus(), VOL) == OrbitClass7.O7_PLUS

    def test_orbit_invariance(self, rng):
        for _ in range(20):
            g = random_invertible(rng, 7)
            assert classify7(pullback(g, canonical_phi_minus()), VOL) == OrbitClass7.O7_MINUS
            assert classify7(pullback(g, canonical_phi_plus()), VOL) == OrbitClass7.O7_PLUS

    def test_random_forms_mostly_stable(self, rng):
        # full-support random forms: the open orbits are dense
        stable = total = 0
        for _ in range(200):
            phi = random_three_form(rng, 7, span=6, nterms=35)
            if phi.is_zero:
                continue
            total += 1
            if classify7(phi, VOL) != OrbitClass7.NOT_STABLE:
                stable += 1
        assert stable >= 0.99 * total

    def test_stabilizers(self):
        assert stabilizer_dim(canonical_phi_minus()) == 14
        assert stabilizer_dim(canonical_phi_plus()) == 14
        assert 49 - 14 == 35  # orbit dimension = dim of the full 3-form space

    @pytest.mark.parametrize("call", [lambda phi: classify7(phi, VOL), lambda phi: q_form(phi, VOL),
                                      lambda phi: metric_from_phi(phi, VOL), stabilizer_dim],
                             ids=["classify7", "q_form", "metric_from_phi", "stabilizer_dim"])
    def test_float_coefficients_raise_type_error(self, call):
        """B is built on the integer kernel: int and Fraction coefficients only."""
        phi = alt_form(7, 3, {**canonical_phi_minus().terms, (1, 2, 3): 0.5})
        with pytest.raises(TypeError):
            call(phi)


class TestExactRoots:
    """Cube and ninth roots are exact at every size, with no float guess."""

    def test_cube_beyond_float_precision(self):
        assert exact_root((10**15 + 7) ** 3, 3) == 10**15 + 7

    def test_cube_beyond_float_range(self):
        assert exact_root((10**110 + 1) ** 3, 3) == 10**110 + 1
        assert exact_root(-(10**110 + 1) ** 3, 3) == -(10**110 + 1)
        assert exact_root((10**110 + 1) ** 3 + 1, 3) is None

    def test_ninth_root_of_large_power(self):
        assert exact_root(Fraction(7**9 * 10**90), 9) == 7 * 10**10

    def test_small_values(self):
        assert [exact_root(n, 3) for n in (0, 1, 8, 27, -64, 2, 9, 26)] == [0, 1, 2, 3, -4, None, None, None]

    def test_float_root_beyond_float_range(self):
        assert _float_root(Fraction(2) ** 900, 9) == 2.0 ** 100
        assert _float_root(Fraction(1, 3 ** 1800), 18) == pytest.approx(3.0 ** -100, rel=1e-15)
        x = Fraction(10 ** 600 + 1, 7)
        assert Fraction(_float_root(x, 9)) ** 9 / x == pytest.approx(1, rel=1e-14)
        with pytest.raises(OverflowError):
            _float_root(Fraction(1, 10 ** 2800), 9)  # 1e-311 would be subnormal
        with pytest.raises(OverflowError):
            _float_root(Fraction(10 ** 2800), 9)

    @pytest.mark.parametrize("e", [15, -16])
    def test_metric_scale_with_s9_outside_the_float_range(self, e):
        # s^9 = c^21 is 1e330 or 1e-336: float(s^9) overflows or is 0.0
        c = Fraction(7, 3) * Fraction(10) ** e
        gm = metric_from_phi(c * canonical_phi_minus(), VOL)
        assert Fraction(gm.scale) ** 9 / c ** 21 == pytest.approx(1, rel=1e-13)
        assert float(gm.ip.gram[0][0]) == pytest.approx(float(c ** 3 / Fraction(gm.scale)), rel=1e-15)

    @pytest.mark.parametrize("e", [-150, 150])
    def test_exact_metric_scale_outside_the_float_range_raises(self, e):
        # c is a cube, so s = c^(7/3) = 10^(7e/3) is exact, yet no normal float holds it
        side = "above" if e > 0 else "below"
        message = f"root of order 1 near 2\\^-?[0-9]+ is {side} the normal float range"
        with pytest.raises(OverflowError, match=message):
            metric_from_phi(Fraction(10) ** e * canonical_phi_minus(), VOL)

    @pytest.mark.parametrize("e", [-129, 129])
    def test_exact_metric_scale_inside_the_float_range(self, e):
        gm = metric_from_phi(Fraction(10) ** e * canonical_phi_minus(), VOL)
        assert gm.scale == float(Fraction(10) ** (7 * e // 3))
        assert gm.vol == VolumeForm.standard(7, Fraction(10) ** (7 * e // 3))  # exact, oriented like VOL

    @pytest.mark.parametrize("e", [-135, 135])
    def test_metric_scale_outside_the_float_range_raises(self, e):
        # s = c^(7/3) is about 1e-315 or 1e315: no normal float holds it
        with pytest.raises(OverflowError):
            metric_from_phi(Fraction(7, 3) * Fraction(10) ** e * canonical_phi_minus(), VOL)


class TestMetric:
    def test_canonical_minus_euclidean(self):
        gm = metric_from_phi(canonical_phi_minus(), VOL)
        assert gm.ip == InnerProduct.euclidean(7)
        assert gm.scale == 1.0

    def test_canonical_plus_split(self):
        gm = metric_from_phi(canonical_phi_plus(), VOL)
        assert gm.ip == InnerProduct.diagonal([1, 1, 1, -1, -1, -1, -1])
        assert gm.ip.signature() == (3, 4)

    def test_scaling_two_thirds(self):
        gm = metric_from_phi(8 * canonical_phi_minus(), VOL)
        assert gm.ip.gram[0][0] == 4  # 8^{2/3}

    def test_float_scaling(self):
        gm = metric_from_phi(5 * canonical_phi_minus(), VOL)
        assert abs(float(gm.ip.gram[0][0]) - 5.0 ** (2.0 / 3.0)) < 1e-12

    def test_not_stable_rejected(self):
        with pytest.raises(NotStableError):
            metric_from_phi(basis_form(7, 1, 2, 3), VOL)


class TestCross:
    def test_table_matches_octonions(self):
        X = cross_from_phi(canonical_phi_minus(), VOL)
        alg = vcp.cross_2fold(AlgebraTag.O)
        basis = [tuple(Fraction(1 if i == k else 0) for i in range(7)) for k in range(7)]
        for i in range(7):
            for j in range(7):
                assert X(basis[i], basis[j]) == alg(basis[i], basis[j])

    def test_table_matches_split_octonions(self):
        X = cross_from_phi(canonical_phi_plus(), VOL)
        alg = vcp.cross_2fold(AlgebraTag.B)
        basis = [tuple(Fraction(1 if i == k else 0) for i in range(7)) for k in range(7)]
        for i in range(7):
            for j in range(7):
                assert X(basis[i], basis[j]) == alg(basis[i], basis[j])

    def test_axioms_on_rotated_form(self, rng):
        g = rational_rotation(rng, 7)
        X = cross_from_phi(pullback(g, canonical_phi_minus()), VOL)
        rep = vcp.verify_axioms(X, 60, seed=9)
        assert rep.passed, rep.failed_checks()

    def test_gram_identity_via_metric(self, rng):
        phi = pullback(rational_rotation(rng, 7), canonical_phi_minus())
        X = cross_from_phi(phi, VOL)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(7))
            b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(7))
            x = X(a, b)
            assert X.ip.pair(x, x) == X.ip.pair(a, a) * X.ip.pair(b, b) - X.ip.pair(a, b) ** 2

    def test_gram_identity_float_scale(self, rng):
        # metric scale 5^{2/3} is irrational; the identity holds to 1e-9
        X = cross_from_phi(5 * canonical_phi_minus(), VOL)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(7))
            b = tuple(Fraction(rng.randint(-2, 2)) for _ in range(7))
            x = X(a, b)
            lhs = float(X.ip.pair(x, x))
            rhs = float(X.ip.pair(a, a) * X.ip.pair(b, b) - X.ip.pair(a, b) ** 2)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestCanonicalize:
    def test_identity_on_canonical(self):
        c = canonicalize7(canonical_phi_minus(), VOL)
        assert c.residual == 0.0
        for i in range(7):
            for j in range(7):
                assert abs(c.basis[i][j] - (1.0 if i == j else 0.0)) < 1e-14

    def test_scaled_canonical(self):
        c = canonicalize7(8 * canonical_phi_minus(), VOL)
        assert c.residual < 1e-9
        assert abs(c.basis[0][0] - 2.0) < 1e-12  # 8^{1/3}

    def test_random_rotations(self, rng):
        for _ in range(8):
            g = rational_rotation(rng, 7)
            c = canonicalize7(pullback(g, canonical_phi_minus()), VOL)
            assert c.residual <= 1e-9

    def test_split_not_supported(self):
        with pytest.raises(NotStableError):
            canonicalize7(canonical_phi_plus(), VOL)

    @pytest.mark.parametrize("phi,e", [
        (10 ** 400 * canonical_phi_minus(), 1328),
        (Fraction(-10 ** 400, 3) * canonical_phi_minus(), 1327),
        (AltForm(7, 3, {i: 10 ** 400 * int(x) for i, x in canonical_phi_minus().terms.items()}), 1328),
    ], ids=["1e400", "-1e400/3", "int 1e400"])
    def test_a_coefficient_past_the_float_range_names_the_residual(self, phi, e):
        """The exact frame holds; the residual has no float of phi and says so, with the
        largest coefficient's power of 2."""
        message = f"canonicalize7 residual: coefficient near 2^{e} is outside the float range"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            canonicalize7(phi, VOL)

    def test_frame_check_fails_closed(self, rng):
        """A frame built on the B of another O7_MINUS form psi does not carry phi to
        the canonical form, and the exact check raises instead of returning a basis:
        psi's invariant entry (B, signature, det B) is planted in phi's memo."""
        for _ in range(10):
            phi, psi = (pullback(random_invertible(rng, 7, 2), canonical_phi_minus()) for _ in range(2))
            q_form(psi, VOL)
            phi._memo.update(psi._memo)
            with pytest.raises(ArithmeticError, match="Cayley frame"):
                _canonicalize7(phi)


def fresh(phi: AltForm) -> AltForm:
    return AltForm(phi.dim, phi.degree, dict(phi.terms))


def volume_samples(rng) -> list:
    """phi_minus, phi_plus and three c g^* copies of each, with c > 0 and det g of either sign."""
    forms = []
    for base in (canonical_phi_minus(), canonical_phi_plus()):
        forms.append(base)
        for _ in range(3):
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            forms.append(c * pullback(random_invertible(rng, 7, 2), base))
    return forms


@pytest.mark.parametrize("c", [3, 512, Fraction(1, 7), -5], ids=str)
class TestVolumeIndependence:
    """The metric and the Cayley frame of phi depend on phi alone: under c e^{1..7} they
    are exactly what they are under sgn(c) e^{1..7}; only the Q form is read against vol,
    and the metric's volume form s e^{1..7} takes the orientation of vol."""

    def test_metric(self, c, rng):
        sign = 1 if c > 0 else -1
        for phi in volume_samples(rng):
            got = metric_from_phi(fresh(phi), VolumeForm.standard(7, c))
            expected = metric_from_phi(fresh(phi), VolumeForm.standard(7, sign))
            assert got.ip.gram == expected.ip.gram
            assert (got.scale, got.orbit) == (expected.scale, expected.orbit)
            assert got.exact_B.B == tuple(tuple(x * sign / c for x in r) for r in expected.exact_B.B)
            assert got.vol == expected.vol
            assert got.vol.coefficient() * sign > 0 and float(got.vol.coefficient() * sign) == got.scale

    def test_cayley_frame(self, c, rng):
        sign = 1 if c > 0 else -1
        for phi in volume_samples(rng):
            if classify7(phi, VOL) != OrbitClass7.O7_MINUS:
                continue
            got = canonicalize7(fresh(phi), VolumeForm.standard(7, c))
            expected = canonicalize7(fresh(phi), VolumeForm.standard(7, sign))
            assert got.basis == expected.basis
            assert got.residual == expected.residual
