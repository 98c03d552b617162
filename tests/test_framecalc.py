import math
import random
from fractions import Fraction

import pytest

from conftest import iwasawa_su3
from stableforms import framecalc as fc
from stableforms import stable6, stable7
from stableforms.exteralg import VolumeForm, alt_form, basis_form, form_inner, wedge
from stableforms.framecalc import (BUNDLE_ORIENTATION, PreconditionError,
                                   build_g2, classify_g2, covariant_table,
                                   critical_point_check, flat_torus,
                                   hitchin_eval, hitchin_variation,
                                   iwasawa_model, kodaira_thurston,
                                   make_circle_bundle, nabla_phi,
                                   para_cy_check, standard_su3)

T6 = flat_torus(6)
SU3 = standard_su3()


def primitive_f():
    return alt_form(6, 2, {(1, 4): 1, (2, 5): -1})


def nonprimitive_f():
    return alt_form(6, 2, {(1, 4): 1})


def one_one_basis():
    """Basis of the 9-dimensional space of (1,1) 2-forms for the standard J."""
    out = [alt_form(6, 2, {(k, k + 3): 1}) for k in (1, 2, 3)]
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            if k < l:
                out.append(alt_form(6, 2, {(k, l): 1, (k + 3, l + 3): 1}))
                out.append(alt_form(6, 2, {(k, l + 3): 1, (l, k + 3): 1}))
    return out


def random_curvature(rng, span=3):
    F = alt_form(6, 2, {})
    for b in one_one_basis():
        F = F + Fraction(rng.randint(-span, span)) * b
    return F


class TestFrameModel:
    def test_kodaira_thurston_d(self):
        kt = kodaira_thurston()
        assert kt.d(basis_form(4, 4)) == basis_form(4, 2, 3)
        omega = alt_form(4, 2, {(1, 2): 1, (3, 4): 1})
        assert kt.d(omega).is_zero

    def test_flat_torus_d_zero(self, rng):
        from conftest import random_three_form

        assert T6.d(random_three_form(rng, 6)).is_zero

    def test_d_squared_zero_exhaustive(self):
        iw = iwasawa_model()
        import itertools

        for p in (1, 2, 3):
            for idx in itertools.combinations(range(1, 7), p):
                mono = basis_form(6, *idx)
                assert iw.d(iw.d(mono)).is_zero

    def test_jacobi_violation_rejected(self):
        # d e^5 = e^1^e^2 with d e^2 = e^3^e^4 breaks d^2 = 0
        with pytest.raises(PreconditionError):
            fc.FrameModel(5, (1,) * 5, {
                2: alt_form(5, 2, {(3, 4): 1}),
                5: alt_form(5, 2, {(1, 2): 1}),
            })

    def test_codifferential(self, rng):
        from conftest import random_three_form

        assert T6.codifferential(basis_form(6, 1)).is_zero
        iw = iwasawa_model()
        a = random_three_form(rng, 6)
        dd = iw.codifferential(iw.codifferential(a))
        assert dd.is_zero

    def test_omega_squared_piece_closed(self):
        # the omega^2/2 summand of *phi is closed on the total space (this
        # is the cancellation behind delta phi = 0); its codifferential is
        # the nonzero -F ^ rho whenever F != 0
        cb = make_circle_bundle(T6, primitive_f())
        w7 = alt_form(7, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
        half_w2 = Fraction(1, 2) * wedge(w7, w7)
        assert cb.total.d(half_w2).is_zero
        delta = cb.total.codifferential(half_w2, BUNDLE_ORIENTATION)
        rho = basis_form(7, 7)
        F7 = alt_form(7, 2, {idx: c for idx, c in primitive_f().terms.items()})
        assert delta == -1 * wedge(F7, rho)


class TestCircleBundle:
    def test_nonclosed_curvature_rejected(self):
        # on the flat base every constant 2-form is closed; on the Iwasawa
        # frame e^5 ^ e^6 is not
        iw = iwasawa_model()
        assert not iw.d(alt_form(6, 2, {(5, 6): 1})).is_zero
        with pytest.raises(PreconditionError):
            make_circle_bundle(iw, alt_form(6, 2, {(5, 6): 1}))

    def test_total_drho_is_curvature(self):
        F = primitive_f()
        cb = make_circle_bundle(T6, F)
        embedded = alt_form(7, 2, {idx: c for idx, c in F.terms.items()})
        assert cb.total.d(basis_form(7, 7)) == embedded


class TestSU3Data:
    def test_standard_triple_valid(self):
        su3 = standard_su3()
        assert wedge(su3.omega, su3.Omega1).is_zero
        assert Fraction(1, 4) * wedge(su3.Omega1, su3.Omega2) == Fraction(1, 6) * wedge(
            wedge(su3.omega, su3.omega), su3.omega)

    def test_bad_normalization_rejected(self):
        with pytest.raises(PreconditionError, match="normalization"):
            fc.SU3Data(omega=SU3.omega, Omega1=2 * SU3.Omega1, Omega2=SU3.Omega2)

    def test_type_incompatible_rejected(self):
        with pytest.raises(PreconditionError, match="type"):
            fc.SU3Data(omega=alt_form(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1}),
                       Omega1=SU3.Omega1, Omega2=SU3.Omega2)


class TestBuildG2:
    def test_flat_zero_curvature_is_canonical(self):
        cb = make_circle_bundle(T6, alt_form(6, 2, {}))
        phi, star = build_g2(cb, SU3)
        assert stable7.classify7(phi, VolumeForm.standard(7)) == stable7.OrbitClass7.O7_MINUS
        # the display equals the honest Hodge dual; checked again here
        assert cb.total.hodge(phi, BUNDLE_ORIENTATION) == star

    def test_star_display(self, rng):
        cb = make_circle_bundle(T6, random_curvature(rng))
        phi, star = build_g2(cb, SU3)
        rho = basis_form(7, 7)
        w7 = alt_form(7, 2, {idx: c for idx, c in SU3.omega.terms.items()})
        om2 = alt_form(7, 3, {idx: c for idx, c in SU3.Omega2.terms.items()})
        assert star == wedge(om2, rho) - Fraction(1, 2) * wedge(w7, w7)

    def test_phi_wedge_star_positive(self, rng):
        cb = make_circle_bundle(T6, random_curvature(rng))
        phi, star = build_g2(cb, SU3)
        vol7 = VolumeForm.standard(7, BUNDLE_ORIENTATION)
        assert vol7.ratio(wedge(phi, star)) == 7

    def test_non_one_one_curvature_rejected(self):
        with pytest.raises(PreconditionError, match=r"\(1,1\)"):
            cb = make_circle_bundle(T6, alt_form(6, 2, {(1, 2): 1}))
            build_g2(cb, SU3)


class TestClassifyG2:
    def test_parallel_when_flat(self):
        rep = classify_g2(make_circle_bundle(T6, alt_form(6, 2, {})), SU3)
        assert rep.parallel and rep.W1_nearly and rep.W2_almost and rep.W3 and rep.semi_parallel

    def test_primitive_curvature_w3(self):
        rep = classify_g2(make_circle_bundle(T6, primitive_f()), SU3)
        assert rep.W3 and rep.semi_parallel
        assert not rep.parallel and not rep.W2_almost
        assert not rep.witnesses["dphi"].is_zero
        assert rep.witnesses["F_dot_omega"] == 0

    def test_nonprimitive_curvature_semi_only(self):
        rep = classify_g2(make_circle_bundle(T6, nonprimitive_f()), SU3)
        assert rep.semi_parallel and not rep.W3
        assert rep.witnesses["F_dot_omega"] == 1

    def test_randomized_equivalences_and_lattice(self, rng):
        hit_w3 = hit_not = 0
        for _ in range(25):
            F = random_curvature(rng, span=2)
            rep = classify_g2(make_circle_bundle(T6, F), SU3)
            assert rep.semi_parallel
            prim = form_inner(F, SU3.omega, T6.ip()) == 0
            assert rep.W3 == prim
            assert rep.witnesses["delta_torsion"].is_zero
            if rep.W3:
                hit_w3 += 1
            else:
                hit_not += 1
            if rep.parallel:
                assert rep.W2_almost and rep.W3 and rep.W1_nearly
        assert hit_w3 > 0 and hit_not > 0

    def test_unbalanced_base_rejected(self):
        # Iwasawa base: d Omega2 != 0 for the standard triple
        iw = iwasawa_model()
        with pytest.raises(PreconditionError):
            classify_g2(make_circle_bundle(iw, alt_form(6, 2, {})), SU3)


class TestNonflatBase:
    # the Iwasawa frame is special balanced (d Omega_i = 0, d(omega^2) = 0)
    # but not Kahler (d omega != 0): a genuinely nonflat base

    def test_triple_is_special_balanced(self):
        iw = iwasawa_model()
        su3 = iwasawa_su3()
        assert iw.d(su3.Omega1).is_zero and iw.d(su3.Omega2).is_zero
        assert iw.d(wedge(su3.omega, su3.omega)).is_zero
        assert not iw.d(su3.omega).is_zero
        assert fc.bundle_orientation(su3) == 1
        assert fc.bundle_orientation(SU3) == -1

    def test_w3_without_flatness(self):
        # with zero curvature the bundle structure is W3 but not almost
        # parallel: d phi = rho ^ d omega != 0
        cb = make_circle_bundle(iwasawa_model(), alt_form(6, 2, {}))
        rep = classify_g2(cb, iwasawa_su3())
        assert rep.semi_parallel and rep.W3
        assert not rep.W2_almost and not rep.parallel

    def test_classification_and_connection_identities(self):
        su3 = iwasawa_su3()
        iw = iwasawa_model()
        prim = alt_form(6, 2, {(1, 2): 1, (3, 4): -1})
        nonprim = alt_form(6, 2, {(1, 2): 1})
        rep_p = classify_g2(make_circle_bundle(iw, prim), su3)
        assert rep_p.W3 and rep_p.semi_parallel
        rep_n = classify_g2(make_circle_bundle(iw, nonprim), su3)
        assert not rep_n.W3 and rep_n.semi_parallel
        npr = nabla_phi(make_circle_bundle(iw, nonprim), su3)
        assert npr.experimental          # nonflat Gamma, flagged
        assert npr.theta_display_ok      # the fiber-direction display still exact
        assert npr.pairing == 2 and npr.pairing_identity_ok


class TestConnection:
    def test_flat_base_gamma_zero(self):
        table = covariant_table(make_circle_bundle(T6, primitive_f()))
        assert all(x == 0 for m in table.base_gamma for r in m for x in r)
        # mixed entries are F/2
        F = primitive_f()
        assert table.lifted[0][3][6] == -Fraction(1, 2) * F.coeff((1, 4))
        assert table.lifted[0][6][3] == Fraction(1, 2) * F.coeff((1, 4))

    def test_bracket_consistency(self, rng):
        F = random_curvature(rng, span=2)
        cb = make_circle_bundle(T6, F)
        table = covariant_table(cb)
        n = 6
        for i in range(n):
            for j in range(n):
                ei = [Fraction(1 if t == i + 1 else 0) for t in range(1, 7)]
                ej = [Fraction(1 if t == j + 1 else 0) for t in range(1, 7)]
                fij = F(ei, ej)
                for k in range(7):
                    diff = table.lifted[i][j][k] - table.lifted[j][i][k]
                    expect = -fij if k == 6 else Fraction(0)
                    assert diff == expect

    def test_metric_compatibility_and_torsion(self, rng):
        F = random_curvature(rng, span=2)
        table = covariant_table(make_circle_bundle(T6, F)).lifted
        # metric compatibility: Gamma antisymmetric in the last two slots
        for i in range(7):
            for j in range(7):
                for k in range(7):
                    assert table[i][j][k] == -table[i][k][j]
        # torsion-freeness on random constant fields, exactly
        for _ in range(40):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
            y = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
            for k in range(7):
                nabla_xy = sum(x[i] * y[j] * table[i][j][k] for i in range(7) for j in range(7))
                nabla_yx = sum(y[i] * x[j] * table[i][j][k] for i in range(7) for j in range(7))
                # [x, y] for constant fields: the theta component is -F(x6, y6)
                if k == 6:
                    ei = x[:6]
                    ej = y[:6]
                    bracket = -F(ei, ej)
                else:
                    bracket = Fraction(0)
                assert nabla_xy - nabla_yx == bracket


class TestNablaPhi:
    def test_theta_direction_display(self, rng):
        F = random_curvature(rng)
        rep = nabla_phi(make_circle_bundle(T6, F), SU3)
        assert rep.theta_display_ok
        assert not rep.experimental

    def test_pairing_values(self):
        rep = nabla_phi(make_circle_bundle(T6, nonprimitive_f()), SU3)
        assert rep.pairing == 2  # (1/2) <F,omega> |i_theta *phi|^2 = (1/2)(1)(4)
        assert rep.pairing_identity_ok
        rep0 = nabla_phi(make_circle_bundle(T6, primitive_f()), SU3)
        assert rep0.pairing == 0 and rep0.pairing_identity_ok

    def test_flat_curvature_parallel(self):
        rep = nabla_phi(make_circle_bundle(T6, alt_form(6, 2, {})), SU3)
        assert all(df.is_zero for df in rep.derivatives.values())
        assert rep.nearly_parallel


class TestHitchin:
    def test_eval_values(self):
        assert hitchin_eval(T6, stable6.canonical_omega_plus()).density == 1.0
        assert hitchin_eval(T6, 3 * stable6.canonical_omega_plus()).density == 9.0
        assert hitchin_eval(T6, basis_form(6, 1, 2, 3)).density == 0.0

    @pytest.mark.parametrize("e", [80, -80, 90, -90, 150, -150])
    def test_eval_at_every_size(self, e):
        # lambda(c Omega_minus) = -4 c^4 on T^6, so the density is 2 c^2 exactly;
        # float(lambda) overflows at 1e80 and loses digits or vanishes below 1e-80
        c = Fraction(10) ** e
        value = hitchin_eval(T6, c * stable6.canonical_omega_minus())
        assert value.lam == -4 * c ** 4
        assert abs(value.density - float(2 * c ** 2)) <= math.ulp(float(2 * c ** 2))

    def test_eval_in_range_is_the_float_root(self):
        rng = random.Random(11)
        for _ in range(200):
            c = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) \
                * Fraction(10) ** rng.randint(-60, 60)
            omega = c * stable6.canonical_omega_minus() + rng.randint(-3, 3) * basis_form(6, 1, 2, 4)
            value = hitchin_eval(T6, omega)
            assert value.density == math.sqrt(abs(float(value.lam)))

    @pytest.mark.parametrize("e", [80, -80, 90, -90])
    def test_variation_at_every_size(self, e):
        # at c = 1, Omega_dot = Omega_minus gives (4.0, -4.0); both values scale by c^2
        c = Fraction(10) ** e
        omega = c * stable6.canonical_omega_minus()
        fd, pairing = hitchin_variation(omega, omega, T6.vol())
        scale = float(c ** 2)
        assert fd == pytest.approx(4.0 * scale, rel=1e-9)
        assert pairing == pytest.approx(-4.0 * scale, rel=1e-9)

    @pytest.mark.parametrize("e", [0, 40, -40, 80, -80])
    def test_variation_matches_the_exact_derivative(self, e, rng):
        """lambda is quartic in Omega, so lambda'(0) = (8 o(1) - o(2)) / 6 exactly, with
        o(t) = (lambda(Omega + t dOmega) - lambda(Omega - t dOmega)) / 2.  Then
        d sqrt|lambda| = sign(lambda) lambda'(0) / (2 sqrt|lambda|) is the constant times
        the pairing r / sqrt|lambda|, r = (hat numerator ^ dOmega) / vol, with no rounding;
        the returned pairing is the root of the exact square, to the last bits."""
        from conftest import random_three_form

        vol = T6.vol()
        c = Fraction(10) ** e
        const = Fraction(fc.HITCHIN_VARIATION_CONSTANT)
        checked = 0
        while checked < 8:
            omega, direction = c * random_three_form(rng, 6), c * random_three_form(rng, 6)
            lam = stable6.lambda_coeff(omega, vol).value
            if lam == 0:
                continue

            def o(t):
                return (stable6.lambda_coeff(omega + t * direction, vol).value
                        - stable6.lambda_coeff(omega - t * direction, vol).value) / 2

            dlam = (8 * o(1) - o(2)) / 6
            sign = 1 if lam > 0 else -1
            r = vol.ratio(wedge(stable6.hat(omega, vol).numerator, direction))
            assert sign * dlam / 2 == const * r
            _, pairing = hitchin_variation(omega, direction, vol)
            if dlam == 0:
                assert pairing == 0.0
                continue
            square = dlam ** 2 / (4 * abs(lam))  # (d sqrt|lambda|)^2
            assert (pairing > 0) == (sign * dlam / const > 0)
            assert abs(Fraction(pairing) ** 2 / square - 1) <= Fraction(1, 2 ** 50)
            checked += 1

    def test_euler_homogeneity(self):
        omega = stable6.canonical_omega_plus()
        fd, pairing = hitchin_variation(omega, omega, T6.vol())
        assert abs(fd - 2.0) < 1e-8
        assert fc.HITCHIN_VARIATION_CONSTANT * pairing == 2.0

    def test_orthogonal_direction(self):
        omega = stable6.canonical_omega_plus()
        direction = basis_form(6, 1, 2, 4)
        fd, pairing = hitchin_variation(omega, direction, T6.vol())
        assert pairing == 0.0
        assert abs(fd) <= 1e-8

    def test_constant_across_random_pairs(self, rng):
        from conftest import random_three_form

        checked = 0
        while checked < 12:
            omega = random_three_form(rng, 6)
            if stable6.lambda_coeff(omega, T6.vol()).value == 0:
                continue
            direction = random_three_form(rng, 6)
            fd, pairing = hitchin_variation(omega, direction, T6.vol())
            if abs(pairing) < 1e-9:
                continue
            assert abs(fd / pairing - fc.HITCHIN_VARIATION_CONSTANT) <= 1e-6
            checked += 1


class TestCriticalPoints:
    def test_flat_torus_canonical_plus(self):
        rep = critical_point_check(T6, stable6.canonical_omega_plus())
        assert rep.closed and rep.cocritical and rep.critical

    def test_iwasawa_holomorphic_form(self):
        iw = iwasawa_model()
        omega = alt_form(6, 3, {(1, 3, 5): 1, (2, 4, 5): -1, (1, 4, 6): -1, (2, 3, 6): -1})
        assert iw.d(omega).is_zero
        rep = critical_point_check(iw, omega)
        assert rep.orbit == stable6.OrbitClass6.O6_MINUS
        assert rep.closed and rep.cocritical and rep.critical

    def test_iwasawa_perturbation_not_critical(self):
        iw = iwasawa_model()
        omega = alt_form(6, 3, {(1, 3, 5): 1, (2, 4, 5): -1, (1, 4, 6): -1, (2, 3, 6): -1})
        perturbed = omega + Fraction(1, 2) * basis_form(6, 1, 3, 6)
        rep = critical_point_check(iw, perturbed)
        assert rep.closed and not rep.cocritical and not rep.critical

    def test_unstable_rejected(self):
        with pytest.raises(stable6.NotStableError):
            critical_point_check(T6, basis_form(6, 1, 2, 3))


class TestParaCY:
    def test_kodaira_thurston_triple(self):
        kt = kodaira_thurston()
        rep = para_cy_check(kt, alt_form(4, 2, {(1, 3): 1}), alt_form(4, 2, {(2, 4): 1}),
                            alt_form(4, 2, {(1, 2): 1, (3, 4): 1}))
        assert rep["all_pass"]

    def test_product_torus_pair(self):
        rep = para_cy_check(T6, basis_form(6, 1, 2, 3), basis_form(6, 4, 5, 6))
        assert rep["all_pass"]

    def test_degenerate_pair_fails(self):
        rep = para_cy_check(flat_torus(4), alt_form(4, 2, {(1, 2): 1}),
                            alt_form(4, 2, {(1, 2): 1}))
        assert not rep["alpha_wedge_beta_nonzero"]
        assert not rep["all_pass"]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            para_cy_check(T6, basis_form(6, 1, 2), basis_form(6, 4, 5, 6))
