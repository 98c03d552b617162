"""Acceptance suite: one test per criterion, at the stated counts and tolerances.

Each test prints a single PASS line on success (pytest -v also shows one
pass/fail line per criterion through the test names).
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_invertible, random_three_form, rational_rotation
from stableforms import bridge, compalg, framecalc, stable6, stable7, vcp
from stableforms.compalg import AlgebraTag
from stableforms.exteralg import (InnerProduct, VolumeForm, alt_form, basis_form,
                                  form_inner, pullback, wedge)
from stableforms.linalg import mat_mul

VOL6 = VolumeForm.standard(6)
VOL7 = VolumeForm.standard(7)
E8 = [tuple(Fraction(1 if i == k else 0) for i in range(8)) for k in range(8)]
E7 = [tuple(Fraction(1 if i == k else 0) for i in range(7)) for k in range(7)]


def test_c01_composition_identity_all_algebras():
    rng = random.Random(101)
    for tag in AlgebraTag:
        for _ in range(1000):
            x = compalg.random_element(tag, rng, span=6)
            y = compalg.random_element(tag, rng, span=6)
            assert compalg.norm(compalg.multiply(x, y)) == compalg.norm(x) * compalg.norm(y)
    print("PASS criterion 1: N(xy) = N(x)N(y) exactly, 1000 random pairs in each of H, U, O, B")


def test_c02_brown_gray_axioms():
    products = [vcp.cross_2fold(AlgebraTag.O), vcp.cross_2fold(AlgebraTag.B)]
    for tag in (AlgebraTag.O, AlgebraTag.B):
        for variant in ("X1", "X2"):
            products.append(vcp.cross_3fold(tag, variant))
    for cp in products:
        rep = vcp.verify_axioms(cp, 500, seed=202)
        assert rep.passed, (cp.variant, cp.tag, rep.failed_checks())
    print("PASS criterion 2: both Brown-Gray axioms exact, 500 tuples, X over O/B and X1/X2 over both")


def test_c03_prop41_reproduction():
    for variant in ("X1", "X2"):
        res = bridge.vcp_to_stable7(vcp.cross_3fold(AlgebraTag.O, variant), E8[0])
        assert res.phi == stable7.canonical_phi_minus()
        res_b = bridge.vcp_to_stable7(vcp.cross_3fold(AlgebraTag.B, variant), E8[0])
        assert stable7.classify7(res_b.phi, VOL7) == stable7.OrbitClass7.O7_PLUS
    print("PASS criterion 3: contraction against e0 reproduces canonical phi- exactly; split case lands in O7_PLUS")


def test_c04_orbit_invariants():
    rng = random.Random(404)
    omega = stable6.canonical_omega_minus()
    lam0 = stable6.lambda_coeff(omega, VOL6).value
    for _ in range(200):
        g = random_invertible(rng, 6, span=2)
        assert stable6.lambda_coeff(pullback(g, omega), VOL6).value == g.det() ** 2 * lam0
        assert stable6.classify6(pullback(g, omega), VOL6) == stable6.OrbitClass6.O6_MINUS
    phi = stable7.canonical_phi_plus()
    B0 = stable7.q_form(phi, VOL7).B
    for _ in range(200):
        g = random_invertible(rng, 7, span=2)
        B1 = stable7.q_form(pullback(g, phi), VOL7).B
        gt_b_g = mat_mul(mat_mul([list(r) for r in zip(*g.matrix)],
                                 [list(r) for r in B0]), [list(r) for r in g.matrix])
        det = g.det()
        assert all(B1[i][j] == det * gt_b_g[i][j] for i in range(7) for j in range(7))
        assert stable7.classify7(pullback(g, phi), VOL7) == stable7.OrbitClass7.O7_PLUS
    print("PASS criterion 4: lambda and Q transform by det(g)^2 and det(g) g^T B g exactly, 200 maps each")


def test_c05_structure_identities():
    rng = random.Random(505)
    counts = {stable6.OrbitClass6.O6_PLUS: 0, stable6.OrbitClass6.O6_MINUS: 0}
    while min(counts.values()) < 100:
        omega = random_three_form(rng, 6, span=4, nterms=12)
        lam = stable6.lambda_coeff(omega, VOL6).value
        if lam == 0:
            continue
        cls = stable6.classify6(omega, VOL6)
        if counts[cls] >= 100:
            continue
        ss = stable6.scaled_structure(omega, VOL6)  # verifies K^2 = lambda Id exactly
        counts[cls] += 1
        if cls == stable6.OrbitClass6.O6_PLUS:
            from stableforms.scalars import exact_root

            if exact_root(lam, 2) is not None:
                assert len(ss.eigenspace(-1)) == 3 and len(ss.eigenspace(1)) == 3
    # para eigenspace dimensions, canonical witnesses
    ss = stable6.scaled_structure(stable6.canonical_omega_plus(), VOL6)
    assert len(ss.eigenspace(-1)) == 3 and len(ss.eigenspace(1)) == 3
    print("PASS criterion 5: K^2 = lambda Id exactly for 100 random stable forms of each sign; para eigenspaces (3,3)")


def test_c06_stabilizer_dimensions():
    assert stable6.stabilizer_dim(stable6.canonical_omega_plus()) == 16
    assert stable6.stabilizer_dim(stable6.canonical_omega_minus()) == 16
    assert stable6.stabilizer_dim(stable7.canonical_phi_minus()) == 14
    assert stable6.stabilizer_dim(stable7.canonical_phi_plus()) == 14
    assert 36 - 16 == 20 and 49 - 14 == 35
    print("PASS criterion 6: stabilizer dims 16/16/14/14 with complementary orbit dims 20 and 35")


def test_c07_q_signatures():
    pos, neg, zero = stable7.q_form(stable7.canonical_phi_minus(), VOL7).signature()
    assert zero == 0 and abs(pos - neg) == 7
    pos, neg, zero = stable7.q_form(stable7.canonical_phi_plus(), VOL7).signature()
    assert zero == 0 and abs(pos - neg) == 1
    print("PASS criterion 7: |signature(Q)| = 7 for canonical phi-, 1 for canonical phi+, exact inertia")


def _one_one_basis():
    out = [alt_form(6, 2, {(k, k + 3): 1}) for k in (1, 2, 3)]
    for k, l in itertools.combinations((1, 2, 3), 2):
        out.append(alt_form(6, 2, {(k, l): 1, (k + 3, l + 3): 1}))
        out.append(alt_form(6, 2, {(k, l + 3): 1, (l, k + 3): 1}))
    return out


def test_c08_circle_bundle_suite():
    rng = random.Random(808)
    base = framecalc.flat_torus(6)
    su3 = framecalc.standard_su3()
    basis = _one_one_basis()
    seen_w3 = seen_not = 0
    runs = 0
    while runs < 20 or not (seen_w3 >= 3 and seen_not >= 3):
        F = alt_form(6, 2, {})
        for b in basis:
            F = F + Fraction(rng.randint(-2, 2)) * b
        cb = framecalc.make_circle_bundle(base, F)
        rep = framecalc.classify_g2(cb, su3)
        assert rep.semi_parallel                      # delta phi = 0, re-proved exactly
        fw = form_inner(F, su3.omega, base.ip())
        fw2_zero = wedge(F, wedge(su3.omega, su3.omega)).is_zero
        assert (fw == 0) == fw2_zero == rep.W3        # the three tests agree
        if rep.W3:
            seen_w3 += 1
            assert rep.witnesses["delta_torsion"].is_zero
        else:
            seen_not += 1
        npr = framecalc.nabla_phi(cb, su3)
        assert npr.theta_display_ok                   # nabla_theta phi = (1/2)<F,omega> Omega2
        assert npr.pairing_identity_ok                # <nabla phi, *phi> identity, exact
        runs += 1
    assert runs >= 20
    print(f"PASS criterion 8: delta phi = 0, W3 equivalences, connection identities exact on {runs} randomized bundles ({seen_w3} primitive, {seen_not} not)")


def test_c09_hitchin_variation_constant():
    rng = random.Random(909)
    checked = 0
    while checked < 50:
        omega = random_three_form(rng, 6, span=3, nterms=10)
        if stable6.lambda_coeff(omega, VOL6).value == 0:
            continue
        direction = random_three_form(rng, 6, span=3, nterms=10)
        fd, pairing = framecalc.hitchin_variation(omega, direction, VOL6)
        if abs(pairing) < 1e-9:
            continue
        c = fd / pairing
        assert abs(c - framecalc.HITCHIN_VARIATION_CONSTANT) <= 1e-6, c
        checked += 1
    print("PASS criterion 9: d/dt sqrt|lambda| = (-1) * (hat ^ direction)/vol across 50 random stable pairs, rel. err <= 1e-6")


def test_c10_section6_models():
    kt = framecalc.kodaira_thurston()
    rep = framecalc.para_cy_check(kt, alt_form(4, 2, {(1, 3): 1}), alt_form(4, 2, {(2, 4): 1}),
                                  alt_form(4, 2, {(1, 2): 1, (3, 4): 1}))
    assert rep["all_pass"]
    flat = framecalc.flat_torus(6)
    crit = framecalc.critical_point_check(flat, stable6.canonical_omega_plus())
    assert crit.critical
    iw = framecalc.iwasawa_model()
    omega = alt_form(6, 3, {(1, 3, 5): 1, (2, 4, 5): -1, (1, 4, 6): -1, (2, 3, 6): -1})
    rep_iw = framecalc.critical_point_check(iw, omega)
    assert rep_iw.closed and rep_iw.cocritical
    print("PASS criterion 10: Kodaira-Thurston triple passes, flat-torus form is critical, Iwasawa form is closed and cocritical")


def test_c11_para_extension_identities():
    branches = {}
    for variant in ("X1", "X2"):
        cp3 = vcp.cross_3fold(AlgebraTag.B, variant)
        rep = vcp.verify_para_extension_identities(cp3, E8[0], E8[4], 200, seed=111)
        assert rep.identity_one and rep.identity_two
        assert rep.passed
        branches[variant] = rep.branch
    assert branches == {"X1": "anticommuting", "X2": "commuting"}
    print(f"PASS criterion 11: Step-2 identities exact on 200 tuples for both variants; branches {branches}")


def test_c12_round_trips():
    rng = random.Random(1212)
    for omega in (stable6.canonical_omega_plus(), stable6.canonical_omega_minus()):
        for _ in range(50):
            g = random_invertible(rng, 6, span=2)
            moved = pullback(g, omega)
            canon = stable6.canonicalize6(moved, VOL6)
            assert pullback(canon.basis, omega) == moved
    worst = 0.0
    for _ in range(20):
        g = rational_rotation(rng, 7)
        canon = stable7.canonicalize7(pullback(g, stable7.canonical_phi_minus()), VOL7)
        worst = max(worst, canon.residual)
    assert worst <= 1e-9
    # round trip A: stable-form route reproduces the reduced cross product table
    cp3 = vcp.cross_3fold(AlgebraTag.O, "X1")
    res7 = bridge.vcp_to_stable7(cp3, E8[0])
    back = stable7.cross_from_phi(res7.phi, VOL7)
    red = vcp.reduce_by_unit_vector(cp3, E8[0])
    for i in range(7):
        for j in range(7):
            assert back(E7[i], E7[j]) == red(E7[i], E7[j])
    a = [Fraction(3, 5), 0, 0, Fraction(4, 5), 0, 0, 0, 0]
    res7r = bridge.vcp_to_stable7(cp3, a)
    backr = stable7.cross_from_phi(res7r.phi, VOL7)
    redr = vcp.reduce_by_unit_vector(cp3, a)
    for _ in range(25):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(7))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(7))
        assert all(abs(float(p - q)) <= 1e-9 for p, q in zip(backr(x, y), redr(x, y)))
    # round trip B: plane contraction -> dimension raise -> ambient signature
    for tag, expected in ((AlgebraTag.O, stable7.OrbitClass7.O7_MINUS),
                          (AlgebraTag.B, stable7.OrbitClass7.O7_PLUS)):
        res6 = bridge.vcp_to_stable6(vcp.cross_3fold(tag, "X1"), E8[0], E8[4])
        lift = bridge.stable6_to_7(res6.omega, res6.ip, res6.vol)
        assert lift.orbit == expected
    print(f"PASS criterion 12: canonicalize6 exact on 100 pullbacks, canonicalize7 residual {worst:.2e} <= 1e-9, bridge round trips A and B")
