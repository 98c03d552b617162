import itertools
import random
from fractions import Fraction

import pytest

from conftest import rational_rotation
from stableforms import bridge, stable6, stable7, vcp
from stableforms.compalg import AlgebraTag
from stableforms.exteralg import InnerProduct, LinearMap, VolumeForm, alt_form, pullback, wedge
from stableforms.linalg import _clear, inverse, mat_mul, mat_vec, nullspace
from stableforms.stable6 import (OrbitClass6, adapted_vol6, canonical_omega_minus,
                                 canonical_omega_minus_hat, canonical_omega_plus_4term,
                                 classify6, hat, scaled_structure)
from stableforms.stable7 import OrbitClass7, canonical_phi_minus, canonical_phi_plus, classify7

E8 = [tuple(Fraction(1 if i == k else 0) for i in range(8)) for k in range(8)]
E7 = [tuple(Fraction(1 if i == k else 0) for i in range(7)) for k in range(7)]
VOL7 = VolumeForm.standard(7)

# our lift appends beta as the 7th coordinate; the classical display keeps it
# fourth, so compare through the relabeling (1..7) -> (1,2,3,5,6,7,4)
RELABEL = {1: 1, 2: 2, 3: 3, 4: 5, 5: 6, 6: 7, 7: 4}


def relabel7(form):
    return alt_form(7, form.degree,
                    {tuple(RELABEL[i] for i in idx): c for idx, c in form.terms.items()})


class TestVcpToStable7:
    @pytest.mark.parametrize("variant", ("X1", "X2"))
    def test_octonion_gives_canonical_phi_minus(self, variant):
        cp3 = vcp.cross_3fold(AlgebraTag.O, variant)
        res = bridge.vcp_to_stable7(cp3, E8[0])
        assert res.phi == canonical_phi_minus()
        assert res.ip == InnerProduct.euclidean(7)

    def test_split_classifies_plus(self):
        res = bridge.vcp_to_stable7(vcp.cross_3fold(AlgebraTag.B, "X1"), E8[0])
        assert classify7(res.phi, VOL7) == OrbitClass7.O7_PLUS
        assert res.ip.signature() == (3, 4)

    def test_rational_unit_vector(self):
        a = [Fraction(3, 5), Fraction(4, 5), 0, 0, 0, 0, 0, 0]
        res = bridge.vcp_to_stable7(vcp.cross_3fold(AlgebraTag.O, "X2"), a)
        assert classify7(res.phi, VOL7) == OrbitClass7.O7_MINUS

    def test_null_and_timelike_rejected(self):
        cp3 = vcp.cross_3fold(AlgebraTag.B, "X1")
        null = tuple(Fraction(1 if i in (0, 4) else 0) for i in range(8))
        with pytest.raises(ValueError, match="null"):
            bridge.vcp_to_stable7(cp3, null)
        with pytest.raises(ValueError, match="unit"):
            bridge.vcp_to_stable7(cp3, E8[4])


class TestVcpToStable6:
    @pytest.mark.parametrize("variant", ("X1", "X2"))
    def test_octonion_canonical(self, variant):
        cp3 = vcp.cross_3fold(AlgebraTag.O, variant)
        res = bridge.vcp_to_stable6(cp3, E8[0], E8[4])
        assert res.omega == canonical_omega_minus()
        assert res.omega_hat == canonical_omega_minus_hat()
        assert res.vol.coefficient() == -1  # adapted orientation
        assert res.structure.lam.value == -4

    def test_raw_contraction_flips_between_variants(self):
        # the b-contraction itself changes sign; the branch correction in
        # the hat assignment undoes it
        cp1 = vcp.cross_3fold(AlgebraTag.O, "X1")
        cp2 = vcp.cross_3fold(AlgebraTag.O, "X2")
        comp = bridge.vcp_to_stable6(cp1, E8[0], E8[4]).frame.complement
        for (i, j, k) in ((0, 1, 2), (0, 1, 5), (3, 4, 5)):
            r1 = cp1.ip.pair(cp1(comp[i], comp[j], comp[k]), E8[4])
            r2 = cp2.ip.pair(cp2(comp[i], comp[j], comp[k]), E8[4])
            assert r1 == -r2

    def test_structure_matches_plane(self):
        res = bridge.vcp_to_stable6(vcp.cross_3fold(AlgebraTag.O, "X1"), E8[0], E8[4])
        s = res.plane_scale
        assert s * s == abs(res.structure.lam.value)
        for i in range(6):
            for j in range(6):
                assert res.structure.K.matrix[i][j] == s * res.plane_structure.matrix[i][j]

    def test_hat_matches_normalized_hat(self):
        res = bridge.vcp_to_stable6(vcp.cross_3fold(AlgebraTag.O, "X2"), E8[0], E8[4])
        assert hat(res.omega, res.vol).form == res.omega_hat

    def test_split_para_case(self):
        res = bridge.vcp_to_stable6(vcp.cross_3fold(AlgebraTag.B, "X1"), E8[0], E8[4])
        assert classify6(res.omega, res.vol) == OrbitClass6.O6_PLUS
        assert res.omega == canonical_omega_plus_4term()
        ss = res.structure
        assert len(ss.eigenspace(-1)) == 3 and len(ss.eigenspace(1)) == 3
        assert res.ip.signature() == (3, 3)
        assert hat(res.omega, res.vol).form == res.omega_hat

    def test_wrong_plane_type_rejected(self):
        with pytest.raises(ValueError, match="plane"):
            bridge.vcp_to_stable6(vcp.cross_3fold(AlgebraTag.B, "X1"), E8[0], E8[1])

    def test_circle_equivariance_rational_rotation(self):
        # (a, b) -> (a cos - b sin, a sin + b cos) sends (Omega, hat) to the
        # matching rotation, exactly, for the 3-4-5 angle
        cp3 = vcp.cross_3fold(AlgebraTag.O, "X1")
        base = bridge.vcp_to_stable6(cp3, E8[0], E8[4])
        co, si = Fraction(3, 5), Fraction(4, 5)
        a2 = tuple(co * E8[0][i] - si * E8[4][i] for i in range(8))
        b2 = tuple(si * E8[0][i] + co * E8[4][i] for i in range(8))
        rot = bridge.vcp_to_stable6(cp3, a2, b2)
        assert rot.omega == co * base.omega + si * base.omega_hat
        assert rot.omega_hat == (-si) * base.omega + co * base.omega_hat

    def test_hyperbolic_equivariance_split_case(self):
        # the split analogue: a rational boost (cosh, sinh) = (5/4, 3/4)
        # rotates (Omega, hat) hyperbolically, exactly
        cp3 = vcp.cross_3fold(AlgebraTag.B, "X1")
        base = bridge.vcp_to_stable6(cp3, E8[0], E8[4])
        ch, sh = Fraction(5, 4), Fraction(3, 4)
        a2 = tuple(ch * E8[0][i] + sh * E8[4][i] for i in range(8))
        b2 = tuple(sh * E8[0][i] + ch * E8[4][i] for i in range(8))
        rot = bridge.vcp_to_stable6(cp3, a2, b2)
        assert rot.omega == ch * base.omega + (-sh) * base.omega_hat
        assert rot.omega_hat == (-sh) * base.omega + ch * base.omega_hat


def ref_vcp_to_stable6(cp3, a, b) -> bridge.Stable6FromVCP:
    """A reference for ``vcp_to_stable6`` that tries the hat at e^{1..6} against both
    signs of the b-contraction, and builds the structure of -e^{1..6} by hand: K
    negated, lambda kept."""
    a, b = vcp._vec(a), vcp._vec(b)
    expected_nb = Fraction(1) if cp3.ip.signature()[1] == 0 else Fraction(-1)
    if cp3.ip.pair(a, b) != 0 or cp3.ip.pair(a, a) != 1 or cp3.ip.pair(b, b) != expected_nb:
        raise ValueError("plane")
    comp, gram, to_local, _ = vcp._complement(cp3.ip, [a, b])
    sign = Fraction(1) if cp3.variant.endswith("X1") else Fraction(-1)
    t_om, t_hat = {}, {}
    for i, j, k in itertools.combinations(range(6), 3):
        x = cp3(comp[i], comp[j], comp[k])
        t_om[(i + 1, j + 1, k + 1)] = -cp3.ip.pair(x, a)
        t_hat[(i + 1, j + 1, k + 1)] = sign * cp3.ip.pair(x, b)
    omega, omega_hat = alt_form(6, 3, t_om), alt_form(6, 3, t_hat)
    jp = LinearMap.from_columns([to_local(tuple(-c for c in cp3(a, b, v))) for v in comp])
    vol = VolumeForm.standard(6)
    ss = scaled_structure(omega, vol)
    h = stable6.hat(omega, vol).form
    if h is None or omega_hat not in (h, -h):
        raise ArithmeticError("b-contraction does not match the hat in either orientation")
    if h != omega_hat:
        vol = VolumeForm.standard(6, Fraction(-1))
        ss = stable6.ScaledStructure(LinearMap.from_rows([[-x for x in r] for r in ss.K.matrix]),
                                     stable6.Lambda(ss.lam.value, vol))
    c = bridge._scalar_of(mat_mul([list(r) for r in ss.K.matrix], [list(r) for r in jp.matrix]))
    if c is None or c * c != abs(ss.lam.value):
        raise ArithmeticError("K is not a multiple of the plane structure")
    s = -c if ss.lam.value < 0 else c
    return bridge.Stable6FromVCP(omega, omega_hat, ss, jp, s, vol, bridge._adapted_frame(a, b, comp),
                                 InnerProduct.from_rows(gram))


def isometry(tag: AlgebraTag, rng: random.Random) -> LinearMap:
    """A rational isometry of the algebra's inner product: a rotation for O; for B
    (positive e0..e3, negative e4..e7) a rotation of each block and a boost (5/4, 3/4)."""
    if tag == AlgebraTag.O:
        return rational_rotation(rng, 8, steps=3)
    blocks = [rational_rotation(rng, 4, steps=2).matrix for _ in range(2)]
    rows = [list(r) + [0] * 4 for r in blocks[0]] + [[0] * 4 + list(r) for r in blocks[1]]
    p, q = rng.randrange(4), rng.randrange(4, 8)
    boost = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    boost[p][p] = boost[q][q] = Fraction(5, 4)
    boost[p][q] = boost[q][p] = Fraction(3, 4)
    return LinearMap.from_rows(mat_mul(rows, boost))


def planes(tag: AlgebraTag, rng: random.Random) -> list:
    """Admissible planes (a, b): basis pairs, their flips (b, a) (definite case only) and
    (a, -b), and images of basis pairs under rational isometries."""
    if tag == AlgebraTag.O:
        pairs = [(0, 4), (1, 2), (3, 7), (5, 6)]
    else:
        pairs = [(0, 4), (1, 5), (2, 7), (3, 6)]
    out = []
    for i, j in pairs:
        a, b = E8[i], E8[j]
        out += [(a, b), (a, tuple(-x for x in b))]
        if tag == AlgebraTag.O:
            out.append((b, a))
    for i, j in pairs * 2:
        g = isometry(tag, rng)
        a, b = g.column(i), g.column(j)
        out += [(a, b), (a, [-x for x in b])]
    return out


class TestVcpToStable6Orientation:
    """The orientation is the sign of Omega ^ omega_hat, and the structure is the
    stable6 structure there: every field equals the reference's, over O and B, X1 and
    X2, on both orientations of each plane."""

    @pytest.mark.parametrize("variant", ("X1", "X2"))
    @pytest.mark.parametrize("tag", (AlgebraTag.O, AlgebraTag.B))
    def test_matches_the_two_orientation_reference(self, tag, variant):
        cp3 = vcp.cross_3fold(tag, variant)
        rng = random.Random(f"{tag.value} {variant}")
        orientations = set()
        cases = planes(tag, rng)
        assert len(cases) >= 20
        for a, b in cases:
            got, expected = bridge.vcp_to_stable6(cp3, a, b), ref_vcp_to_stable6(cp3, a, b)
            for name in got._fields:
                assert getattr(got, name) == getattr(expected, name), (name, a, b)
            assert got.structure.lam.vol == got.vol
            assert wedge(got.omega, got.omega_hat).coeff(range(1, 7)) * got.vol.coefficient() > 0
            orientations.add(got.vol.coefficient())
        assert orientations == {1, -1}

    @pytest.mark.parametrize("t", (Fraction(1), Fraction(-3), Fraction(-1)))
    def test_a_contraction_that_is_not_the_hat(self, t):
        """X'' = X' + t <X', b> b stretches the b-contraction by 1 + t and keeps Omega: it is
        the hat in neither orientation at t = 1 and -3, and at t = -1 it is zero, which
        fixes no orientation; both raise ArithmeticError, as the reference does."""
        cp3 = vcp.cross_3fold(AlgebraTag.O, "X1")
        b = E8[4]

        def stretched(*vectors):  # the core's contract: integer vectors in, numerators and one denominator out
            x, den = cp3.evaluator(*vectors)
            (out,), (d,) = _clear([u + t * cp3.ip.pair(x, b) * v for u, v in zip(x, b)])
            return out, den * d

        bent = cp3._replace(evaluator=stretched)
        for run in (bridge.vcp_to_stable6, ref_vcp_to_stable6):
            with pytest.raises(ArithmeticError, match="either orientation"):
                run(bent, E8[0], b)


def ref_basis(ip: InnerProduct, vectors: list) -> list:
    """The nullspace basis of the covectors <v, .>, one vector per free column."""
    return nullspace([mat_vec(ip.gram, v) for v in vectors], ncols=ip.dim)


def ref_to_local(ip: InnerProduct, vectors: list, w) -> tuple:
    """Complement coordinates through the inverse Gram matrix: G^-1 [<u_i, w>] on the basis
    u_i of ``ref_basis``, with no use of ``vcp._complement``."""
    comp = ref_basis(ip, vectors)
    gram_inv = inverse([[ip.pair(u, v) for v in comp] for u in comp])
    return tuple(mat_vec(gram_inv, [ip.pair(u, w) for u in comp]))


def unit_vectors(tag: AlgebraTag) -> list:
    """e_1..e_7 (<e, e> = +-1), and units off the basis: (3/5, 4/5) mixes of two basis vectors on O, and
    x e_0 + y e_4 with x^2 - y^2 = 1 on B."""
    units = E8[1:]
    if tag == AlgebraTag.O:
        co, si = Fraction(3, 5), Fraction(4, 5)
        return units + [tuple(co if k == i else si if k == j else 0 for k in range(8))
                        for i, j in ((0, 4), (1, 6), (2, 3), (5, 7))]
    hyperbolic = [(Fraction(5, 4), Fraction(3, 4)), (Fraction(5, 3), Fraction(-4, 3)),
                  (Fraction(13, 12), Fraction(5, 12)), (Fraction(-17, 8), Fraction(15, 8))]
    return units + [tuple(x if k == 0 else y if k == 4 else 0 for k in range(8)) for x, y in hyperbolic]


class TestComplementCoordinates:
    """``vcp._complement``'s map reads the coordinates of a w in the complement off its
    free-column entries (every caller's w is orthogonal to the vectors, as X(.., a, ..) is
    orthogonal to a); they must equal G^-1 [<u_i, w>] exactly, in Fractions, on unit vectors
    and on planes, and so must the products built on it."""

    @pytest.mark.parametrize("variant", ("X1", "X2"))
    @pytest.mark.parametrize("tag", (AlgebraTag.O, AlgebraTag.B))
    def test_to_local_matches_the_inverse_gram(self, tag, variant):
        cp3 = vcp.cross_3fold(tag, variant)
        rng = random.Random(f"to_local {tag.value} {variant}")
        cases = [[a] for a in unit_vectors(tag)] + [list(plane) for plane in planes(tag, rng)]
        for vectors in cases:
            vecs = [vcp._vec(v) for v in vectors]
            _, _, to_local, _ = vcp._complement(cp3.ip, vecs)
            for _ in range(4):
                w = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)]
                # project w into the complement: the vectors are mutually orthogonal and non-null
                coeffs = [cp3.ip.pair(v, w) / cp3.ip.pair(v, v) for v in vecs]
                w = [x - sum(c * v[k] for c, v in zip(coeffs, vecs)) for k, x in enumerate(w)]
                got = to_local(w)
                assert got == ref_to_local(cp3.ip, vectors, w), (vectors, w)
                assert all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("variant", ("X1", "X2"))
    @pytest.mark.parametrize("tag", (AlgebraTag.O, AlgebraTag.B))
    def test_plane_structure_matches_the_reference(self, tag, variant):
        cp3 = vcp.cross_3fold(tag, variant)
        for a, b in planes(tag, random.Random(f"J_P {tag.value} {variant}")):
            a, b = vcp._vec(a), vcp._vec(b)
            jp = LinearMap.from_columns([ref_to_local(cp3.ip, [a, b], [-c for c in cp3(a, b, v)])
                                         for v in ref_basis(cp3.ip, [a, b])])
            assert bridge.vcp_to_stable6(cp3, a, b).plane_structure == jp, (a, b)

    @pytest.mark.parametrize("variant", ("X1", "X2"))
    @pytest.mark.parametrize("tag", (AlgebraTag.O, AlgebraTag.B))
    def test_reduced_product_matches_the_reference(self, tag, variant):
        cp3 = vcp.cross_3fold(tag, variant)
        rng = random.Random(f"reduce {tag.value} {variant}")
        for a in (u for u in unit_vectors(tag) if cp3.ip.pair(u, u) == 1):
            product = vcp.reduce_by_unit_vector(cp3, a)
            columns = list(zip(*ref_basis(cp3.ip, [a])))
            for _ in range(3):
                x, y = ([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)] for _ in range(2))
                ambient = [tuple(mat_vec(columns, v)) for v in (x, y)]
                got = product(x, y)
                assert got == ref_to_local(cp3.ip, [a], cp3(a, *ambient)), (a, x, y)
                assert all(type(c) is Fraction for c in got)


class TestCompatibleIp:
    def test_complex_synthesis(self):
        ss = scaled_structure(canonical_omega_minus(), VolumeForm.standard(6))
        ip = bridge.synthesize_compatible_ip(ss)
        # K^T G K = |lambda| G
        from stableforms.linalg import mat_mul

        km = [list(r) for r in ss.K.matrix]
        g = [list(r) for r in ip.gram]
        lhs = mat_mul([list(r) for r in zip(*km)], mat_mul(g, km))
        for i in range(6):
            for j in range(6):
                assert lhs[i][j] == 4 * g[i][j]
        assert ip.signature() == (6, 0)

    def test_para_synthesis(self):
        ss = scaled_structure(canonical_omega_plus_4term(), VolumeForm.standard(6))
        ip = bridge.synthesize_compatible_ip(ss)
        assert ip.signature() == (3, 3)
        lift = bridge.stable6_to_7(canonical_omega_plus_4term(), ip)
        assert lift.orbit == OrbitClass7.O7_PLUS


class TestStable6To7:
    def test_canonical_minus_euclidean(self):
        lift = bridge.stable6_to_7(canonical_omega_minus(), InnerProduct.euclidean(6),
                                   adapted_vol6())
        assert lift.normalization_exact
        assert lift.residual == 0.0
        assert relabel7(lift.phi) == canonical_phi_minus()
        assert lift.omega == alt_form(7, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1})

    def test_canonical_plus_split(self):
        lift = bridge.stable6_to_7(canonical_omega_plus_4term(),
                                   InnerProduct.diagonal([1, 1, 1, -1, -1, -1]),
                                   adapted_vol6())
        assert lift.normalization_exact
        assert relabel7(lift.phi) == canonical_phi_plus()
        assert lift.metric7.gram[6][6] == -1  # time-like appended direction

    def test_lift_metric_is_the_induced_g2_metric(self):
        # constant-dilaton consistency: the product metric of the lift is
        # exactly the metric the lifted form induces
        lift = bridge.stable6_to_7(canonical_omega_minus(), InnerProduct.euclidean(6),
                                   adapted_vol6())
        gm = stable7.metric_from_phi(lift.phi, VOL7)
        assert gm.ip == lift.metric7
        liftp = bridge.stable6_to_7(canonical_omega_plus_4term(),
                                    InnerProduct.diagonal([1, 1, 1, -1, -1, -1]),
                                    adapted_vol6())
        gmp = stable7.metric_from_phi(liftp.phi, VOL7)
        assert gmp.ip == liftp.metric7

    def test_scaling_by_cube(self):
        omega = 8 * canonical_omega_minus()
        lift = bridge.stable6_to_7(omega, InnerProduct.euclidean(6), adapted_vol6())
        assert lift.normalization_exact
        assert lift.residual == 0.0
        assert lift.orbit == OrbitClass7.O7_MINUS

    def test_scaling_general_float(self):
        omega = 2 * canonical_omega_minus()
        lift = bridge.stable6_to_7(omega, InnerProduct.euclidean(6), adapted_vol6())
        assert lift.orbit == OrbitClass7.O7_MINUS
        assert lift.residual <= 1e-10

    def test_incompatible_ip_rejected(self):
        with pytest.raises(ValueError, match="compatible"):
            bridge.stable6_to_7(canonical_omega_plus_4term(), InnerProduct.euclidean(6))

    def test_not_stable_rejected(self):
        from stableforms.stable6 import NotStableError

        with pytest.raises(NotStableError):
            bridge.stable6_to_7(alt_form(6, 3, {(1, 2, 3): 1}), InnerProduct.euclidean(6))


SIZE_EXPONENTS = (0, 5, -5, 10, -10, 20, -20, 40, -40, 60, -60, 100, -100, 200, -200, 400, -400)
SPLIT6 = InnerProduct.diagonal([1, 1, 1, -1, -1, -1])


def sized_lifts(m: int, exponents=SIZE_EXPONENTS):
    """(Omega, ip, vol, outcome) for c Omega_-+ with c = m 10^e, e in exponents, under the
    synthesized inner product and the Euclidean (Omega_-) or split (Omega_+) one, in both
    orientations; the outcome is the lift or the OverflowError it raised."""
    for form, fixed in ((canonical_omega_minus(), InnerProduct.euclidean(6)),
                        (canonical_omega_plus_4term(), SPLIT6)):
        for sign in (1, -1):
            vol = VolumeForm.standard(6, Fraction(sign))
            for e in exponents:
                omega = m * Fraction(10) ** e * form
                for ip in (bridge.synthesize_compatible_ip(scaled_structure(omega, vol)), fixed):
                    try:
                        yield omega, ip, vol, bridge.stable6_to_7(omega, ip, vol)
                    except OverflowError as err:
                        yield omega, ip, vol, err


def normalization_ratio(lift: bridge.Lift7, omega, vol) -> Fraction:
    """(omega^3 / 6 vol)^2 / ((1/4) Omega ^ hat / vol)^2 = 4 (omega^3 / 6 vol)^2 / |lambda|, from the
    lift's 2-form and Omega ^ hat(Omega) = 2 sqrt|lambda| vol: 1 exactly when the lift is normalized."""
    w = alt_form(6, 2, lift.omega.terms)
    return 4 * (vol.ratio(wedge(wedge(w, w), w)) / 6) ** 2 / abs(stable6.lambda_coeff(omega, vol).value)


def lift_scale(lift: bridge.Lift7, omega, ip, vol) -> Fraction:
    """The rational c with lift.omega = c <K x, y>, K of (omega, vol) and <,> of ip."""
    km = scaled_structure(omega, vol).K.matrix
    w = mat_mul([list(r) for r in zip(*km)], [list(r) for r in ip.gram])
    (i, j), x = next(iter(lift.omega.terms.items()))
    c = x / w[i - 1][j - 1]
    assert lift.omega.terms == {(a + 1, b + 1): c * w[a][b]
                                for a in range(6) for b in range(a + 1, 6) if w[a][b]}
    return c


class TestStable6To7Sizes:
    def test_every_size_lifts_or_names_the_overflow(self):
        """c = 7 10^e is not a cube, so the scale is a float: each call returns a lift whose
        residual is the relative error of the normalization at scale_float^6, at most 1e-15,
        or raises the OverflowError of the order-6 root; never a bare division error."""
        lifted = raised = 0
        for omega, ip, vol, out in sized_lifts(7):
            if isinstance(out, OverflowError):
                assert str(out).startswith("root of order 6 near 2^")
                raised += 1
                continue
            assert not out.normalization_exact and out.metric7 is None
            c = lift_scale(out, omega, ip, vol)  # the lift keeps omega unnormalized: c = +-1
            assert abs(c) == 1 and (out.scale_float > 0) == (c > 0)
            expected = abs(1 - Fraction(out.scale_float) ** 6 * normalization_ratio(out, omega, vol))
            assert out.residual == float(expected) and out.residual <= 1e-15
            lifted += 1
        assert lifted > 0 and raised > 0

    def test_exact_scales_lift_exactly_or_name_the_overflow(self):
        """c = 8 10^e with 3 | e is a cube, so the scale is rational: the lift is exactly
        normalized with residual 0.0, or its scale is outside the float range and the
        order-1 root (the float of the exact scale) names it."""
        lifted = raised = 0
        for omega, ip, vol, out in sized_lifts(8, (0, 60, -60, 300, -300)):
            if isinstance(out, OverflowError):
                assert str(out).startswith("root of order 1 near 2^")
                raised += 1
                continue
            assert out.normalization_exact and out.residual == 0.0
            assert out.scale_float == float(lift_scale(out, omega, ip, vol))
            assert normalization_ratio(out, omega, vol) == 1
            lifted += 1
        assert lifted > 0 and raised > 0

    def test_cube_scale_is_the_exact_float(self):
        omega = 8 * canonical_omega_minus()
        vol = VolumeForm.standard(6)
        lift = bridge.stable6_to_7(omega, bridge.synthesize_compatible_ip(scaled_structure(omega, vol)), vol)
        assert lift.normalization_exact and lift.scale_float == 2.0 ** -20


class TestRoundTrips:
    def test_round_trip_a_exact_at_e0(self):
        cp3 = vcp.cross_3fold(AlgebraTag.O, "X1")
        res = bridge.vcp_to_stable7(cp3, E8[0])
        back = stable7.cross_from_phi(res.phi, VOL7)
        red = vcp.reduce_by_unit_vector(cp3, E8[0])
        for i in range(7):
            for j in range(7):
                assert back(E7[i], E7[j]) == red(E7[i], E7[j])

    def test_round_trip_a_random_admissible(self, rng):
        cp3 = vcp.cross_3fold(AlgebraTag.O, "X2")
        a = [Fraction(3, 5), 0, Fraction(4, 5), 0, 0, 0, 0, 0]
        res = bridge.vcp_to_stable7(cp3, a)
        back = stable7.cross_from_phi(res.phi, VOL7)
        red = vcp.reduce_by_unit_vector(cp3, a)
        # same complement basis construction on both paths
        assert res.frame.complement == tuple(vcp._complement(cp3.ip, [a])[0])
        for _ in range(15):
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(7))
            y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(7))
            bx, rx = back(x, y), red(x, y)
            assert all(abs(float(p - q)) <= 1e-9 for p, q in zip(bx, rx))

    @pytest.mark.parametrize("tag,expected", ((AlgebraTag.O, OrbitClass7.O7_MINUS),
                                              (AlgebraTag.B, OrbitClass7.O7_PLUS)))
    def test_round_trip_b(self, tag, expected):
        res = bridge.vcp_to_stable6(vcp.cross_3fold(tag, "X1"), E8[0], E8[4])
        lift = bridge.stable6_to_7(res.omega, res.ip, res.vol)
        assert lift.orbit == expected


class TestThreeFoldLift:
    @pytest.mark.parametrize("variant", ("X1", "X2"))
    def test_lift_of_canonical_matches_algebra(self, variant):
        """The lift of phi- is the algebra's product on all 56 basis triples, so the plane
        (e0, e1) reduces both to the same stable 6-form data: the hat sign of "LIFT-X1" is
        the X1 sign, read off the variant's suffix."""
        lifted = bridge.lift_to_3fold(canonical_phi_minus(), variant=variant)
        alg = vcp.cross_3fold(AlgebraTag.O, variant)
        for i in range(8):
            for j in range(i + 1, 8):
                for k in range(j + 1, 8):
                    assert lifted(E8[i], E8[j], E8[k]) == alg(E8[i], E8[j], E8[k])
        got, want = (bridge.vcp_to_stable6(cp3, E8[0], E8[1]) for cp3 in (lifted, alg))
        for name in ("omega", "omega_hat", "plane_scale", "vol"):
            assert getattr(got, name) == getattr(want, name), name

    def test_lift_axioms_and_reduction(self):
        lifted = bridge.lift_to_3fold(canonical_phi_minus(), variant="X1")
        rep = vcp.verify_axioms(lifted, 80, seed=13)
        assert rep.passed, rep.failed_checks()
        red = vcp.reduce_by_unit_vector(lifted, E8[0])
        back = stable7.cross_from_phi(canonical_phi_minus(), VOL7)
        for i in range(7):
            for j in range(7):
                assert red(E7[i], E7[j]) == back(E7[i], E7[j])

    def test_split_lift_axioms(self):
        lifted = bridge.lift_to_3fold(canonical_phi_plus(), variant="X1")
        assert lifted.ip.signature() == (4, 4)
        rep = vcp.verify_axioms(lifted, 80, seed=14)
        assert rep.passed, rep.failed_checks()

    @pytest.mark.parametrize("variant", ("X1", "X2"))
    @pytest.mark.parametrize("d", (2, -3, Fraction(1, 5)))
    def test_lift_of_a_rescaled_phi_passes_the_axioms(self, d, variant):
        """*phi is taken against the metric's volume form s e^{1..7}: on g^* phi_minus
        with g = diag(d, 1, .., 1), s = |d|, the Gram-norm axiom holds as at d = 1."""
        g = LinearMap.from_rows([[d if i == j == 0 else int(i == j) for j in range(7)] for i in range(7)])
        phi = pullback(g, canonical_phi_minus())
        for vol in (VolumeForm.standard(7), VolumeForm.standard(7, -1)):
            rep = vcp.verify_axioms(bridge.lift_to_3fold(phi, vol, variant), 20, 1)
            assert rep.passed, rep.failed_checks()
