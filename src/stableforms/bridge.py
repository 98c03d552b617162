"""The dictionary between vector cross products and stable forms, both ways.

Down: contracting a 3-fold product against a space-like unit vector (or a
Lorentzian plane) produces the canonical stable forms on the complement.
Up: a stable 6-form plus a compatible inner product lifts to a stable
7-form ``Omega -+ beta ^ omega``; a stable 7-form induces a 2-fold cross
product (``stable7.cross_from_phi``), and wedging with the Hodge dual lifts
it to a 3-fold one.

Orientation bookkeeping: with the plain sorted volume e^{1..7} on the
7-space, ``beta ^ phi + *phi`` is exactly the fundamental 4-form of X1 (the
minus sign gives X2), and the 6-dim complement of the beta-slot inherits
the adapted orientation -e^{1..6} used by the canonical displays.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from . import stable6, stable7
from .exteralg import (AltForm, InnerProduct, LinearMap, VolumeForm, alt_form,
                       basis_form, hodge_star, wedge)
from .linalg import _bilinear, _clear, _numerators, mat_mul, transpose
from .scalars import _float_root, _Record, exact_root
from .stable6 import NotStableError, ScaledStructure
from .vcp import CrossProduct, _complement, _product_from_form, _vec


class AdaptedFrame(_Record):
    """Unit vector (and optional plane partner) with an exact complement basis."""

    a: tuple
    b: tuple | None
    complement: tuple
    labels: tuple


def _adapted_frame(a: tuple, b: tuple | None, comp: list) -> AdaptedFrame:
    labels = tuple(i + 1 for i, v in enumerate(zip(*comp)) if any(x != 0 for x in v))
    return AdaptedFrame(a, b, tuple(comp), labels)


class Stable7FromVCP(_Record):
    phi: AltForm
    frame: AdaptedFrame
    ip: InnerProduct  # restriction of the algebra inner product to the complement


def vcp_to_stable7(cp3: CrossProduct, a: Sequence) -> Stable7FromVCP:
    """phi(x,y,z) = -<X'(x,y,z), a> on the complement of a space-like unit a.

    a is cleared once to A / d_a and the complement basis once to integer rows u_i over D
    (``vcp._complement``); each coefficient is the product's core at (u_i, u_j, u_k), x over
    d_x, paired with A on the integer Gram entries over g: -<x, A> / (g d_a D^3 d_x)."""
    if cp3.fold != 3:
        raise ValueError("vcp_to_stable7 starts from a 3-fold product")
    a = _vec(a)
    form, g = cp3.ip._form
    (ca,), (da,) = _clear(a)
    na = _bilinear(form, ca, ca)
    if na == 0:
        raise ValueError("null vector rejected")
    if na != g * da * da:
        raise ValueError("need a space-like unit vector, <a,a> = 1 exactly")
    comp, sub_gram, _, (rows, den) = _complement(cp3.ip, [ca])
    scale = g * da * den ** 3
    terms = {}
    for i, j, k in itertools.combinations(range(7), 3):
        x, dx = cp3.evaluator(rows[i], rows[j], rows[k])
        val = _bilinear(form, x, ca)
        if val != 0:
            terms[(i + 1, j + 1, k + 1)] = Fraction(-val, scale * dx)
    return Stable7FromVCP(alt_form(7, 3, terms), _adapted_frame(a, None, comp),
                          InnerProduct.from_rows(sub_gram))


class Stable6FromVCP(_Record):
    omega: AltForm
    omega_hat: AltForm
    structure: ScaledStructure
    plane_structure: LinearMap   # J_P or L_P in complement coordinates
    plane_scale: Fraction        # s with K = s * J_P exactly; s^2 = |lambda|
    vol: VolumeForm              # orientation in which hat(omega) is the b-contraction
    frame: AdaptedFrame
    ip: InnerProduct


def vcp_to_stable6(cp3: CrossProduct, a: Sequence, b: Sequence) -> Stable6FromVCP:
    """Omega(x,y,z) = -<X'(x,y,z), a> on the complement of the plane {a, b}.

    The hat partner is +<X', b> for an X1-type product and -<X', b> for an
    X2-type one, read off the variant's X1/X2 suffix (so "LIFT-X1" is X1-type);
    the induced (para)complex structure J_P v = -X'(a, b, v) is returned in complement
    coordinates and agrees with K/sqrt(|lambda|) in the returned orientation.
    a, b and the complement basis are cleared once, as in ``vcp_to_stable7``, and
    every product and pairing runs on their numerators, one Fraction per coefficient.
    """
    if cp3.fold != 3:
        raise ValueError("vcp_to_stable6 starts from a 3-fold product")
    a, b = _vec(a), _vec(b)
    form, g = cp3.ip._form
    (ca, cb), (da, db) = _clear(a, b)
    na, nb, nab = (_bilinear(form, u, v) for u, v in ((ca, ca), (cb, cb), (ca, cb)))
    # orthonormal plane in the definite case, Lorentzian in the split case
    expected_nb = 1 if cp3.ip.signature()[1] == 0 else -1
    if nab != 0 or na != g * da * da or nb != expected_nb * g * db * db:
        kind = "orthonormal" if expected_nb == 1 else "Lorentzian"
        raise ValueError(f"plane must be {kind}: <a,a>=1, <b,b>={expected_nb}, <a,b>=0")
    comp, gram, to_local, (rows, den) = _complement(cp3.ip, [ca, cb])
    sign = 1 if cp3.variant.endswith("X1") else -1
    scale_a, scale_b = g * da * den ** 3, g * db * den ** 3
    t_om, t_hat = {}, {}
    for i, j, k in itertools.combinations(range(6), 3):
        x, dx = cp3.evaluator(rows[i], rows[j], rows[k])
        v = _bilinear(form, x, ca)
        h = _bilinear(form, x, cb)
        if v != 0:
            t_om[(i + 1, j + 1, k + 1)] = Fraction(-v, scale_a * dx)
        if h != 0:
            t_hat[(i + 1, j + 1, k + 1)] = Fraction(sign * h, scale_b * dx)
    omega = alt_form(6, 3, t_om)
    omega_hat = alt_form(6, 3, t_hat)
    # J_P v = -X'(a, b, v) restricted to the complement, in complement coords
    cols = []
    for u in rows:
        x, dx = cp3.evaluator(ca, cb, u)
        cols.append([Fraction(-c, dx * da * db * den) for c in to_local(x)])
    jp = LinearMap.from_columns(cols)
    # Omega ^ hat(Omega) is a positive multiple of vol, so the orientation in which the
    # b-contraction can be the hat is the sign of Omega ^ omega_hat
    vol = VolumeForm.standard(6, Fraction(-1 if wedge(omega, omega_hat).coeff(range(1, 7)) < 0 else 1))
    ss = stable6.scaled_structure(omega, vol)
    if stable6.hat(omega, vol).form != omega_hat:
        raise ArithmeticError("b-contraction does not match the hat in either orientation")
    c = _scalar_of(mat_mul(ss.K.matrix, jp.matrix))
    if c is None or c * c != abs(ss.lam.value):
        raise ArithmeticError("K is not a multiple of the plane structure")
    # K o J_P = -s Id with K = s J_P in the complex case; K o L_P = +s Id in the para case
    s = -c if ss.lam.value < 0 else c
    return Stable6FromVCP(omega, omega_hat, ss, jp, s, vol, _adapted_frame(a, b, comp),
                          InnerProduct.from_rows(gram))


def _scalar_of(m) -> Fraction | None:
    n = len(m)
    c = m[0][0]
    for i in range(n):
        for j in range(n):
            if m[i][j] != (c if i == j else 0):
                return None
    return c


def synthesize_compatible_ip(ss: ScaledStructure) -> InnerProduct:
    """A nondegenerate inner product compatible with the structure of (K, lambda).

    Complex case: average the Euclidean metric over {Id, K/sqrt(-lambda)},
    scaled to stay rational: G = |lambda| Id + K^T K.  Paracomplex case: eigenvectors
    minus_k, plus_k pair to 1, eigenspaces isotropic (so <Lx, Ly> = -<x, y>); the dual row of
    each is row f of (s -+ K)/(2s), s^2 = lambda, f its free column: G = sum_k x_k^T y_k + y_k^T x_k.
    """
    lam = ss.lam.value
    n = ss.K.dim_in
    km = ss.K.matrix
    if lam < 0:
        g = mat_mul(transpose(km), km)
        for i in range(n):
            g[i][i] = g[i][i] + abs(lam)
        return InnerProduct.from_rows(g)
    s = exact_root(lam, 2)
    if s is None:
        raise NotStableError("paracomplex synthesis needs sqrt(lambda) rational")
    r, den = _numerators(km)
    t = int(s * den)  # an integer: R^2 = t^2 Id for R = den K, and (s -+ K)/(2s) = (t -+ R)/(2t)
    x, y = ([[t * (i == f) + sign * c for i, c in enumerate(r[f])]
             for f in (max(i for i, c in enumerate(v) if c) for v in ss.eigenspace(sign))]
            for sign in (-1, 1))
    g = [[Fraction(sum(a[i] * b[j] + b[i] * a[j] for a, b in zip(x, y)), 4 * t * t) for j in range(n)]
         for i in range(n)]
    return InnerProduct.from_rows(g)


class Lift7(_Record):
    """Result of the dimension raise Omega -> phi = Omega -+ beta ^ omega."""

    phi: AltForm
    omega: AltForm               # the 2-form actually wedged into phi
    orbit: stable7.OrbitClass7
    normalization_exact: bool
    scale_float: float           # the multiplier q with omega = q <K x, y>, as a normal float
    residual: float              # |1 - scale_float^6 / q^6|, exactly, as a float; 0.0 when exact
    metric7: InnerProduct | None


def stable6_to_7(omega: AltForm, ip: InnerProduct, vol: VolumeForm | None = None) -> Lift7:
    """Append a unit direction and wedge in the Hermitian form of (K, ip).

    The inner product must be compatible: K^T G K = |lambda| G for the
    complex orbit and -|lambda| G for the paracomplex one (exact check).
    omega is rescaled by q = r^(1/3) / sqrt|lambda|, r exact, so that
    (1/4) Omega ^ hat = (1/6) omega^3.  When q is rational the lift is exact
    and scale_float is float(q); otherwise the exact unnormalized lift is kept
    for classification, and scale_float is the signed root of order 6 of the
    exact q^6 = r^2 / |lambda|^3, with residual the exact relative error of
    its sixth power.  Both floats come from ``scalars._float_root``, so a
    scale outside the normal float range raises its named OverflowError.
    """
    vol = vol or VolumeForm.standard(6)
    ss = stable6.scaled_structure(omega, vol)
    lam = ss.lam.value
    lam_abs = abs(lam)
    km, g6 = ss.K.matrix, ip.gram
    w = mat_mul(transpose(km), g6)  # omega_s(x,y) = <Kx, y>
    wk = mat_mul(w, km)  # K^T G K, which is -lambda G exactly when ip is compatible
    if any(wk[i][j] != -lam * g6[i][j] for i in range(6) for j in range(6)):
        raise ValueError("inner product is not compatible with the induced structure")
    omega_s = alt_form(6, 2, {(i + 1, j + 1): w[i][j] for i in range(6) for j in range(6) if i < j})
    w3 = wedge(wedge(omega_s, omega_s), omega_s)
    num = lam * lam / 2  # (1/4) (Omega ^ hat / vol) |lambda|^{3/2}, by the identity of stable6.hat
    den = Fraction(1, 6) * vol.ratio(w3)
    if den == 0:
        raise ArithmeticError("omega is degenerate")
    r = num / den  # (q sqrt|lambda|)^3 for the scale q of omega = q <K x, y>
    t, s = exact_root(r, 3), exact_root(lam_abs, 2)
    exact = t is not None and s is not None
    metric7 = None
    if exact:
        scale = t / s  # omega = (t/s) <Kx, y> is the Hermitian form of the metric t*G
        q, res = _float_root(abs(scale), 1), 0.0
        g7 = [[t * g6[i][j] for j in range(6)] + [Fraction(0)] for i in range(6)]
        g7.append([Fraction(0)] * 6 + [Fraction(1) if lam < 0 else Fraction(-1)])
        metric7 = InnerProduct.from_rows(g7)
    else:
        scale = Fraction(1 if r > 0 else -1)
        q6 = r * r / lam_abs ** 3  # q^6
        q = _float_root(q6, 6)
        res = float(abs(1 - Fraction(q) ** 6 / q6))
    om7 = alt_form(7, 3, {tuple(idx): c for idx, c in omega.terms.items()})
    w7 = alt_form(7, 2, {idx: scale * c for idx, c in omega_s.terms.items()})
    beta = basis_form(7, 7)
    phi = om7 - wedge(beta, w7) if lam < 0 else om7 + wedge(beta, w7)
    orbit = stable7.classify7(phi, VolumeForm.standard(7))
    expected = stable7.OrbitClass7.O7_MINUS if lam < 0 else stable7.OrbitClass7.O7_PLUS
    if orbit != expected:
        raise ArithmeticError("lift landed in the wrong orbit")
    return Lift7(phi, w7, orbit, exact, q if r > 0 else -q, res, metric7)


def lift_to_3fold(phi: AltForm, vol: VolumeForm | None = None, variant: str = "X1") -> CrossProduct:
    """Classical doubling to a 3-fold product on R + W.

    The fundamental 4-form is beta ^ phi + *phi for the X1-type lift and
    beta ^ phi - *phi for the X2-type one (beta dual to the new first
    coordinate); the product is read back through the direct-sum metric 1 + g, inverse 1 + g^-1.
    *phi is taken against the metric's volume form ``G2Metric.vol``, s e^{1..7}
    (s^2 = |det g|) oriented like vol.  Accepted on verified axioms rather than by construction.
    """
    vol = vol or VolumeForm.standard(7)
    gm = stable7.metric_from_phi(phi, vol)
    eps = Fraction(1) if variant == "X1" else Fraction(-1)
    star = hodge_star(phi, gm.ip, gm.vol)
    shift = lambda f: AltForm(8, f.degree, {tuple(i + 1 for i in idx): c for idx, c in f.terms.items()})
    mu3 = wedge(basis_form(8, 1), shift(phi)) + eps * shift(star)
    block = lambda m: [[Fraction(1)] + [Fraction(0)] * 7] + [[Fraction(0)] + list(r) for r in m]
    ip8 = InnerProduct.from_rows(block(gm.ip.gram))
    return CrossProduct(8, 3, f"LIFT-{variant}", ip8, _product_from_form(mu3, block(gm.ip.inverse_gram())))
