"""Classification of 3-forms on a 7-space via the quadratic form Q.

``Q(v, w) = i_v phi ^ i_w phi ^ phi`` read against a declared volume form is
an exact symmetric matrix B, built from the integer contractions and wedges
of ``exteralg._interior_wedges``.  Nondegeneracy plus the absolute
signature (7 or 1, from the fraction-free ``linalg.inertia``) decides the
orbit.  Floats enter in two places only, both through ``_float_root``: the
ninth root of the metric scale in ``_metric`` when it is not rational, and
the eighteenth roots that normalize the exact Cayley frame of
``canonicalize7``.  B, the orbit decision, that frame and its check, and
the induced cross product stay exact whenever the scale is.

B is computed once per form, not once per public call: ``q_form`` keeps it
in the form's private ``AltForm._memo``, keyed by ``vol.coefficient()`` c
(the only thing B takes from vol), so ``q_form``, ``classify7`` and
``canonicalize7`` on one form object build B once between them, under any
volume forms: B and det B are built under c = 1 only, and the entries for
another c are B/c and det B/c^7.  The memo is safe under concurrent use for
the reason given in ``stable6``: forms never change, so a race only
computes the same B twice.  The signature of B is kept the same way, as
``("signature", c)``, made on first read by ``QForm.signature`` (a QForm
from ``q_form`` remembers its form): one inertia per form and volume
coefficient, that of the entry ("B", c).  ``classify7``,
``metric_from_phi``, ``canonicalize7`` and ``cli classify`` all read it;
``metric_from_phi`` hands it with B to the private ``_metric``, and
``canonicalize7`` to ``_canonicalize7``; ``cross_from_phi`` and
``bridge.lift_to_3fold`` go through ``metric_from_phi``.  ``_orbit7`` is the
one place that maps a signature to an orbit.

phi must have int or Fraction coefficients: ``q_form``, and with it
``classify7``, ``metric_from_phi``, ``canonicalize7``, ``cross_from_phi``
and ``stable6.stabilizer_dim``, raises TypeError on any other (a float,
say), because B is built on the integer kernel.

det B has its own memo entry next to B, ``("det B", c)``, made on first
read by ``_det_b``: ``_metric`` and ``_canonicalize7`` read it, and so does
``stable6.stabilizer_dim``, because phi is stable, with a 14-dimensional
stabilizer, exactly when det B != 0 (Hitchin, *Stable forms and special
metrics*, 2001).  Run first, as in ``cli classify``, ``stabilizer_dim``
makes B and det B under the standard volume form, and ``q_form`` and
``canonicalize7`` read them; a classify operation takes one 7 x 7
determinant.  Callers that need only the signature (``classify7``) take
none.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .exteralg import (AltForm, InnerProduct, LinearMap, VolumeForm, _interior_wedges, _merge_signs,
                       alt_form, pullback)
from .linalg import _integer_row, det, inertia
from .scalars import _float_root, cbrt_fraction
from .stable6 import NotStableError
from .vcp import CrossProduct, _product_from_form


class OrbitClass7(enum.Enum):
    O7_MINUS = "O7_MINUS"  # absolute signature 7, compact stabilizer
    O7_PLUS = "O7_PLUS"    # absolute signature 1, split stabilizer
    NOT_STABLE = "NOT_STABLE"


@dataclass(frozen=True)
class QForm:
    B: tuple
    vol: VolumeForm
    # the form that ``q_form`` read B from, whose memo keeps the signature
    _phi: AltForm | None = field(default=None, init=False, repr=False, compare=False)

    def signature(self) -> tuple[int, int, int]:
        if self._phi is None:
            return inertia([list(r) for r in self.B])
        return _signature(self._phi, self.vol.coefficient())


def _check_shape(phi: AltForm, vol: VolumeForm):
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form on a 7-dimensional space")
    if vol.form.dim != 7:
        raise ValueError("volume form must live on the same 7-space")


def q_form(phi: AltForm, vol: VolumeForm) -> QForm:
    """B[i][j] vol = i_{e_i} phi ^ i_{e_j} phi ^ phi, exact and symmetric."""
    _check_shape(phi, vol)
    qf = QForm(_b_memo(phi, vol.coefficient()), vol)
    object.__setattr__(qf, "_phi", phi)
    return qf


def _b_memo(phi: AltForm, c) -> tuple:
    """The memo entry ("B", c) of phi, made on first use; B/c from the entry at c = 1."""
    b = phi._memo.get(("B", c))
    if b is None:
        b = _b_matrix(phi) if c == 1 else tuple(tuple(x / c for x in r) for r in _b_memo(phi, 1))
        phi._memo[("B", c)] = b
    return b


def _det_b(phi: AltForm, c):
    """det B against c e^{1..7}: the memo entry ("det B", c), made on first use.

    Kept apart from ("B", c) so that callers that need only the signature
    of B (``classify7``) never take the determinant; det B/c^7 from c = 1.
    """
    d = phi._memo.get(("det B", c))
    if d is None:
        d = det([list(r) for r in _b_memo(phi, 1)]) if c == 1 else _det_b(phi, 1) / c ** 7
        phi._memo[("det B", c)] = d
    return d


def _signature(phi: AltForm, c) -> tuple[int, int, int]:
    """The signature of B against c e^{1..7}: the memo entry ("signature", c), made on first use."""
    sig = phi._memo.get(("signature", c))
    if sig is None:
        sig = phi._memo[("signature", c)] = inertia([list(r) for r in _b_memo(phi, c)])
    return sig


def _b_matrix(phi: AltForm) -> tuple:
    """B of phi against the standard volume form e^{1..7}.

    B[i][j] vol = i_{e_i} phi ^ (i_{e_j} phi ^ phi) is a top-degree pairing
    of the integer dicts of ``_interior_wedges``: each term e^I of i_{e_i} phi
    meets the complementary term of the 5-form, one Fraction per entry.
    """
    contractions, wedges, d = _interior_wedges(phi)
    full = 0b1111111
    left = [[(full ^ m, _merge_signs(m)[full ^ m] * x) for m, x in c.items()] for c in contractions]
    b = tuple(tuple(Fraction(sum(x * w.get(comp, 0) for comp, x in pairs), d ** 3) for w in wedges)
              for pairs in left)
    for i in range(7):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise ArithmeticError("Q form came out asymmetric")
    return b


def _orbit7(signature: tuple[int, int, int]) -> OrbitClass7:
    pos, neg, zero = signature
    if zero:
        return OrbitClass7.NOT_STABLE
    a = abs(pos - neg)
    if a == 7:
        return OrbitClass7.O7_MINUS
    if a == 1:
        return OrbitClass7.O7_PLUS
    return OrbitClass7.NOT_STABLE


def classify7(phi: AltForm, vol: VolumeForm) -> OrbitClass7:
    return _orbit7(q_form(phi, vol).signature())


@dataclass(frozen=True)
class G2Metric:
    """Metric induced by a stable phi: g = B/(6s), s^9 = |det B| / 6^7.

    `ip` carries exact entries (the float scale is converted exactly), so
    downstream exact operations can consume it; `scale` records s, and the
    call raises OverflowError when s is not a normal float.  The
    overall sign is pinned by the known signatures: positive definite on
    O7_MINUS and three positive directions (3,4) on O7_PLUS.
    """

    ip: InnerProduct
    scale: float
    exact_B: QForm
    orbit: OrbitClass7


def metric_from_phi(phi: AltForm, vol: VolumeForm) -> G2Metric:
    qf = q_form(phi, vol)
    return _metric(phi, qf, qf.signature())


def _metric(phi: AltForm, qf: QForm, signature: tuple[int, int, int]) -> G2Metric:
    """The metric of ``metric_from_phi`` from B = ``q_form(phi, vol)`` and its signature."""
    orbit = _orbit7(signature)
    if orbit == OrbitClass7.NOT_STABLE:
        raise NotStableError("form is not stable (Q degenerate or wrong signature)")
    b = [list(r) for r in qf.B]
    s9 = abs(_det_b(phi, qf.vol.coefficient())) / Fraction(6) ** 7
    # exact when s9 is a perfect 9th power (a cube of a cube)
    scale = _ninth_root(s9)
    if scale is None:
        scale = Fraction(_float_root(s9, 9))
    elif not sys.float_info.min <= scale <= sys.float_info.max:
        e = scale.numerator.bit_length() - scale.denominator.bit_length()
        raise OverflowError(f"metric scale near 2^{e} is outside the normal float range")
    g = [[x / (6 * scale) for x in row] for row in b]
    # scale > 0, so g has the signature of B
    pos, neg, _ = signature
    if orbit == OrbitClass7.O7_MINUS and neg == 7:
        g = [[-x for x in row] for row in g]
    elif orbit == OrbitClass7.O7_PLUS and pos == 4:
        g = [[-x for x in row] for row in g]
    return G2Metric(InnerProduct.from_rows(g), float(scale), qf, orbit)


def _ninth_root(x: Fraction) -> Fraction | None:
    c = cbrt_fraction(x)
    if c is None:
        return None
    return cbrt_fraction(c)


def cross_from_phi(phi: AltForm, vol: VolumeForm) -> CrossProduct:
    """2-fold product with <X(x,y), z> = phi(x,y,z) for the induced metric."""
    gm = metric_from_phi(phi, vol)
    return CrossProduct(7, 2, "PHI", gm.ip, _product_from_form(phi, gm.ip))


def canonical_phi_minus() -> AltForm:
    return alt_form(7, 3, {(1, 2, 3): 1, (1, 6, 7): -1, (2, 5, 7): 1, (3, 5, 6): -1,
                           (1, 4, 5): 1, (2, 4, 6): 1, (3, 4, 7): 1})


def canonical_phi_plus() -> AltForm:
    return alt_form(7, 3, {(1, 2, 3): 1, (1, 6, 7): 1, (2, 5, 7): -1, (3, 5, 6): 1,
                           (1, 4, 5): -1, (2, 4, 6): -1, (3, 4, 7): -1})


@dataclass(frozen=True)
class Canon7:
    basis: list          # float 7x7 matrix, rows: phi = basis^* canonical_phi_minus()
    residual: float


def canonicalize7(phi: AltForm, vol: VolumeForm) -> Canon7:
    """Canonical basis for the O7_MINUS orbit: phi = basis^* canonical_phi_minus().

    The Cayley frame (Bryant, *Some remarks on G2-structures*, 2005) is built
    over Q from B and the product Y with B(Y(x, y), z) = phi(x, y, z), which
    is the induced cross product up to the positive factor 6s sgn, where sgn
    is the sign of the definite B.  Rational Gram-Schmidt for B on e_1..e_7
    gives f_1..f_7; u1 = f1, u2 = f2, u3 = sgn Y(u1, u2); u4 is the
    projection v off span(u1, u2, u3) of the f among f_3..f_7 that keeps
    the largest share B(v, v)/B(f, f) (the first on a tie); u5, u6, u7 =
    sgn Y(u_i, u4) for i = 1, 2, 3.  Each u_a is kept as a primitive integer
    vector, a positive multiple of itself.  An exact check asserts that phi
    takes on this frame exactly the seven canonical terms, each with the
    coefficient its B-norms demand, and raises ArithmeticError otherwise.
    Floats enter only in the normalization: row a of the basis is n_a times
    row a of the inverse frame matrix, where n_a, the metric length of u_a,
    has a rational 18th power.  ``residual`` reports the largest coefficient
    error of the float round trip basis^* canonical_phi_minus() - phi; it
    checks nothing.
    """
    qf = q_form(phi, vol)
    return _canonicalize7(phi, qf, qf.signature())


def _canonicalize7(phi: AltForm, qf: QForm, signature: tuple[int, int, int]) -> Canon7:
    if _orbit7(signature) != OrbitClass7.O7_MINUS:
        raise NotStableError("canonicalize7 supports the O7_MINUS orbit only")
    sgn = 1 if signature[0] == 7 else -1
    ip = InnerProduct.from_rows(qf.B)
    product = _product_from_form(phi, ip)

    def cross(a, b) -> list:
        """sgn Y(a, b) as a primitive integer vector: a positive multiple of the cross product."""
        return [sgn * x for x in _integer_row(product(a, b))[0]]

    gs: list = []  # Gram-Schmidt f1..f7
    for i in range(7):
        gs.append(_project(ip, [int(i == j) for j in range(7)], gs))
    u = [gs[0], gs[1], cross(gs[0], gs[1])]
    # f3..f7 are orthogonal to u1, u2: off u3, f keeps the share 1 - cos^2(f, u3) of B(f, f)
    n3 = ip.pair(u[2], u[2])
    f = min(gs[2:], key=lambda f: ip.pair(f, u[2]) ** 2 / (ip.pair(f, f) * n3))
    u.append(_project(ip, f, u[2:]))
    u += [cross(u[i], u[3]) for i in range(3)]
    # (sgn B(u_a, u_a))^9 / n_a^18 = 36 |det B| = (6 s)^9 with s the metric scale
    norms = [sgn * ip.pair(v, v) for v in u]
    d36 = 36 * abs(_det_b(phi, qf.vol.coefficient()))
    frame = LinearMap.from_columns(u)
    terms = pullback(frame, phi).terms
    canonical = canonical_phi_minus().terms
    if terms.keys() != canonical.keys() or any(
            (c > 0) != (canonical[idx] > 0)
            or c ** 6 * d36 != (norms[idx[0] - 1] * norms[idx[1] - 1] * norms[idx[2] - 1]) ** 3
            for idx, c in terms.items()):
        raise ArithmeticError("the Cayley frame does not carry phi to the canonical form")
    basis = []
    for row, nrm in zip(frame.inverse().matrix, norms):
        t = max(abs(x) for x in row)  # n_a row = (n_a t)(row / t), both factors in float range
        m = _float_root(nrm ** 9 * t ** 18 / d36, 18)
        basis.append([float(x / t) * m for x in row])
    back = pullback(LinearMap.from_rows(basis), canonical_phi_minus())
    residual = max(abs(back.coeff(idx) - float(phi.coeff(idx)))
                   for idx in back.terms.keys() | phi.terms.keys())
    return Canon7(basis, residual)


def _project(ip: InnerProduct, v: list, onto: list) -> list:
    """A primitive integer vector along v minus its ip-projection onto the
    pairwise ip-orthogonal vectors onto; v and onto are integer vectors."""
    for u in onto:
        c = ip.pair(v, u) / ip.pair(u, u)
        v = [c.denominator * x - c.numerator * y for x, y in zip(v, u)]
    g = math.gcd(*v)
    return [x // g for x in v]
