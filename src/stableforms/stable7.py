"""Classification of 3-forms on a 7-space via the quadratic form Q.

``Q(v, w) = i_v phi ^ i_w phi ^ phi`` read against a declared volume form is
an exact symmetric matrix B, built from the integer contractions and wedges
of ``exteralg._interior_wedges``.  phi is stable exactly when det B != 0,
and the absolute signature of B (7 or 1) decides the orbit (Hitchin,
*Stable forms and special metrics*, 2001); ``_orbit7`` maps a signature to
an orbit.  Floats enter in three places only: through ``_float_root``,
the metric scale of ``metric_from_phi`` (its ninth root when it is not
rational, the float of the exact scale when it is) and the eighteenth roots
that normalize the exact Cayley frame of ``canonicalize7``, and in that
frame's residual, its own float loop
(``_residual``); no float reaches an ``exteralg`` kernel.  B, the orbit
decision, the frame and its check, and the induced cross product stay
exact whenever the scale is.

``canonicalize7`` builds its Cayley frame on integers from B and phi: a
fraction-free Gram-Schmidt basis gives B^-1, the frame's B-orthogonality
gives the inverse frame, and phi is evaluated on the frame through the
integer matrices of its contractions, with no elimination beyond det B.

The invariants are taken at e^{1..7} and scaled on read.  The form's
private ``AltForm._memo`` holds one entry, (B, the signature of B, det B),
made on first use by one kernel pass and one symmetric elimination
(``linalg._inertia_det``), and at det B = 0 a second, "wedges", the pass's
i_{e_j} phi and i_{e_j} phi ^ phi.  Against c e^{1..7}, ``q_form`` returns
B/c and stores the entry's signature, pos and neg swapped when c < 0.  The
metric, the Cayley frame and ``stable6.stabilizer_dim`` depend on phi alone
and read the entry as it is.  Forms never change, so a race on the memo only
computes the same entry twice.  phi must have int or Fraction coefficients:
every public call here raises TypeError on any other (a float, say).
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exteralg import (AltForm, InnerProduct, VolumeForm, _check_shape, _interior_wedges, _merge_signs,
                       _minor, alt_form)
from .linalg import _clear, _inertia_det, _numerators
from .scalars import _float_root, exact_root
from .stable6 import NotStableError


class OrbitClass7(enum.Enum):
    O7_MINUS = "O7_MINUS"  # absolute signature 7, compact stabilizer
    O7_PLUS = "O7_PLUS"    # absolute signature 1, split stabilizer
    NOT_STABLE = "NOT_STABLE"


@dataclass(frozen=True)
class QForm:
    """B against vol, with the signature of B that ``q_form`` read off the memo entry."""

    B: tuple
    vol: VolumeForm
    _signature: tuple[int, int, int]

    def signature(self) -> tuple[int, int, int]:
        return self._signature


def q_form(phi: AltForm, vol: VolumeForm) -> QForm:
    """B[i][j] vol = i_{e_i} phi ^ i_{e_j} phi ^ phi, exact and symmetric."""
    _check_shape(phi, vol, 7)
    (b, (pos, neg, zero), _), c = _invariants(phi), vol.coefficient()
    return QForm(b if c == 1 else tuple(tuple(x / c for x in r) for r in b), vol,
                 (pos, neg, zero) if c > 0 else (neg, pos, zero))


def _invariants(phi: AltForm) -> tuple[tuple, tuple[int, int, int], Fraction]:
    """The memo entry "B" of phi, (B, its signature, det B) against e^{1..7}, made on first use."""
    entry = phi._memo.get("B")
    if entry is None:
        b = _b_matrix(phi)
        entry = phi._memo["B"] = (b, *_inertia_det(b))
        if entry[2]:  # only an unstable form's stabilizer_dim reads them
            phi._memo.pop("wedges", None)
    return entry


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
    phi._memo["wedges"] = contractions, wedges
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
    _check_shape(phi, vol, 7)
    return _orbit7(_invariants(phi)[1])


@dataclass(frozen=True)
class G2Metric:
    """Metric induced by a stable phi: g = B/(6s), s^9 = |det B| / 6^7, with B at
    e^{1..7}; only `exact_B`, the ``q_form`` of the call, is read against its vol.

    `ip` carries exact entries (the float scale is converted exactly), so
    downstream exact operations can consume it; `scale` records s, exact when
    s^9 is a ninth power and else the float ninth root, and the call raises
    OverflowError when s is not a normal float.  `vol` is the metric's volume
    form s e^{1..7}, oriented like the call's vol.  The overall sign is pinned
    by the known signatures: positive definite on O7_MINUS and three positive
    directions (3,4) on O7_PLUS.
    """

    ip: InnerProduct
    scale: float
    exact_B: QForm
    orbit: OrbitClass7
    vol: VolumeForm


def metric_from_phi(phi: AltForm, vol: VolumeForm) -> G2Metric:
    """The metric of phi, read from B and det B at e^{1..7}: the same under every vol."""
    qf = q_form(phi, vol)
    b, signature, det_b = _invariants(phi)
    orbit = _orbit7(signature)
    if orbit == OrbitClass7.NOT_STABLE:
        raise NotStableError("form is not stable (Q degenerate or wrong signature)")
    s9 = abs(det_b) / Fraction(6) ** 7
    scale = exact_root(s9, 9)
    scale_float = _float_root(s9, 9) if scale is None else _float_root(scale, 1)
    if scale is None:
        scale = Fraction(scale_float)
    g = [[x / (6 * scale) for x in row] for row in b]
    # scale > 0, so g has the signature of B
    pos, neg, _ = signature
    if (orbit == OrbitClass7.O7_MINUS and neg == 7) or (orbit == OrbitClass7.O7_PLUS and pos == 4):
        g = [[-x for x in row] for row in g]
    return G2Metric(InnerProduct.from_rows(g), scale_float, qf, orbit,
                    VolumeForm.standard(7, scale if vol.coefficient() > 0 else -scale))


def cross_from_phi(phi: AltForm, vol: VolumeForm) -> CrossProduct:
    """2-fold product with <X(x,y), z> = phi(x,y,z) for the induced metric."""
    from .vcp import CrossProduct, _product_from_form  # the one use; classify never loads vcp
    gm = metric_from_phi(phi, vol)
    return CrossProduct(7, 2, "PHI", gm.ip, _product_from_form(phi, gm.ip.inverse_gram()))


def canonical_phi_minus() -> AltForm:
    return alt_form(7, 3, {(1, 2, 3): 1, (1, 6, 7): -1, (2, 5, 7): 1, (3, 5, 6): -1,
                           (1, 4, 5): 1, (2, 4, 6): 1, (3, 4, 7): 1})


_PHI_MINUS = {idx: int(c) for idx, c in canonical_phi_minus().terms.items()}  # built once per process


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
    from B and the product Y with B(Y(x, y), z) = phi(x, y, z), which is the
    induced cross product up to the positive factor 6s sgn, where sgn is the
    sign of the definite B.  It runs on integers and takes no elimination
    beyond the memoized det B.  B is cleared once to the positive definite
    integer matrix P = sgn den B.  Fraction-free Gram-Schmidt for P on
    e_1..e_7 (v <- P(u, u) v - P(v, u) u) gives f_1..f_7 with F^T P F =
    diag(N), so P^-1 w = sum_i (f_i . w / N_i) f_i needs no inverse.  u1 =
    f1, u2 = f2, u3 = sgn Y(u1, u2); u4 is the projection v off span(u1, u2,
    u3) of the f among f_3..f_7 that keeps the largest share B(v, v)/B(f, f)
    (the first on a tie); u5, u6, u7 = sgn Y(u_i, u4) for i = 1, 2, 3.  Each
    u_a is kept as a primitive integer vector, a positive multiple of
    itself.  phi is evaluated on the frame in stages from its integer
    numerators: i_{u_a} phi as an antisymmetric matrix, then i_{u_b}, which
    is also the w = phi(u_a, u_b, .) of Y, then a dot product with u_c.  An
    exact check asserts that phi takes on this frame exactly the seven
    canonical terms, each with the coefficient its B-norms demand, and
    raises ArithmeticError otherwise.

    The check also gives the inverse frame matrix U^-1, with no elimination:
    row a is (P u_a)^T / P(u_a, u_a), because U^T B U is diagonal.  B is
    equivariant, B(U^* phi) = det U U^T B U, and a form with the seven terms
    of phi_minus and their signs is D^* phi_minus for a positive diagonal
    D, since the incidence matrix of the Fano plane is invertible (solve
    for log D); B(D^* phi_minus) is diagonal.

    Floats enter only in the normalization: row a of the basis is n_a times
    row a of U^-1, where n_a, the metric length of u_a, has a rational 18th
    power.  ``residual`` reports the largest coefficient error of the float
    round trip basis^* canonical_phi_minus() - phi, summed from float 3 x 3
    minors of the basis; it checks nothing.  When a coefficient of phi has
    no float, it raises an OverflowError that names the residual and the
    coefficient's power of 2.
    """
    _check_shape(phi, vol, 7)
    return _canonicalize7(phi)


def _canonicalize7(phi: AltForm) -> Canon7:
    b_matrix, signature, det_b = _invariants(phi)
    if _orbit7(signature) != OrbitClass7.O7_MINUS:
        raise NotStableError("canonicalize7 supports the O7_MINUS orbit only")
    sgn = 1 if signature[0] == 7 else -1
    # P = sgn den B, an integer positive definite matrix; P(u, v) = P u . v
    rows, den = _numerators(b_matrix)
    p = [[sgn * x for x in row] for row in rows]
    (coeffs,), (d,) = _clear(phi.terms.values())  # phi = coeffs / d
    terms = [(i - 1, j - 1, k - 1, x) for (i, j, k), x in zip(phi.terms, coeffs)]

    def times_p(v: list) -> list:
        return [_dot(row, v) for row in p]

    gs, pgs, ns = [], [], []  # Gram-Schmidt f1..f7, P f_i and N_i = P(f_i, f_i) > 0
    for i in range(7):
        v = [int(i == j) for j in range(7)]
        for f, pf, n in zip(gs, pgs, ns):
            v = _off(v, f, pf, n)
        gs.append(_primitive(v))
        pgs.append(times_p(gs[-1]))
        ns.append(_dot(gs[-1], pgs[-1]))
    # F^T P F = diag(N), so L P^-1 w = sum_i (f_i . w)(L / N_i) f_i with L = lcm(N_i)
    lcm = math.lcm(*ns)

    def cross(w: list) -> list:
        """For w = phi(a, b, .) over d: a primitive positive multiple of sgn Y(a, b) = P^-1 w."""
        scaled = [(_dot(f, w) * (lcm // n), f) for f, n in zip(gs, ns)]
        return _primitive([sum(s * f[k] for s, f in scaled if s) for k in range(7)])

    u = [gs[0], gs[1]]
    m = [_interior_matrix(terms, u[0])]  # i_{u_a} phi
    w = {(0, 1): _interior_vector(m[0], u[1])}  # i_{u_b} i_{u_a} phi = phi(u_a, u_b, .)
    u.append(cross(w[0, 1]))
    pu = [pgs[0], pgs[1], times_p(u[2])]
    # f3..f7 are orthogonal to u1, u2: off u3, f keeps the share 1 - P(f, u3)^2 / (N_f P(u3, u3))
    best = min(range(2, 7), key=lambda i: Fraction(_dot(gs[i], pu[2]) ** 2, ns[i]))
    u.append(_primitive(_off(gs[best], u[2], pu[2], _dot(u[2], pu[2]))))
    m += [_interior_matrix(terms, v) for v in u[1:4]]
    for a in range(3):
        w[a, 3] = _interior_vector(m[a], u[3])
        u.append(cross(w[a, 3]))
    m.append(_interior_matrix(terms, u[4]))
    pu += [times_p(v) for v in u[3:]]
    # (sgn B(u_a, u_a))^9 / n_a^18 = 36 |det B| = (6 s)^9 with s the metric scale
    pnorms = [_dot(v, pv) for v, pv in zip(u, pu)]  # P(u_a, u_a)
    norms = [Fraction(n, den) for n in pnorms]
    d36 = 36 * abs(det_b)
    values = {}  # phi(u_a, u_b, u_c) d, a < b < c
    for a, b in itertools.combinations(range(6), 2):
        wab = w.get((a, b)) or _interior_vector(m[a], u[b])
        for c in range(b + 1, 7):
            values[a + 1, b + 1, c + 1] = _dot(wab, u[c])
    if any(bool(x) != (idx in _PHI_MINUS) for idx, x in values.items()) or any(
            (values[idx] > 0) != (c > 0)
            or Fraction(values[idx], d) ** 6 * d36
            != (norms[idx[0] - 1] * norms[idx[1] - 1] * norms[idx[2] - 1]) ** 3
            for idx, c in _PHI_MINUS.items()):
        raise ArithmeticError("the Cayley frame does not carry phi to the canonical form")
    # the check makes U^T P U = diag(P(u_a, u_a)), so row a of U^-1 is (P u_a)^T / P(u_a, u_a)
    basis = []
    for pv, n, nrm in zip(pu, pnorms, norms):
        t = max(abs(x) for x in pv)  # n_a (P u_a / n) = (n_a t / n)(P u_a / t), both factors in float range
        r = _float_root(nrm ** 9 * Fraction(t, n) ** 18 / d36, 18)
        basis.append([x / t * r for x in pv])
    return Canon7(basis, _residual(basis, phi))


def _residual(basis: list, phi: AltForm) -> float:
    """max |basis^* canonical_phi_minus() - phi| over the coefficients: float sums of
    c * minor over the terms c e^I, in the order of the minor loop of ``exteralg.pullback``."""
    terms = [([basis[i - 1] for i in idx], c) for idx, c in _PHI_MINUS.items()]
    back = {}
    for jdx in itertools.combinations(range(7), 3):
        total = 0
        for rows, c in terms:
            d = _minor(rows, jdx)
            if d:
                total = total + c * d
        if total:
            back[tuple(j + 1 for j in jdx)] = total
    try:
        return max(abs(back.get(idx, 0) - float(phi.terms.get(idx, 0)))
                   for idx in back.keys() | phi.terms.keys())
    except OverflowError:
        x = max(phi.terms.values(), key=abs)
        e = x.numerator.bit_length() - x.denominator.bit_length()
    raise OverflowError(f"canonicalize7 residual: coefficient near 2^{e} is outside the float range")


def _dot(a: list, b: list) -> int:
    return sum(map(operator.mul, a, b))


def _primitive(v: list) -> list:
    """v over the gcd of its entries: the primitive integer vector along v."""
    g = math.gcd(*v)
    return [x // g for x in v]


def _off(v: list, u: list, pu: list, n: int) -> list:
    """An integer positive multiple of v minus its P-projection onto u, given P u
    and n = P(u, u) > 0: n v - P(v, u) u over the gcd of the two factors."""
    c = _dot(v, pu)
    g = math.gcd(n, c)
    return [n // g * x - c // g * y for x, y in zip(v, u)]


def _interior_matrix(terms: list, u: list) -> list:
    """i_u phi as the antisymmetric integer matrix M with (i_u phi)(x, y) = x^T M y,
    for phi = sum x e^{ijk} over the terms (i, j, k, x), indices from 0."""
    m = [[0] * 7 for _ in range(7)]
    for i, j, k, x in terms:
        # i_u e^{ijk} = u_i e^{jk} - u_j e^{ik} + u_k e^{ij}
        for r, s, y in ((j, k, x * u[i]), (i, k, -x * u[j]), (i, j, x * u[k])):
            if y:
                m[r][s] += y
                m[s][r] -= y
    return m


def _interior_vector(m: list, v: list) -> list:
    """i_v of the 2-form with matrix m: the covector (v^T m)_k = -(m v)_k."""
    return [-_dot(row, v) for row in m]
