"""Classification of 3-forms on a 7-space via the quadratic form Q.

``Q(v, w) = i_v phi ^ i_w phi ^ phi`` read against a declared volume form is
an exact symmetric matrix B.  Nondegeneracy plus the absolute signature (7
or 1, computed by exact rational inertia) decides the orbit.  Only the ninth
root in the metric normalization is floating point; B itself, the orbit
decision and the induced cross product stay exact whenever the scale is.

Every public function that needs B computes it exactly once, through
``q_form``, and its signature once, through ``QForm.signature``.  ``metric_from_phi`` and
``canonicalize7`` hand both to the private ``_metric``; ``cross_from_phi``
and ``bridge.lift_to_3fold`` go through ``metric_from_phi``; ``cli classify``
passes the ones it printed to ``_canonicalize7``.  ``_orbit7`` is the one
place that maps a signature to an orbit.  The float frame code of
``canonicalize7`` lives here, next to its only caller.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exteralg import (AltForm, InnerProduct, VolumeForm, _top_pairings, alt_form, contract,
                       wedge)
from .linalg import det, inertia
from .scalars import cbrt_fraction
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

    def signature(self) -> tuple[int, int, int]:
        return inertia([list(r) for r in self.B])


def _check_shape(phi: AltForm, vol: VolumeForm):
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form on a 7-dimensional space")
    if vol.form.dim != 7:
        raise ValueError("volume form must live on the same 7-space")


def q_form(phi: AltForm, vol: VolumeForm) -> QForm:
    """B[i][j] vol = i_{e_i} phi ^ i_{e_j} phi ^ phi, exact and symmetric."""
    _check_shape(phi, vol)
    c = vol.coefficient()
    contractions = []
    for i in range(1, 8):
        ei = [Fraction(1 if k == i else 0) for k in range(1, 8)]
        contractions.append(contract(ei, phi))
    fives = [wedge(cj, phi) for cj in contractions]  # i_{e_j} phi ^ phi
    # B[i][j] vol = i_{e_i} phi ^ fives[j], read as a top-degree pairing
    b = tuple(tuple(x / c for x in row) for row in _top_pairings(contractions, fives))
    for i in range(7):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise ArithmeticError("Q form came out asymmetric")
    return QForm(b, vol)


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
    downstream exact operations can consume it; `scale` records s.  The
    overall sign is pinned by the known signatures: positive definite on
    O7_MINUS and three positive directions (3,4) on O7_PLUS.
    """

    ip: InnerProduct
    scale: float
    exact_B: QForm
    orbit: OrbitClass7


def metric_from_phi(phi: AltForm, vol: VolumeForm) -> G2Metric:
    qf = q_form(phi, vol)
    return _metric(qf, qf.signature())


def _metric(qf: QForm, signature: tuple[int, int, int]) -> G2Metric:
    orbit = _orbit7(signature)
    if orbit == OrbitClass7.NOT_STABLE:
        raise NotStableError("form is not stable (Q degenerate or wrong signature)")
    b = [list(r) for r in qf.B]
    dB = det(b)
    s9 = abs(dB) / Fraction(6) ** 7
    s = float(s9) ** (1.0 / 9.0)
    # exact when s9 is a perfect 9th power; try squares of cubes first
    s_exact = _ninth_root(s9)
    scale = s_exact if s_exact is not None else Fraction(s)
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
    basis: list          # float 7x7 matrix, rows
    residual: float


def canonicalize7(phi: AltForm, vol: VolumeForm) -> Canon7:
    """Float-level canonical basis for the O7_MINUS orbit.

    Orthonormalize for the induced metric, then build a Cayley frame from
    the induced cross product: u3 = X(u1,u2), u5 = X(u1,u4), u6 = X(u2,u4),
    u7 = X(u3,u4).  In such a frame phi takes the canonical coefficients, so
    the inverse frame matrix is the required basis.  Residual is the max
    absolute coefficient error of the round trip.
    """
    qf = q_form(phi, vol)
    return _canonicalize7(phi, qf, qf.signature())


def _canonicalize7(phi: AltForm, qf: QForm, signature: tuple[int, int, int]) -> Canon7:
    if _orbit7(signature) != OrbitClass7.O7_MINUS:
        raise NotStableError("canonicalize7 supports the O7_MINUS orbit only")
    gm = _metric(qf, signature)
    gram = [[float(x) for x in row] for row in gm.ip.gram]
    frame = _gram_schmidt_floats(gram)
    phif = {idx: float(c) for idx, c in phi.terms.items()}

    def ev_form(vecs) -> float:
        total = 0.0
        for idx, c in phif.items():
            total += c * _det3([[vecs[col][row - 1] for col in range(3)] for row in idx])
        return total

    ginv = [[float(x) for x in row] for row in gm.ip.inverse_gram()]

    def cross(x, y):
        cov = []
        for k in range(1, 8):
            ek = [1.0 if i == k else 0.0 for i in range(1, 8)]
            cov.append(ev_form([x, y, ek]))
        return [sum(ginv[i][j] * cov[j] for j in range(7)) for i in range(7)]

    def dot(x, y):
        return _bilinear(gram, x, y)

    def normalize(x):
        n = math.sqrt(dot(x, x))
        return [c / n for c in x]

    u1, u2 = frame[0], frame[1]
    u3 = normalize(cross(u1, u2))
    span = [u1, u2, u3]
    # best remaining frame vector orthogonal to span(u1,u2,u3)
    best, best_res = None, -1.0
    for cand in frame[2:]:
        v = list(cand)
        for u in span:
            c = dot(v, u)
            v = [a - c * b for a, b in zip(v, u)]
        r = dot(v, v)
        if r > best_res:
            best, best_res = v, r
    u4 = normalize(best)
    u5 = normalize(cross(u1, u4))
    u6 = normalize(cross(u2, u4))
    u7 = normalize(cross(u3, u4))
    cols = [u1, u2, u3, u4, u5, u6, u7]
    m = [[cols[j][i] for j in range(7)] for i in range(7)]  # columns are the frame
    basis = _float_inverse(m)
    # residual: pullback(basis, phi_canonical) vs phi
    can = {idx: float(c) for idx, c in canonical_phi_minus().terms.items()}
    residual = 0.0
    for jdx in itertools.combinations(range(1, 8), 3):
        total = 0.0
        for idx, c in can.items():
            total += c * _det3([[basis[i - 1][j - 1] for j in jdx] for i in idx])
        residual = max(residual, abs(total - float(phi.coeff(jdx))))
    return Canon7(basis, residual)


def _gram_schmidt_floats(gram: list) -> list[list[float]]:
    """Orthonormal frame columns for a positive definite float Gram matrix.

    Returns vectors (as lists) f_1..f_n with f_i^T G f_j = delta_ij, built
    from the standard basis in order.
    """
    n = len(gram)
    frame: list[list[float]] = []
    for i in range(n):
        v = [1.0 if j == i else 0.0 for j in range(n)]
        for f in frame:
            c = _bilinear(gram, v, f)
            v = [x - c * y for x, y in zip(v, f)]
        nrm = _bilinear(gram, v, v)
        if nrm <= 0:
            raise ValueError("Gram matrix is not positive definite")
        s = 1.0 / math.sqrt(nrm)
        frame.append([x * s for x in v])
    return frame


def _bilinear(gram, u, v) -> float:
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _det3(m: list) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _float_inverse(m: list) -> list:
    n = len(m)
    a = [row[:] + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]
