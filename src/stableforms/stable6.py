"""Classification and structure extraction for 3-forms on a 6-space.

Everything is measured against a declared volume form ``vol``:

* ``K(v) = -i_v Omega ^ Omega`` read through the identification
  ``i_u vol  <->  u (x) vol`` of 5-forms with vectors,
* ``lambda = tr(K^2)/6`` as a rational coefficient of ``vol^2``,
* sign(lambda) decides the orbit; the complex structure J = K/sqrt(-lambda)
  and the paracomplex L = K/sqrt(lambda) are never materialized with
  irrational entries - all structure checks run on the exact pair (K, lambda).

Orientation conventions.  Flipping vol flips K (and hence J), and with it
the hat, K^* Omega / |lambda|^{3/2}: ``Omega ^ hat(Omega)`` is a positive
multiple of vol under every vol (``hat``), the positivity condition on the
decomposable complex form whose real part is Omega.  The classical 4-term
displays of the canonical forms are adapted to the *complex* orientation of
their frame, which is the negative of the lexicographic one;
``adapted_vol6()`` provides it.

K is read off the integer wedges i_{e_j} Omega ^ Omega of
``exteralg._interior_wedges``, the kernel it shares with B in ``stable7``.
Omega must have int or Fraction coefficients: every public call here raises
TypeError on any other (a float, a QuadExt).

The invariants are taken at e^{1..6} and scaled on read.  The form's
private ``AltForm._memo`` holds one entry, (K, lambda), made on first use
by ``_k_entry`` (at lambda = 0 also "wedges", its i_{e_j} Omega and
i_{e_j} Omega ^ Omega).
``k_endo`` alone reads it: against c e^{1..6} it returns the
``ScaledStructure`` (K/c, lambda/c^2), lambda = 0 included, and every
other call takes K and lambda from it.  Forms never change, so a race on
the memo only computes the same entry twice.

The canonical frames come from eigenspaces of K over Q(sqrt(lambda))
(Hitchin, *The geometry of three-forms in six dimensions*, 2000): the
(1,0)-covectors of J span ker(K^T - sqrt(lambda)), and L splits V into
ker(K -+ sqrt(lambda)) = im(K +- sqrt(lambda)), as K^2 = lambda Id.  An
irrational root gives rational pairs (a, b), meaning a + sqrt(lambda) b, from
one integer adjugate and no elimination (``_root_kernel``); the projectors
(sqrt(lambda) +- K) / (2 sqrt(lambda)) give the inverse frame, inverting nothing.

``stabilizer_dim`` (dim 6 and 7) asks ``classify6`` or ``stable7.classify7``
whether a form is stable, then reads an unstable form's complex orbit, and
with it the answer, off the integer ranks of the kept "wedges".
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from fractions import Fraction

from .exteralg import (AltForm, LinearMap, VolumeForm, _check_shape, _interior_wedges, _minor, alt_form,
                       pullback, wedge)
from .linalg import _clear, _numerators, nullspace, rank
from .scalars import QuadExt, _Record, exact_root


class NotStableError(ValueError):
    """Raised when an operation requires a stable form and lambda = 0."""


class OrbitClass6(enum.Enum):
    O6_PLUS = "O6_PLUS"
    O6_MINUS = "O6_MINUS"
    NOT_STABLE = "NOT_STABLE"


class Lambda(_Record):
    value: Fraction
    vol: VolumeForm


class ScaledStructure(_Record):
    """K and lambda against one volume form, K^2 = lambda Id (``k_endo``).

    The exact carrier of J (lambda < 0) or L (lambda > 0); lambda = 0 when
    the form is not stable.
    """

    K: LinearMap
    lam: Lambda

    @property
    def is_para(self) -> bool:
        return self.lam.value > 0

    def eigenspace(self, sign: int) -> list[list]:
        """Basis of ker(K - sign*sqrt(lambda)) in the paracomplex case (QuadExt or over Q)."""
        if not self.is_para:
            raise NotStableError("real eigenspaces exist only in the paracomplex case")
        lam, m = self.lam.value, self.K.matrix
        s = exact_root(lam, 2)
        if s is None:
            return [[QuadExt(x, y, lam) for x, y in zip(a, b)] for a, b in _root_kernel(m, lam, sign)]
        return nullspace([[x - sign * s if i == j else x for j, x in enumerate(row)]
                          for i, row in enumerate(m)], ncols=len(m))


def _root_kernel(m, lam: Fraction, sigma: int) -> list[tuple[list, list]]:
    """ker(m - sigma r), r = sqrt(lam) irrational, m^2 = lam Id, as pairs (a, b) meaning a + r b.

    As (m - sigma r)(m + sigma r) = 0, the kernel is im(m + sigma r), and its basis that is
    the identity on the free columns F is (m + sigma r)[:, P] m[F, P]^-1, P the pivots, as
    F and P are disjoint.  The rational m[F, P] is invertible iff span(e_P) meets the kernel
    and its Galois conjugate in 0, i.e. iff the columns P of m - sigma r are independent:
    P is the first such 3-subset.  With m = R/den and adj = delta R[F, P]^-1, a = R[:, P]
    adj / delta, and b = sigma den adj / delta on the rows P and 0 on F.
    """
    r, den = _numerators(m)
    for p in itertools.combinations(range(6), 3):
        f = [i for i in range(6) if i not in p]
        if _minor([r[i] for i in f], p):
            break
    # column k of adj is the cross product of rows k + 1 and k + 2 of R[F, P]: 2 x 2 minors
    adj = [[_minor([r[f[(k + 1) % 3]], r[f[(k + 2) % 3]]], (p[(j + 1) % 3], p[(j + 2) % 3])) for j in range(3)]
           for k in range(3)]
    delta = sum(r[f[0]][j] * x for j, x in zip(p, adj[0]))
    return [([Fraction(sum(r[i][j] * x for j, x in zip(p, col)), delta) for i in range(6)],
             [Fraction(sigma * den * col[p.index(i)], delta) if i in p else Fraction(0) for i in range(6)])
            for col in adj]


def _pair_minor(pairs: list, cols: list, lam: Fraction) -> QuadExt:
    """The 3 x 3 minor at cols of the rows a + sqrt(lam) b: the integer minors of the rows
    taken from a or b, times sqrt(lam)^(rows from b), over the cube of the denominator."""
    (nums,), (d,) = _clear(part[c] for pair in pairs for part in pair for c in cols)
    c = [0] * 4
    for pick in itertools.product((0, 3), repeat=3):
        c[sum(pick) // 3] += _minor([nums[6 * k + q:6 * k + q + 3] for k, q in enumerate(pick)], (0, 1, 2))
    return QuadExt((c[0] + lam * c[2]) / d ** 3, (c[1] + lam * c[3]) / d ** 3, lam)


def _times(q: QuadExt, a: list, b: list) -> tuple[list, list]:
    """The pair of q (a + sqrt(D) b), for q = q.a + sqrt(D) q.b."""
    return [q.a * x + q.D * q.b * y for x, y in zip(a, b)], [q.a * y + q.b * x for x, y in zip(a, b)]


def _re_im(lam: Fraction) -> tuple[AltForm, AltForm]:
    """Re and Im/sqrt(lam) of the wedge of e^k + sqrt(lam) e^(k+3) over k = 1, 2, 3."""
    return (alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): lam, (2, 4, 6): -lam, (3, 4, 5): lam}),
            alt_form(6, 3, {(1, 2, 6): 1, (1, 3, 5): -1, (2, 3, 4): 1, (4, 5, 6): lam}))


def k_endo(omega: AltForm, vol: VolumeForm) -> ScaledStructure:
    """(K, lambda) against vol: K(v) = -i_v Omega ^ Omega via i_u vol <-> u tensor vol.

    The one reader of the memo entry "K": against c e^{1..6} it returns K/c
    and lambda/c^2, lambda = 0 included.
    """
    _check_shape(omega, vol, 6)
    entry = omega._memo.get("K")
    if entry is None:
        entry = omega._memo["K"] = _k_entry(omega)
    (K, lam), c = entry, vol.coefficient()
    if c != 1:
        K = LinearMap.from_rows([[x / c for x in row] for row in K.matrix])
    return ScaledStructure(K, Lambda(lam / c ** 2, vol))


def _k_entry(omega: AltForm) -> tuple[LinearMap, Fraction]:
    """K of omega against the standard volume form e^{1..6}, and lambda = tr(K^2)/6.

    Column j is read off the integer wedge w = i_{e_j} Omega ^ Omega of
    ``_interior_wedges``, one Fraction per entry.  K is squared once, here,
    on its integer numerators R over d^2: K^2 = lambda Id is checked as
    6 (R^2)_ij = tr(R^2) delta_ij, and lambda = tr(R^2) / (6 d^4).
    """
    contractions, wedges, d = _interior_wedges(omega)
    # K e_j = -sum_i (-1)^(i-1) w_(1..6 without i) e_i; i counts from 0 below, bit i for index i + 1
    rows = [[(1 if i & 1 else -1) * w.get(0b111111 ^ 1 << i, 0) for w in wedges] for i in range(6)]
    cols = list(zip(*rows))
    r2 = [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]
    tr = sum(r2[i][i] for i in range(6))
    if any(6 * r2[i][j] != (tr if i == j else 0) for i in range(6) for j in range(6)):
        raise ArithmeticError("K^2 != lambda Id; inconsistent input")
    if not tr:  # only an unstable form's stabilizer_dim reads them
        omega._memo["wedges"] = contractions, wedges
    K = LinearMap(6, 6, tuple(tuple(Fraction(x, d * d) for x in row) for row in rows))
    return K, Fraction(tr, 6 * d ** 4)


def lambda_coeff(omega: AltForm, vol: VolumeForm) -> Lambda:
    """lambda(Omega) = tr(K^2)/6, exact, as a coefficient of vol^2."""
    return k_endo(omega, vol).lam


def classify6(omega: AltForm, vol: VolumeForm) -> OrbitClass6:
    lam = lambda_coeff(omega, vol).value
    if lam > 0:
        return OrbitClass6.O6_PLUS
    if lam < 0:
        return OrbitClass6.O6_MINUS
    return OrbitClass6.NOT_STABLE


def scaled_structure(omega: AltForm, vol: VolumeForm) -> ScaledStructure:
    """The exact pair (K, lambda) with K^2 = lambda Id verified; NotStableError at lambda = 0."""
    ss = k_endo(omega, vol)
    if ss.lam.value == 0:
        raise NotStableError("form is not stable (lambda = 0)")
    return ss


class HatForm(_Record):
    """hat(Omega) = numerator / sqrt(lam_abs); exact AltForm when the root is rational.

    Omega ^ hat(Omega) is a positive multiple of the declared volume form.
    """

    numerator: AltForm
    lam_abs: Fraction
    form: AltForm | None


def hat(omega: AltForm, vol: VolumeForm) -> HatForm:
    """The imaginary (resp. para-imaginary) partner of a stable Omega.

    Computed as Omega(K., K., K.) / |lambda|^{3/2}; only the single factor
    1/sqrt(|lambda|) can be irrational and it is kept symbolic.  Its sign is
    never searched: Omega ^ K^* Omega = 2 lambda^2 vol holds for every
    3-form Omega and every volume form, K^* the pullback by the K of that
    volume form (Hitchin's Omega ^ hat(Omega) = 2 sqrt|lambda| vol, *The
    geometry of three-forms in six dimensions*, 2000), so P = K^* Omega /
    |lambda| has Omega ^ P = 2 |lambda| vol > 0; the wedge checks it.
    """
    ss = scaled_structure(omega, vol)
    lam_abs = abs(ss.lam.value)
    P = (Fraction(1) / lam_abs) * pullback(ss.K, omega)
    if vol.ratio(wedge(omega, P)) != 2 * lam_abs:
        raise ArithmeticError("Omega ^ K^*Omega != 2 lambda^2 vol; inconsistent input")
    s = exact_root(lam_abs, 2)
    return HatForm(P, lam_abs, None if s is None else (1 / s) * P)


class Canon6(_Record):
    """Basis g with pullback(g, canonical form of the class) == Omega."""

    basis: LinearMap
    orbit: OrbitClass6


def canonical_omega_plus() -> AltForm:
    return alt_form(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})


def canonical_omega_plus_4term() -> AltForm:
    """Re((e1+t e4)(e2+t e5)(e3+t e6)) over the paracomplex numbers."""
    return alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): 1, (2, 4, 6): -1, (3, 4, 5): 1})


def canonical_omega_minus() -> AltForm:
    """Re((e1+i e4)(e2+i e5)(e3+i e6)); the paper's basis e5,e6,e7 is 4,5,6 here."""
    return alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): -1, (2, 4, 6): 1, (3, 4, 5): -1})


def canonical_omega_minus_hat() -> AltForm:
    """Im((e1+i e4)(e2+i e5)(e3+i e6))."""
    return alt_form(6, 3, {(1, 2, 6): 1, (1, 3, 5): -1, (2, 3, 4): 1, (4, 5, 6): -1})


def adapted_vol6() -> VolumeForm:
    """Orientation of the complex frame (e1+ie4, e2+ie5, e3+ie6): -e^{123456}."""
    return VolumeForm.standard(6, Fraction(-1))


def canonicalize6(omega: AltForm, vol: VolumeForm) -> Canon6:
    """Recover a basis putting Omega into its canonical form, exactly.

    Paracomplex case: v = v_- + v_+ with v_+- = (s +- K) v / (2s), s = sqrt(lambda), so the
    coefficient of the k-th vector of an eigenbasis that is the identity on columns f_k
    (``nullspace``'s free ones, ``_root_kernel``'s F) is (v_+-)_(f_k); the first vector is
    divided by the value of Omega on its space and its coefficient multiplied by it.  Complex
    case: scale the (1,0)-covectors of J so that their wedge is Omega + i hat(Omega), and take
    their real and imaginary parts.  Nothing is inverted and every check runs over Q; when
    sqrt(|lambda|) is irrational the returned matrix has QuadExt entries.
    """
    ss = scaled_structure(omega, vol)
    if ss.is_para:
        return _canonicalize_para(omega, ss)
    return _canonicalize_complex(omega, ss)


def _canonicalize_para(omega: AltForm, ss: ScaledStructure) -> Canon6:
    s = exact_root(ss.lam.value, 2)
    if s is None:
        return _canonicalize_para_root(omega, ss)
    (r, den), rows = _numerators(ss.K.matrix), []
    t = int(s * den)  # an integer: t^2 = (R^2)_11 for R = den K
    for sign in (-1, 1):
        basis = ss.eigenspace(sign)
        c = omega(*basis)
        if c == 0:
            raise ArithmeticError("Omega does not restrict to volume forms on the eigenspaces")
        for u, scale in zip(basis, (c, 1, 1)):
            f = max(i for i, x in enumerate(u) if x)  # the free column, where u ends in 1
            rows.append([Fraction(scale.numerator * (t * (i == f) + sign * x), scale.denominator * 2 * t)
                         for i, x in enumerate(r[f])])
    g = LinearMap.from_rows(rows)
    if pullback(g, canonical_omega_plus()) != omega:
        raise ArithmeticError("paracomplex canonicalization failed the round trip")
    return Canon6(g, OrbitClass6.O6_PLUS)


def _canonicalize_para_root(omega: AltForm, ss: ScaledStructure) -> Canon6:
    """The paracomplex frame when sqrt(lambda) = r is irrational, from rational pairs.

    minus_k = A_k + r B_k spans ker(K + r); as K A = -lambda B and K B = -A, [A | B]^-1 is [X; Y],
    X_k = e_(f_k)^T, Y_k = -(row f_k of K), and c (X_1 + Y_1/r) once minus_1 is divided by
    c = c_minus = Omega(minus_1, minus_2, minus_3).  The frame is (1/2) [X + Y/r; X - Y/r]; its pullback of
    e^123 + e^456 is the pullback by [X; Y] of (1/4) Re at 1/lambda (``_re_im``).
    """
    lam = ss.lam.value
    a, b = zip(*_root_kernel(ss.K.matrix, lam, -1))
    # Omega(minus_1, minus_2, minus_3) from the values of Omega on the A and B parts
    p = pullback(LinearMap.from_columns(a + b), omega).terms
    c_minus = QuadExt(*(sum(c * p.get(k, 0) for k, c in f.terms.items()) for f in _re_im(lam)), lam)
    if not c_minus:
        raise ArithmeticError("Omega does not restrict to volume forms on the eigenspaces")
    free = [i for i in range(6) if not any(v[i] for v in b)]
    x, y = [[Fraction(i == f) for i in range(6)] for f in free], [[-v for v in ss.K.matrix[f]] for f in free]
    y[0], x[0] = _times(c_minus, y[0], x[0])
    if pullback(LinearMap.from_rows(x + y), Fraction(1, 4) * _re_im(1 / lam)[0]) != omega:
        raise ArithmeticError("paracomplex canonicalization failed the round trip")
    g = [[QuadExt(p / 2, sign * q / (2 * lam), lam) for p, q in zip(xr, yr)]
         for sign in (1, -1) for xr, yr in zip(x, y)]
    return Canon6(LinearMap.from_rows(g), OrbitClass6.O6_PLUS)


def _canonicalize_complex(omega: AltForm, ss: ScaledStructure) -> Canon6:
    """The complex frame (a; sqrt|lambda| b) from the (1,0)-covectors a_k + sqrt(lambda) b_k.

    theta_1 is scaled so that theta = theta_1 ^ theta_2 ^ theta_3 has the
    coefficient of alpha = Omega + i hat(Omega) at key0 = (i, j, k), whose
    imaginary part is (K^* Omega)[key0] / lambda^2 = Omega(K e_i, K e_j,
    K e_k) / lambda^2, one 3 x 3 minor of K per term of Omega.  The check is
    Re theta = Omega over Q, the pullback by (a; b) of the first form of
    ``_re_im``; it is the whole ``Canon6`` contract.  It also implies
    Im theta = hat(Omega): a (3,0)-form is fixed by its real part, since
    Re(z theta) = Omega pins the scalar z, and the sigma = +1 kernel of K^T
    makes alpha, not its conjugate, a multiple of theta.
    """
    lam = ss.lam.value  # negative
    pairs = _root_kernel(list(zip(*ss.K.matrix)), lam, 1)
    key0 = next(iter(omega.terms))
    alpha0 = QuadExt(omega.terms[key0], omega(*(ss.K.column(j - 1) for j in key0)) / (lam * lam), lam)
    pairs[0] = _times(alpha0 / _pair_minor(pairs, [j - 1 for j in key0], lam), *pairs[0])
    a, b = [a for a, _ in pairs], [b for _, b in pairs]
    if pullback(LinearMap.from_rows(a + b), _re_im(lam)[0]) != omega:
        raise ArithmeticError("complex canonicalization failed the round trip")
    s = exact_root(-lam, 2) or QuadExt.root(-lam)
    return Canon6(LinearMap.from_rows(a + [[s * y for y in row] for row in b]),
                  OrbitClass6.O6_MINUS)


_STANDARD_VOL6, _STANDARD_VOL7 = VolumeForm.standard(6), VolumeForm.standard(7)
# (n, w, r) of each unstable complex orbit, 0 included -> its stabilizer dimension
_UNSTABLE_STABILIZER = {(6, 0, 0): 36, (6, 3, 0): 26, (6, 5, 1): 21, (6, 6, 3): 17,
                        (7, 0, 0): 49, (7, 3, 0): 36, (7, 5, 1): 29, (7, 6, 3): 24, (7, 6, 6): 23,
                        (7, 7, 1): 28, (7, 7, 4): 21, (7, 7, 6): 18, (7, 7, 7): 15}


def stabilizer_dim(form: AltForm) -> int:
    """dim { A in gl(V) : sum over slots of form(.., A v_k, ..) = 0 }, in dim 6 or 7.

    The kernel of a rational system: the same over Q, R and C, constant on a
    complex orbit.  A stable form (``classify6``, ``stable7.classify7``) has an
    open orbit, n^2 - C(n,3).  Lambda^3 C^6 has 5 orbits (Reichel 1907, Gurevich
    1964), Lambda^3 C^7 has 10 (Schouten 1931); the unstable ones differ in the
    ranks w of the i_{e_j} form and r of the i_{e_j} form ^ form (GL-equivariant
    maps).  w = 0, 3 and 5 fix r; (7, 7, 7) is det B = 0.
    """
    if form.degree != 3 or form.dim not in (6, 7):
        raise ValueError("stabilizer dimension implemented for 3-forms in dim 6 or 7")
    n = form.dim
    if n == 6:
        stable = classify6(form, _STANDARD_VOL6) != OrbitClass6.NOT_STABLE
    else:
        from .stable7 import OrbitClass7, classify7  # stable7 imports this module
        stable = classify7(form, _STANDARD_VOL7) != OrbitClass7.NOT_STABLE
    if stable:
        return n * n - math.comb(n, 3)
    contractions, wedges = form._memo["wedges"]
    w = _rank_of(contractions)
    r = _rank_of(wedges) if w >= 6 else int(w == 5)
    return _UNSTABLE_STABILIZER[n, w, r]


def _rank_of(forms: list[dict]) -> int:
    """The rank of forms given as {mask: numerator} dicts."""
    keys = set().union(*forms)
    return rank([[f.get(k, 0) for k in keys] for f in forms])
