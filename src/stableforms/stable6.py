"""Classification and structure extraction for 3-forms on a 6-space.

Everything is measured against a declared volume form ``vol``:

* ``K(v) = -i_v Omega ^ Omega`` read through the identification
  ``i_u vol  <->  u (x) vol`` of 5-forms with vectors,
* ``lambda = tr(K^2)/6`` as a rational coefficient of ``vol^2``,
* sign(lambda) decides the orbit; the complex structure J = K/sqrt(-lambda)
  and the paracomplex L = K/sqrt(lambda) are never materialized with
  irrational entries - all structure checks run on the exact pair (K, lambda).

Orientation conventions.  Flipping vol flips K (and hence J).  The hat is
normalized by requiring ``Omega ^ hat(Omega)`` to be a positive multiple of
vol, which is the positivity condition on the decomposable complex form
whose real part is Omega.  The classical 4-term displays of the canonical
forms are adapted to the *complex* orientation of their frame, which is the
negative of the lexicographic one; ``adapted_vol6()`` provides it.

K and lambda are computed once per form, not once per public call:
``k_endo`` keeps them in the form's private ``AltForm._memo``, keyed by
``vol.coefficient()`` (the only thing K takes from vol), with K squared and
K^2 = lambda Id checked once, when the entry is made.  So ``lambda_coeff``,
``classify6`` and ``canonicalize6`` on one form object build and square K
once between them.  The memo is safe under concurrent use: a form's terms
never change, so two threads that miss together compute the same entry and
one of the equal values is kept.  ``_structure`` reads (K, lambda) from that
entry for ``lambda_coeff`` and ``scaled_structure``; ``hat`` and
``canonicalize6`` build one ``ScaledStructure`` and pass it to the private
``_hat`` (and to ``_canonicalize6``); ``cli classify`` builds it with
``_structure``, which also accepts lambda = 0.  ``_orbit6`` is the one place
that maps sign(lambda) to an orbit.  The complex canonical basis comes from
the divisor covectors of Omega + i hat(Omega) over Q(sqrt(lambda)); they are
the (1,0)-covectors of J = K/sqrt(-lambda), so ``_canonicalize_complex``
reads them off ker(K^T - sqrt(lambda)), a 6 x 6 system (Hitchin, *The
geometry of three-forms in six dimensions*, 2000).

``stabilizer_dim`` (dim 6 and 7) uses the exact stability criteria: a 3-form
is stable, with a stabilizer of dimension n^2 - C(n, 3), exactly when
lambda != 0 in dim 6 (Hitchin 2000) and det B != 0 in dim 7 (Hitchin,
*Stable forms and special metrics*, 2001).  It reads lambda from the memo
entry that ``k_endo`` fills (det B from ``stable7._det_b``) under the
standard volume form.  Run first, as in ``cli classify``, it makes the entry
that ``lambda_coeff`` and ``canonicalize6`` read next; only unstable forms
build the C(n,3) x n^2 integer system and rank it.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exteralg import AltForm, LinearMap, VolumeForm, alt_form, contract, pullback, wedge
from .linalg import _clear, mat_mul, nullspace, rank, transpose
from .scalars import QuadExt, sqrt_fraction


class NotStableError(ValueError):
    """Raised when an operation requires a stable form and lambda = 0."""


class OrbitClass6(enum.Enum):
    O6_PLUS = "O6_PLUS"
    O6_MINUS = "O6_MINUS"
    NOT_STABLE = "NOT_STABLE"


@dataclass(frozen=True)
class KEndo:
    K: LinearMap
    vol: VolumeForm


@dataclass(frozen=True)
class Lambda:
    value: Fraction
    vol: VolumeForm


@dataclass(frozen=True)
class ScaledStructure:
    """Exact carrier of J (lambda < 0) or L (lambda > 0): K^2 = lambda Id."""

    K: LinearMap
    lam: Lambda

    @property
    def is_complex(self) -> bool:
        return self.lam.value < 0

    @property
    def is_para(self) -> bool:
        return self.lam.value > 0

    def eigenspace(self, sign: int) -> list[list]:
        """Basis of ker(K - sign*sqrt(lambda)) in the paracomplex case."""
        if not self.is_para:
            raise NotStableError("real eigenspaces exist only in the paracomplex case")
        s = sqrt_fraction(self.lam.value)
        if s is None:
            s = QuadExt.root(self.lam.value)
        return _shifted_kernel(self.K.matrix, sign * s)


def _shifted_kernel(m, mu) -> list[list]:
    """Basis of ker(m - mu Id) for a square matrix m, computed over the field of mu."""
    n = len(m)
    return nullspace([[m[i][j] - (mu if i == j else 0 * mu) for j in range(n)] for i in range(n)],
                     ncols=n)


def _check_shape(omega: AltForm, vol: VolumeForm):
    if omega.dim != 6 or omega.degree != 3:
        raise ValueError("expected a 3-form on a 6-dimensional space")
    if vol.form.dim != 6:
        raise ValueError("volume form must live on the same 6-space")


def k_endo(omega: AltForm, vol: VolumeForm) -> KEndo:
    """K(v) = -i_v Omega ^ Omega via i_u vol <-> u tensor vol."""
    _check_shape(omega, vol)
    return KEndo(_k_memo(omega, vol.coefficient())[0], vol)


def _k_memo(omega: AltForm, c) -> tuple[LinearMap, Fraction]:
    """The memo entry ("K", c) of omega, (K, lambda), made on first use."""
    entry = omega._memo.get(("K", c))
    if entry is None:
        entry = omega._memo[("K", c)] = _k_entry(omega, c)
    return entry


def _k_entry(omega: AltForm, c) -> tuple[LinearMap, Fraction]:
    """K of omega against the volume form c e^{1..6}, and lambda = tr(K^2)/6.

    K is squared once, here, and K^2 = lambda Id checked exactly.
    """
    cols = []
    for j in range(1, 7):
        ej = [Fraction(1 if i == j else 0) for i in range(1, 7)]
        w = -1 * wedge(contract(ej, omega), omega)
        col = []
        for i in range(1, 7):
            comp = tuple(k for k in range(1, 7) if k != i)
            col.append(((-1) ** (i - 1)) * w.terms.get(comp, Fraction(0)) / c)
        cols.append(col)
    K = LinearMap.from_columns(cols)
    k2 = mat_mul(K.matrix, K.matrix)
    lam = sum(k2[i][i] for i in range(6)) / 6
    if any(k2[i][j] != (lam if i == j else 0) for i in range(6) for j in range(6)):
        raise ArithmeticError("K^2 != lambda Id; inconsistent input")
    return K, lam


def lambda_coeff(omega: AltForm, vol: VolumeForm) -> Lambda:
    """lambda(Omega) = tr(K^2)/6, exact, as a coefficient of vol^2."""
    return _structure(omega, vol).lam


def _orbit6(lam: Fraction) -> OrbitClass6:
    if lam > 0:
        return OrbitClass6.O6_PLUS
    if lam < 0:
        return OrbitClass6.O6_MINUS
    return OrbitClass6.NOT_STABLE


def classify6(omega: AltForm, vol: VolumeForm) -> OrbitClass6:
    return _orbit6(lambda_coeff(omega, vol).value)


def scaled_structure(omega: AltForm, vol: VolumeForm) -> ScaledStructure:
    """The exact pair (K, lambda) with K^2 = lambda Id verified."""
    ss = _structure(omega, vol)
    if ss.lam.value == 0:
        raise NotStableError("form is not stable (lambda = 0)")
    return ss


def _structure(omega: AltForm, vol: VolumeForm) -> ScaledStructure:
    """(K, lambda) from the form's memo entry, which ``k_endo`` fills; lambda may be 0."""
    K = k_endo(omega, vol).K
    _, lam = _k_memo(omega, vol.coefficient())
    return ScaledStructure(K, Lambda(lam, vol))


@dataclass(frozen=True)
class HatForm:
    """hat(Omega) = numerator / sqrt(lam_abs); exact AltForm when the root is rational.

    The sign of `numerator` is normalized so that Omega ^ hat(Omega) is a
    positive multiple of the declared volume form.
    """

    numerator: AltForm
    lam_abs: Fraction
    form: AltForm | None

    def float_coeffs(self) -> dict:
        s = math.sqrt(float(self.lam_abs))
        return {idx: float(c) / s for idx, c in self.numerator.terms.items()}


def hat(omega: AltForm, vol: VolumeForm) -> HatForm:
    """The imaginary (resp. para-imaginary) partner of a stable Omega.

    Computed as Omega(K., K., K.) / |lambda|^{3/2}; only the single factor
    1/sqrt(|lambda|) can be irrational and it is kept symbolic.
    """
    return _hat(omega, scaled_structure(omega, vol))


def _hat(omega: AltForm, ss: ScaledStructure) -> HatForm:
    """hat(Omega) from its structure, normalized against the volume form of ss."""
    lam_abs = abs(ss.lam.value)
    P = (Fraction(1) / lam_abs) * pullback(ss.K, omega)
    pairing = wedge(omega, P)
    r = ss.lam.vol.ratio(pairing)
    if r == 0:
        raise ArithmeticError("Omega ^ hat vanished on a stable form")
    if r < 0:
        P = -P
    s = sqrt_fraction(lam_abs)
    exact = (Fraction(1) / s) * P if s is not None else None
    return HatForm(P, lam_abs, exact)


@dataclass(frozen=True)
class Canon6:
    """Basis g with pullback(g, canonical form of the class) == Omega."""

    basis: LinearMap
    orbit: OrbitClass6
    scale: Fraction


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


def sorted_vol(dim: int) -> VolumeForm:
    return VolumeForm.standard(dim)

def adapted_vol6() -> VolumeForm:
    """Orientation of the complex frame (e1+ie4, e2+ie5, e3+ie6): -e^{123456}."""
    return VolumeForm.standard(6, Fraction(-1))


def canonicalize6(omega: AltForm, vol: VolumeForm) -> Canon6:
    """Recover a basis putting Omega into its canonical form, exactly.

    Paracomplex case: split into the eigenspaces of L and normalize the two
    induced volume factors.  Complex case: compute the divisor covectors of
    the decomposable form Omega + sqrt(lambda)/|lambda| * numerator(hat) over
    the quadratic extension Q(sqrt(lambda)) and read the real frame off their
    real and imaginary parts.  No floating point is used; when sqrt(|lambda|)
    is irrational the returned matrix has QuadExt entries.
    """
    return _canonicalize6(omega, scaled_structure(omega, vol))


def _canonicalize6(omega: AltForm, ss: ScaledStructure) -> Canon6:
    if ss.is_para:
        return _canonicalize_para(omega, ss)
    return _canonicalize_complex(omega, ss)


def _canonicalize_para(omega: AltForm, ss: ScaledStructure) -> Canon6:
    minus = ss.eigenspace(-1)
    plus = ss.eigenspace(+1)
    if len(minus) != 3 or len(plus) != 3:
        raise ArithmeticError("paracomplex eigenspaces are not 3-dimensional")
    c_minus = omega(*minus)
    c_plus = omega(*plus)
    if c_minus == 0 or c_plus == 0:
        raise ArithmeticError("Omega does not restrict to volume forms on the eigenspaces")
    minus[0] = [x / c_minus for x in minus[0]]
    plus[0] = [x / c_plus for x in plus[0]]
    h = LinearMap.from_columns([tuple(v) for v in (minus + plus)])
    g = h.inverse()
    if pullback(g, canonical_omega_plus()) != omega:
        raise ArithmeticError("paracomplex canonicalization failed the round trip")
    return Canon6(g, OrbitClass6.O6_PLUS, Fraction(1))


def _canonicalize_complex(omega: AltForm, ss: ScaledStructure) -> Canon6:
    lam = ss.lam.value  # negative
    lam_abs = -lam
    mu = QuadExt.root(lam)
    # alpha = Omega + i*hat = Omega + sqrt(lambda)/|lambda| * numerator over Q(sqrt(lambda))
    alpha = omega + (mu / lam_abs) * _hat(omega, ss).numerator
    # the divisor covectors of the decomposable alpha are the (1,0)-covectors of
    # J = K/sqrt(-lambda), i.e. ker(K^T - sqrt(lambda)) (Hitchin 2000); nullspace's
    # basis depends only on that subspace
    thetas = [alt_form(6, 1, {(j + 1,): c for j, c in enumerate(vec) if c != 0})
              for vec in _shifted_kernel(transpose(ss.K.matrix), mu)]
    if len(thetas) != 3:
        raise ArithmeticError("ker(K^T - sqrt(lambda)) is not 3-dimensional")
    prod = wedge(wedge(thetas[0], thetas[1]), thetas[2])
    key0 = next(iter(alpha.terms))
    ratio = alpha.terms[key0] / prod.terms[key0]
    thetas[0] = ratio * thetas[0]
    prod = wedge(wedge(thetas[0], thetas[1]), thetas[2])
    if prod != alpha:
        raise ArithmeticError("divisor normalization failed")
    # real frame rows: Re(theta_k) and sqrt(|lambda|) * (w-part of theta_k)
    s = sqrt_fraction(lam_abs)
    if s is None:
        s = QuadExt.root(lam_abs)
    zero = QuadExt.of(0, lam)
    coords = [[zero + th.terms.get((j,), 0) for j in range(1, 7)] for th in thetas]
    g = LinearMap.from_rows([[c.a for c in row] for row in coords]
                            + [[s * c.b for c in row] for row in coords])
    if pullback(g, canonical_omega_minus()) != omega:
        raise ArithmeticError("complex canonicalization failed the round trip")
    return Canon6(g, OrbitClass6.O6_MINUS, Fraction(1))


# signs of itertools.permutations of a sorted triple, in the order it yields them
_PERMUTATION_SIGNS = (1, -1, -1, 1, 1, -1)


def stabilizer_dim(form: AltForm) -> int:
    """dim { A in gl(V) : sum over slots of form(.., A v_k, ..) = 0 }.

    Shared by the 6- and 7-dimensional classifications.  A 3-form is stable,
    its GL orbit open and its stabilizer of dimension n^2 - C(n, 3) (16 in
    dim 6, 14 in dim 7), exactly when lambda != 0 in dim 6 (Hitchin, *The
    geometry of three-forms in six dimensions*, 2000) and det B != 0 in dim 7
    (Hitchin, *Stable forms and special metrics*, 2001).  The invariant is
    read from the form's memo under the standard volume form, through
    ``_k_memo`` or ``stable7._det_b``; against c e^{1..n} lambda scales by
    1/c^2 and det B by 1/c^7, so the test does not depend on c.  Called
    first, as ``cli classify`` does, it fills the entry that
    ``lambda_coeff`` or ``q_form`` then reads; under another volume
    coefficient (``--vol -1``) they build K or B a second time.  Only an
    unstable form builds the C(n,3) x n^2 system and takes its exact rank.
    """
    if form.degree != 3 or form.dim not in (6, 7):
        raise ValueError("stabilizer dimension implemented for 3-forms in dim 6 or 7")
    n = form.dim
    if n == 6:
        stable = _k_memo(form, Fraction(1))[1] != 0
    else:
        from .stable7 import _det_b  # stable7 imports this module
        stable = _det_b(form, Fraction(1)) != 0
    if stable:
        return n * n - math.comb(n, 3)
    return n * n - rank(_stabilizer_rows(form))


def _stabilizer_rows(form: AltForm) -> list[list[int]]:
    """The C(n,3) x n^2 integer system whose nullspace is the stabilizer algebra."""
    n = form.dim
    # form(e_x, e_y, e_z) for every ordered triple, as integer numerators over one
    # common denominator, which does not change the rank
    (nums,), _ = _clear(form.terms.values())
    coeff = {}
    for idx, x in zip(form.terms, nums):
        for perm, sign in zip(itertools.permutations(idx), _PERMUTATION_SIGNS):
            coeff[perm] = sign * x
    rows = []
    for (i, j, k) in itertools.combinations(range(1, n + 1), 3):
        row = [0] * (n * n)
        for p in range(1, n + 1):
            # A e_i contributes a_{p i} * form(e_p, e_j, e_k), etc.
            row[(p - 1) * n + (i - 1)] += coeff.get((p, j, k), 0)
            row[(p - 1) * n + (j - 1)] += coeff.get((i, p, k), 0)
            row[(p - 1) * n + (k - 1)] += coeff.get((i, j, p), 0)
        rows.append(row)
    return rows
