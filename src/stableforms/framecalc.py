"""Invariant-frame calculus on structure-constant models.

A manifold enters only through a coframe e^1..e^n with declared exterior
derivatives d(e^k) (constant structure coefficients, d o d = 0 enforced) and
a diagonal +-1 metric.  That is enough to reproduce every circle-bundle and
Hitchin-functional computation of the source material at desk scale:
integration never appears, densities are reported per unit frame volume.

The circle-bundle coordinates put the fiber form rho last (index 7 over a
6-dimensional base); with that ordering the compatible orientation is
-e^{1..7}, under which the displayed Hodge dual Omega_2 ^ rho - omega^2/2
comes out exactly.

d and nabla_u share one integer Leibniz rule, ``_leibniz``, which extends
their values on the coframe e^k to all forms (d has degree 1, nabla_u 0).
nabla_u on the coframe is read from the Levi-Civita table of
``covariant_table``: nabla_{f_u} e^j = -sum_k lifted[u][k][j] e^k.

Each (circle bundle, SU(3) data) pair is derived once: the special-balanced
check, phi, *phi and its check by hodge_star, the orientation, <F, omega> and
nabla phi are kept in the bundle's private memo for that SU3Data object, and
``classify_g2``, ``build_g2`` and ``nabla_phi`` all read them from there.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from . import stable6
from .exteralg import (_INDEX, _MASK, AltForm, InnerProduct, PreconditionError, VolumeForm, _merge_signs,
                       alt_form, basis_form, form_inner, hodge_star, is_decomposable, wedge)
from .linalg import _clear, mat_mul, transpose
from .scalars import _float_root, _Record


def _matrix(a: AltForm) -> list:
    """The antisymmetric matrix a(e_i, e_j) of a 2-form."""
    n = a.dim
    return [[a.coeff((i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]


def _leibniz(a: AltForm, images: dict, degree: int) -> AltForm:
    """Extend e^k -> images[k] (term dicts; 0 where k is missing) to all forms as a derivation.

    The image e^J of e^k in slot pos of e^I is signed (-1)^(degree pos), and e^{I<} ^ e^J ^
    e^{I>} = (-1)^(pos |J|) e^J ^ e^rest (rest = I - k), so with d of degree |J| - 1 = 1 and
    nabla_u of degree 0 the sign is (-1)^pos _merge_signs(J)[rest].  Form and images are cleared
    once and summed as ints on ``_MASK`` keys; TypeError unless all are int or Fraction.
    """
    pairs = [(k, jdx) for k, im in images.items() for jdx in im]
    (xa, xb), dens = _clear(a.terms.values(), (images[k][jdx] for k, jdx in pairs))
    table: dict = {}
    for (k, jdx), x in zip(pairs, xb):
        table.setdefault(1 << (k - 1), []).append((_merge_signs(_MASK[jdx]), _MASK[jdx], x))
    out: dict = {}
    for idx, c in zip(a.terms, xa):
        m = _MASK[idx]
        for pos, k in enumerate(idx):
            rest = m ^ (1 << (k - 1))
            for signs, mj, x in table.get(1 << (k - 1), ()):
                if signs[rest]:
                    out[rest | mj] = out.get(rest | mj, 0) + (-1) ** pos * signs[rest] * c * x
    den = dens[0] * dens[1]
    return AltForm(a.dim, a.degree + degree, {_INDEX[m]: Fraction(v, den) for m, v in out.items() if v})


class FrameModel(_Record):
    """Coframe with structure constants: d(e^k) declared, d^2 = 0 checked."""

    dim: int
    metric: tuple
    d1: dict

    def __post_init__(self):
        if len(self.metric) != self.dim or any(m * m != 1 for m in self.metric):
            raise ValueError("metric must be a diagonal +-1 list of length dim")
        for k, f in self.d1.items():
            if not (1 <= k <= self.dim) or f.dim != self.dim or f.degree != 2:
                raise ValueError(f"d(e^{k}) must be a 2-form on the model space")
        for k in self.d1:
            dd = self.d(self.d1[k])
            if not dd.is_zero:
                raise PreconditionError(f"d^2 e^{k} != 0; structure constants violate Jacobi")

    def ip(self) -> InnerProduct:
        """The diagonal metric, one instance per model, so its inverse is computed once."""
        return self._ip

    @functools.cached_property
    def _ip(self) -> InnerProduct:
        return InnerProduct.diagonal(list(self.metric))

    def vol(self) -> VolumeForm:
        return VolumeForm.standard(self.dim)

    def d(self, a: AltForm) -> AltForm:
        """Extend the declared coframe differentials by the Leibniz rule."""
        if a.dim != self.dim:
            raise ValueError("form does not live on this model")
        return _leibniz(a, {k: f.terms for k, f in self.d1.items()}, 1)

    def codifferential(self, a: AltForm, orientation: Fraction = Fraction(1)) -> AltForm:
        """delta = +-*d*, public API; no report calls it (delta torsion is 0 by d o d = 0).

        Sign convention: (-1)^{n(p+1)+1} * sign(det g), the Riemannian choice
        making delta = -div on 1-forms.
        """
        n, p = self.dim, a.degree
        ip = self.ip()
        vol = VolumeForm.standard(self.dim, orientation)
        detg = 1
        for m in self.metric:
            detg *= m
        sign = Fraction((-1) ** (n * (p + 1) + 1) * detg)
        return sign * hodge_star(self.d(hodge_star(a, ip, vol)), ip, vol)

    def hodge(self, a: AltForm, orientation: Fraction = Fraction(1)) -> AltForm:
        return hodge_star(a, self.ip(), VolumeForm.standard(self.dim, orientation))

    def structure_constants(self) -> list:
        """c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k; from d e^k = -c."""
        n = self.dim
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for k in range(1, n + 1):
            dk = self.d1.get(k)
            if dk is None:
                continue
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i < j:
                        v = -dk.coeff((i, j))
                        c[i - 1][j - 1][k - 1] = v
                        c[j - 1][i - 1][k - 1] = -v
        return c


def flat_torus(dim: int, metric: Sequence[int] | None = None) -> FrameModel:
    return FrameModel(dim, tuple(metric) if metric else tuple([1] * dim), {})


def kodaira_thurston() -> FrameModel:
    """dim-4 nilmanifold frame: e^4 = dx4 + x2 dx3, so d e^4 = e^2 ^ e^3."""
    return FrameModel(4, (1, 1, 1, 1), {4: alt_form(4, 2, {(2, 3): 1})})


def iwasawa_model() -> FrameModel:
    """Complex-Heisenberg frame: d(e^5 + i e^6) = (e^1 + i e^2) ^ (e^3 + i e^4).

    Both imaginary-fiber coframes are non-closed; this is what makes the
    holomorphic product form closed.
    """
    return FrameModel(6, (1,) * 6, {
        5: alt_form(6, 2, {(1, 3): 1, (2, 4): -1}),
        6: alt_form(6, 2, {(1, 4): 1, (2, 3): 1}),
    })


class CircleBundleModel(_Record):
    """Unit circle bundle over a 6-dim base: total coframe (e^1..e^6, rho=e^7)."""

    base: FrameModel
    F: AltForm
    total: FrameModel

    def __post_init__(self):
        # id(su3) -> (su3, _Derivation) for each SU3Data derived on this bundle;
        # holding su3 keeps its id from being reused.  Filled by _derivation.
        object.__setattr__(self, "_memo", {})


def make_circle_bundle(base: FrameModel, F: AltForm) -> CircleBundleModel:
    if base.dim != 6 or any(m != 1 for m in base.metric):
        raise ValueError("circle bundles are built over Riemannian 6-dim bases")
    if F.dim != 6 or F.degree != 2:
        raise ValueError("curvature must be a 2-form on the base")
    if not base.d(F).is_zero:
        raise PreconditionError("curvature 2-form must be closed (dF = 0)")
    d1 = {k: _embed(f, 7) for k, f in base.d1.items()}
    d1[7] = _embed(F, 7)
    total = FrameModel(7, (1,) * 7, d1)
    return CircleBundleModel(base, F, total)


def _embed(f: AltForm, dim: int) -> AltForm:
    return alt_form(dim, f.degree, {idx: c for idx, c in f.terms.items()})


class SU3Data(_Record):
    """Adapted SU(3) forms on the base: omega, Omega1, Omega2.

    Invariants checked: omega ^ Omega_i = 0, the constant-dilaton
    normalization (1/4) Omega1 ^ Omega2 = (1/6) omega^3, and omega^3 != 0.
    """

    omega: AltForm
    Omega1: AltForm
    Omega2: AltForm

    def __post_init__(self):
        object.__setattr__(self, "_omega2", wedge(self.omega, self.omega))  # omega ^ omega, wedged once
        w3 = wedge(self._omega2, self.omega)
        if w3.is_zero:
            raise PreconditionError("omega is degenerate")
        if not wedge(self.omega, self.Omega1).is_zero or not wedge(self.omega, self.Omega2).is_zero:
            raise PreconditionError("omega ^ Omega_i != 0; forms are not type-compatible")
        lhs = Fraction(1, 4) * wedge(self.Omega1, self.Omega2)
        rhs = Fraction(1, 6) * w3
        if lhs != rhs:
            raise PreconditionError("normalization (1/4)Omega1^Omega2 = (1/6)omega^3 fails")

    def complex_structure(self, metric: InnerProduct):
        """J = -G^{-1} W from omega(x,y) = <J x, y>; J^2 = -Id verified."""
        n = self.omega.dim
        ginv = metric.inverse_gram()
        j = mat_mul(ginv, [[-x for x in row] for row in _matrix(self.omega)])
        j2 = mat_mul(j, j)
        for i in range(n):
            for k in range(n):
                if j2[i][k] != (Fraction(-1) if i == k else 0):
                    raise PreconditionError("omega and the metric do not induce J^2 = -Id")
        return j


def standard_su3() -> SU3Data:
    return SU3Data(
        omega=alt_form(6, 2, {(1, 4): 1, (2, 5): 1, (3, 6): 1}),
        Omega1=stable6.canonical_omega_minus(),
        Omega2=stable6.canonical_omega_minus_hat(),
    )


BUNDLE_ORIENTATION = Fraction(-1)  # adapted orientation of the standard triple


def bundle_orientation(su3: SU3Data) -> Fraction:
    """Sign of (omega^3/6) ^ rho against e^{1..7}: the adapted orientation.

    For the standard complex pairs (1,4),(2,5),(3,6) this is -1; pairings
    already in sorted order, like (1,2),(3,4),(5,6), give +1.
    """
    w3 = wedge(su3._omega2, su3.omega)
    c = w3.terms.get(tuple(range(1, 7)), Fraction(0))
    if c == 0:
        raise PreconditionError("omega is degenerate")
    return Fraction(1) if c > 0 else Fraction(-1)


def _check_special_balanced(cb: CircleBundleModel, su3: SU3Data):
    base = cb.base
    failing = []
    if not base.d(su3.Omega1).is_zero:
        failing.append("d Omega1 != 0")
    if not base.d(su3.Omega2).is_zero:
        failing.append("d Omega2 != 0")
    if not base.d(su3._omega2).is_zero:
        failing.append("d(omega^2) != 0")
    j = su3.complex_structure(base.ip())
    f = _matrix(cb.F)
    if mat_mul(mat_mul(transpose(j), f), j) != f:  # F(J x, J y) = F(x, y)
        failing.append("curvature is not of type (1,1)")
    if failing:
        raise PreconditionError("; ".join(failing))


def _g2_forms(su3: SU3Data) -> tuple[AltForm, AltForm]:
    """phi = Omega1 - rho ^ omega and the displayed dual Omega2 ^ rho - omega^2/2."""
    rho = basis_form(7, 7)
    w7 = _embed(su3.omega, 7)
    phi = _embed(su3.Omega1, 7) - wedge(rho, w7)
    return phi, wedge(_embed(su3.Omega2, 7), rho) - Fraction(1, 2) * _embed(su3._omega2, 7)


class _Derivation(_Record):
    """What one (bundle, SU(3)) pair gives once it passes the special-balanced check."""

    phi: AltForm
    star_phi: AltForm
    orientation: Fraction
    f_dot_omega: Fraction
    nabla: NablaPhiReport


def _derivation(cb: CircleBundleModel, su3: SU3Data) -> _Derivation:
    """The pair's entry in ``cb._memo``, derived on first use.

    A pair that fails the special-balanced check, or whose *phi is not the Hodge star of phi
    on the product metric, raises PreconditionError on every call and leaves nothing in the memo.
    """
    entry = cb._memo.get(id(su3))
    if entry is not None:
        return entry[1]
    _check_special_balanced(cb, su3)
    phi, star_phi = _g2_forms(su3)
    orientation = bundle_orientation(su3)
    if cb.total.hodge(phi, orientation) != star_phi:
        raise PreconditionError("su3 data is not metric-adapted: *phi mismatch")
    f_dot_omega = form_inner(cb.F, su3.omega, cb.base.ip())
    derived = _Derivation(phi, star_phi, orientation, f_dot_omega,
                          _nabla_phi(cb, su3, phi, star_phi, f_dot_omega))
    cb._memo[id(su3)] = (su3, derived)
    return derived


def build_g2(cb: CircleBundleModel, su3: SU3Data) -> tuple[AltForm, AltForm]:
    """phi = Omega1 - rho ^ omega and its Hodge dual Omega2 ^ rho - omega^2/2.

    The dual is also computed independently through hodge_star on the
    product metric, once per derivation, and must agree exactly.
    """
    derived = _derivation(cb, su3)
    return derived.phi, derived.star_phi


class ClassReport(_Record):
    parallel: bool
    W1_nearly: bool
    W2_almost: bool
    W3: bool
    semi_parallel: bool
    witnesses: dict

    def as_dict(self) -> dict:
        return {
            "parallel": self.parallel,
            "W1_nearly": self.W1_nearly,
            "W2_almost": self.W2_almost,
            "W3": self.W3,
            "semi_parallel": self.semi_parallel,
        }


def classify_g2(cb: CircleBundleModel, su3: SU3Data) -> ClassReport:
    """Torsion-class predicates of the bundle structure, all verified exactly.

    The three W3 tests <F, omega> = 0, F ^ omega^2 = 0 and d phi ^ phi = 0 must agree,
    and delta phi = +-*d*phi is 0 iff d *phi is, re-proved on every call.  The witness
    delta torsion = +-*d**d phi is 0: d o d is a derivation that ``FrameModel`` checks is 0 on e^k.
    """
    derived = _derivation(cb, su3)
    phi, star_phi, total, orient = derived.phi, derived.star_phi, cb.total, derived.orientation
    if not total.d(star_phi).is_zero:
        raise ArithmeticError("delta phi != 0 on a special balanced base; internal error")
    dphi = total.d(phi)
    dphi_phi = wedge(dphi, phi)
    f_dot_omega = derived.f_dot_omega
    f_w2 = wedge(cb.F, su3._omega2)
    w3_a = f_dot_omega == 0
    w3_b = f_w2.is_zero
    w3_c = dphi_phi.is_zero
    if not (w3_a == w3_b == w3_c):
        raise ArithmeticError("the three primitivity tests disagree; internal error")
    npr = derived.nabla
    parallel = all(df.is_zero for df in npr.derivatives.values())
    w2 = dphi.is_zero
    if w2 != (cb.F.is_zero and cb.base.d(su3.omega).is_zero):
        raise ArithmeticError("dphi = 0 is not equivalent to F = 0 and d omega = 0; internal error")
    torsion = -1 * total.hodge(dphi, orient)
    report = ClassReport(
        parallel=parallel,
        W1_nearly=npr.nearly_parallel,
        W2_almost=w2,
        W3=w3_c,
        semi_parallel=True,
        witnesses={
            "dphi": dphi,
            "delta_phi": AltForm.zero(7, 2),
            "dphi_wedge_phi": dphi_phi,
            "F_dot_omega": f_dot_omega,
            "torsion": torsion,
            "delta_torsion": AltForm.zero(7, 2),
        },
    )
    if report.parallel and not (report.W1_nearly and report.W2_almost and report.W3
                                and report.semi_parallel):
        raise ArithmeticError("implication lattice violated; internal error")
    return report


class ConnectionTable(_Record):
    """Levi-Civita data: base Gamma[i][j][k] and the lifted 7x7x7 table.

    Index 7 of the lifted table is the fiber direction; entries are the
    coefficients of nabla_{f_i} f_j in the frame (e_1..e_6, d_theta).
    """

    base_gamma: tuple
    lifted: tuple


def covariant_table(cb: CircleBundleModel) -> ConnectionTable:
    """Koszul: Gamma_ijk = (c_ijk eps_k - c_jki eps_i + c_kij eps_j) / (2 eps_k).

    Only the nonzero structure constants c_ijk = -d(e^k)(e_i, e_j) are
    visited; each adds to Gamma_ijk, Gamma_kij and Gamma_jki.
    """
    base = cb.base
    n = 6
    eps = base.metric
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for k, dk in base.d1.items():
        k -= 1
        for (a, b), v in dk.terms.items():
            for i, j, half in ((a - 1, b - 1, Fraction(-v, 2)), (b - 1, a - 1, Fraction(v, 2))):
                gamma[i][j][k] += half
                gamma[k][i][j] -= half * eps[k] / eps[j]
                gamma[j][k][i] += half * eps[k] / eps[i]
    f = _matrix(cb.F)
    lifted = [[[Fraction(0)] * 7 for _ in range(7)] for _ in range(7)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lifted[i][j][k] = gamma[i][j][k]
            lifted[i][j][6] = -f[i][j] / 2
        for j in range(n):
            lifted[i][6][j] = f[i][j] / 2
            lifted[6][i][j] = f[i][j] / 2
    return ConnectionTable(
        tuple(tuple(tuple(r) for r in m) for m in gamma),
        tuple(tuple(tuple(r) for r in m) for m in lifted),
    )


class NablaPhiReport(_Record):
    derivatives: dict          # direction index 1..7 -> AltForm (7-dim)
    theta_display_ok: bool     # nabla_theta phi == (1/2) <F, omega> Omega2
    pairing: Fraction          # <nabla phi, *phi>
    pairing_identity_ok: bool  # == (1/2) <F, omega> |i_theta *phi|^2
    nearly_parallel: bool
    experimental: bool         # True when the base is not flat


def nabla_phi(cb: CircleBundleModel, su3: SU3Data) -> NablaPhiReport:
    """Covariant derivatives of phi in all 7 frame directions, exactly.

    For flat bases this exercises the displayed connection identities; a
    nonflat base is computed with its Koszul coefficients but flagged
    experimental.
    """
    report = _derivation(cb, su3).nabla
    return report._replace(derivatives=dict(report.derivatives))


def _nabla_phi(cb: CircleBundleModel, su3: SU3Data, phi: AltForm, star_phi: AltForm,
               f_dot_omega: Fraction) -> NablaPhiReport:
    """nabla phi for phi, *phi from _g2_forms and f_dot_omega = <F, omega>."""
    table = covariant_table(cb)
    flat = all(x == 0 for m in table.base_gamma for r in m for x in r)

    def coframe(u: int) -> dict:
        # nabla_{f_u} e^j = -sum_k lifted[u-1][k-1][j-1] e^k
        rows = table.lifted[u - 1]
        return {j: {(k + 1,): -r[j - 1] for k, r in enumerate(rows) if r[j - 1] != 0} for j in range(1, 8)}

    derivatives = {u: _leibniz(phi, coframe(u), 0) for u in range(1, 8)}
    theta_expected = (f_dot_omega / 2) * _embed(su3.Omega2, 7)
    theta_ok = derivatives[7] == theta_expected
    ip7 = cb.total.ip()
    star_slots = {v: AltForm(7, 3, terms) for v, terms in _interior_terms(star_phi).items()}
    pairing = Fraction(0)
    for u in range(1, 8):
        pairing += form_inner(derivatives[u], star_slots[u], ip7)
    norm2 = form_inner(star_slots[7], star_slots[7], ip7)
    identity_ok = pairing == (f_dot_omega / 2) * norm2
    return NablaPhiReport(derivatives, theta_ok, pairing, identity_ok,
                          _nearly_parallel(derivatives), not flat)


def _nearly_parallel(derivatives: dict) -> bool:
    """i_v nabla_u phi + i_u nabla_v phi = 0 for all u, v, read off the terms of
    the nabla_u phi (``derivatives``, keyed by every frame direction u)."""
    slots = {u: _interior_terms(df) for u, df in derivatives.items()}
    return all(slots[v][u].get(rest, 0) == -c
               for u in slots for v in slots[u] for rest, c in slots[u][v].items())


def _interior_terms(a: AltForm) -> dict:
    """The terms of i_{e_v} a for v = 1..dim, read off a: e_v in slot s gives (-1)^s."""
    out = {v: {} for v in range(1, a.dim + 1)}
    for idx, c in a.terms.items():
        for s, v in enumerate(idx):
            out[v][idx[:s] + idx[s + 1:]] = -c if s & 1 else c
    return out


class HitchinValue(_Record):
    lam: Fraction
    density: float


def hitchin_eval(model: FrameModel, omega: AltForm) -> HitchinValue:
    """sqrt(|lambda|) per unit frame volume, with the exact lambda alongside.

    The root is taken from the exact lambda (``scalars._float_root``), so the
    density is right at every size of lambda whose root is a normal float and
    raises OverflowError beyond that.
    """
    if model.dim != 6:
        raise ValueError("the functional is defined on 6-dimensional models")
    lam = stable6.lambda_coeff(omega, model.vol()).value
    return HitchinValue(lam, _float_root(abs(lam), 2))


_VARIATION_STEP = Fraction(1, 100000)  # h of the central difference


def hitchin_variation(omega: AltForm, omega_dot: AltForm, vol: VolumeForm) -> tuple[float, float]:
    """(central finite difference of sqrt|lambda|, pairing hat ^ dOmega / vol).

    The two square roots are taken from the exact lambdas, and the pairing
    r / sqrt|lambda| as the root of the exact r^2 / |lambda|, so both values
    are right at every size whose result is a normal float.
    """
    hat = stable6.hat(omega, vol)  # NotStableError when lambda = 0
    lam_p = stable6.lambda_coeff(omega + _VARIATION_STEP * omega_dot, vol).value
    lam_m = stable6.lambda_coeff(omega - _VARIATION_STEP * omega_dot, vol).value
    fd = (_float_root(abs(lam_p), 2) - _float_root(abs(lam_m), 2)) / (2 * float(_VARIATION_STEP))
    r = vol.ratio(wedge(hat.numerator, omega_dot))
    pairing = _float_root(r * r / hat.lam_abs, 2)
    return fd, -pairing if r < 0 else pairing


HITCHIN_VARIATION_CONSTANT = -1.0  # fd derivative = c * (hat ^ dOmega)/vol; oracle-determined


class CriticalReport(_Record):
    closed: bool
    cocritical: bool
    critical: bool
    orbit: stable6.OrbitClass6


def critical_point_check(model: FrameModel, omega: AltForm) -> CriticalReport:
    """closed: d Omega = 0; cocritical: d hat(Omega) = 0; critical: both.

    Closedness of the hat is decided on its exact rational numerator (the
    scalar 1/sqrt|lambda| cannot affect it).
    """
    if model.dim != 6:
        raise ValueError("critical points live on 6-dimensional models")
    vol = model.vol()
    cocritical = model.d(stable6.hat(omega, vol).numerator).is_zero  # NotStableError when lambda = 0
    closed = model.d(omega).is_zero
    return CriticalReport(closed, cocritical, closed and cocritical, stable6.classify6(omega, vol))


def para_cy_check(model: FrameModel, alpha: AltForm, beta: AltForm,
                  omega: AltForm | None = None) -> dict:
    """The decomposable-pair conditions, plus the Kahler relations when omega is given."""
    n = model.dim
    if n % 2 != 0:
        raise ValueError("para-CY pairs need an even-dimensional model")
    half = n // 2
    if alpha.degree != half or beta.degree != half:
        raise ValueError(f"alpha and beta must have degree {half}")
    report = {
        "d_alpha_zero": model.d(alpha).is_zero,
        "d_beta_zero": model.d(beta).is_zero,
        "alpha_decomposable": is_decomposable(alpha),
        "beta_decomposable": is_decomposable(beta),
        "alpha_wedge_beta_nonzero": not wedge(alpha, beta).is_zero,
    }
    if omega is not None:
        if omega.degree != 2:
            raise ValueError("omega must be a 2-form")
        report.update({
            "d_omega_zero": model.d(omega).is_zero,
            "alpha_wedge_omega_zero": wedge(alpha, omega).is_zero,
            "beta_wedge_omega_zero": wedge(beta, omega).is_zero,
        })
    report["all_pass"] = all(v for k, v in report.items())
    return report
