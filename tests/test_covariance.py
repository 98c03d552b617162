"""Scale and orientation covariance of the invariants at 10^-200 ... 10^200, exactly.

Hypothesis draws t and c as +-m 10^e (1 <= m <= 9, |e| <= 200) and an integer
g = L D U with det g = det D != 0, and checks with ``==``:

* lambda(t Omega, c vol) = t^4 lambda / c^2 and K(t Omega, c vol) = t^2 K / c;
* lambda(g^* Omega) = det(g)^2 lambda(Omega);
* B(t phi, c vol) = t^3 B / c, with pos and neg swapped exactly when t c < 0;
* ``classify6``, ``classify7`` and ``stabilizer_dim`` do not change;
* ``metric_from_phi(phi, c vol)`` has the ``ip`` and ``vol`` it has at sgn(c).

The forms are g^* Omega+-, g^* e^123 (dim 6) and g^* phi+-, g^* e^123 (dim 7).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stableforms.exteralg import LinearMap, VolumeForm, alt_form, pullback
from stableforms.stable6 import (canonical_omega_minus, canonical_omega_plus, classify6, k_endo,
                                 lambda_coeff, stabilizer_dim)
from stableforms.stable7 import (canonical_phi_minus, canonical_phi_plus, classify7, metric_from_phi,
                                 q_form)

SCALES = st.builds(lambda sign, m, e: sign * m * Fraction(10) ** e,
                   st.sampled_from((1, -1)), st.integers(1, 9), st.integers(-200, 200))
FORMS6 = {"Omega+": canonical_omega_plus(), "Omega-": canonical_omega_minus(),
          "e123": alt_form(6, 3, {(1, 2, 3): 1})}
FORMS7 = {"phi+": canonical_phi_plus(), "phi-": canonical_phi_minus(),
          "e123": alt_form(7, 3, {(1, 2, 3): 1})}
EXAMPLES = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def invertible(draw, n: int) -> LinearMap:
    """L D U: L unit lower and U unit upper triangular with entries in [-2, 2], D diagonal
    with entries +-1, +-2, so det g = det D != 0."""
    def triangular(lower: bool):
        return [[1 if i == j else draw(st.integers(-2, 2)) if (i > j) == lower else 0
                 for j in range(n)] for i in range(n)]
    d = [draw(st.sampled_from((1, -1, 2, -2))) for _ in range(n)]
    low, up = LinearMap.from_rows(triangular(True)), LinearMap.from_rows(triangular(False))
    return low.compose(LinearMap.from_rows([[d[i] * up.matrix[i][j] for j in range(n)]
                                            for i in range(n)]))


def scaled(m, factor) -> LinearMap:
    return LinearMap.from_rows([[factor * x for x in row] for row in m])


@EXAMPLES
@given(name=st.sampled_from(sorted(FORMS6)), g=invertible(6), t=SCALES, c=SCALES)
def test_lambda_and_k_scale_with_the_form_and_the_volume(name, g, t, c):
    omega = pullback(g, FORMS6[name])
    vol, vol_c = VolumeForm.standard(6), VolumeForm.standard(6, c)
    ss = k_endo(omega, vol)
    big = t * omega
    assert lambda_coeff(big, vol_c).value == t ** 4 * ss.lam.value / c ** 2
    assert k_endo(big, vol_c).K == scaled(ss.K.matrix, t * t / c)
    assert classify6(big, vol_c) == classify6(omega, vol)
    assert stabilizer_dim(big) == stabilizer_dim(omega)


@EXAMPLES
@given(name=st.sampled_from(sorted(FORMS6)), g=invertible(6), t=SCALES)
def test_lambda_of_a_pullback_is_det_squared_lambda(name, g, t):
    omega, vol = t * FORMS6[name], VolumeForm.standard(6)
    assert lambda_coeff(pullback(g, omega), vol).value == g.det() ** 2 * lambda_coeff(omega, vol).value


@EXAMPLES
@given(name=st.sampled_from(sorted(FORMS7)), g=invertible(7), t=SCALES, c=SCALES)
def test_b_scales_and_its_signature_flips_with_t_c(name, g, t, c):
    phi = pullback(g, FORMS7[name])
    vol, vol_c = VolumeForm.standard(7), VolumeForm.standard(7, c)
    qf = q_form(phi, vol)
    big = t * phi
    qf_c = q_form(big, vol_c)
    assert qf_c.B == tuple(tuple(t ** 3 * x / c for x in row) for row in qf.B)
    pos, neg, zero = qf.signature()
    assert qf_c.signature() == ((pos, neg, zero) if t * c > 0 else (neg, pos, zero))
    assert classify7(big, vol_c) == classify7(phi, vol)
    assert stabilizer_dim(big) == stabilizer_dim(phi)


@EXAMPLES
@given(name=st.sampled_from(["phi+", "phi-"]), g=invertible(7), c=SCALES)
def test_the_metric_depends_on_the_orientation_only(name, g, c):
    phi = pullback(g, FORMS7[name])
    gm, gm_sign = metric_from_phi(phi, VolumeForm.standard(7, c)), metric_from_phi(
        phi, VolumeForm.standard(7, 1 if c > 0 else -1))
    assert gm.ip == gm_sign.ip and gm.vol == gm_sign.vol
