"""Differential tests for the frame calculus and the Hodge star.

* d and nabla are derivations: d(a ^ b) = da ^ b + (-1)^p a ^ db and
  nabla_u(a ^ b) = nabla_u a ^ b + a ^ nabla_u b on seeded random forms.
  The reference nabla below is evaluated pointwise from the connection
  table, (nabla_u a)(f_I) = -sum_s a(.., nabla_u f_{i_s}, ..), and the
  library's nabla phi must agree with it.
* nabla_phi on the nonflat Iwasawa bundle matches the derivatives stored in
  ``tests/data/nabla_phi_iwasawa.json``.  To regenerate after an intended
  change, run ``python tests/test_differential.py > tests/data/nabla_phi_iwasawa.json``
  with ``src`` on the path.
* hodge_star satisfies its defining property b ^ *a = <b, a> vol for every
  basis form b, on dense indefinite Gram matrices.
* The integer-cleared ``wedge``, ``contract`` and ``pullback`` equal the
  field-arithmetic loops they replaced (``ref_wedge`` and ``ref_contract``
  below, ``ref_pullback`` with its field determinant ``ref_det`` in
  ``conftest``) on seeded
  random forms of every degree in dims 4, 6 and 7: coefficients scaled by
  10^e with |e| <= 200, mixed denominators, int-typed coefficients, sums that
  cancel, and non-integer and singular matrices.
  ``q_form`` (a top-degree pairing) and
  ``stabilizer_dim`` (integer rows) equal their wedge- and ``coeff``-built
  versions.
* ``stabilizer_dim``, which reads lambda (dim 6) or det B (dim 7), then an
  unstable form's complex orbit off the ranks (n, w, r) of its i_{e_j} a and
  i_{e_j} a ^ a, equals n^2 minus the rank of the C(n,3) x n^2 system
  (``ref_stabilizer_dim``, on ``conftest.stabilizer_rows``) on c g^* forms of
  every classify kind (c = +-1, +-p/q and tall +-10^40/q; |lambda| a square
  and not), on a normal form of every unstable complex orbit, whose (n, w, r)
  are distinct and are the table's keys, and its c g^* copies, and
  (derandomized hypothesis) on g^* of each normal form, g with entries
  m 10^e, |m| <= 9 and |e| <= 8, and on sparse forms of 1 to 6 terms.  The
  four orbits that once took the rank return the table's value at g with
  entries m 10^e, |e| <= 200.
* ``form_inner``, a pairing with the pullback by G^{-1}, equals the sum of
  one determinant per term pair it replaced (``ref_form_inner``) on dense
  indefinite Gram matrices in dims 4, 6 and 7.
* The structure-constant kernel of ``compalg`` equals the doubling
  recursion ``_cd_mul`` it is read from: ``multiply`` on H, U, O and B,
  ``multiplication_table``, and the 2- and 3-fold cross products (against
  ``ref_cross_2fold``/``ref_cross_3fold``, the formulas composed from
  ``AlgElement`` operations), on coordinates times 10^e with |e| <= 200,
  mixed denominators and int-typed and zero coordinates; QuadExt and float
  coordinates, alone or next to rational ones, raise TypeError.  The sparse
  ``InnerProduct.pair`` and ``compalg.inner`` equal the dense double sum
  ``ref_pair`` on diagonal, dense indefinite and int-typed Gram matrices.
* ``linalg.inverse``, now the right half of the fraction-free ``rref`` of
  [a | I], equals Gauss-Jordan over Fractions (``ref_inverse``, on
  ``test_linalg.ref_rref``) on rational, 10^e-scaled and int matrices of
  sizes 1..8, singular ones included.
* The exact Cayley frame of ``canonicalize7`` gives the basis of the float
  frame code it replaced (``ref_canonicalize7``, with its own Gram-Schmidt,
  cross product and inverse) to 1e-11 relative on 84 seeded c g^* phi_minus,
  both signs of c and both orientations, and on tied candidates for u4.  At
  c = (p/q) 10^e with |e| <= 200 its exact check holds and the float basis
  pulls phi_minus back to phi to 1e-9 of the largest coefficient.  The
  integer frame (fraction-free Gram-Schmidt, P^-1 from the Gram-Schmidt
  basis, the inverse frame from B-orthogonality, phi evaluated in stages)
  gives the basis and residual of the Fraction frame it replaced
  (``ref_exact_canonicalize7``: ``InnerProduct``, ``_product_from_form``,
  ``pullback``, ``LinearMap.inverse``) bit for bit, on c g^* phi_minus with
  c = +-p/q and tall +-10^40/q under both orientations, and on tied
  candidates.  The residual's own float loop gives the residual of the float
  pullback it replaced (``ref_residual``, on ``ref_float_pullback``, a copy
  of the float minor loop that ``exteralg.pullback`` ran before it took
  rational values only) repr for repr, with the basis repr for repr, at
  c = +-1, ~10^40 and ~10^100.
* ``mat_mul`` and ``mat_vec`` on the integer kernel equal the Fraction loops
  they replaced (``ref_mat_mul``, ``ref_mat_vec``) on int, mixed-denominator
  and 10^e-scaled (|e| <= 200) entries and mixtures of them; QuadExt and
  float entries, alone or among rational ones, raise TypeError.
* ``canonicalize6`` builds both frames from rational pairs (a, b), meaning
  a + sqrt(lambda) b, read off the image of K +- sqrt(lambda) with one integer
  adjugate, and inverts nothing: the inverse rows come from the projectors
  (sqrt(lambda) +- K) / (2 sqrt(lambda)).  ``_root_kernel`` equals the
  nullspace of the 12 x 12 realification it replaced (``ref_root_kernel``)
  entry for entry on K and K^T, sigma = +-1, lambda not a square of both
  signs, on sparse (scaled permutation) and dense g.  Each frame equals the basis
  of the Gauss-Jordan code over Q(sqrt(lambda)) that it replaced, entry for
  entry and type for type: ``ref_canonicalize_complex`` (ker(K^T -
  sqrt(lambda)), checked against the divisor space of Omega + i hat(Omega))
  and ``ref_canonicalize_para`` (the eigenspaces of K and their inverse),
  whose eliminations run on ``test_linalg.ref_rref``.  The forms are 64
  seeded c g^* Omega_minus and 64 c g^* Omega_plus, both orientations, both
  signs of c, tall ones at 10^+-40, |lambda| a square and not, and dense
  forms of both orbits with QuadExt bases.  The references and the round
  trips of QuadExt bases run on ``ref_wedge`` and ``ref_pullback``.
* ``canonicalize6`` on O6_MINUS reads the imaginary coefficient of Omega +
  i hat(Omega) at one index as one sum of minors of K and checks only the
  real part of the frame.  Its basis equals, entry for entry and type for
  type, that of the frame it replaced (``ref_hat_canonicalize_complex``,
  which builds all of hat(Omega) with the sign search ``ref_hat_numerator``
  and checks both parts), on 208 forms: c g^* Omega_minus with tall c and
  |lambda| a square and not, under both orientations, and dense random
  forms.  Every frame carries Im of the canonical form to hat(Omega).
* framecalc derives each (circle bundle, SU(3)) pair once, with three new
  paths, each against a copy of the code it replaced: the (1,1) test
  J^T F J = F against the 15 evaluations F(J e_i, J e_k)
  (``ref_check_special_balanced``, same acceptance and message, on random
  (1,1) and non-(1,1) curvature); the Levi-Civita table from the nonzero
  structure constants against the dense Koszul loop
  (``ref_covariant_table``, on flat T^6, the Iwasawa bundles of the golden
  file and random 2-step nilpotent bases); and the nearly-parallel test and
  the pairing <nabla phi, *phi> read off the terms of the derivatives against
  the ``contract`` loops (``ref_nearly_parallel``, ``ref_pairing``), on
  bundles and on derivative sets built to pass (i_u psi for a 4-form psi)
  and to fail.
* K and B come from one integer kernel, ``exteralg._interior_wedges``
  (i_{e_j} a and i_{e_j} a ^ a as integer dicts).  K, lambda and B equal the
  ``contract``/``wedge`` loops they replaced (``ref_k_entry``,
  ``ref_b_matrix``) entry for entry, every entry a Fraction, on c g^* forms of
  every classify kind (c = +-1, +-p/q, tall +-10^40/q and +-10^+-200),
  int-typed coefficients and sparse random forms; the kernel's dicts equal
  ``contract`` and ``wedge`` term for term.  The kernel reads an index table
  per (n, p); it gives the d, the contractions and the nonzero wedge entries
  of the loop with one ``_merge_signs`` read per term pair that it replaced
  (``ref_interior_wedges``) for every 1 <= p <= n <= 8, on sparse, dense
  mixed-denominator, int-typed and tall (~10^40) forms and on forms built
  with an explicit zero coefficient, and raises TypeError on float and
  QuadExt coefficients.
* The fraction-free ``linalg.inertia`` equals the congruence loop over
  Fractions it replaced (``ref_inertia``) on random symmetric matrices of
  sizes 1..8: dense, low-rank, all-zero-diagonal (the hyperbolic step),
  int-typed and D M D with D = diag(10^e), |e| <= 200; and on the B of the
  dim-7 classify kinds, tall ones included.  The determinant read off the
  same elimination (``linalg._inertia_det``, which fills the memo entry of
  B) equals the Bareiss ``det`` on those matrices, each also times
  10^+-200, and ``det`` and ``ref_det`` on B.
* ``AltForm.__call__``, one integer minor per term, equals the
  determinant-per-term loop ``ref_eval`` on random forms of every degree in
  dims 4, 6 and 7, and raises TypeError on float and QuadExt vectors and
  float coefficients.  It clears the coefficients with the vectors and sums
  ints, and equals the Fraction sum of integer minors it replaced
  (``ref_fraction_sum_eval``) on forms with mixed denominators in dims 4 to 8.
* ``pullback`` by a rational map with at most one nonzero entry per row
  sends each term to one signed term, with no minor.  It equals the minors
  of ``ref_pullback``, value for value, Fraction for Fraction and in sorted
  key order, on permutation times diagonal maps with entries p/q of both
  signs, on maps with a zero row and on maps with two rows on one column,
  for every degree in dims 4, 6, 7 and 8.
* ``pullback`` by any other map expands along the last index (Laplace,
  ``exteralg._laplace``).  It equals the integer minor loop it replaced
  (``ref_minor_pullback``, one ``_minor`` per term and column set), dict for
  dict and in key order, for every degree 1..n in dims 4 to 8, on dense,
  singular and zero-row maps, 10^40-tall entries and forms with zero
  coefficients.
* The integer Leibniz rule ``framecalc._leibniz`` (one ``_merge_signs`` read
  per term) gives the dicts of the ``sort_index`` loop it replaced
  (``ref_leibniz``), key order included: ``d`` on the Kodaira-Thurston and
  Iwasawa models and a circle-bundle total space, and nabla_u from the
  connection table of the Iwasawa bundles, on forms of every degree with
  mixed, 10^e-scaled and int coefficients, and on nabla phi.  Float
  coefficients raise TypeError.
* ``verify_identities``, ``verify_axioms`` and
  ``verify_para_extension_identities``, which clear each draw once and check
  every identity on its integer numerators, give the reports of the Fraction
  loops they replaced (``ref_verify_identities``, ``ref_verify_axioms``,
  ``ref_verify_para``) field for field, failure lists and witnesses
  included: on H, U, O and B; on the 2-fold and X1/X2 products of O and B, a
  reduction at a rational unit vector, ``cross_from_phi`` of G7^* phi-, and
  ``cross_from_phi`` and ``lift_to_3fold`` of g^* phi- with a rational g,
  whose outputs and Gram entries carry denominators, and the lift of 2 phi-,
  whose Gram norm fails on every witness; on X1 and X2 over four Lorentzian
  coordinate planes and two rational ones, one with a non-integer L; and on
  broken products (a sign flipped in the table, x y + x on numerators,
  X(a, b, c) + c, a 2-fold product without its <a,b> e_0), where the
  reports fail.  ``para_structure_from_plane`` on integer tangents gives the
  LinearMap of the Fraction tangents (``ref_para_structure``) on the same
  planes and products.  ``classify_g2``, which
  reads delta phi = 0 off d *phi = 0 and returns delta torsion = 0 by
  d o d = 0, gives the report of the ``codifferential`` version
  (``ref_classify_g2``) on random (1,1) curvatures over flat T^6 and on the
  Iwasawa bundles, on a memo hit too, and raises the same error when d is
  broken on 4-forms.
* The paracomplex ``bridge.synthesize_compatible_ip`` reads the dual rows of
  the eigenbases off the projectors (sqrt(lambda) -+ K) / (2 sqrt(lambda)).
  Its Gram equals that of the eigenbasis inverse it replaced
  (``ref_synthesize_para``), entry for entry and type for type, on 24
  seeded c g^* omega_d with lambda a nonzero square, tall c included, under
  both orientations.  ``lift_to_3fold`` reads its product through
  1 + g^-1; it equals the product through ``linalg.inverse`` of 1 + g
  (``ref_lift_product``) on random triples, phi of both orbits.
"""

import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import iwasawa_su3
from conftest import G6, G7, random_invertible, ref_det, ref_pullback, stabilizer_rows, tall_invertible
from test_framecalc import random_curvature
from test_linalg import ref_rref
from stableforms import bridge, compalg, exteralg, stable7, vcp
from stableforms import framecalc as fc
from stableforms.compalg import (AlgebraTag, AlgElement, _cd_mul, basis_element, conjugate,
                                 inner, multiplication_table, multiply)
from stableforms.cli import form_to_document
from stableforms.exteralg import (_INDEX, _MASK, AltForm, InnerProduct, LinearMap, VolumeForm,
                                  _interior_wedges, _merge_signs, _minor, alt_form, basis_form, contract,
                                  form_inner, hodge_star, pullback, sort_index, wedge)
from stableforms.linalg import (_clear, _inertia_det, _integer_row, det, inertia, inverse, mat_mul, mat_vec,
                                rank, transpose)
from stableforms.scalars import QuadExt, _float_root, exact_root
from stableforms.stable6 import (_UNSTABLE_STABILIZER, OrbitClass6, _k_entry, _re_im, _root_kernel, _times,
                                 canonical_omega_minus, canonical_omega_minus_hat, canonical_omega_plus,
                                 canonicalize6, hat, lambda_coeff, scaled_structure, stabilizer_dim)
from stableforms.stable7 import (Canon7, _b_matrix, canonical_phi_minus, canonical_phi_plus,
                                 canonicalize7, metric_from_phi, q_form)
from stableforms.vcp import _product_from_form, cross_2fold, cross_3fold

GOLDEN = Path(__file__).parent / "data" / "nabla_phi_iwasawa.json"


def random_form(rng: random.Random, dim: int, degree: int, nterms: int = 5, span: int = 3):
    idxs = list(itertools.combinations(range(1, dim + 1), degree))
    picked = rng.sample(idxs, min(nterms, len(idxs)))
    return alt_form(dim, degree, {i: Fraction(rng.randint(-span, span), rng.randint(1, 3))
                                  for i in picked})


# curvature forms on the Iwasawa base, closed and of type (1,1)
IWASAWA_F = {
    "nonprimitive": alt_form(6, 2, {(1, 2): 1}),
    "primitive": alt_form(6, 2, {(1, 2): 1, (3, 4): -1}),
    "mixed": alt_form(6, 2, {(1, 2): 2, (3, 4): 1, (1, 3): 1, (2, 4): 1}),
}


def iwasawa_bundle(name: str):
    return fc.make_circle_bundle(fc.iwasawa_model(), IWASAWA_F[name])


def models():
    return {"iwasawa": fc.iwasawa_model(), "kodaira_thurston": fc.kodaira_thurston(),
            "bundle": iwasawa_bundle("mixed").total}


def reference_nabla(lifted, u: int, a):
    """nabla_{f_u} a from nabla_{f_u} f_i = sum_k lifted[u-1][i-1][k-1] f_k."""
    n = a.dim
    terms = {}
    for idx in itertools.combinations(range(1, n + 1), a.degree):
        total = Fraction(0)
        for s, i in enumerate(idx):
            for k in range(1, n + 1):
                g = lifted[u - 1][i - 1][k - 1]
                if g:
                    total -= g * a.coeff(idx[:s] + (k,) + idx[s + 1:])
        terms[idx] = total
    return alt_form(n, a.degree, terms)


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_thurston", "bundle"])
def test_d_is_a_graded_derivation(name, rng):
    model = models()[name]
    n = model.dim
    for _ in range(12):
        p = rng.randint(0, n - 1)
        q = rng.randint(0, n - p)
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        lhs = model.d(wedge(a, b))
        rhs = wedge(model.d(a), b) + (-1) ** p * wedge(a, model.d(b))
        assert lhs == rhs


@pytest.mark.parametrize("name", sorted(IWASAWA_F))
def test_nabla_is_a_derivation(name, rng):
    lifted = fc.covariant_table(iwasawa_bundle(name)).lifted
    for _ in range(6):
        p = rng.randint(0, 4)
        a, b = random_form(rng, 7, p), random_form(rng, 7, rng.randint(0, 7 - p))
        for u in range(1, 8):
            lhs = reference_nabla(lifted, u, wedge(a, b))
            rhs = (wedge(reference_nabla(lifted, u, a), b)
                   + wedge(a, reference_nabla(lifted, u, b)))
            assert lhs == rhs


@pytest.mark.parametrize("name", sorted(IWASAWA_F))
def test_nabla_phi_matches_the_connection_table(name):
    cb, su3 = iwasawa_bundle(name), iwasawa_su3()
    phi = fc.build_g2(cb, su3)[0]
    lifted = fc.covariant_table(cb).lifted
    derivatives = fc.nabla_phi(cb, su3).derivatives
    assert derivatives == {u: reference_nabla(lifted, u, phi) for u in range(1, 8)}


def nabla_documents(name: str) -> dict:
    report = fc.nabla_phi(iwasawa_bundle(name), iwasawa_su3())
    return {str(u): form_to_document(df) for u, df in sorted(report.derivatives.items())}


@pytest.mark.parametrize("name", sorted(IWASAWA_F))
def test_nabla_phi_matches_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert nabla_documents(name) == expected


def dense_indefinite(rng: random.Random, n: int) -> InnerProduct:
    """Random symmetric Gram matrix with no zero entry, nondegenerate and indefinite."""
    while True:
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        try:
            ip = InnerProduct.from_rows(g)
        except ValueError:  # degenerate
            continue
        if 0 not in ip.signature():
            return ip


@pytest.mark.parametrize("n", [6, 7])
def test_hodge_star_defining_property(n, rng):
    ip = dense_indefinite(rng, n)
    for orientation in (Fraction(1), Fraction(-3)):
        vol = VolumeForm.standard(n, orientation)
        for p in range(n + 1):
            a = random_form(rng, n, p)
            star = hodge_star(a, ip, vol)
            for idx in itertools.combinations(range(1, n + 1), p):
                b = basis_form(n, *idx)
                assert vol.ratio(wedge(b, star)) == form_inner(b, a, ip)


# -- the integer-cleared kernel against the field loops it replaced ----------

def ref_wedge(a, b):
    deg = a.degree + b.degree
    if deg > a.dim:
        return AltForm.zero(a.dim, deg)
    out: dict = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            key, sign = sort_index(ia + ib)
            if sign == 0:
                continue
            s = out.get(key, 0) + sign * ca * cb
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return AltForm(a.dim, deg, out)


def ref_contract(v, a):
    out: dict = {}
    for idx, c in a.terms.items():
        for k, i in enumerate(idx):
            vi = v[i - 1]
            if vi == 0:
                continue
            key = idx[:k] + idx[k + 1:]
            s = out.get(key, 0) + ((-1) ** k) * vi * c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return AltForm(a.dim, a.degree - 1, out)


KINDS = ["mixed", "scaled", "int"]


def kernel_coefficient(rng: random.Random, kind: str):
    """A nonzero coefficient: mixed denominators, times 10^e (|e| <= 200), or a plain int."""
    num = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 6))
    if kind == "int":
        return num
    c = Fraction(num, rng.choice([1, 2, 3, 4, 7, 12, 35, 9973]))
    return c * Fraction(10) ** rng.randint(-200, 200) if kind == "scaled" else c


def kernel_form(rng: random.Random, dim: int, degree: int, kind: str) -> AltForm:
    """Random form with a random number of terms; "int" keeps int-typed coefficients."""
    idxs = list(itertools.combinations(range(1, dim + 1), degree))
    picked = rng.sample(idxs, rng.randint(0, len(idxs)))
    return AltForm(dim, degree, {i: kernel_coefficient(rng, kind) for i in picked})


def kernel_matrix(rng: random.Random, n: int, kind: str) -> LinearMap:
    """Rational non-integer entries (some zero); "scaled" rows carry 10^e factors."""
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
    if kind == "scaled":
        rows = [[x * Fraction(10) ** e for x in row] for row, e in
                zip(rows, (rng.randint(-200, 200) for _ in range(n)))]
    elif kind == "int":
        rows = [[x.numerator for x in row] for row in rows]
    return LinearMap(n, n, tuple(tuple(row) for row in rows))


def assert_same(got: AltForm, expected: AltForm, *inputs):
    assert (got.dim, got.degree) == (expected.dim, expected.degree)
    assert got.terms == expected.terms
    assert all(c != 0 for c in got.terms.values())
    if all(type(x) is Fraction for f in inputs for x in f):
        assert all(type(c) is Fraction for c in got.terms.values())


def values(form: AltForm) -> list:
    return list(form.terms.values())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [4, 6, 7])
def test_wedge_matches_field_loop(dim, kind, rng):
    for p in range(dim + 1):
        for q in range(dim + 2 - p):
            a, b = kernel_form(rng, dim, p, kind), kernel_form(rng, dim, q, kind)
            assert_same(wedge(a, b), ref_wedge(a, b), values(a), values(b))
        # a ^ a cancels term by term for odd p; a ^ (a + c) cancels in part
        a = kernel_form(rng, dim, p, kind)
        for b in (a, a + kernel_form(rng, dim, p, kind)):
            assert_same(wedge(a, b), ref_wedge(a, b), values(a), values(b))
        if p % 2:
            assert wedge(a, a).is_zero


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [4, 6, 7])
def test_contract_matches_field_loop(dim, kind, rng):
    for p in range(1, dim + 1):
        for _ in range(3):
            a = kernel_form(rng, dim, p, kind)
            v = [rng.randint(0, 1) * kernel_coefficient(rng, kind) for _ in range(dim)]
            once = contract(v, a)
            assert_same(once, ref_contract(v, a), values(a), v)
            if p > 1:  # i_v i_v a = 0: every sum cancels
                assert_same(contract(v, once), ref_contract(v, once), values(once), v)
                assert contract(v, once).is_zero


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [4, 6, 7])
def test_pullback_matches_field_loop(dim, kind, rng):
    for p in range(dim + 1):
        a = kernel_form(rng, dim, p, kind)
        g = kernel_matrix(rng, dim, kind)
        entries = [x for row in g.matrix for x in row]
        assert_same(pullback(g, a), ref_pullback(g, a), values(a), entries)
        # rank 2: every minor of size >= 3 vanishes
        low = LinearMap.from_rows([[row[0] * x + row[1] * y for x, y in zip(*g.matrix[:2])]
                                   for row in g.matrix])
        assert_same(pullback(low, a), ref_pullback(low, a), values(a), entries)


@pytest.mark.parametrize("dim", [4, 6, 7])
def test_pullback_cancelling_minors(dim, rng):
    """g* e^3 = g* e^1 and g* e^4 = g* e^2, so g*(e^12 - e^34) cancels in every term."""
    rows = list(kernel_matrix(rng, dim, "mixed").matrix)
    rows[2], rows[3] = rows[0], rows[1]
    g = LinearMap(dim, dim, tuple(rows))
    a = alt_form(dim, 2, {(1, 2): Fraction(5, 3), (3, 4): Fraction(-5, 3)})
    assert ref_pullback(g, a).is_zero
    assert_same(pullback(g, a), ref_pullback(g, a), values(a))


def ref_minor_pullback(g: LinearMap, a: AltForm) -> AltForm:
    """``pullback`` before the Laplace expansion: on the integer rows of g, one p x p minor
    (``_minor``) per (term, column set), each column set in sorted order."""
    n, p = a.dim, a.degree
    rows, den = g._rows
    (xa,), (da,) = _clear(a.terms.values())
    terms = [([rows[i - 1] for i in idx], c) for idx, c in zip(a.terms, xa)]
    out: dict = {}
    for jdx in itertools.combinations(range(n), p):
        total = 0
        for minor_rows, c in terms:
            d = _minor(minor_rows, jdx)
            if d:
                total = total + c * d
        if total:
            out[tuple(j + 1 for j in jdx)] = Fraction(total, da * den ** p)
    return AltForm(n, p, out)


def laplace_maps(rng: random.Random, n: int) -> dict:
    """Maps with a row of two nonzero entries at least, so that ``pullback`` expands."""
    dense = kernel_matrix(rng, n, "mixed").matrix
    dense = [[x or Fraction(1, 7) for x in row] for row in dense]
    singular = [list(row) for row in dense]
    singular[-1] = [x - 2 * y for x, y in zip(dense[0], dense[1])]  # rank n - 1
    zero_row = [list(row) for row in dense]
    zero_row[rng.randrange(n)] = [0] * n
    tall = [[rng.randint(-3, 3) * Fraction(10) ** 40 / rng.randint(1, 9) for _ in range(n)]
            for _ in range(n)]
    tall[0][:2] = [Fraction(10) ** 40, -Fraction(10) ** 40]
    return {kind: LinearMap.from_rows(m) for kind, m in
            (("dense", dense), ("singular", singular), ("zero row", zero_row), ("tall", tall))}


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_laplace_pullback_matches_the_minor_loop(n, rng):
    for kind, g in laplace_maps(rng, n).items():
        assert any(sum(map(bool, row)) > 1 for row in g._rows[0])
        for p in range(1, n + 1):
            a = kernel_form(rng, n, p, ("mixed", "scaled", "int")[p % 3])
            zeros = rng.sample(list(itertools.combinations(range(1, n + 1), p)), 1 + (p < n))
            a = AltForm(n, p, {**a.terms, **{idx: Fraction(0) for idx in zeros if idx not in a.terms}})
            got, expected = pullback(g, a), ref_minor_pullback(g, a)
            assert list(got.terms.items()) == list(expected.terms.items()), (kind, p)
            assert got.terms == expected.terms and list(got.terms) == sorted(got.terms)


def ref_form_inner(a, b, ip):
    """sum over term pairs of a_I b_J det(G^{-1}[I, J])."""
    ginv = ip.inverse_gram()
    total = Fraction(0)
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            d = ref_det([[ginv[i - 1][j - 1] for j in ib] for i in ia]) if a.degree else 1
            total = total + ca * cb * d
    return total


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [4, 6, 7])
def test_form_inner_matches_term_pairs(dim, kind, rng):
    ip = dense_indefinite(rng, dim)
    for p in range(dim + 1):
        a, b = kernel_form(rng, dim, p, kind), kernel_form(rng, dim, p, kind)
        got = form_inner(a, b, ip)
        assert got == ref_form_inner(a, b, ip) == form_inner(b, a, ip)
        assert type(got) is Fraction


def ref_q_form(phi: AltForm, vol: VolumeForm) -> tuple:
    c = vol.coefficient()
    full = tuple(range(1, 8))
    units = [[Fraction(int(k == i)) for k in range(1, 8)] for i in range(1, 8)]
    contractions = [ref_contract(e, phi) for e in units]
    fives = [ref_wedge(cj, phi) for cj in contractions]
    return tuple(tuple(ref_wedge(ci, fj).terms.get(full, Fraction(0)) / c for fj in fives)
                 for ci in contractions)


@pytest.mark.parametrize("kind", ["mixed", "scaled"])
def test_q_form_matches_wedge_pairing(kind, rng):
    vol = VolumeForm.standard(7, Fraction(-7, 3))
    forms = [pullback(G7, canonical_phi_minus()), pullback(G7, canonical_phi_plus())]
    forms += [kernel_form(rng, 7, 3, kind) for _ in range(4)]
    for phi in forms:
        scaled = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9)) * phi
        assert q_form(scaled, vol).B == ref_q_form(scaled, vol)


def ref_stabilizer_dim(form: AltForm) -> int:
    return form.dim ** 2 - rank(stabilizer_rows(form))


def test_stabilizer_dim_matches_coeff_rows(rng):
    forms = [pullback(G6, canonical_omega_plus()), pullback(G6, canonical_omega_minus()),
             pullback(G7, canonical_phi_minus()), pullback(G7, canonical_phi_plus())]
    forms += [kernel_form(rng, n, 3, kind) for n in (6, 7) for kind in ("mixed", "int")]
    for form in forms:
        scaled = Fraction(10) ** rng.randint(-200, 200) * form
        assert stabilizer_dim(form) == stabilizer_dim(scaled) == ref_stabilizer_dim(scaled)


# -- stabilizer_dim from lambda, det B and the orbit table against the rank of its system --

def omega_d(d: int) -> AltForm:
    """Re((e1 + r e4)(e2 + r e5)(e3 + r e6)) with r^2 = d, so lambda = 4 d^3: |lambda| is a
    square exactly when |d| is; d = 1 is the 4-term Omega_plus, d = -1 Omega_minus."""
    return alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): d, (2, 4, 6): -d, (3, 4, 5): d})


def on_r7(form: AltForm) -> AltForm:
    """A 3-form on R^6 placed on the first six coordinates of R^7."""
    return alt_form(7, 3, dict(form.terms))


# the kinds of the classify benchmark, with |lambda| a square and not -> stabilizer dimension
CLASSIFY_KINDS = {
    "6+": (canonical_omega_plus(), 16), "6+ lambda=32": (omega_d(2), 16),
    "6-": (canonical_omega_minus(), 16), "6- lambda=-32": (omega_d(-2), 16),
    "6d": (basis_form(6, 1, 2, 3), 26),
    "7+": (canonical_phi_plus(), 14), "7-": (canonical_phi_minus(), 14),
    "7d": (basis_form(7, 1, 2, 3), 36),
}
# a normal form of unstable orbits (lambda = 0, det B = 0) -> stabilizer dimension
UNSTABLE_FORMS = {
    "zero6": (AltForm.zero(6, 3), 36),
    "e123 in R6": (basis_form(6, 1, 2, 3), 26),
    "e1^(e23+e45)": (alt_form(6, 3, {(1, 2, 3): 1, (1, 4, 5): 1}), 21),
    "e135+e146+e236": (alt_form(6, 3, {(1, 3, 5): 1, (1, 4, 6): 1, (2, 3, 6): 1}), 17),
    "zero7": (AltForm.zero(7, 3), 49),
    "e123 in R7": (basis_form(7, 1, 2, 3), 36),
    "e1^(e23+e45+e67)": (alt_form(7, 3, {(1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1}), 28),
    "e123+e456": (alt_form(7, 3, {(1, 2, 3): 1, (4, 5, 6): 1}), 23),
    "Omega+ in R7": (on_r7(omega_d(1)), 23),
    "Omega- in R7": (on_r7(canonical_omega_minus()), 23),
    "e1^(e23+e45) in R7": (alt_form(7, 3, {(1, 2, 3): 1, (1, 4, 5): 1}), 29),
    "e135+e146+e236 in R7": (alt_form(7, 3, {(1, 3, 5): 1, (1, 4, 6): 1, (2, 3, 6): 1}), 24),
    "e123+e456+e147": (alt_form(7, 3, {(1, 2, 3): 1, (4, 5, 6): 1, (1, 4, 7): 1}), 18),
    "e125+e136+e147+e234": (alt_form(7, 3, {(1, 2, 5): 1, (1, 3, 6): 1, (1, 4, 7): 1, (2, 3, 4): 1}), 21),
    "e124+e157+e236+e456": (alt_form(7, 3, {(1, 2, 4): 1, (1, 5, 7): 1, (2, 3, 6): 1, (4, 5, 6): 1}), 15),
}
# the R7 copies of Omega+- are real forms of the complex orbit of e123+e456
COMPLEX_ORBITS = sorted(name for name in UNSTABLE_FORMS if not name.startswith("Omega"))


def scales(rng: random.Random) -> list:
    """c = +-1, +-p/q and a tall +-(10^40 + k)/q."""
    small = Fraction(rng.randint(1, 99), rng.randint(1, 99))
    tall = Fraction(10 ** 40 + rng.randrange(10 ** 39), rng.randint(1, 9))
    return [sign * c for c in (Fraction(1), small, tall) for sign in (1, -1)]


def stability_invariant(form: AltForm):
    """lambda in dim 6, det B in dim 7, under the standard volume form."""
    vol = VolumeForm.standard(form.dim)
    if form.dim == 6:
        return lambda_coeff(form, vol).value
    return det([list(r) for r in q_form(form, vol).B])


@pytest.mark.parametrize("kind", sorted(CLASSIFY_KINDS))
def test_stabilizer_dim_of_classify_kinds_matches_rank(kind, rng):
    base, expected = CLASSIFY_KINDS[kind]
    for _ in range(2):
        g = random_invertible(rng, base.dim)
        for c in scales(rng):
            form = c * pullback(g, base)
            assert stabilizer_dim(form) == ref_stabilizer_dim(form) == expected
            assert (stability_invariant(form) != 0) == (expected in (16, 14))
            if kind.startswith("6") and expected == 16:
                root = exact_root(abs(lambda_coeff(form, VolumeForm.standard(6)).value), 2)
                assert (root is None) == kind.endswith("32")


@pytest.mark.parametrize("name", sorted(UNSTABLE_FORMS))
def test_stabilizer_dim_of_unstable_orbits_matches_rank(name, rng):
    base, expected = UNSTABLE_FORMS[name]
    g = random_invertible(rng, base.dim)
    for form in [base] + [c * pullback(g, base) for c in scales(rng)]:
        assert stability_invariant(form) == 0
        assert stabilizer_dim(form) == ref_stabilizer_dim(form) == expected


@st.composite
def spread_invertible(draw, n: int) -> LinearMap:
    """g with entries m 10^e, |m| <= 9 and |e| <= 8, det g != 0: at that spread
    ``ref_stabilizer_dim`` of g^* (normal form) takes well under 2 s."""
    entry = st.builds(lambda m, e: m * Fraction(10) ** e,
                      st.sampled_from(range(-9, 10)), st.integers(-8, 8))
    g = LinearMap.from_rows(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(g.det() != 0)
    return g


@pytest.mark.parametrize("name", sorted(UNSTABLE_FORMS))
@settings(max_examples=3, derandomize=True, deadline=None)
@given(data=st.data())
def test_stabilizer_dim_at_every_support_matches_rank(name, data):
    """Every support size of R6 (0, 3, 5, 6) and R7 (0, 3, 5, 6, 7), at spread entries."""
    base, _ = UNSTABLE_FORMS[name]
    form = pullback(data.draw(spread_invertible(base.dim)), base)
    assert stabilizer_dim(form) == ref_stabilizer_dim(form)


def orbit_ranks(form: AltForm) -> tuple:
    """(n, w, r): the ranks of the i_{e_j} form and of the i_{e_j} form ^ form, from
    ``contract`` and ``wedge``."""
    contractions = [contract([int(k == j) for k in range(form.dim)], form) for j in range(form.dim)]

    def span(forms: list) -> int:
        keys = sorted(set().union(*(f.terms for f in forms)))
        return rank([[f.coeff(k) for k in keys] for f in forms])
    return form.dim, span(contractions), span([wedge(c, form) for c in contractions])


def test_each_complex_orbit_has_its_own_table_key():
    """One normal form per unstable complex orbit (zero included): their (n, w, r) are
    pairwise distinct and are the table's keys, and each row is n^2 minus the rank
    of the system at its normal form."""
    keys = {name: orbit_ranks(UNSTABLE_FORMS[name][0]) for name in UNSTABLE_FORMS}
    assert len({keys[name] for name in COMPLEX_ORBITS}) == len(COMPLEX_ORBITS) == 13
    assert {keys[name] for name in COMPLEX_ORBITS} == set(_UNSTABLE_STABILIZER)
    for name, (base, expected) in UNSTABLE_FORMS.items():
        assert _UNSTABLE_STABILIZER[keys[name]] == expected == ref_stabilizer_dim(base)


@pytest.mark.parametrize("name", ["e1^(e23+e45+e67)", "e123+e456+e147", "e135+e146+e236 in R7",
                                  "e135+e146+e236"])
def test_stabilizer_dim_of_tall_unstable_orbits(name):
    """The orbits a C(n,3) x n^2 rank once decided, in seconds to minutes at this height:
    g^* (normal form), g with entries m 10^e, |e| <= 200."""
    base, expected = UNSTABLE_FORMS[name]
    assert stabilizer_dim(pullback(tall_invertible(random.Random(name), base.dim), base)) == expected


@pytest.mark.parametrize("n", [6, 7])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_stabilizer_dim_of_sparse_forms_matches_rank(n, data):
    """Forms of 1 to 6 terms with coefficients in {1, -1, 2}, stable or not."""
    terms = data.draw(st.dictionaries(st.sampled_from(list(itertools.combinations(range(1, n + 1), 3))),
                                      st.sampled_from((1, -1, 2)), min_size=1, max_size=6))
    form = alt_form(n, 3, terms)
    assert stabilizer_dim(form) == ref_stabilizer_dim(form)


# -- the structure-constant kernel against the doubling recursion ------------

COORD_KINDS = KINDS + ["quadext", "float"]
ROOT = Fraction(-3, 5)


def coordinate(rng: random.Random, kind: str):
    """One coordinate of the given kind, zero one time in four."""
    if kind == "float":
        return rng.randint(-64, 64) / 8
    if rng.random() < 0.25:
        return 0 if kind == "int" else Fraction(0)
    if kind == "quadext":
        return QuadExt(kernel_coefficient(rng, "mixed"), kernel_coefficient(rng, "scaled"), ROOT)
    return kernel_coefficient(rng, kind)


def coordinates(rng: random.Random, n: int, kind: str) -> tuple:
    return tuple(coordinate(rng, kind) for _ in range(n))


def ref_multiply(x: AlgElement, y: AlgElement) -> AlgElement:
    return AlgElement(x.tag, _cd_mul(x.coords, y.coords, x.tag.doubling_signs))


def ref_inner(x: AlgElement, y: AlgElement):
    return sum((s * a * b for s, a, b in zip(x.tag.signature, x.coords, y.coords)), Fraction(0))


def ref_pair(ip: InnerProduct, u, v):
    """The dense double sum over every Gram entry."""
    n = ip.dim
    return sum((u[i] * ip.gram[i][j] * v[j] for i in range(n) for j in range(n)), Fraction(0))


def ref_cross_2fold(tag: AlgebraTag, a, b) -> tuple:
    """X(a, b) = a.b + <a, b> e_0, with a and b imaginary."""
    xa, xb = (AlgElement(tag, (Fraction(0), *v)) for v in (a, b))
    out = ref_multiply(xa, xb) + ref_inner(xa, xb) * basis_element(tag, 0)
    assert out.coords[0] == 0
    return out.coords[1:]


def ref_cross_3fold(tag: AlgebraTag, variant: str, a, b, c) -> tuple:
    """-a(conj(b)c) (X1) or -(a conj(b))c (X2), plus <a,b>c + <b,c>a - <c,a>b."""
    xa, xb, xc = (AlgElement(tag, tuple(v)) for v in (a, b, c))
    if variant == "X1":
        lead = -ref_multiply(xa, ref_multiply(conjugate(xb), xc))
    else:
        lead = -ref_multiply(ref_multiply(xa, conjugate(xb)), xc)
    return (lead + ref_inner(xa, xb) * xc + ref_inner(xb, xc) * xa
            + (-ref_inner(xc, xa)) * xb).coords


def rational(values) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in values)


@pytest.mark.parametrize("kind", COORD_KINDS)
@pytest.mark.parametrize("tag", list(AlgebraTag))
def test_multiply_matches_the_doubling_recursion(tag, kind, rng):
    for _ in range(40):
        x, y = (AlgElement(tag, coordinates(rng, tag.dim, kind)) for _ in range(2))
        if not rational(x.coords + y.coords):
            with pytest.raises(TypeError, match="int or Fraction"):
                multiply(x, y)
            continue
        got = multiply(x, y)
        assert got == ref_multiply(x, y)
        assert all(type(c) is Fraction for c in got.coords)
    # one rational and one field operand
    x = AlgElement(tag, coordinates(rng, tag.dim, "scaled"))
    y = AlgElement(tag, (QuadExt.root(ROOT),) + coordinates(rng, tag.dim, "quadext")[1:])
    for pair in ((x, y), (y, x)):
        with pytest.raises(TypeError, match="QuadExt"):
            multiply(*pair)


@pytest.mark.parametrize("tag", list(AlgebraTag))
def test_multiplication_table_is_the_basis_products(tag):
    table = multiplication_table(tag)
    for i in range(tag.dim):
        for j in range(tag.dim):
            ei, ej = basis_element(tag, i), basis_element(tag, j)
            assert table[i][j] == ref_multiply(ei, ej) == multiply(ei, ej)
            assert all(type(c) is Fraction for c in table[i][j].coords)


def gram_matrices(rng: random.Random) -> list:
    """Diagonal (the algebra signatures and scaled ones), dense indefinite and int-typed."""
    ips = [InnerProduct.diagonal(tag.signature) for tag in AlgebraTag]
    ips += [InnerProduct.diagonal([kernel_coefficient(rng, "scaled") for _ in range(n)])
            for n in (4, 7, 8)]
    ips += [dense_indefinite(rng, n) for n in (4, 7, 8)]
    ips += [InnerProduct(2, ((2, 1), (1, 1))), InnerProduct(3, ((0, 1, 0), (1, 0, 0), (0, 0, -3)))]
    for n in (4, 8):
        ip = dense_indefinite(rng, n)
        ips.append(InnerProduct(n, tuple(tuple(2 * x.numerator for x in row) for row in ip.gram)))
    return ips


@pytest.mark.parametrize("kind", COORD_KINDS)
def test_pair_matches_the_dense_sum(kind, rng):
    for ip in gram_matrices(rng):
        for _ in range(10):
            u, v = coordinates(rng, ip.dim, kind), coordinates(rng, ip.dim, kind)
            if not rational(u + v):
                with pytest.raises(TypeError, match="int or Fraction"):
                    ip.pair(u, v)
                continue
            got = ip.pair(u, v)
            assert got == ref_pair(ip, u, v) == ip.pair(v, u)
            assert type(got) is Fraction
        # one rational and one field vector
        u = coordinates(rng, ip.dim, "scaled")
        v = (QuadExt.root(ROOT),) + coordinates(rng, ip.dim, "quadext")[1:]
        for pair in ((u, v), (v, u)):
            with pytest.raises(TypeError, match="QuadExt"):
                ip.pair(*pair)


def test_cached_entries_leave_eq_hash_and_repr_alone():
    gram = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    ip = InnerProduct(2, gram)
    inv = ip.inverse_gram()  # fills the cached inverse
    inv[0][0] = Fraction(7)  # a fresh copy: the cache is not changed through it
    assert ip.inverse_gram() == [[1, -1], [-1, 2]] and ip.inverse_gram() is not ip.inverse_gram()
    assert ip == InnerProduct.from_rows([[2, 1], [1, 1]])
    assert hash(ip) == hash((2, gram))
    assert repr(ip) == f"InnerProduct(dim=2, gram={gram!r})"
    # the (bundle, SU(3)) pair memo of CircleBundleModel
    F = alt_form(6, 2, {(1, 4): 1, (2, 5): -1})
    cb = fc.make_circle_bundle(fc.flat_torus(6), F)
    text = repr(cb)
    with pytest.raises(TypeError) as unhashable:
        hash(cb)
    fc.classify_g2(cb, fc.standard_su3())
    fc.nabla_phi(cb, fc.standard_su3())
    assert len(cb._memo) == 2
    assert repr(cb) == text and "_memo" not in text
    assert cb == fc.make_circle_bundle(fc.flat_torus(6), F)
    assert cb != fc.make_circle_bundle(fc.flat_torus(6), -1 * F)
    with pytest.raises(TypeError) as again:
        hash(cb)
    assert str(again.value) == str(unhashable.value)


@pytest.mark.parametrize("kind", COORD_KINDS)
@pytest.mark.parametrize("tag", list(AlgebraTag))
def test_inner_matches_the_dense_sum(tag, kind, rng):
    ip = InnerProduct.diagonal(tag.signature)
    for _ in range(20):
        x, y = (AlgElement(tag, coordinates(rng, tag.dim, kind)) for _ in range(2))
        if not rational(x.coords + y.coords):
            with pytest.raises(TypeError, match="int or Fraction"):
                inner(x, y)
            continue
        assert inner(x, y) == ref_inner(x, y) == ref_pair(ip, x.coords, y.coords)


@pytest.mark.parametrize("kind", COORD_KINDS)
@pytest.mark.parametrize("tag", [AlgebraTag.O, AlgebraTag.B])
def test_cross_products_match_the_algebra_formulas(tag, kind, rng):
    x2 = cross_2fold(tag)
    x3 = {variant: cross_3fold(tag, variant) for variant in ("X1", "X2")}
    for _ in range(15):
        a, b = coordinates(rng, 7, kind), coordinates(rng, 7, kind)
        if rational(a + b):
            got = x2(a, b)
            assert got == ref_cross_2fold(tag, a, b)
            assert all(type(c) is Fraction for c in got)
        else:
            with pytest.raises(TypeError, match="int or Fraction"):
                x2(a, b)
        a, b, c = (coordinates(rng, 8, kind) for _ in range(3))
        for variant, cp in x3.items():
            if not rational(a + b + c):
                with pytest.raises(TypeError, match="int or Fraction"):
                    cp(a, b, c)
                continue
            got = cp(a, b, c)
            assert got == ref_cross_3fold(tag, variant, a, b, c)
            assert all(type(c) is Fraction for c in got)


# -- the fraction-free inverse against Gauss-Jordan over Fractions -----------

def ref_inverse(a):
    """Gauss-Jordan over Fractions (``ref_rref``) of [a | I]."""
    n = len(a)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = ref_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


@pytest.mark.parametrize("kind", KINDS)
def test_inverse_matches_gauss_jordan(kind, rng):
    singular = 0
    for trial in range(120):
        n = 1 + trial % 8
        rows = [list(row) for row in kernel_matrix(rng, n, kind).matrix]
        if trial % 5 == 0 and n > 1:  # a dependent row
            rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
        try:
            expected = ref_inverse(rows)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                inverse(rows)
            continue
        got = inverse(rows)
        assert got == expected
        assert all(type(x) is Fraction for row in got for x in row)
    assert singular >= 10


# -- canonicalize7: the exact Cayley frame against the float frame -----------

def ref_canonicalize7(phi: AltForm, vol: VolumeForm) -> tuple[list, float]:
    """``canonicalize7`` before the exact frame: floats from the metric on, with its own
    Gram-Schmidt, cross product, inverse and residual (the helpers below)."""
    gm = metric_from_phi(phi, vol)
    gram = [[float(x) for x in row] for row in gm.ip.gram]
    frame = ref_gram_schmidt_floats(gram)
    phif = {idx: float(c) for idx, c in phi.terms.items()}

    def ev_form(vecs) -> float:
        total = 0.0
        for idx, c in phif.items():
            total += c * ref_det3([[vecs[col][row - 1] for col in range(3)] for row in idx])
        return total

    ginv = [[float(x) for x in row] for row in gm.ip.inverse_gram()]

    def cross(x, y):
        cov = []
        for k in range(1, 8):
            ek = [1.0 if i == k else 0.0 for i in range(1, 8)]
            cov.append(ev_form([x, y, ek]))
        return [sum(ginv[i][j] * cov[j] for j in range(7)) for i in range(7)]

    def dot(x, y):
        return ref_bilinear(gram, x, y)

    def normalize(x):
        n = math.sqrt(dot(x, x))
        return [c / n for c in x]

    u1, u2 = frame[0], frame[1]
    u3 = normalize(cross(u1, u2))
    span = [u1, u2, u3]
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
    m = [[cols[j][i] for j in range(7)] for i in range(7)]
    basis = ref_float_inverse(m)
    return basis, float_round_trip_error(basis, phi)


def ref_gram_schmidt_floats(gram: list) -> list:
    n = len(gram)
    frame = []
    for i in range(n):
        v = [1.0 if j == i else 0.0 for j in range(n)]
        for f in frame:
            c = ref_bilinear(gram, v, f)
            v = [x - c * y for x, y in zip(v, f)]
        s = 1.0 / math.sqrt(ref_bilinear(gram, v, v))
        frame.append([x * s for x in v])
    return frame


def ref_bilinear(gram, u, v) -> float:
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def ref_det3(m: list) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def ref_float_inverse(m: list) -> list:
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


def float_round_trip_error(basis: list, phi: AltForm) -> float:
    """max |basis^* phi_minus - phi| over all coefficients, by float 3 x 3 minors."""
    can = {idx: float(c) for idx, c in canonical_phi_minus().terms.items()}
    worst = 0.0
    for jdx in itertools.combinations(range(1, 8), 3):
        total = sum(c * ref_det3([[basis[i - 1][j - 1] for j in jdx] for i in idx])
                    for idx, c in can.items())
        worst = max(worst, abs(total - float(phi.coeff(jdx))))
    return worst


def phi_minus_sample(rng: random.Random, c: Fraction) -> AltForm:
    return c * pullback(random_invertible(rng, 7, 2), canonical_phi_minus())


@pytest.mark.parametrize("vol", [1, -1])
@pytest.mark.parametrize("sign", [1, -1])
def test_canonicalize7_matches_the_float_frame(sign, vol, rng):
    """Both frames span the same lines, so the bases agree up to rounding."""
    volume = VolumeForm.standard(7, vol)
    for _ in range(21):
        c = sign * Fraction(rng.randint(1, 60), rng.randint(1, 60))
        phi = phi_minus_sample(rng, c)
        got = canonicalize7(phi, volume)
        expected, _ = ref_canonicalize7(phi, volume)
        top = max(abs(x) for row in expected for x in row)
        assert max(abs(x - y) for rg, re in zip(got.basis, expected) for x, y in zip(rg, re)) \
            <= 1e-11 * top


def test_canonicalize7_takes_the_first_of_tied_candidates(rng):
    """On a diagonal pullback of phi_minus, f4..f7 tie for u4 and both frames take f4."""
    for _ in range(6):
        g = LinearMap.diagonal([rng.choice([1, 2, 3, -1, -2]) for _ in range(7)])
        phi = pullback(g, canonical_phi_minus())
        got = canonicalize7(phi, VolumeForm.standard(7))
        expected, _ = ref_canonicalize7(phi, VolumeForm.standard(7))
        assert max(abs(x - y) for rg, re in zip(got.basis, expected) for x, y in zip(rg, re)) \
            <= 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_canonicalize7_at_every_coefficient_size(sign, rng):
    """c = (p/q) 10^e for |e| <= 200: the exact check passes (no ArithmeticError) and
    the float basis pulls phi_minus back to phi to 1e-9 of its largest coefficient."""
    for e in range(-200, 201, 12):
        c = sign * Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) * Fraction(10) ** e
        phi = phi_minus_sample(rng, c)
        canon = canonicalize7(phi, VolumeForm.standard(7, rng.choice([1, -1])))
        top = max(abs(float(x)) for x in phi.terms.values())
        assert float_round_trip_error(canon.basis, phi) <= 1e-9 * top, e
        assert canon.residual <= 1e-9 * top, e


def ref_float_pullback(g: LinearMap, a: AltForm) -> AltForm:
    """``exteralg.pullback`` on a float map as it ran before it took rational values only:
    the coefficients of a times the minors (``_minor``) of g's rows, summed in the order
    of ``combinations``."""
    terms = [([g.matrix[i - 1] for i in idx], c) for idx, c in a.terms.items()]
    out: dict = {}
    for jdx in itertools.combinations(range(a.dim), a.degree):
        total = 0
        for rows, c in terms:
            d = _minor(rows, jdx)
            if d:
                total = total + c * d
        if total:
            out[tuple(j + 1 for j in jdx)] = total
    return AltForm(a.dim, a.degree, out)


def ref_exact_canonicalize7(phi: AltForm, vol: VolumeForm) -> Canon7:
    """``canonicalize7`` before the integer frame: Gram-Schmidt and the product of
    ``vcp._product_from_form`` on an ``InnerProduct`` of B, the check by ``pullback``
    and the inverse frame by ``LinearMap.inverse``."""
    qf = q_form(phi, vol)
    sgn = 1 if qf.signature()[0] == 7 else -1
    ip = InnerProduct.from_rows(qf.B)
    product = _product_from_form(phi, ip.inverse_gram())

    def cross(a, b) -> list:  # the core on the numerators: a positive multiple of a x b
        return [sgn * x for x in _integer_row(product(*_clear(a, b)[0])[0])[0]]

    gs: list = []
    for i in range(7):
        gs.append(ref_project(ip, [int(i == j) for j in range(7)], gs))
    u = [gs[0], gs[1], cross(gs[0], gs[1])]
    n3 = ip.pair(u[2], u[2])
    f = min(gs[2:], key=lambda f: ip.pair(f, u[2]) ** 2 / (ip.pair(f, f) * n3))
    u.append(ref_project(ip, f, u[2:]))
    u += [cross(u[i], u[3]) for i in range(3)]
    norms = [sgn * ip.pair(v, v) for v in u]
    d36 = 36 * abs(det([list(r) for r in qf.B]))
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
        t = max(abs(x) for x in row)
        m = _float_root(nrm ** 9 * t ** 18 / d36, 18)
        basis.append([float(x / t) * m for x in row])
    back = ref_float_pullback(LinearMap.from_rows(basis), canonical_phi_minus())
    residual = max(abs(back.coeff(idx) - float(phi.coeff(idx)))
                   for idx in back.terms.keys() | phi.terms.keys())
    return Canon7(basis, residual)


def ref_residual(basis: list, phi: AltForm) -> float:
    """The residual of ``canonicalize7`` before its own loop: the float pullback of
    phi_minus by the basis (``ref_float_pullback``), and its largest error."""
    back = ref_float_pullback(LinearMap.from_rows(basis), canonical_phi_minus()).terms
    return max(abs(back.get(idx, 0) - float(phi.terms.get(idx, 0)))
               for idx in back.keys() | phi.terms.keys())


@pytest.mark.parametrize("scale", [1, 10 ** 40, 10 ** 100], ids=["1", "1e40", "1e100"])
def test_residual_matches_the_float_pullback_bit_for_bit(scale, rng):
    """The residual loop of canonicalize7 gives the residual of the float pullback, and
    the basis it reads is the Fraction frame's, repr for repr, under both orientations."""
    for k in range(8):
        c = (-1) ** k * scale * (Fraction(rng.randint(1, 60), rng.randint(1, 60)) if k > 1 else 1)
        phi = phi_minus_sample(rng, c)
        vol = VolumeForm.standard(7, (-1) ** (k // 2))
        got, expected = canonicalize7(phi, vol), ref_exact_canonicalize7(phi, vol)
        assert [repr(x) for row in got.basis for x in row] == [repr(x) for row in expected.basis for x in row]
        assert repr(got.residual) == repr(ref_residual(got.basis, phi)) == repr(expected.residual)


def ref_project(ip: InnerProduct, v: list, onto: list) -> list:
    for u in onto:
        c = ip.pair(v, u) / ip.pair(u, u)
        v = [c.denominator * x - c.numerator * y for x, y in zip(v, u)]
    g = math.gcd(*v)
    return [x // g for x in v]


@pytest.mark.parametrize("vol", [1, -1])
@pytest.mark.parametrize("sign", [1, -1])
def test_canonicalize7_matches_the_rational_frame(sign, vol, rng):
    """The integer frame (Gram-Schmidt, P^-1 and U^-1 with no elimination) gives the
    basis and residual of the Fraction frame bit for bit, under sgn B = +-1."""
    volume = VolumeForm.standard(7, vol)
    for k in range(16):
        q = rng.randint(1, 60)
        c = sign * (Fraction(10 ** 40, q) if k % 4 == 3 else Fraction(rng.randint(1, 60), q))
        phi = phi_minus_sample(rng, c)
        got, expected = canonicalize7(phi, volume), ref_exact_canonicalize7(phi, volume)
        assert got.basis == expected.basis
        assert got.residual == expected.residual


def test_canonicalize7_matches_the_rational_frame_on_tied_candidates(rng):
    for _ in range(6):
        g = LinearMap.diagonal([rng.choice([1, 2, 3, -1, -2]) for _ in range(7)])
        phi = pullback(g, canonical_phi_minus())
        for vol in (VolumeForm.standard(7), VolumeForm.standard(7, -1)):
            got, expected = canonicalize7(phi, vol), ref_exact_canonicalize7(phi, vol)
            assert (got.basis, got.residual) == (expected.basis, expected.residual)


# -- mat_mul and mat_vec on the integer kernel against the Fraction loop ------

def ref_mat_mul(a, b):
    """``linalg.mat_mul`` before the integer kernel: one Fraction sum per entry."""
    bt = [list(col) for col in zip(*b)]
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def ref_mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def matrix_entry(rng: random.Random, kind: str):
    """A coordinate of the kind, or for "a+b" of kind a or b at random."""
    return coordinate(rng, rng.choice(kind.split("+")))


@pytest.mark.parametrize("kind", COORD_KINDS + ["int+mixed", "int+scaled", "quadext+mixed",
                                                "float+mixed"])
def test_mat_mul_matches_the_fraction_loop(kind, rng):
    for _ in range(60):
        n, m, p = (rng.randint(1, 8) for _ in range(3))
        a = [[matrix_entry(rng, kind) for _ in range(m)] for _ in range(n)]
        b = [[matrix_entry(rng, kind) for _ in range(p)] for _ in range(m)]
        v = [matrix_entry(rng, kind) for _ in range(m)]
        if rational([x for row in a + b for x in row]):
            got = mat_mul(a, b)
            assert got == ref_mat_mul(a, b)
            assert all(type(x) is Fraction for row in got for x in row)
        else:
            with pytest.raises(TypeError, match="int or Fraction"):
                mat_mul(a, b)
        if rational([x for row in a for x in row] + v):
            got = mat_vec(a, v)
            assert got == ref_mat_vec(a, v)
            assert all(type(x) is Fraction for x in got)
        else:
            with pytest.raises(TypeError, match="int or Fraction"):
                mat_vec(a, v)


def test_mat_mul_of_a_cancelling_product():
    tiny = Fraction(1, 10 ** 200)
    a = [[Fraction(1, 3), Fraction(-2, 9)], [3, 1 / tiny]]
    b = [[2, tiny], [3, Fraction(3, 2)]]
    got = mat_mul(a, b)
    assert got == ref_mat_mul(a, b)
    assert got == [[0, tiny / 3 - Fraction(1, 3)], [6 + 3 / tiny, 3 * tiny + Fraction(3, 2) / tiny]]
    assert type(got[0][0]) is Fraction


# -- canonicalize6: both frames from rational pairs against the QuadExt eliminations

def ref_nullspace(m, ncols: int) -> list[list]:
    """``linalg.nullspace`` on ``ref_rref``, which divides in the field of the entries."""
    red, pivots = ref_rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def ref_shifted_kernel(m, mu) -> list[list]:
    """Basis of ker(m - mu Id), computed over the field of mu."""
    n = len(m)
    return ref_nullspace([[m[i][j] - (mu if i == j else 0 * mu) for j in range(n)]
                          for i in range(n)], n)


def ref_divisor_space(a: AltForm) -> list[AltForm]:
    """``divisor_space`` on ``ref_nullspace``: { u : u ^ a = 0 }, here over Q(sqrt(D))."""
    n = a.dim
    wedges = [ref_wedge(basis_form(n, j), a) for j in range(1, n + 1)]
    system = [[w.terms.get(key, Fraction(0)) for w in wedges]
              for key in itertools.combinations(range(1, n + 1), a.degree + 1)]
    return [alt_form(n, 1, {(j + 1,): c for j, c in enumerate(vec) if c != 0})
            for vec in ref_nullspace(system, n)]


def ref_eval(form: AltForm, *vectors):
    """``AltForm.__call__`` with the field determinant ``ref_det``."""
    total = Fraction(0)
    for idx, c in form.terms.items():
        total = total + c * ref_det([[v[row - 1] for v in vectors] for row in idx])
    return total


def ref_canonicalize_complex(omega: AltForm, vol: VolumeForm) -> LinearMap:
    """The O6_MINUS basis by Gauss-Jordan over Q(sqrt(lambda)): the covectors
    theta_k span ker(K^T - sqrt(lambda)), which is also the divisor space of
    alpha = Omega + i hat(Omega); theta_1 is scaled so that theta_1 ^ theta_2 ^
    theta_3 = alpha, and the real frame is (Re theta; Im theta)."""
    ss = scaled_structure(omega, vol)
    lam = ss.lam.value
    mu = QuadExt.root(lam)
    alpha = omega + (mu / -lam) * hat(omega, vol).numerator
    kt = [list(col) for col in zip(*ss.K.matrix)]
    thetas = [alt_form(6, 1, {(j + 1,): c for j, c in enumerate(vec) if c != 0})
              for vec in ref_shifted_kernel(kt, mu)]
    assert len(thetas) == 3 and ref_divisor_space(alpha) == thetas
    prod = ref_wedge(ref_wedge(thetas[0], thetas[1]), thetas[2])
    key0 = next(iter(alpha.terms))
    thetas[0] = (alpha.terms[key0] / prod.terms[key0]) * thetas[0]
    assert ref_wedge(ref_wedge(thetas[0], thetas[1]), thetas[2]) == alpha
    s = exact_root(-lam, 2)
    if s is None:
        s = QuadExt.root(-lam)
    zero = QuadExt.of(0, lam)
    coords = [[zero + th.terms.get((j,), 0) for j in range(1, 7)] for th in thetas]
    g = LinearMap.from_rows([[c.a for c in row] for row in coords]
                            + [[s * c.b for c in row] for row in coords])
    assert ref_pullback(g, canonical_omega_minus()) == omega
    return g


def ref_canonicalize_para(omega: AltForm, vol: VolumeForm) -> LinearMap:
    """The O6_PLUS basis by Gauss-Jordan over Q(sqrt(lambda)): the eigenspaces of
    K for -+sqrt(lambda), the first vector of each divided by the value of Omega
    on that eigenspace, and the inverse of the matrix of those columns."""
    ss = scaled_structure(omega, vol)
    lam = ss.lam.value
    s = exact_root(lam, 2)
    if s is None:
        s = QuadExt.root(lam)
    km = [list(r) for r in ss.K.matrix]
    minus, plus = ref_shifted_kernel(km, -s), ref_shifted_kernel(km, s)
    assert len(minus) == len(plus) == 3
    c_minus, c_plus = ref_eval(omega, *minus), ref_eval(omega, *plus)
    minus[0] = [x / c_minus for x in minus[0]]
    plus[0] = [x / c_plus for x in plus[0]]
    g = LinearMap.from_rows(ref_inverse([list(r) for r in zip(*(minus + plus))]))
    assert ref_pullback(g, canonical_omega_plus()) == omega
    return g


def assert_same_basis(got: LinearMap, expected: LinearMap):
    assert got == expected
    assert [type(x) for row in got.matrix for x in row] == \
        [type(x) for row in expected.matrix for x in row]


# lambda = 4 d^3 on omega_d(d): |lambda| a square (d = +-1) and not (d = +-2)
FRAME_BASES = {OrbitClass6.O6_MINUS: (canonical_omega_minus(), omega_d(-2)),
               OrbitClass6.O6_PLUS: (canonical_omega_plus(), omega_d(2))}


def frame_samples(rng: random.Random, orbit: OrbitClass6, count: int = 32) -> list:
    """c g^* of a normal form of the orbit, |lambda| a square on even trials and not on
    odd ones; c = +-p/q, and tall, +-(p/q) 10^+-40, on two trials in eight."""
    forms = []
    for trial in range(count):
        c = rng.choice([1, -1]) * Fraction(rng.randint(1, 60), rng.randint(1, 60))
        if trial % 8 < 2:
            c *= Fraction(10) ** rng.choice([-40, 40])
        base = FRAME_BASES[orbit][trial % 2]
        forms.append(c * pullback(random_invertible(rng, 6, 2), base))
    return forms


@pytest.mark.parametrize("vol", [1, -1])
def test_canonicalize6_minus_matches_the_divisor_space(vol, rng):
    """32 seeded c g^* Omega_minus per orientation, both signs of c, tall ones among
    them, |lambda| a square and not: the QuadExt-free frame equals the reference."""
    volume = VolumeForm.standard(6, vol)
    quadext = 0
    for omega in frame_samples(rng, OrbitClass6.O6_MINUS):
        canon = canonicalize6(omega, volume)
        assert canon.orbit == OrbitClass6.O6_MINUS
        assert_same_basis(canon.basis, ref_canonicalize_complex(omega, volume))
        quadext += any(isinstance(x, QuadExt) for row in canon.basis.matrix for x in row)
    assert quadext == 16


@pytest.mark.parametrize("vol", [1, -1])
def test_canonicalize6_plus_matches_the_eigenspace_frame(vol, rng):
    """The same for c g^* Omega_plus: rational bases when lambda is a square, and
    QuadExt bases from the pairs (A, B) and [A | B]^-1 over Q when it is not."""
    volume = VolumeForm.standard(6, vol)
    quadext = 0
    for omega in frame_samples(rng, OrbitClass6.O6_PLUS):
        canon = canonicalize6(omega, volume)
        assert canon.orbit == OrbitClass6.O6_PLUS
        assert_same_basis(canon.basis, ref_canonicalize_para(omega, volume))
        quadext += any(isinstance(x, QuadExt) for row in canon.basis.matrix for x in row)
    assert quadext == 16


def test_canonicalize6_minus_with_quadext_bases(rng):
    """Dense forms with lambda < 0 and |lambda| not a square give QuadExt bases."""
    quadext = 0
    for trial in range(24):
        while True:
            omega = random_form(rng, 6, 3, nterms=10)
            if lambda_coeff(omega, VolumeForm.standard(6)).value < 0:
                break
        volume = VolumeForm.standard(6, (-1) ** trial)
        canon = canonicalize6(omega, volume)
        assert_same_basis(canon.basis, ref_canonicalize_complex(omega, volume))
        quadext += any(isinstance(x, QuadExt) for row in canon.basis.matrix for x in row)
    assert quadext >= 12


def test_canonicalize6_plus_with_quadext_bases(rng):
    """Dense forms with lambda > 0; a third of them have lambda not a square and QuadExt bases."""
    quadext = 0
    for trial in range(24):
        while True:
            omega = random_form(rng, 6, 3, nterms=10)
            if lambda_coeff(omega, VolumeForm.standard(6)).value > 0:
                break
        volume = VolumeForm.standard(6, (-1) ** trial)
        canon = canonicalize6(omega, volume)
        assert_same_basis(canon.basis, ref_canonicalize_para(omega, volume))
        quadext += any(isinstance(x, QuadExt) for row in canon.basis.matrix for x in row)
    assert quadext >= 6


def ref_root_kernel(m, lam: Fraction, sigma: int) -> list[tuple[list, list]]:
    """ker(m - sigma sqrt(lam)) as the nullspace over Q of its 12 x 12 realification:
    x + sqrt(lam) y is in it when m x - sigma lam y = 0 = m y - sigma x, a system in x_1, y_1,
    x_2, ... whose kernel is closed under (x, y) -> (lam y, x); its pivots pair up, and every
    other free column gives the basis over Q(sqrt(lam))."""
    rows = []
    for i, row in enumerate(m):
        rows.append([z for j, x in enumerate(row) for z in (x, -sigma * lam * (i == j))])
        rows.append([z for j, x in enumerate(row) for z in (-sigma * (i == j), x)])
    return [(v[0::2], v[1::2]) for v in ref_nullspace(rows, 2 * len(m))[0::2]]


def sparse_invertible(rng: random.Random) -> LinearMap:
    """A signed, scaled permutation of R^6, with one more entry on half of the draws."""
    perm = rng.sample(range(6), 6)
    rows = [[rng.choice([1, -1]) * rng.randint(1, 3) * (j == perm[i]) for j in range(6)] for i in range(6)]
    if rng.random() < 0.5:
        i = rng.randrange(6)
        rows[i][rng.choice([j for j in range(6) if j != perm[i]])] = rng.randint(1, 3)
    return LinearMap.from_rows(rows)


def test_root_kernel_matches_the_realification(rng):
    """The kernel read off the image of m + sigma sqrt(lam) equals the 12 x 12 nullspace, entry
    for entry, on K and K^T for sigma = +-1: c g^* omega_d(d), lambda = 4 d^3 not a square and of
    both signs, g sparse (a scaled permutation, so most 3 x 3 blocks of K vanish) on two trials in
    three and dense on the third.  On a quarter of the calls or more the pivots P are not (0, 1, 2)."""
    pivots = Counter()
    for trial in range(72):
        g = random_invertible(rng, 6, 2) if trial % 3 == 0 else sparse_invertible(rng)
        c = Fraction(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 9))
        omega = c * pullback(g, omega_d(rng.choice([2, -2, 3, -3, 5, -5])))
        ss = scaled_structure(omega, VolumeForm.standard(6))
        lam = ss.lam.value
        assert exact_root(lam, 2) is None
        for m in (ss.K.matrix, [list(col) for col in zip(*ss.K.matrix)]):
            for sigma in (1, -1):
                got = _root_kernel(m, lam, sigma)
                assert got == ref_root_kernel(m, lam, sigma)
                assert all(type(x) is Fraction for a, b in got for x in a + b)
                pivots[tuple(i for i in range(6) if any(b[i] for _, b in got))] += 1
    assert len(pivots) >= 4 and pivots[(0, 1, 2)] < 3 * sum(pivots.values()) // 4


# -- the O6_MINUS frame without the hat: the frame it replaced ---------------

def ref_hat_numerator(omega: AltForm, ss) -> AltForm:
    """K^* Omega / |lambda| with its sign chosen so that Omega ^ it is a positive multiple of vol."""
    P = (Fraction(1) / abs(ss.lam.value)) * pullback(ss.K, omega)
    r = ss.lam.vol.ratio(wedge(omega, P))
    assert r != 0
    return -P if r < 0 else P


def ref_hat_canonicalize_complex(omega: AltForm, vol: VolumeForm) -> LinearMap:
    """The O6_MINUS frame from rational pairs, theta_1 scaled through all of hat(Omega),
    and checked on both its real part and its imaginary part."""
    ss = scaled_structure(omega, vol)
    lam = ss.lam.value
    numerator = ref_hat_numerator(omega, ss)
    pairs = _root_kernel(transpose(ss.K.matrix), lam, 1)
    key0 = next(iter(omega.terms))
    alpha0 = QuadExt(omega.terms[key0], numerator.terms.get(key0, Fraction(0)) / -lam, lam)
    thetas = [[QuadExt(x, y, lam) for x, y in zip(a, b)] for a, b in pairs]
    pairs[0] = _times(alpha0 / _minor(thetas, tuple(j - 1 for j in key0)), *pairs[0])
    a, b = [a for a, _ in pairs], [b for _, b in pairs]
    re, im = (pullback(LinearMap.from_rows(a + b), f) for f in _re_im(lam))
    assert re == omega and im == (-1 / lam) * numerator
    s = exact_root(-lam, 2)
    if s is None:
        s = QuadExt.root(-lam)
    return LinearMap.from_rows(a + [[s * y for y in row] for row in b])


def test_canonicalize6_minus_matches_the_frame_through_the_hat(rng):
    """208 forms: 80 seeded c g^* Omega_minus per orientation (tall ones, |lambda| a square
    and not) and 48 dense random forms with lambda < 0.  The frame read off one sum of minors
    of K equals the one scaled through all of hat(Omega), and it carries Im of the canonical
    form to hat(Omega), the identity it no longer checks."""
    forms = [(omega, VolumeForm.standard(6, vol)) for vol in (1, -1)
             for omega in frame_samples(rng, OrbitClass6.O6_MINUS, count=80)]
    while len(forms) < 208:
        omega = random_form(rng, 6, 3, nterms=10)
        if lambda_coeff(omega, VolumeForm.standard(6)).value < 0:
            forms.append((omega, VolumeForm.standard(6, (-1) ** len(forms))))
    quadext = 0
    for omega, vol in forms:
        canon = canonicalize6(omega, vol)
        assert_same_basis(canon.basis, ref_hat_canonicalize_complex(omega, vol))
        h = hat(omega, vol)
        root = exact_root(h.lam_abs, 2) or QuadExt.root(h.lam_abs)
        im = ref_pullback(canon.basis, canonical_omega_minus_hat())
        assert {idx: root * x for idx, x in im.terms.items()} == h.numerator.terms
        quadext += isinstance(root, QuadExt)
    assert quadext >= 100


# -- one derivation per (bundle, SU(3)) pair: the paths it replaced ----------

def ref_check_special_balanced(cb, su3):
    """The special-balanced check with the (1,1) test as 15 evaluations F(J e_i, J e_k)."""
    base = cb.base
    failing = []
    if not base.d(su3.Omega1).is_zero:
        failing.append("d Omega1 != 0")
    if not base.d(su3.Omega2).is_zero:
        failing.append("d Omega2 != 0")
    if not base.d(wedge(su3.omega, su3.omega)).is_zero:
        failing.append("d(omega^2) != 0")
    j = su3.complex_structure(base.ip())
    jcols = [[row[i] for row in j] for i in range(6)]  # J e_{i+1}
    if any(cb.F(jcols[i], jcols[k]) != cb.F.coeff((i + 1, k + 1))
           for i in range(6) for k in range(i + 1, 6)):
        failing.append("curvature is not of type (1,1)")
    if failing:
        raise fc.PreconditionError("; ".join(failing))


def special_balanced_message(check, cb, su3):
    """None when the pair passes the check, else the message it raises."""
    try:
        check(cb, su3)
    except fc.PreconditionError as ex:
        return str(ex)
    return None


def test_one_one_identity_matches_the_f_evaluations(rng):
    su3 = fc.standard_su3()
    t6 = fc.flat_torus(6)
    pairs = [(fc.make_circle_bundle(t6, random_curvature(rng)), su3) for _ in range(20)]
    pairs += [(fc.make_circle_bundle(t6, random_curvature(rng) + random_form(rng, 6, 2, nterms=2)), su3)
              for _ in range(20)]
    pairs += [(iwasawa_bundle(name), s) for name in sorted(IWASAWA_F) for s in (iwasawa_su3(), su3)]
    messages = [special_balanced_message(ref_check_special_balanced, cb, s) for cb, s in pairs]
    assert [special_balanced_message(fc._check_special_balanced, cb, s) for cb, s in pairs] == messages
    assert messages[:20] == [None] * 20
    assert messages.count("curvature is not of type (1,1)") >= 15
    assert any(m and m.startswith("d Omega") and m.endswith("; curvature is not of type (1,1)")
               for m in messages)


def ref_covariant_table(cb) -> fc.ConnectionTable:
    """The Koszul table from the dense structure constants, one Fraction per entry."""
    base = cb.base
    n = 6
    eps = base.metric
    c = base.structure_constants()
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = (c[i][j][k] * eps[k] - c[j][k][i] * eps[i] + c[k][i][j] * eps[j]) / 2
                gamma[i][j][k] = val / eps[k]
    f = [[cb.F.coeff((i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    lifted = [[[Fraction(0)] * 7 for _ in range(7)] for _ in range(7)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lifted[i][j][k] = gamma[i][j][k]
            lifted[i][j][6] = -f[i][j] / 2
        for j in range(n):
            lifted[i][6][j] = f[i][j] / 2
            lifted[6][i][j] = f[i][j] / 2
    return fc.ConnectionTable(tuple(tuple(tuple(r) for r in m) for m in gamma),
                              tuple(tuple(tuple(r) for r in m) for m in lifted))


def nilpotent_bundle(rng: random.Random):
    """d e^5, d e^6 and F random 2-forms in e^1..e^4, so d^2 = 0 and dF = 0."""
    def low():
        return alt_form(6, 2, {idx: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                               for idx in rng.sample(list(itertools.combinations(range(1, 5), 2)), 3)})
    return fc.make_circle_bundle(fc.FrameModel(6, (1,) * 6, {5: low(), 6: low()}), low())


def test_sparse_gamma_matches_the_dense_loop(rng):
    t6 = fc.flat_torus(6)
    bundles = [fc.make_circle_bundle(t6, random_form(rng, 6, 2, nterms=6)) for _ in range(10)]
    bundles += [iwasawa_bundle(name) for name in sorted(IWASAWA_F)]
    bundles += [nilpotent_bundle(rng) for _ in range(10)]
    # int-typed structure constants and curvature
    iwasawa_ints = fc.FrameModel(6, (1,) * 6, {5: AltForm(6, 2, {(1, 3): 1, (2, 4): -1}),
                                               6: AltForm(6, 2, {(1, 4): 1, (2, 3): 1})})
    bundles.append(fc.make_circle_bundle(iwasawa_ints, AltForm(6, 2, {(1, 2): 3})))
    for cb in bundles:
        got = fc.covariant_table(cb)
        assert got == ref_covariant_table(cb)
        assert all(type(x) is Fraction for m in got.base_gamma for r in m for x in r)
    assert sum(any(x for m in fc.covariant_table(cb).base_gamma for r in m for x in r)
               for cb in bundles) == 14


def ref_nearly_parallel(derivatives: dict) -> bool:
    """i_v nabla_u phi + i_u nabla_v phi = 0, one pair of contractions per u <= v."""
    for u in range(1, 8):
        for v in range(u, 8):
            s = contract(basis_vector(v), derivatives[u]) + contract(basis_vector(u), derivatives[v])
            if not s.is_zero:
                return False
    return True


def ref_pairing(derivatives: dict, star_phi: AltForm) -> Fraction:
    ip7 = InnerProduct.diagonal([1] * 7)
    return sum((form_inner(derivatives[u], contract(basis_vector(u), star_phi), ip7)
                for u in range(1, 8)), Fraction(0))


def basis_vector(k: int) -> list:
    return [Fraction(1 if i == k else 0) for i in range(1, 8)]


def test_nearly_parallel_matches_the_contract_loop(rng):
    t6 = fc.flat_torus(6)
    su3 = fc.standard_su3()
    pairs = [(fc.make_circle_bundle(t6, alt_form(6, 2, {})), su3)]
    pairs += [(fc.make_circle_bundle(t6, random_curvature(rng, span=2)), su3) for _ in range(6)]
    pairs += [(iwasawa_bundle(name), iwasawa_su3()) for name in sorted(IWASAWA_F)]
    sets = []
    for cb, s in pairs:
        report = fc.nabla_phi(cb, s)
        star_phi = fc.build_g2(cb, s)[1]
        assert report.pairing == ref_pairing(report.derivatives, star_phi)
        sets.append(report.derivatives)
    for _ in range(10):
        psi = random_form(rng, 7, 4, nterms=8)  # i_v i_u psi = -i_u i_v psi
        sets.append({u: contract(basis_vector(u), psi) for u in range(1, 8)})
        sets.append({u: random_form(rng, 7, 3, nterms=3) for u in range(1, 8)})
        a = random_form(rng, 7, rng.randint(1, 4), nterms=6)
        interior = fc._interior_terms(a)
        assert all(interior[v] == contract(basis_vector(v), a).terms for v in range(1, 8))
    expected = [ref_nearly_parallel(d) for d in sets]
    assert [fc._nearly_parallel(d) for d in sets] == expected
    assert expected[0] and not any(expected[1:len(pairs)])
    assert expected[len(pairs)::2] == [True] * 10 and not any(expected[len(pairs) + 1::2])



# -- K, B and the signature of B on the integer kernel -----------------------

def ref_k_entry(omega: AltForm) -> tuple[LinearMap, Fraction]:
    """K and lambda from one contract and one wedge per column, as built before
    ``exteralg._interior_wedges``."""
    cols = []
    for j in range(1, 7):
        ej = [Fraction(1 if i == j else 0) for i in range(1, 7)]
        w = -1 * wedge(contract(ej, omega), omega)
        col = []
        for i in range(1, 7):
            comp = tuple(k for k in range(1, 7) if k != i)
            col.append(((-1) ** (i - 1)) * w.terms.get(comp, Fraction(0)))
        cols.append(col)
    K = LinearMap.from_columns(cols)
    k2 = mat_mul(K.matrix, K.matrix)
    lam = sum(k2[i][i] for i in range(6)) / 6
    assert all(k2[i][j] == (lam if i == j else 0) for i in range(6) for j in range(6))
    return K, lam


def ref_b_matrix(phi: AltForm) -> tuple:
    """B from seven contractions, seven wedges and one top-degree wedge per entry."""
    full = tuple(range(1, 8))
    contractions = [contract([Fraction(int(k == i)) for k in range(1, 8)], phi) for i in range(1, 8)]
    fives = [wedge(cj, phi) for cj in contractions]
    return tuple(tuple(wedge(ci, fj).terms.get(full, Fraction(0)) for fj in fives) for ci in contractions)


def ref_inertia(sym) -> tuple[int, int, int]:
    """Congruence diagonalization over Fractions, the loop ``linalg.inertia`` replaced."""
    n = len(sym)
    a = [[Fraction(x) for x in row] for row in sym]
    alive = list(range(n))
    pos = neg = zero = 0
    while alive:
        k = next((i for i in alive if a[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in alive for j in alive if i < j and a[i][j] != 0), None)
            if pair is None:
                zero += len(alive)
                break
            i, j = pair
            for c in range(n):
                a[i][c] = a[i][c] + a[j][c]
            for r in range(n):
                a[r][i] = a[r][i] + a[r][j]
            continue
        piv = a[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(k)
        for i in alive:
            if a[i][k] != 0:
                f = a[i][k] / piv
                for j in alive:
                    a[i][j] = a[i][j] - f * a[k][j]
        for i in alive:
            a[i][k] = Fraction(0)
            a[k][i] = Fraction(0)
    return pos, neg, zero


def kernel_samples(rng: random.Random, dim: int) -> list:
    """c g^* of every classify kind in this dimension (c = +-1, +-p/q, tall +-10^40/q,
    +-10^+-200), int-typed copies of the integer ones, and sparse random forms."""
    forms = []
    for base in (base for base, _ in CLASSIFY_KINDS.values() if base.dim == dim):
        g = random_invertible(rng, dim)
        forms += [c * pullback(g, base) for c in scales(rng)]
        forms += [Fraction(sign, 7) * Fraction(10) ** e * pullback(g, base) for sign in (1, -1)
                  for e in (-200, 200)]
        forms.append(AltForm(dim, 3, {i: int(c) for i, c in pullback(g, base).terms.items()}))
    for kind in KINDS:
        forms += [kernel_form(rng, dim, 3, kind) for _ in range(4)]
    forms += [basis_form(dim, 1, 2, 3), AltForm.zero(dim, 3)]
    return forms


def test_k_matches_the_contract_loop(rng):
    forms = kernel_samples(rng, 6)
    assert any(type(c) is int for f in forms for c in f.terms.values())
    for omega in forms:
        K, lam = _k_entry(omega)
        ref_K, ref_lam = ref_k_entry(omega)
        assert K.matrix == ref_K.matrix and lam == ref_lam
        assert all(type(x) is Fraction for row in K.matrix for x in row) and type(lam) is Fraction


def test_b_matches_the_contract_loop(rng):
    forms = kernel_samples(rng, 7)
    assert any(type(c) is int for f in forms for c in f.terms.values())
    for phi in forms:
        b = _b_matrix(phi)
        assert b == ref_b_matrix(phi)
        assert all(type(x) is Fraction for row in b for x in row)


def test_interior_wedges_match_contract_and_wedge(rng):
    """The integer dicts themselves: i_{e_j} a over d and i_{e_j} a ^ a over d^2."""
    for dim in (4, 6, 7):
        for kind in KINDS:
            a = kernel_form(rng, dim, 3, kind)
            contractions, wedges, d = _interior_wedges(a)
            for j in range(1, dim + 1):
                cj = contract([int(k == j) for k in range(1, dim + 1)], a)
                got = {_INDEX[m]: Fraction(x, d) for m, x in contractions[j - 1].items()}
                assert got == cj.terms
                got = {_INDEX[m]: Fraction(x, d * d) for m, x in wedges[j - 1].items() if x}
                assert got == wedge(cj, a).terms
    with pytest.raises(TypeError):
        _interior_wedges(alt_form(6, 3, {(1, 2, 3): QuadExt.of(1, 2)}))


def ref_interior_wedges(a: AltForm) -> tuple[list[dict], list[dict], int]:
    """``_interior_wedges`` before its index table: the form cleared to (mask, numerator)
    terms, and one ``_merge_signs`` read per pair of a contraction term and a term."""
    (nums,), dens = _clear(a.terms.values())
    terms = [(_MASK[idx], x) for idx, x in zip(a.terms, nums)]
    contractions = [{m ^ bit: -x if (m & (bit - 1)).bit_count() & 1 else x for m, x in terms if m & bit}
                    for bit in (1 << j for j in range(a.dim))]
    wedges = []
    for left in contractions:
        out: dict = {}
        for ml, x in left.items():
            signs = _merge_signs(ml)
            for m, y in terms:
                sign = signs[m]
                if sign:
                    out[ml | m] = out.get(ml | m, 0) + sign * x * y
        wedges.append(out)
    return contractions, wedges, dens[0]


def table_kernel_forms(rng: random.Random, n: int, p: int) -> list:
    """Degree-p forms on R^n: sparse, dense with mixed denominators, int-typed, tall
    (~10^40), and dense built by ``AltForm`` with an explicit zero coefficient."""
    idxs = list(itertools.combinations(range(1, n + 1), p))

    def mixed() -> Fraction:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.choice([1, 2, 3, 4, 7, 12, 35, 9973]))

    def form(count: int, coefficient) -> AltForm:
        return AltForm(n, p, {i: coefficient() for i in rng.sample(idxs, count)})
    with_zero = dict(form(len(idxs), mixed).terms)
    with_zero[rng.choice(idxs)] = Fraction(0)
    return [form(min(2, len(idxs)), mixed), form(len(idxs), mixed),
            form(len(idxs), lambda: rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)),
            form(len(idxs), lambda: mixed() * 10 ** 40 + rng.randint(-9, 9)), AltForm(n, p, with_zero)]


def nonzero(dicts: list) -> list:
    return [{k: x for k, x in d.items() if x} for d in dicts]


@pytest.mark.parametrize("n", range(1, 9))
def test_interior_table_matches_the_merge_sign_loop(n, rng):
    """Every (n, p) with 1 <= p <= n: the same d, the same contractions (with no zero
    entry) and the same wedges on their nonzero entries."""
    for p in range(1, n + 1):
        for a in table_kernel_forms(rng, n, p):
            contractions, wedges, d = _interior_wedges(a)
            ref_contractions, ref_wedges, ref_d = ref_interior_wedges(a)
            assert d == ref_d
            assert contractions == nonzero(ref_contractions)
            assert nonzero(wedges) == nonzero(ref_wedges)
        for bad in (0.5, QuadExt.of(1, 2)):
            with pytest.raises(TypeError):
                _interior_wedges(AltForm(n, p, {tuple(range(1, p + 1)): bad}))


def random_symmetric(rng: random.Random, n: int, kind: str) -> list:
    """A random symmetric n x n matrix of the given kind."""
    if kind == "low rank":  # sum of r < n signed squares of rational vectors
        vs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
              for _ in range(rng.randint(0, n - 1))]
        signs = [rng.choice((-1, 1)) for _ in vs]
        return [[sum((s * v[i] * v[j] for s, v in zip(signs, vs)), Fraction(0)) for j in range(n)]
                for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "zero diagonal" and i == j:
                continue
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.8 else Fraction(0)
            m[i][j] = m[j][i] = x
    if kind == "int":
        return [[int(5 * x) for x in row] for row in m]
    if kind == "scaled":  # D M D with D = diag(10^e_i), |e_i| <= 200
        e = [Fraction(10) ** rng.randint(-200, 200) for _ in range(n)]
        return [[e[i] * x * e[j] for j, x in enumerate(row)] for i, row in enumerate(m)]
    return m


@pytest.mark.parametrize("kind", ["dense", "low rank", "zero diagonal", "int", "scaled"])
def test_inertia_matches_the_fraction_loop(kind, rng):
    nullities = []
    for _ in range(150):
        m = random_symmetric(rng, rng.randint(1, 8), kind)
        expected = ref_inertia(m)
        assert inertia(m) == expected
        nullities.append(expected[2])
    assert all(nullities) if kind == "low rank" else not all(nullities)
    hyperbolic = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    assert inertia(hyperbolic) == ref_inertia(hyperbolic) == (1, 1, 1)
    assert inertia([]) == (0, 0, 0) and inertia([[0, 0], [0, 0]]) == (0, 0, 2)


def test_inertia_of_b_for_every_classify_kind(rng):
    """B of c g^* phi for the classify kinds, tall ones (c ~ 10^40) included."""
    expected = {"7+": {(3, 4, 0), (4, 3, 0)}, "7-": {(7, 0, 0), (0, 7, 0)}}
    for kind in ("7+", "7-", "7d"):
        base, _ = CLASSIFY_KINDS[kind]
        for _ in range(3):
            g = random_invertible(rng, 7)
            for c in scales(rng):
                b = [list(r) for r in q_form(c * pullback(g, base), VolumeForm.standard(7)).B]
                sig = inertia(b)
                assert sig == ref_inertia(b)
                assert sig in expected.get(kind, {sig}) and (sig[2] > 0) == (kind == "7d")


@pytest.mark.parametrize("kind", ["dense", "low rank", "zero diagonal", "int", "scaled"])
def test_inertia_det_matches_det_and_the_fraction_loop(kind, rng):
    """The one symmetric elimination behind the memo entry of B gives the signature of
    the Fraction loop and the determinant of the Bareiss ``det``, on random symmetric
    matrices of sizes 1..8, each also times 10^-200 and 10^200."""
    for _ in range(100):
        m = random_symmetric(rng, rng.randint(1, 8), kind)
        for scale in (1, Fraction(1, 10 ** 200), 10 ** 200):
            a = [[scale * x for x in row] for row in m]
            signature, d = _inertia_det(a)
            assert signature == ref_inertia(a) == inertia(a)
            assert d == det(a) and type(d) is Fraction
    assert _inertia_det([]) == ((0, 0, 0), 1)
    assert _inertia_det([[0, 3], [3, 0]]) == ((1, 1, 0), -9)


def test_inertia_det_of_b_for_every_classify_kind(rng):
    """B of c g^* phi for the dim-7 classify kinds, tall ones (c ~ 10^40) included."""
    for kind in ("7+", "7-", "7d"):
        base, _ = CLASSIFY_KINDS[kind]
        for _ in range(3):
            g = random_invertible(rng, 7)
            for c in scales(rng):
                b = _b_matrix(c * pullback(g, base))
                signature, d = _inertia_det(b)
                assert signature == ref_inertia(b)
                assert d == det(b) == ref_det(b) and (d == 0) == (kind == "7d")


def test_evaluation_matches_the_det_per_term_loop(rng):
    """AltForm.__call__ takes one integer minor per term; ref_eval one determinant."""
    for dim in (4, 6, 7):
        for p in range(dim + 1):
            for kind in KINDS:
                form = kernel_form(rng, dim, p, kind)
                vectors = [kernel_matrix(rng, dim, kind).column(0) for _ in range(p)]
                value = form(*vectors)
                assert value == ref_eval(form, *vectors) and type(value) is Fraction
        form = kernel_form(rng, dim, 3, "mixed") + basis_form(dim, 1, 2, 3)
        for bad in (0.5, QuadExt.of(1, 2)):
            with pytest.raises(TypeError):
                form([bad] + [0] * (dim - 1), *([[1] * dim] * 2))
        with pytest.raises(TypeError):
            AltForm(dim, 1, {(1,): 0.5})([1] * dim)


def ref_fraction_sum_eval(form: AltForm, *vectors):
    """``AltForm.__call__`` before its coefficients were cleared: the integer minors of
    the cleared vectors times the Fraction coefficients, summed in Fractions."""
    cleared, dens = _clear(*vectors)
    rows = list(zip(*cleared))
    cols = tuple(range(form.degree))
    total = sum((c * _minor([rows[i - 1] for i in idx], cols) for idx, c in form.terms.items()),
                Fraction(0))
    return total / math.prod(dens)


def test_evaluation_matches_the_fraction_sum(rng):
    for dim in (4, 6, 7, 8):
        for p in range(dim + 1):
            for kind in KINDS:
                form = kernel_form(rng, dim, p, kind)
                vectors = [kernel_matrix(rng, dim, kind).column(0) for _ in range(p)]
                value = form(*vectors)
                assert value == ref_fraction_sum_eval(form, *vectors) and type(value) is Fraction


# -- the monomial pullback and the integer Leibniz rule ----------------------

def monomial_map(rng: random.Random, n: int, kind: str) -> LinearMap:
    """At most one nonzero entry p/q (either sign) per row: a permutation times a diagonal,
    or with one zero row ("zero row"), or with two rows on one column ("collision")."""
    cols = list(range(n))
    rng.shuffle(cols)
    entries = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12)) for _ in range(n)]
    if kind == "zero row":
        entries[rng.randrange(n)] = Fraction(0)
    elif kind == "collision":
        i, j = rng.sample(range(n), 2)
        cols[i] = cols[j]
    return LinearMap.from_rows([[entries[i] if j == cols[i] else 0 for j in range(n)] for i in range(n)])


@pytest.fixture
def pullback_paths(monkeypatch) -> Counter:
    """Calls of the two pullback kernels, ``_minor`` (per minor) and ``_monomial`` (per pullback)."""
    counts = Counter()
    for name in ("_minor", "_monomial"):
        def counting(*args, _orig=getattr(exteralg, name), _name=name):
            counts[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(exteralg, name, counting)
    return counts


@pytest.mark.parametrize("kind", ["permutation", "zero row", "collision"])
@pytest.mark.parametrize("n", [4, 6, 7, 8])
def test_monomial_pullback_matches_the_minors(n, kind, rng, pullback_paths):
    for p in range(n + 1):
        for form_kind in (KINDS[p % 3], KINDS[(p + 1) % 3]):
            a, g = kernel_form(rng, n, p, form_kind), monomial_map(rng, n, kind)
            got, expected = pullback(g, a), ref_pullback(g, a)
            assert got == expected
            assert list(got.terms) == list(expected.terms) == sorted(got.terms)
            assert p == 0 or all(type(c) is Fraction for c in got.terms.values())  # g^* a = a at p = 0
    assert pullback_paths["_minor"] == 0 and pullback_paths["_monomial"] > 0


def ref_leibniz(a: AltForm, image, degree: int) -> AltForm:
    """``framecalc._leibniz`` before the integer rule: ``sort_index`` on every spliced index."""
    out: dict = {}
    for idx, c in a.terms.items():
        for pos, k in enumerate(idx):
            for jdx, b in image(k).items():
                key, sign = sort_index(idx[:pos] + jdx + idx[pos + 1:])
                if sign:
                    out[key] = out.get(key, 0) + (-1) ** (degree * pos) * sign * c * b
    return AltForm(a.dim, a.degree + degree, {key: v for key, v in out.items() if v != 0})


def assert_same_order(got: AltForm, expected: AltForm):
    assert (got.dim, got.degree) == (expected.dim, expected.degree)
    assert list(got.terms.items()) == list(expected.terms.items())


def nabla_images(name: str) -> dict:
    """u -> {j: the terms of nabla_{f_u} e^j} on an Iwasawa bundle, from its connection table."""
    lifted = fc.covariant_table(iwasawa_bundle(name)).lifted
    return {u: {j: {(k + 1,): -r[j - 1] for k, r in enumerate(lifted[u - 1]) if r[j - 1]}
                for j in range(1, 8)} for u in range(1, 8)}


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_thurston", "bundle"])
def test_d_matches_the_sort_index_loop(name, rng):
    model = models()[name]
    image = lambda k: model.d1[k].terms if k in model.d1 else {}  # noqa: E731 - the replaced call
    for p in range(model.dim + 1):
        for kind in KINDS:
            a = kernel_form(rng, model.dim, p, kind)
            assert_same_order(model.d(a), ref_leibniz(a, image, 1))
    with pytest.raises(TypeError, match="int or Fraction"):
        model.d(AltForm(model.dim, 1, {(1,): 0.5}))


@pytest.mark.parametrize("name", sorted(IWASAWA_F))
def test_nabla_matches_the_sort_index_loop(name, rng):
    images = nabla_images(name)
    for u, coframe in images.items():
        for p in range(8):
            a = kernel_form(rng, 7, p, rng.choice(KINDS))
            assert_same_order(fc._leibniz(a, coframe, 0), ref_leibniz(a, coframe.__getitem__, 0))
    phi = fc.build_g2(iwasawa_bundle(name), iwasawa_su3())[0]
    derivatives = fc.nabla_phi(iwasawa_bundle(name), iwasawa_su3()).derivatives
    for u, coframe in images.items():
        assert_same_order(derivatives[u], ref_leibniz(phi, coframe.__getitem__, 0))


# -- the construct side computes each product once ---------------------------

def ref_verify_identities(tag: AlgebraTag, trials: int, seed: int = 0) -> compalg.IdentityReport:
    """verify_identities as it was, each product, conjugate and inner taken where it is read."""
    rng = random.Random(seed)
    failures: list = []

    def record(name, witness):
        if len(failures) < 8:
            failures.append((name, witness))

    mul, conj, norm, inn = compalg.multiply, compalg.conjugate, compalg.norm, compalg.inner
    one = compalg.basis_element(tag, 0)
    for _ in range(trials):
        x = compalg.random_element(tag, rng)
        y = compalg.random_element(tag, rng)
        z = compalg.random_element(tag, rng)
        if norm(mul(x, y)) != norm(x) * norm(y):
            record("composition", (x, y))
        if mul(x, mul(x, y)) != mul(mul(x, x), y):
            record("left_alternative", (x, y))
        if mul(mul(y, x), x) != mul(y, mul(x, x)):
            record("right_alternative", (x, y))
        if conj(mul(x, y)) != mul(conj(y), conj(x)):
            record("conjugation_antihom", (x, y))
        lhs = mul(x, conj(y)) + mul(y, conj(x))
        if lhs != (2 * inn(x, y)) * one:
            record("polarization", (x, y))
        lhs2 = mul(x, mul(conj(y), z)) + mul(y, mul(conj(x), z))
        if lhs2 != (2 * inn(x, y)) * z:
            record("linearized_moufang", (x, y, z))
    return compalg.IdentityReport(tag, trials, not failures, tuple(failures))


def ref_plane_split(ip: InnerProduct, a, b):
    """v -> (t, <a,v>, -<b,v>): v = t + <a,v> a - <b,v> b, t orthogonal to the Lorentzian plane."""
    def split(v):
        pa, pb = ip.pair(a, v), -ip.pair(b, v)
        return tuple(v[i] - pa * a[i] - pb * b[i] for i in range(ip.dim)), pa, pb
    return split


def ref_para_structure(cp3, a, b) -> LinearMap:
    """para_structure_from_plane as it was: -X(a, b, t) on each basis vector's Fraction tangent t."""
    split, n = ref_plane_split(cp3.ip, a, b), cp3.dim
    cols = []
    for k in range(n):
        tangent, pa, pb = split(tuple(Fraction(int(i == k)) for i in range(n)))
        lv = tuple(-c for c in cp3(a, b, tangent))
        cols.append(tuple(x + pa * b[i] + pb * a[i] for i, x in enumerate(lv)))
    return LinearMap.from_columns(cols)


def ref_verify_para(cp3, a, b, trials: int, seed: int = 0) -> vcp.ParaExtensionReport:
    """verify_para_extension_identities as it was, with 7 three-fold products per trial,
    all on the drawn Fractions."""
    a, b = vcp._vec(a), vcp._vec(b)
    L = ref_para_structure(cp3, a, b)
    n_dim = cp3.dim
    rng = random.Random(seed)
    split = ref_plane_split(cp3.ip, a, b)
    add, scale = compalg._add, compalg._scale

    def lv(v):
        return tuple(L.apply(list(v)))

    id1 = id2 = True
    commuting = anticommuting = True
    for _ in range(trials):
        x = split(vcp._random_vector(rng, n_dim))[0]
        y = split(vcp._random_vector(rng, n_dim))[0]
        s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        nrm = tuple(s * a[i] + t * b[i] for i in range(n_dim))
        lx, ly, ln = lv(x), lv(y), lv(nrm)
        pair_lxy = cp3.ip.pair(lx, y)
        pair_xy = cp3.ip.pair(x, y)
        lhs1 = add(cp3(lx, y, nrm), lv(cp3(x, y, nrm)))
        rhs1 = add(scale(pair_lxy, nrm), scale(pair_xy, ln))
        if lhs1 != rhs1:
            id1 = False
        lhs2 = add(cp3(lx, ly, nrm), scale(Fraction(-1), cp3(x, y, nrm)))
        if lhs2 != scale(-2 * pair_lxy, ln):
            id2 = False
        lxn = lv(cp3(nrm, x, y))
        if lxn != cp3(ln, x, y):
            commuting = False
        alt = add(scale(Fraction(-1), cp3(ln, x, y)), scale(2 * pair_lxy, nrm))
        if lxn != alt:
            anticommuting = False
    plus, minus = (n_dim - rank([[x - s * (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(L.matrix)]) for s in (1, -1))
    dims = (plus - 1, minus - 1)
    branch = "commuting" if commuting else ("anticommuting" if anticommuting else "none")
    passed = id1 and id2 and (commuting != anticommuting)
    return vcp.ParaExtensionReport(cp3.variant, trials, id1, id2, branch, dims, passed)


def ref_classify_g2(cb, su3) -> fc.ClassReport:
    """classify_g2 as it was: delta phi by ``FrameModel.codifferential`` and the
    orientation by ``bundle_orientation``, both on every call."""
    phi, _ = fc.build_g2(cb, su3)
    derived = fc._derivation(cb, su3)
    total = cb.total
    dphi = total.d(phi)
    orient = fc.bundle_orientation(su3)
    delta_phi = total.codifferential(phi, orient)
    dphi_phi = wedge(dphi, phi)
    f_dot_omega = derived.f_dot_omega
    f_w2 = wedge(cb.F, wedge(su3.omega, su3.omega))
    if not delta_phi.is_zero:
        raise ArithmeticError("delta phi != 0 on a special balanced base; internal error")
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
    delta_t = total.codifferential(torsion, orient)
    report = fc.ClassReport(
        parallel=parallel, W1_nearly=npr.nearly_parallel, W2_almost=w2,
        W3=(delta_phi.is_zero and w3_c), semi_parallel=delta_phi.is_zero,
        witnesses={"dphi": dphi, "delta_phi": delta_phi, "dphi_wedge_phi": dphi_phi,
                   "F_dot_omega": f_dot_omega, "torsion": torsion, "delta_torsion": delta_t},
    )
    if report.parallel and not (report.W1_nearly and report.W2_almost and report.W3
                                and report.semi_parallel):
        raise ArithmeticError("implication lattice violated; internal error")
    return report


def sign_flipped_table(monkeypatch, module):
    """Patch ``module._table`` so that e_1 e_2 takes the wrong sign in every algebra."""
    def broken(signs, _orig=compalg._table):
        rows = [list(r) for r in _orig(signs)]
        k, s = rows[1][2]
        rows[1][2] = (k, -s)
        return tuple(tuple(r) for r in rows)
    monkeypatch.setattr(module, "_table", broken)


def shifted_multiply(monkeypatch):
    """Patch ``compalg._mul`` to x y + x on numerators, which is neither alternative nor a
    composition; ``multiply`` and ``verify_identities`` both run on it."""
    monkeypatch.setattr(compalg, "_mul", lambda table, x, y, _orig=compalg._mul: [
        u + v for u, v in zip(_orig(table, x, y), x)])


@pytest.mark.parametrize("broken", [None, "sign", "shift"])
def test_verify_identities_matches_the_loop_it_replaced(broken, monkeypatch):
    if broken == "sign":
        sign_flipped_table(monkeypatch, compalg)
    elif broken == "shift":
        shifted_multiply(monkeypatch)
    for tag in AlgebraTag:
        for seed in range(4):
            report = compalg.verify_identities(tag, 5, seed)
            assert report == ref_verify_identities(tag, 5, seed)
            assert report.passed == (broken is None)


LORENTZIAN_PLANES = [(0, 4), (1, 5), (3, 7), (2, 4)]  # <e_i, e_i> = 1, <e_j, e_j> = -1 in B
E8 = [[int(i == k) for i in range(8)] for k in range(8)]
# rational Lorentzian planes of B: a boost of (e_0, e_4) by cosh = 5/3, which spans the plane
# of (e_0, e_4) and so gives the same integer L, and a rotation of e_0 towards e_1 by
# cos = 3/5, whose L has denominator 5
RATIONAL_PLANES = [
    ([Fraction(5, 3), 0, 0, 0, Fraction(4, 3), 0, 0, 0], [Fraction(4, 3), 0, 0, 0, Fraction(5, 3), 0, 0, 0]),
    ([Fraction(3, 5), Fraction(4, 5), 0, 0, 0, 0, 0, 0], E8[4]),
]
PLANES = [(E8[i], E8[j]) for i, j in LORENTZIAN_PLANES] + RATIONAL_PLANES


def non_alternating(cp3):
    """cp3 plus its last argument: X(a, b, c) + c, so X(n, x, y) != X(x, y, n); on the
    core's integer contract, x / d + c = (x + d c) / d."""
    def core(a, b, c, _ev=cp3.evaluator):
        x, d = _ev(a, b, c)
        return [u + d * v for u, v in zip(x, c)], d
    return cp3._replace(evaluator=core)


@pytest.mark.parametrize("broken", [None, "sign", "shift"])
@pytest.mark.parametrize("variant", ["X1", "X2"])
def test_verify_para_matches_the_loop_it_replaced(variant, broken, monkeypatch):
    if broken == "sign":
        sign_flipped_table(monkeypatch, vcp)
    cp3 = cross_3fold(AlgebraTag.B, variant)
    if broken == "shift":
        cp3 = non_alternating(cp3)
    reports = []
    for (a, b), seed in itertools.product(PLANES, range(3)):
        report = vcp.verify_para_extension_identities(cp3, a, b, 4, seed)
        assert report == ref_verify_para(cp3, a, b, 4, seed)
        reports.append(report)
    assert all(r.passed for r in reports) == (broken is None)


@pytest.mark.parametrize("broken", [None, "sign", "shift"])
@pytest.mark.parametrize("variant", ["X1", "X2"])
def test_para_structure_matches_the_fraction_tangents(variant, broken, monkeypatch):
    """L from integer tangents is the LinearMap of the Fraction tangents, entry for entry."""
    if broken == "sign":
        sign_flipped_table(monkeypatch, vcp)
    cp3 = cross_3fold(AlgebraTag.B, variant)
    if broken == "shift":
        cp3 = non_alternating(cp3)
    for a, b in PLANES:
        L = vcp.para_structure_from_plane(cp3, a, b)
        assert L == ref_para_structure(cp3, vcp._vec(a), vcp._vec(b))
        assert all(type(x) is Fraction for row in L.matrix for x in row)


def ref_verify_axioms(cp, trials: int, seed: int = 0) -> vcp.AxiomReport:
    """verify_axioms as it was: products, pairs and the Gram determinant on the drawn Fractions."""
    rng = random.Random(seed)
    failures: list = []

    def record(name, witness):
        if len(failures) < 8:
            failures.append((name, witness))

    for _ in range(trials):
        ws = [vcp._random_vector(rng, cp.dim) for _ in range(cp.fold)]
        x = cp(*ws)
        for i, w in enumerate(ws):
            if cp.ip.pair(x, w) != 0:
                record("orthogonality", (i, ws))
        gram = [[cp.ip.pair(u, v) for v in ws] for u in ws]
        if cp.ip.pair(x, x) != det(gram):
            record("gram_norm", ws)
        i, j = rng.sample(range(cp.fold), 2) if cp.fold > 1 else (0, 0)
        if cp.fold > 1:
            swapped = list(ws)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            if cp(*swapped) != tuple(-c for c in x):
                record("skew_symmetry", (i, j, ws))
    return vcp.AxiomReport(cp.variant, trials, not failures, tuple(failures))


def dropped_correction(tag: AlgebraTag) -> vcp.CrossProduct:
    """test_vcp's broken product: a.b on Im(tag) without the <a,b> e_0 correction, on R^8."""
    def bad_eval(a, b):  # on the core's integer contract: numerators and one denominator
        xa = AlgElement(tag, (Fraction(0),) + tuple(a[1:]))
        xb = AlgElement(tag, (Fraction(0),) + tuple(b[1:]))
        (nums,), (den,) = _clear(multiply(xa, xb).coords)
        return nums, den
    return vcp.CrossProduct(8, 2, "broken", InnerProduct.euclidean(8), bad_eval, tag=tag)


# G7 with its first row over 5: the metric of its phi- has Gram entries over 25
G7_FIFTH = LinearMap.from_rows([[x / 5 if i == 0 else x for x in row] for i, row in enumerate(G7.matrix)])

AXIOM_PRODUCTS = {
    "O": lambda: cross_2fold(AlgebraTag.O),
    "B": lambda: cross_2fold(AlgebraTag.B),
    "O X1": lambda: cross_3fold(AlgebraTag.O, "X1"),
    "O X2": lambda: cross_3fold(AlgebraTag.O, "X2"),
    "B X1": lambda: cross_3fold(AlgebraTag.B, "X1"),
    "B X2": lambda: cross_3fold(AlgebraTag.B, "X2"),
    # outputs with denominators: a complement with a rational basis, a metric with Fraction entries
    "O X1 reduced at (3e0+4e2)/5": lambda: vcp.reduce_by_unit_vector(
        cross_3fold(AlgebraTag.O, "X1"), [Fraction(3, 5), 0, Fraction(4, 5), 0, 0, 0, 0, 0]),
    "B X2 reduced at e1": lambda: vcp.reduce_by_unit_vector(cross_3fold(AlgebraTag.B, "X2"), E8[1]),
    "cross_from_phi(G7*phi-)": lambda: stable7.cross_from_phi(
        pullback(G7, canonical_phi_minus()), VolumeForm.standard(7)),
    "cross_from_phi(G7_FIFTH*phi-)": lambda: stable7.cross_from_phi(
        pullback(G7_FIFTH, canonical_phi_minus()), VolumeForm.standard(7)),
    "lift_to_3fold(G7_FIFTH*phi-)": lambda: bridge.lift_to_3fold(
        pullback(G7_FIFTH, canonical_phi_minus()), None, "X2"),
    # the metric scale of 2 phi- is irrational: gram_norm fails on every witness
    "lift_to_3fold(2 phi-)": lambda: bridge.lift_to_3fold(2 * canonical_phi_minus(), None, "X1"),
    "dropped correction": lambda: dropped_correction(AlgebraTag.O),
}


@pytest.mark.parametrize("name", list(AXIOM_PRODUCTS))
def test_verify_axioms_matches_the_fraction_loop(name):
    cp = AXIOM_PRODUCTS[name]()
    for seed in range(3):
        report = vcp.verify_axioms(cp, 4, seed)
        assert report == ref_verify_axioms(cp, 4, seed)
        if name == "lift_to_3fold(2 phi-)":
            assert report.failed_checks() == ("gram_norm",) * 4
        elif name == "dropped correction":
            assert "orthogonality" in report.failed_checks()
        else:
            assert report.passed, report.failed_checks()


@pytest.mark.parametrize("variant", ["X1", "X2"])
def test_verify_axioms_matches_the_fraction_loop_on_broken_tables(variant, monkeypatch):
    """A sign flipped in the table breaks the 3-fold products (the 2-fold one refuses its
    real part); the failure lists and witnesses agree."""
    sign_flipped_table(monkeypatch, vcp)
    for tag, seed in itertools.product((AlgebraTag.O, AlgebraTag.B), range(3)):
        cp = cross_3fold(tag, variant)
        report = vcp.verify_axioms(cp, 4, seed)
        assert report == ref_verify_axioms(cp, 4, seed)
        assert not report.passed


def g2_report(classify, cb, su3):
    """classify(cb, su3), or the type and message of what it raised."""
    try:
        return classify(cb, su3)
    except ArithmeticError as ex:
        return type(ex), str(ex)


def g2_pairs(rng):
    t6, su3 = fc.flat_torus(6), fc.standard_su3()
    curvatures = [alt_form(6, 2, {})] + [random_curvature(rng) for _ in range(8)]
    pairs = [(lambda F=F: fc.make_circle_bundle(t6, F), su3) for F in curvatures]
    return pairs + [(lambda name=name: iwasawa_bundle(name), iwasawa_su3()) for name in sorted(IWASAWA_F)]


def test_classify_g2_matches_the_codifferential_loop(rng):
    for bundle, su3 in g2_pairs(rng):
        expected, got = ref_classify_g2(bundle(), su3), fc.classify_g2(bundle(), su3)
        assert got == expected and got.witnesses["delta_phi"] == AltForm.zero(7, 2)
        cb = bundle()
        fc.classify_g2(cb, su3)
        assert fc.classify_g2(cb, su3) == expected  # on a memo hit


def test_classify_g2_raises_like_the_codifferential_loop(rng, monkeypatch):
    """With d broken on the 4-forms of the total space, d *phi and delta phi are both
    nonzero, and both versions raise the same error."""
    def broken_d(self, a, _orig=fc.FrameModel.d):
        out = _orig(self, a)
        return out + basis_form(7, 1, 2, 3, 4, 5) if (a.dim, a.degree) == (7, 4) else out
    monkeypatch.setattr(fc.FrameModel, "d", broken_d)
    for bundle, su3 in g2_pairs(rng):
        expected = g2_report(ref_classify_g2, bundle(), su3)
        assert expected == (ArithmeticError, "delta phi != 0 on a special balanced base; internal error")
        assert g2_report(fc.classify_g2, bundle(), su3) == expected


def ref_synthesize_para(ss) -> InnerProduct:
    """The paracomplex ``bridge.synthesize_compatible_ip`` as it was: the eigenbases stacked
    into H, G = H^-T [[0, I], [I, 0]] H^-1 with H inverted by ``linalg.inverse``."""
    hinv = inverse([list(col) for col in zip(*(ss.eigenspace(-1) + ss.eigenspace(1)))])
    pair = [[Fraction(int(abs(i - j) == 3)) for j in range(6)] for i in range(6)]
    return InnerProduct.from_rows(mat_mul(transpose(hinv), mat_mul(pair, hinv)))


def test_synthesize_compatible_ip_matches_the_eigenbasis_inverse(rng):
    """c g^* omega_d with lambda = 4 d^3 a nonzero square, c = +-p/q and tall +-(p/q) 10^+-40."""
    for trial in range(24):
        c = rng.choice([1, -1]) * Fraction(rng.randint(1, 60), rng.randint(1, 60))
        if trial % 4 == 0:
            c *= Fraction(10) ** rng.choice([-40, 40])
        omega = c * pullback(random_invertible(rng, 6, 2), omega_d((1, 4, 9)[trial % 3]))
        ss = scaled_structure(omega, VolumeForm.standard(6, rng.choice([1, -1])))
        assert ss.is_para and exact_root(ss.lam.value, 2) is not None
        got, expected = bridge.synthesize_compatible_ip(ss), ref_synthesize_para(ss)
        assert got == expected
        assert [type(x) for row in got.gram for x in row] == [type(x) for row in expected.gram for x in row]


def ref_lift_product(phi: AltForm, vol: VolumeForm, variant: str):
    """The product of ``bridge.lift_to_3fold`` as it was: mu3 = beta ^ phi +- *phi read back
    through ``linalg.inverse`` of the direct-sum Gram matrix 1 + g."""
    gm = metric_from_phi(phi, vol)
    shift = lambda f: AltForm(8, f.degree, {tuple(i + 1 for i in idx): c for idx, c in f.terms.items()})
    eps = Fraction(1 if variant == "X1" else -1)
    mu3 = wedge(basis_form(8, 1), shift(phi)) + eps * shift(hodge_star(phi, gm.ip, gm.vol))
    g8 = [[Fraction(int(j == 0)) for j in range(8)]] + [[Fraction(0)] + list(r) for r in gm.ip.gram]
    return vcp.CrossProduct(8, 3, f"LIFT-{variant}", InnerProduct.from_rows(g8),
                            _product_from_form(mu3, inverse(g8)))


def test_lift_to_3fold_matches_the_inverse_of_the_direct_sum(rng):
    for trial in range(6):
        c = rng.choice([1, -1]) * Fraction(rng.randint(1, 60), rng.randint(1, 60))
        if trial % 3 == 0:
            c *= Fraction(10) ** rng.choice([-40, 40])
        base = (canonical_phi_minus(), canonical_phi_plus())[trial % 2]
        phi = c * pullback(random_invertible(rng, 7, 2), base)
        vol, variant = VolumeForm.standard(7, rng.choice([1, -1])), rng.choice(["X1", "X2"])
        lift, expected = bridge.lift_to_3fold(phi, vol, variant), ref_lift_product(phi, vol, variant)
        for _ in range(3):
            vs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)] for _ in range(3)]
            got, want = lift(*vs), expected(*vs)
            assert got == want and [type(x) for x in got] == [type(x) for x in want]

if __name__ == "__main__":
    json.dump({name: nabla_documents(name) for name in sorted(IWASAWA_F)}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
