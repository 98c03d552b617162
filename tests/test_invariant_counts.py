"""Each public entry point computes its form's invariant exactly once.

K (stable6._k_entry, which makes the memo entry that k_endo reads), B
(stable7.q_form) and the signature and determinant of B (one symmetric
elimination, stable7._inertia_det) are the expensive invariants;
framecalc's special-balanced check guards every G2 computation, and nabla
phi (with its connection table) is derived once per (circle bundle, SU(3)
data) pair, for ``classify_g2`` and ``nabla_phi`` alike.  The counts below
are the number of times one public call runs each of them.  Each form's
memo holds one invariant entry at e^{1..n}, whatever volume forms it is
read under: ``stabilizer_dim`` classifies the form from it and reads an
unstable form's orbit off two ranks, the second from the wedges that its
classify kernel pass kept (the memo entry "wedges"), and builds no rank
system; the classify order
(stabilizer_dim, q_form().signature(), classify7, canonicalize7,
metric_from_phi) builds B once and eliminates it once per form under c = 1
and c = -1.  With that memo full, ``canonicalize7`` inverts nothing, runs no
rref or Bareiss elimination and takes no pullback; a frame model inverts
each Gram matrix once, and ``InnerProduct.diagonal`` takes no determinant.
A classify run builds the index table of the K and B kernel once per
dimension.  The O6_MINUS frame takes one pullback (its check) and no hat
or wedge, and ``stable6_to_7`` takes no hat.
Neither 6-dimensional frame inverts a matrix; at an irrational sqrt(lambda)
neither runs an rref, and at a rational one O6_PLUS runs one per eigenspace.

The doubling recursion ``compalg._cd_mul`` runs only while a tag's table of
structure constants is built, once per tag per process, and never at import.
On the construct side the randomized verifiers clear each trial's draws
once (``linalg._clear``) and check on the numerators: a
``verify_identities`` trial takes one clear, 17 products (``compalg._mul``),
6 conjugates and one inner product and no ``multiply``, a ``verify_axioms``
trial one clear of its draws, and a para check 8 + 5 per trial evaluations
of the three-fold product and no ``CrossProduct.__call__``.  A bridge to a
stable form clears its complement basis once and runs each of its products
(35 for ``vcp_to_stable7``, 26 for ``vcp_to_stable6``) as the product's core
on ints, with no ``InnerProduct.pair`` and no ``CrossProduct.__call__``.
``classify_g2`` on a memo hit takes 1 Hodge star and at most 3 wedges, with
*phi checked and the orientation derived once per pair and omega ^ omega
wedged once per SU3Data.

A matrix applied to many vectors is cleared once (``linalg._numerators``): a
``LinearMap`` over all its ``apply`` and ``pullback`` calls and every read of
its integer rows (the L of a para check over its 30 applications), the G^-1
of a product read off a form over all its evaluations, and the raising map
of an ``InnerProduct`` over all its Hodge stars and form inner products,
which is built once.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import G6, G7, iwasawa_su3
from stableforms import bridge, cli, compalg, exteralg, framecalc, linalg, stable6, stable7, vcp
from stableforms.compalg import AlgebraTag
from stableforms.exteralg import AltForm, LinearMap, VolumeForm, alt_form, pullback
from stableforms.linalg import inertia
from stableforms.scalars import exact_root
from test_differential import UNSTABLE_FORMS

VOL6 = VolumeForm.standard(6)
VOL7 = VolumeForm.standard(7)
OMEGA_PLUS = pullback(G6, stable6.canonical_omega_plus())
OMEGA_MINUS = pullback(G6, stable6.canonical_omega_minus())
PHI_MINUS = pullback(G7, stable7.canonical_phi_minus())
PHI_PLUS = pullback(G7, stable7.canonical_phi_plus())
DIRECTION = alt_form(6, 3, {(1, 3, 5): 1, (2, 4, 6): -2})
F_PRIMITIVE = alt_form(6, 2, {(1, 4): 1, (2, 5): -1})
IP_MINUS = bridge.synthesize_compatible_ip(stable6.scaled_structure(OMEGA_MINUS, VOL6))
G2_DERIVATION = {"_check_special_balanced": 1, "_nabla_phi": 1, "covariant_table": 1}


def classify_canonicalize(form, *options: str):
    """`stableforms classify FORM --canonicalize --json [options]`, in process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cli.form_to_document(form), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", path, "--canonicalize", "--json", *options]) == cli.EXIT_OK


def frame_g2(F: AltForm):
    """make_circle_bundle + classify_g2 + nabla_phi on flat T^6: the construct frame.g2 operation."""
    cb = framecalc.make_circle_bundle(framecalc.flat_torus(6), F)
    su3 = framecalc.standard_su3()
    framecalc.classify_g2(cb, su3)
    framecalc.nabla_phi(cb, su3)


def g2class(F: AltForm):
    """`stableforms g2class MODEL` on flat T^6 with the standard SU(3) triple, in process."""
    su3 = framecalc.standard_su3()
    terms = {name: cli.form_to_document(form)["terms"]
             for name, form in (("F", F), ("omega", su3.omega), ("Omega1", su3.Omega1),
                                ("Omega2", su3.Omega2))}
    doc = {"dim": 6, "metric": [1] * 6, "d": {}, "bundle": {"F": terms.pop("F")}, "su3": terms}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["g2class", path]) == cli.EXIT_OK

CASES = {
    "scaled_structure": (lambda: stable6.scaled_structure(fresh(OMEGA_MINUS), VOL6), {"_k_entry": 1}),
    "hat": (lambda: stable6.hat(fresh(OMEGA_MINUS), VOL6), {"_k_entry": 1}),
    "canonicalize6_plus": (lambda: stable6.canonicalize6(fresh(OMEGA_PLUS), VOL6), {"_k_entry": 1}),
    "canonicalize6_minus": (lambda: stable6.canonicalize6(fresh(OMEGA_MINUS), VOL6), {"_k_entry": 1}),
    "metric_from_phi": (lambda: stable7.metric_from_phi(fresh(PHI_MINUS), VOL7),
                        {"q_form": 1, "_inertia_det": 1}),
    # the frame reads B from the memo entry, not through q_form
    "canonicalize7": (lambda: stable7.canonicalize7(fresh(PHI_MINUS), VOL7), {"_inertia_det": 1}),
    "cross_from_phi": (lambda: stable7.cross_from_phi(fresh(PHI_MINUS), VOL7),
                       {"q_form": 1, "_inertia_det": 1}),
    "lift_to_3fold": (lambda: bridge.lift_to_3fold(fresh(PHI_MINUS)), {"q_form": 1, "_inertia_det": 1}),
    # the lift is classified once: one elimination of the B of the 7-form it builds
    "stable6_to_7": (lambda: bridge.stable6_to_7(fresh(OMEGA_MINUS), IP_MINUS, VOL6),
                     {"_k_entry": 1, "_inertia_det": 1}),
    # e0,e4 in O: the hat matches in the flipped orientation, derived from the first
    "vcp_to_stable6": (lambda: bridge.vcp_to_stable6(vcp.cross_3fold(AlgebraTag.O, "X1"),
                                                     [1, 0, 0, 0, 0, 0, 0, 0],
                                                     [0, 0, 0, 0, 1, 0, 0, 0]),
                       {"_k_entry": 1}),
    "cli_classify6_plus": (lambda: classify_canonicalize(fresh(OMEGA_PLUS)), {"_k_entry": 1}),
    "cli_classify6_minus": (lambda: classify_canonicalize(fresh(OMEGA_MINUS)), {"_k_entry": 1}),
    "cli_classify7_minus": (lambda: classify_canonicalize(fresh(PHI_MINUS)),
                            {"q_form": 1, "_inertia_det": 1}),
    # one structure plus lambda at Omega +- h * direction
    "hitchin_variation": (lambda: framecalc.hitchin_variation(fresh(OMEGA_MINUS), DIRECTION, VOL6),
                          {"_k_entry": 3}),
    "critical_point_check": (lambda: framecalc.critical_point_check(framecalc.iwasawa_model(),
                                                                    fresh(OMEGA_MINUS)),
                             {"_k_entry": 1}),
    "classify_g2": (lambda: framecalc.classify_g2(
        framecalc.make_circle_bundle(framecalc.flat_torus(6), F_PRIMITIVE),
        framecalc.standard_su3()), G2_DERIVATION),
    "nabla_phi": (lambda: framecalc.nabla_phi(
        framecalc.make_circle_bundle(framecalc.flat_torus(6), F_PRIMITIVE),
        framecalc.standard_su3()), G2_DERIVATION),
    "frame_g2": (lambda: frame_g2(F_PRIMITIVE), G2_DERIVATION),
    "cli_g2class": (lambda: g2class(F_PRIMITIVE), G2_DERIVATION),
}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for module, name in ((stable6, "_k_entry"), (stable7, "q_form"), (stable7, "_inertia_det"),
                         (framecalc, "_check_special_balanced"), (framecalc, "_nabla_phi"),
                         (framecalc, "covariant_table")):
        def counting(*args, _orig=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_invariant_computed_once(name, calls):
    run, expected = CASES[name]
    run()
    assert dict(calls) == expected


# K and B are also built once per form across public calls: the integer kernel
# that builds them (exteralg._interior_wedges) runs once for lambda_coeff,
# classify6 and canonicalize6 (q_form, classify7 and canonicalize7) on one form,
# and the per-form memo gives what a fresh copy of the form gives under every
# volume form.

def fresh(form):
    return AltForm(form.dim, form.degree, dict(form.terms))


@pytest.fixture
def kernels(monkeypatch):
    """Runs of the K and B kernel, one per form built, counted by the module that ran it."""
    counts = Counter()
    for module in (stable6, stable7):
        def counting(*args, _orig=module._interior_wedges, _name=module.__name__, **kwargs):
            counts[_name.rsplit(".", 1)[1]] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, "_interior_wedges", counting)
    return counts


def test_k_is_built_once_per_form(kernels):
    omega = fresh(OMEGA_MINUS)
    stable6.lambda_coeff(omega, VOL6)
    stable6.classify6(omega, VOL6)
    stable6.canonicalize6(omega, VOL6)
    assert kernels == {"stable6": 1}


def test_k_is_squared_once_per_form(monkeypatch):
    """The memo entry holds lambda with K, checked once against K^2 = lambda Id:
    ``_k_entry``, which squares the integer numerators of K, runs once per form."""
    squares = []
    monkeypatch.setattr(stable6, "_k_entry", lambda omega, _orig=stable6._k_entry:
                        squares.append(omega) or _orig(omega))
    omega = fresh(OMEGA_MINUS)
    stable6.lambda_coeff(omega, VOL6)
    stable6.classify6(omega, VOL6)
    stable6.canonicalize6(omega, VOL6)
    assert len(squares) == 1


def test_b_is_built_once_per_form(kernels):
    phi = fresh(PHI_MINUS)
    stable7.q_form(phi, VOL7)
    stable7.classify7(phi, VOL7)
    stable7.canonicalize7(phi, VOL7)
    assert kernels == {"stable7": 1}


@pytest.mark.parametrize("form,expected", [(OMEGA_MINUS, {"stable6": 1}), (PHI_MINUS, {"stable7": 1})],
                         ids=["G6*Omega-", "G7*phi-"])
def test_classify_under_another_volume_builds_k_or_b_once(form, expected, kernels, dets, calls):
    """--vol -1: stabilizer_dim builds K (B, its signature and det B) at e^{1..n}, and
    the classification reads K/c and lambda/c^2 (B/c and the swapped signature) off
    that one entry; B is eliminated once."""
    classify_canonicalize(fresh(form), "--vol", "-1")
    assert kernels == expected
    assert len(dets) == calls["_inertia_det"] == (form.dim == 7)


def test_memo_matches_a_fresh_form_under_every_volume():
    vols6 = [VOL6, VolumeForm.standard(6, -1), VolumeForm.standard(6, 3)]
    vols7 = [VOL7, VolumeForm.standard(7, -1), VolumeForm.standard(7, 3)]
    omega, phi = fresh(OMEGA_MINUS), fresh(PHI_MINUS)
    text = (repr(omega), repr(phi))
    for _ in range(2):  # the second pass reads the memo
        for vol in vols6:
            assert stable6.k_endo(omega, vol) == stable6.k_endo(fresh(omega), vol)
            assert stable6.lambda_coeff(omega, vol) == stable6.lambda_coeff(fresh(omega), vol)
        for vol in vols7:
            qf, expected = stable7.q_form(phi, vol), stable7.q_form(fresh(phi), vol)
            assert qf == expected
            assert qf.signature() == expected.signature() == inertia(expected.B)
            assert stable7.classify7(phi, vol) == stable7.classify7(fresh(phi), vol)
    assert list(omega._memo) == ["K"] and list(phi._memo) == ["B"]  # one entry, no volume in the key
    assert stable6.k_endo(omega, vols6[1]).K != stable6.k_endo(omega, vols6[0]).K
    pos, neg, zero = stable7.q_form(phi, VOL7).signature()
    assert stable7.q_form(phi, vols7[1]).signature() == (neg, pos, zero) and pos != neg
    assert (repr(omega), repr(phi)) == text
    assert omega == fresh(omega) and phi == fresh(phi) and omega != phi
    assert "_memo" not in repr(omega)


# stabilizer_dim reads lambda (dim 6) or det B (dim 7) from the same memo: a
# stable form takes no rank at all, and in the order of a classify operation
# (stabilizer_dim first) K or B is still built once and det B taken once.  An
# unstable form takes the rank w of its contractions and, at w = 6 or 7 only,
# takes the rank r of the wedges its stable check made; no form builds a system.

@pytest.fixture
def ranks(monkeypatch):
    ranked = []
    monkeypatch.setattr(stable6, "rank", lambda rows, _orig=stable6.rank:
                        ranked.append(rows) or _orig(rows))
    return ranked


@pytest.fixture
def dets(monkeypatch):
    """The matrices stable7 eliminates for a determinant: only B, in the one symmetric
    elimination that also gives its signature."""
    matrices = []
    monkeypatch.setattr(stable7, "_inertia_det", lambda m, _orig=stable7._inertia_det:
                        matrices.append(m) or _orig(m))
    return matrices


def test_stable_forms_make_no_rank_call(ranks, kernels):
    for form in (OMEGA_PLUS, OMEGA_MINUS, PHI_MINUS, PHI_PLUS):
        assert stable6.stabilizer_dim(fresh(form)) == form.dim ** 2 - math.comb(form.dim, 3)
    assert not ranks and kernels == {"stable6": 2, "stable7": 2}
    assert stable6.stabilizer_dim(alt_form(7, 3, {(1, 2, 3): 1})) == 36  # unstable: one rank, w
    assert len(ranks) == 1 and kernels == {"stable6": 2, "stable7": 3}


# a normal form of each support size that the support decides -> stabilizer dimension
SUPPORT_DECIDES = {
    "zero6": (AltForm.zero(6, 3), 36), "e123 in R6": (alt_form(6, 3, {(1, 2, 3): 1}), 26),
    "e1^(e23+e45)": (alt_form(6, 3, {(1, 2, 3): 1, (1, 4, 5): 1}), 21),
    "zero7": (AltForm.zero(7, 3), 49), "e123 in R7": (alt_form(7, 3, {(1, 2, 3): 1}), 36),
    "e1^(e23+e45) in R7": (alt_form(7, 3, {(1, 2, 3): 1, (1, 4, 5): 1}), 29),
    "Omega+ in R7": (alt_form(7, 3, dict(stable6.canonical_omega_plus_4term().terms)), 23),
    "Omega- in R7": (alt_form(7, 3, dict(stable6.canonical_omega_minus().terms)), 23),
    "e123+e456": (alt_form(7, 3, {(1, 2, 3): 1, (4, 5, 6): 1}), 23),
    "e135+e146+e236": (alt_form(6, 3, {(1, 3, 5): 1, (1, 4, 6): 1, (2, 3, 6): 1}), 17),
}


@pytest.mark.parametrize("name", sorted(SUPPORT_DECIDES))
def test_support_decides_with_no_system(name, kernels, ranks):
    """Support 0, 3 and 5 take the classify kernel and one rank; support 6 takes a second
    rank, of the wedges that one kernel run kept."""
    form, expected = SUPPORT_DECIDES[name]
    assert stable6.stabilizer_dim(pullback(G7 if form.dim == 7 else G6, form)) == expected
    wide = name.startswith("Omega") or name in ("e123+e456", "e135+e146+e236")
    assert kernels == {f"stable{form.dim}": 1}
    assert len(ranks) == 1 + wide


@pytest.mark.parametrize("name,r", [("e1^(e23+e45+e67)", 1), ("e125+e136+e147+e234", 4),
                                    ("e123+e456+e147", 6), ("e124+e157+e236+e456", 7)])
def test_full_support_with_det_b_zero_reads_the_table(name, r, kernels, ranks):
    """The table row (7, 7, r), from one classify kernel run and two ranks."""
    form, expected = UNSTABLE_FORMS[name]
    assert stable6._UNSTABLE_STABILIZER[7, 7, r] == expected
    assert stable6.stabilizer_dim(pullback(G7, form)) == expected
    assert kernels == {"stable7": 1} and len(ranks) == 2


@pytest.mark.parametrize("n", [6, 7])
def test_decomposable_in_the_classify_order_runs_the_kernel_once(n, kernels, ranks):
    """g^* e123, as classify's 6d and 7d kinds: stabilizer_dim, then the invariants of
    classify, run the K/B kernel once and take one rank, w."""
    form = pullback(G6 if n == 6 else G7, alt_form(n, 3, {(1, 2, 3): 1}))
    assert stable6.stabilizer_dim(form) == (26 if n == 6 else 36)
    if n == 6:
        stable6.lambda_coeff(form, VOL6)
        assert stable6.classify6(form, VOL6) == stable6.OrbitClass6.NOT_STABLE
    else:
        stable7.q_form(form, VOL7).signature()
        assert stable7.classify7(form, VOL7) == stable7.OrbitClass7.NOT_STABLE
    assert kernels == {f"stable{n}": 1} and len(ranks) == 1


@pytest.mark.parametrize("name", ["e123 in R6", "e123 in R7", "e123+e456+e147"])
def test_a_classify_run_takes_the_contractions_once(name, monkeypatch):
    """An unstable form's stabilizer_dim reads its contractions, for the rank w, off the
    memo entry that the classify kernel pass kept: one contraction pass per classify run."""
    form = UNSTABLE_FORMS[name][0]
    form = pullback(G6 if form.dim == 6 else G7, form)
    original, counts = exteralg._contractions, Counter()

    def count(a):
        counts[a.dim] += 1
        return original(a)
    for module in [m for key, m in sys.modules.items() if key.startswith("stableforms")]:
        if vars(module).get("_contractions") is original:
            monkeypatch.setattr(module, "_contractions", count)
    classify_canonicalize(form)
    assert counts == {form.dim: 1}


def spread_form(seed: int = 7) -> AltForm:
    """A dense 3-form on R^7 whose coefficients (p/q) 10^e spread over |e| <= 200."""
    rng = random.Random(seed)
    return alt_form(7, 3, {idx: Fraction(rng.choice((-1, 1)) * rng.randint(1, 999),
                                         rng.randint(1, 999)) * Fraction(10) ** rng.randint(-200, 200)
                           for idx in itertools.combinations(range(1, 8), 3)})


def test_spread_coefficients_take_no_rank(ranks, dets):
    """The rank of this form's 35 x 49 system grows Bareiss entries to thousands of
    digits and takes seconds; its det B != 0 settles the answer."""
    assert stable6.stabilizer_dim(spread_form()) == 14
    assert not ranks and len(dets) == 1


def test_spread_support_six_builds_no_system(kernels):
    """g^* (e123 + e456) on R7, g with entries (p/q) 10^e, |e| <= 200: the rank of its
    system takes tens of seconds; the ranks (w, r) = (6, 6) settle the answer."""
    rng = random.Random(7)
    while True:
        g = LinearMap.from_rows([[Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))
                                  * Fraction(10) ** rng.randint(-200, 200) for _ in range(7)] for _ in range(7)])
        if g.det():
            break
    assert stable6.stabilizer_dim(pullback(g, alt_form(7, 3, {(1, 2, 3): 1, (4, 5, 6): 1}))) == 23
    assert kernels == {"stable7": 1}


def test_stabilizer_dim_shares_k_with_classify(kernels, ranks):
    omega = fresh(OMEGA_MINUS)
    stable6.stabilizer_dim(omega)
    stable6.lambda_coeff(omega, VOL6)
    stable6.canonicalize6(omega, VOL6)
    assert kernels == {"stable6": 1}  # one K
    assert not ranks


def test_stabilizer_dim_shares_b_and_det_b_with_classify(kernels, ranks, dets):
    phi = fresh(PHI_MINUS)
    stable6.stabilizer_dim(phi)
    stable7.q_form(phi, VOL7).signature()
    stable7.classify7(phi, VOL7)
    stable7.canonicalize7(phi, VOL7)
    stable7.metric_from_phi(phi, VOL7)
    assert kernels == {"stable7": 1}  # one B
    assert len(dets) == 1 and not ranks


@pytest.mark.parametrize("c", [1, -1])
def test_one_elimination_per_form_in_the_classify_order(c, monkeypatch, kernels):
    """One kernel pass and one elimination of B per form, under c = 1 and c = -1: the
    symmetric elimination that gives the signature gives det B too, so no Bareiss
    determinant, rref or rank runs on B besides it."""
    eliminations = Counter()
    for module, name in ((linalg, "_bareiss"), (linalg, "rref"), (linalg, "_inertia_det"),
                         (stable7, "_inertia_det")):
        def counting(*args, _orig=getattr(module, name), _name=name, **kwargs):
            eliminations[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    phi, vol = fresh(PHI_MINUS), VolumeForm.standard(7, c)
    stable6.stabilizer_dim(phi)
    stable7.q_form(phi, vol).signature()
    stable7.classify7(phi, vol)
    stable7.canonicalize7(phi, vol)
    assert eliminations == {"_inertia_det": 1}
    stable7.metric_from_phi(phi, vol)
    # the one more is InnerProduct's nondegeneracy check, a Bareiss det of the metric g
    assert eliminations == {"_inertia_det": 1, "_bareiss": 1}
    assert kernels == {"stable7": 1}


@pytest.mark.parametrize("c", [1, -1])
def test_one_signature_per_form_in_the_classify_order(c, calls):
    """The classify benchmark's order on one form: one elimination of B between them,
    under the standard volume form and under c = -1, where the signature is that of B/c."""
    phi, vol = fresh(PHI_MINUS), VolumeForm.standard(7, c)
    stable6.stabilizer_dim(phi)
    signature = stable7.q_form(phi, vol).signature()
    assert stable7.classify7(phi, vol) == stable7.OrbitClass7.O7_MINUS
    stable7.canonicalize7(phi, vol)
    stable7.metric_from_phi(phi, vol)
    assert calls["_inertia_det"] == 1
    assert signature == ((7, 0, 0) if c == 1 else (0, 7, 0))
    assert signature == inertia([list(r) for r in stable7.q_form(fresh(phi), vol).B])


def test_canonicalize7_takes_no_elimination_on_a_full_memo(monkeypatch, dets, calls):
    """With B, det B and the signature of B in the memo, as in the classify order, the
    Cayley frame inverts nothing, runs no rref or Bareiss elimination and takes no
    pullback (its float residual has a loop of its own); B is still eliminated once."""
    phi = fresh(PHI_MINUS)
    stable6.stabilizer_dim(phi)
    stable7.q_form(phi, VOL7).signature()
    counts = Counter()
    for module in (linalg, exteralg, stable7, vcp):
        for name in ("inverse", "_inverse", "rref", "_bareiss", "pullback"):
            if hasattr(module, name):
                def counting(*args, _orig=getattr(module, name), _name=name.lstrip("_"), **kwargs):
                    counts[_name] += 1
                    return _orig(*args, **kwargs)
                monkeypatch.setattr(module, name, counting)
    stable7.canonicalize7(phi, VOL7)
    assert counts == {}
    assert len(dets) == calls["_inertia_det"] == 1


@pytest.mark.parametrize("c", [1, -1, 3, Fraction(-1, 7)])
@pytest.mark.parametrize("form", [PHI_MINUS, PHI_PLUS], ids=["G7*phi-", "G7*phi+"])
def test_q_form_carries_the_memo_signature(form, c, dets):
    """q_form stores the signature of the memo entry, pos and neg swapped when c < 0:
    the signature of B/c, with no elimination beyond the entry's one."""
    phi, vol = fresh(form), VolumeForm.standard(7, c)
    stable7.classify7(phi, VOL7)
    pos, neg, zero = stable7._invariants(phi)[1]
    qf = stable7.q_form(phi, vol)
    assert qf.signature() == ((pos, neg, zero) if c > 0 else (neg, pos, zero))
    assert len(dets) == 1
    assert qf.signature() == inertia(qf.B)


@pytest.mark.parametrize("form", [PHI_MINUS, 2 * PHI_MINUS, PHI_PLUS],
                         ids=["G7*phi-", "2 G7*phi-", "G7*phi+"])
def test_the_lift_takes_the_metric_scale_once(form, monkeypatch):
    """lift_to_3fold takes *phi against ``G2Metric.vol``: it roots the metric scale only
    inside metric_from_phi, as many exact roots as that call alone takes."""
    roots = []
    monkeypatch.setattr(stable7, "exact_root", lambda x, k, _orig=stable7.exact_root:
                        roots.append(x) or _orig(x, k))
    stable7.metric_from_phi(fresh(form), VOL7)
    alone = len(roots)
    roots.clear()
    bridge.lift_to_3fold(fresh(form))
    assert alone > 0 and len(roots) == alone


# lambda = -32: sqrt|lambda| is irrational and the frame has QuadExt entries
OMEGA_MINUS_ROOT = pullback(G6, alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): -2, (2, 4, 6): 2, (3, 4, 5): -2}))


# lambda = 32: sqrt(lambda) is irrational and the paracomplex frame has QuadExt entries
OMEGA_PLUS_ROOT = pullback(G6, alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): 2, (2, 4, 6): -2, (3, 4, 5): 2}))


@pytest.mark.parametrize("omega,rational", [(OMEGA_MINUS, False), (OMEGA_MINUS_ROOT, False),
                                            (OMEGA_PLUS_ROOT, False), (OMEGA_PLUS, True)],
                         ids=["minus", "minus-irrational", "plus-irrational", "plus"])
def test_the_six_dimensional_frames_invert_nothing(omega, rational, monkeypatch):
    """Both frames read their inverse rows off the projectors (sqrt(lambda) +- K) / (2 sqrt(lambda)):
    no inverse at all, and no elimination when sqrt(lambda) is irrational (the eigenbasis is the
    image of K +- sqrt(lambda), from one integer adjugate); one 6-row rref per eigenspace when
    sqrt(lambda) is rational."""
    omega = fresh(omega)
    lam = stable6.scaled_structure(omega, VOL6).lam.value
    assert (exact_root(lam, 2) is not None) == rational
    counts = sized_calls(monkeypatch, ((linalg, "rref"), *INVERSES))
    stable6.canonicalize6(omega, VOL6)
    assert counts == ({("rref", 6): 2} if rational else {})


# every name under which the library reaches linalg.inverse
INVERSES = ((linalg, "inverse"), (exteralg, "_inverse"))


def sized_calls(monkeypatch, targets) -> Counter:
    """Calls of each (module, name) in targets, counted by name and the row count of the first argument."""
    counts = Counter()
    for module, name in targets:
        def counting(m, *args, _orig=getattr(module, name), _name=name, **kwargs):
            counts[_name, len(m)] += 1
            return _orig(m, *args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return counts


def test_the_paracomplex_gram_inverts_nothing(monkeypatch):
    """synthesize_compatible_ip reads the dual rows of the two eigenbases off the projectors
    (sqrt(lambda) -+ K) / (2 sqrt(lambda)): one 6-row rref per eigenspace and no inverse."""
    ss = stable6.scaled_structure(fresh(OMEGA_PLUS), VOL6)
    assert exact_root(ss.lam.value, 2) is not None
    counts = sized_calls(monkeypatch, ((linalg, "rref"), *INVERSES))
    bridge.synthesize_compatible_ip(ss)
    assert counts == {("rref", 6): 2}


def test_lift_to_3fold_inverts_only_the_seven_dimensional_gram(monkeypatch):
    """(1 + g)^-1 = 1 + g^-1, and the Hodge star has already inverted g."""
    counts = sized_calls(monkeypatch, INVERSES)
    lift = bridge.lift_to_3fold(fresh(PHI_MINUS), VOL7, "X2")
    lift(*([Fraction(k + 1, 3) if k == i else 0 for k in range(8)] for i in range(3)))
    assert counts == {("_inverse", 7): 1}


@pytest.mark.parametrize("route", ["vcp_to_stable7", "vcp_to_stable6", "reduce_by_unit_vector"])
def test_the_complement_gram_is_never_inverted(route, monkeypatch):
    """Complement coordinates are entries of the orthogonal projection, so no route inverts
    the complement's Gram matrix, however often it maps."""
    cp3 = vcp.cross_3fold(AlgebraTag.B, "X1")
    e = [[int(i == k) for i in range(8)] for k in range(8)]
    counts = sized_calls(monkeypatch, INVERSES)
    if route == "vcp_to_stable7":
        bridge.vcp_to_stable7(cp3, e[1])
    elif route == "vcp_to_stable6":
        bridge.vcp_to_stable6(cp3, e[1], e[5])
    else:
        product = vcp.reduce_by_unit_vector(cp3, e[1])
        for x, y in ((e[1][1:], e[2][1:]), (e[3][1:], e[6][1:])):
            product(x, y)
    assert counts == {}


@pytest.mark.parametrize("omega", [OMEGA_MINUS, OMEGA_MINUS_ROOT], ids=["square", "irrational"])
def test_the_complex_frame_and_the_lift_take_no_hat(omega, monkeypatch):
    """Omega ^ K^* Omega = 2 lambda^2 vol leaves nothing to search: the O6_MINUS frame
    takes one pullback (its check) and no hat or wedge, and stable6_to_7 takes no hat."""
    ss = stable6.scaled_structure(omega, VOL6)
    assert ss.lam.value < 0
    counts = Counter()
    for name in ("hat", "pullback", "wedge"):
        def counting(*args, _orig=getattr(stable6, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(stable6, name, counting)
    stable6._canonicalize_complex(omega, ss)
    assert counts == {"pullback": 1}
    counts.clear()
    bridge.stable6_to_7(omega, bridge.synthesize_compatible_ip(ss), VOL6)
    assert counts["hat"] == 0


def test_one_inverse_per_gram_matrix(monkeypatch):
    """make_circle_bundle + classify_g2 + nabla_phi, the construct frame.g2 operation,
    inverts the Gram matrices of the base and of the total space once each."""
    inverted = Counter()

    def counting(m, _orig=exteralg._inverse):
        inverted[tuple(map(tuple, m))] += 1
        return _orig(m)
    monkeypatch.setattr(exteralg, "_inverse", counting)
    frame_g2(F_PRIMITIVE)
    assert sorted(len(m) for m in inverted) == [6, 7]
    assert set(inverted.values()) == {1}


def test_a_diagonal_gram_takes_no_determinant(monkeypatch):
    """InnerProduct.diagonal, under every cross_2fold/cross_3fold and every fresh
    FrameModel.ip, reads nondegeneracy off the diagonal; a dense Gram takes its det."""
    dets = []
    monkeypatch.setattr(exteralg, "_det", lambda m, _orig=exteralg._det: dets.append(m) or _orig(m))
    exteralg.InnerProduct.diagonal([1, -2, Fraction(3, 4), 1, 1, 1, -1])
    vcp.cross_2fold(AlgebraTag.O)
    vcp.cross_3fold(AlgebraTag.B, "X1")
    framecalc.flat_torus(6).ip()
    assert dets == []
    exteralg.InnerProduct(2, ((2, 1), (1, 1)))
    assert len(dets) == 1


def test_a_classify_run_builds_each_index_table_once():
    """The K and B kernel reads one index table per dimension, built on first use and
    read by every later form."""
    exteralg._interior_table.cache_clear()
    for form in (OMEGA_PLUS, OMEGA_MINUS, PHI_MINUS, PHI_PLUS, pullback(G7, alt_form(7, 3, {(1, 2, 3): 1}))):
        classify_canonicalize(fresh(form))
    info = exteralg._interior_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits > 0


# The pair memo: each SU3Data object on a bundle is derived once, a pair that
# fails the special-balanced check stores nothing, and what a call returns is
# the caller's to change.

def flat_bundle(F: AltForm = F_PRIMITIVE):
    return framecalc.make_circle_bundle(framecalc.flat_torus(6), F)


def g2_outcome(cb, su3) -> tuple:
    rep = framecalc.classify_g2(cb, su3)
    return rep.as_dict(), rep.witnesses, framecalc.build_g2(cb, su3), framecalc.nabla_phi(cb, su3)


def not_adapted_su3() -> framecalc.SU3Data:
    """The standard triple with Omega2 + eta, where eta = Re((e1+ie4)^(e2+ie5)^(e3-ie6)) =
    e123 + e156 - e246 - e345 is a primitive (2,1)-form: omega ^ eta = Omega1 ^ eta = 0, so the
    SU3Data and special-balanced checks pass, but its *phi is not the Hodge star of its phi."""
    su3 = framecalc.standard_su3()
    eta = alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): 1, (2, 4, 6): -1, (3, 4, 5): -1})
    return framecalc.SU3Data(su3.omega, su3.Omega1, su3.Omega2 + eta)


@pytest.mark.parametrize("base,F,su3,message", [
    (framecalc.iwasawa_model(), alt_form(6, 2, {}), framecalc.standard_su3, "d Omega2 != 0"),
    (framecalc.flat_torus(6), alt_form(6, 2, {(1, 2): 1}), framecalc.standard_su3,
     r"curvature is not of type \(1,1\)"),
    (framecalc.flat_torus(6), alt_form(6, 2, {}), not_adapted_su3, "metric-adapted"),
], ids=["unbalanced", "not (1,1)", "not adapted"])
def test_a_failing_pair_raises_every_time_and_stores_nothing(base, F, su3, message, calls):
    cb, su3 = framecalc.make_circle_bundle(base, F), su3()
    for call in (framecalc.classify_g2, framecalc.nabla_phi, framecalc.build_g2, framecalc.classify_g2):
        with pytest.raises(framecalc.PreconditionError, match=message):
            call(cb, su3)
        assert cb._memo == {}
    assert calls == {"_check_special_balanced": 4}


def test_each_su3_on_one_bundle_gets_its_own_derivation(calls):
    cb = flat_bundle(alt_form(6, 2, {}))  # F = 0 is of type (1,1) for both complex structures
    standard, twin, other = framecalc.standard_su3(), framecalc.standard_su3(), iwasawa_su3()
    assert standard == twin and standard is not twin and other != standard
    got = [g2_outcome(cb, su3) for su3 in (standard, twin, other, standard, other)]
    assert calls == {name: 3 for name in G2_DERIVATION}  # one per SU3Data object
    assert len(cb._memo) == 3
    calls.clear()
    expected = [g2_outcome(flat_bundle(alt_form(6, 2, {})), su3) for su3 in (standard, twin, other)]
    assert got == expected + expected[0::2]
    assert got[0] != got[2]


def test_a_changed_report_leaves_the_next_call_alone():
    cb, su3 = flat_bundle(), framecalc.standard_su3()
    expected = g2_outcome(flat_bundle(), framecalc.standard_su3())
    report = framecalc.nabla_phi(cb, su3)
    report.derivatives[1] = AltForm.zero(7, 3)
    del report.derivatives[7]
    framecalc.classify_g2(cb, su3).witnesses.clear()
    again = framecalc.nabla_phi(cb, su3)
    assert again.derivatives is not report.derivatives
    assert g2_outcome(cb, su3) == expected


# The construct side computes each value once per input: a verifier trial shares
# its products, conjugates and inner product, and a classify_g2 on a memo hit
# reads the orientation and *phi from the pair's derivation.

def counting(monkeypatch, target, names) -> Counter:
    counts = Counter()
    for name in names:
        def count(*args, _orig=getattr(target, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(target, name, count)
    return counts


@pytest.mark.parametrize("tag", list(AlgebraTag), ids=lambda tag: tag.value)
def test_verify_identities_computes_each_product_once(tag, monkeypatch):
    compalg._table(tag.doubling_signs)  # built first: the doubling recursion conjugates too
    counts = counting(monkeypatch, compalg, ("_clear", "_mul", "_cd_conj", "_bilinear",
                                             "multiply", "conjugate", "inner"))
    compalg.verify_identities(tag, 3, seed=5)
    assert counts == {"_clear": 3, "_mul": 17 * 3, "_cd_conj": 6 * 3, "_bilinear": 3}


def test_para_check_takes_five_products_per_trial(monkeypatch):
    calls = counting(monkeypatch, vcp.CrossProduct, ("__call__",))
    e8 = [[int(i == k) for i in range(8)] for k in range(8)]
    for variant, trials in (("X1", 1), ("X2", 4)):
        cp3 = vcp.cross_3fold(AlgebraTag.B, variant)
        evaluations = []
        counted = replace(cp3, evaluator=lambda *v, _ev=cp3.evaluator: evaluations.append(v) or _ev(*v))
        vcp.verify_para_extension_identities(counted, e8[0], e8[4], trials)
        assert len(evaluations) == 8 + 5 * trials  # 8 build L
        assert not calls


@pytest.mark.parametrize("route", ["vcp_to_stable7", "vcp_to_stable6"])
def test_a_bridge_clears_the_complement_basis_once(route, monkeypatch):
    """The complement basis is cleared once per bridge call (``_complement``'s ``_numerators``),
    every product is the core on integer vectors (35 for vcp_to_stable7; 20 and the 6 columns
    of J_P for vcp_to_stable6), and no pair or ``CrossProduct.__call__`` is taken."""
    basis, clears, cores = set(), [], []

    def null(*args, _orig=vcp.nullspace, **kwargs):
        out = _orig(*args, **kwargs)
        basis.update(tuple(v) for v in out)
        return out

    def numerators(m, _orig=linalg._numerators):
        clears.extend(["basis"] * any(tuple(r) in basis for r in m))
        return _orig(m)

    def clear(*groups, _orig=linalg._clear):
        groups = [list(g) for g in groups]
        clears.extend(["vector"] * sum(tuple(g) in basis for g in groups))
        return _orig(*groups)

    monkeypatch.setattr(vcp, "nullspace", null)
    for module in (vcp, bridge):
        monkeypatch.setattr(module, "_numerators", numerators)
    for module in (linalg, vcp, bridge):
        monkeypatch.setattr(module, "_clear", clear)
    calls = counting(monkeypatch, vcp.CrossProduct, ("__call__",))
    pairs = counting(monkeypatch, exteralg.InnerProduct, ("pair",))
    third, fifth = Fraction(1, 3), Fraction(1, 5)  # a unit and a plane with rational entries
    if route == "vcp_to_stable7":
        cp3, vectors = vcp.cross_3fold(AlgebraTag.O, "X1"), [[3 * fifth, 0, 4 * fifth, 0, 0, 0, 0, 0]]
    else:
        cp3 = vcp.cross_3fold(AlgebraTag.B, "X2")
        vectors = [[5 * third, 0, 0, 0, 4 * third, 0, 0, 0], [4 * third, 0, 0, 0, 5 * third, 0, 0, 0]]
    counted = replace(cp3, evaluator=lambda *v, _ev=cp3.evaluator: cores.append(
        all(type(x) is int for u in v for x in u)) or _ev(*v))
    getattr(bridge, route)(counted, *vectors)
    assert basis and clears == ["basis"]
    assert cores == [True] * (35 if route == "vcp_to_stable7" else 26)
    assert not calls and not pairs


@pytest.mark.parametrize("fold", [2, 3])
def test_verify_axioms_clears_each_draw_once(fold, monkeypatch):
    """One ``_clear`` per trial takes all of its drawn vectors, and the product is evaluated
    on the integer numerators only."""
    drawn, cleared, evaluated = [], [], []

    def draw(*args, _orig=vcp._random_vector):
        drawn.append(_orig(*args))
        return drawn[-1]

    def clear(*groups, _orig=vcp._clear):
        hits = [g for g in groups if any(g is w for w in drawn)]
        if hits:
            cleared.append(hits if len(hits) == len(groups) else None)
        return _orig(*groups)

    monkeypatch.setattr(vcp, "_random_vector", draw)
    monkeypatch.setattr(vcp, "_clear", clear)
    cp = vcp.cross_2fold(AlgebraTag.O) if fold == 2 else vcp.cross_3fold(AlgebraTag.B, "X1")
    counted = replace(cp, evaluator=lambda *v, _ev=cp.evaluator: evaluated.append(
        all(type(x) is int for u in v for x in u)) or _ev(*v))
    assert vcp.verify_axioms(counted, 3, seed=2).passed
    assert [len(groups) for groups in cleared] == [fold] * 3
    assert [w for groups in cleared for w in groups] == drawn
    assert evaluated == [True] * 6  # each trial evaluates X and X with two arguments swapped


def test_classify_g2_on_a_memo_hit_takes_one_star(monkeypatch):
    """The torsion only: a fresh pair adds the *phi check of its derivation, and delta torsion
    is 0 by d o d = 0, not a codifferential."""
    cb, su3 = flat_bundle(), framecalc.standard_su3()
    counts = counting(monkeypatch, framecalc, ("hodge_star", "wedge", "bundle_orientation"))
    framecalc.classify_g2(cb, su3)
    assert counts["hodge_star"] == 2
    counts.clear()
    codifferentials = counting(monkeypatch, framecalc.FrameModel, ("codifferential",))
    framecalc.classify_g2(cb, su3)
    assert counts["hodge_star"] == 1 and counts["wedge"] <= 3 and not counts["bundle_orientation"]
    assert not codifferentials


def test_bundle_orientation_runs_once_per_derivation(monkeypatch):
    counts = counting(monkeypatch, framecalc, ("bundle_orientation",))
    cb, su3 = flat_bundle(alt_form(6, 2, {})), framecalc.standard_su3()  # F = 0 suits both triples
    for call in (framecalc.classify_g2, framecalc.build_g2, framecalc.nabla_phi, framecalc.classify_g2):
        call(cb, su3)
    framecalc.build_g2(cb, iwasawa_su3())
    assert counts == {"bundle_orientation": 2}


def test_omega_squared_is_wedged_once_per_su3(monkeypatch):
    """omega ^ omega is wedged once per SU3Data: its omega^3 check, the special-balanced
    check, the orientation and every classify_g2 read that one 4-form."""
    squares = []

    def counting(a, b, _orig=framecalc.wedge):
        if a is b:
            squares.append(a)
        return _orig(a, b)

    monkeypatch.setattr(framecalc, "wedge", counting)
    cb, su3 = flat_bundle(), framecalc.standard_su3()
    for call in (framecalc.classify_g2, framecalc.nabla_phi, framecalc.classify_g2):
        call(cb, su3)
    assert squares == [su3.omega]


def exercise_algebras():
    """Every compalg and vcp route that multiplies, on every tag."""
    for tag in AlgebraTag:
        x, y = compalg.basis_element(tag, 1), compalg.basis_element(tag, tag.dim - 1)
        compalg.multiply(x, y)
        compalg.multiplication_table(tag)
        compalg.verify_identities(tag, 2, seed=3)
    for tag in (AlgebraTag.O, AlgebraTag.B):
        vcp.verify_axioms(vcp.cross_2fold(tag), 2, seed=3)
        for variant in ("X1", "X2"):
            vcp.verify_axioms(vcp.cross_3fold(tag, variant), 2, seed=3)


def test_doubling_recursion_runs_only_to_build_the_tables(monkeypatch):
    build = compalg._table.__wrapped__.__code__
    outside, from_build = [], Counter()

    def counting(x, y, signs, _orig=compalg._cd_mul):
        frame, callers = sys._getframe(1), []
        while frame is not None:
            callers.append(frame.f_code)
            frame = frame.f_back
        if build not in callers:
            outside.append(signs)
        elif callers[0] is build:
            from_build[signs] += 1
        return _orig(x, y, signs)

    monkeypatch.setattr(compalg, "_cd_mul", counting)
    compalg._table.cache_clear()
    exercise_algebras()
    # one build per tag: one product of unit vectors per table entry
    assert from_build == {tag.doubling_signs: tag.dim ** 2 for tag in AlgebraTag}
    assert compalg._table.cache_info().misses == len(AlgebraTag)
    assert not outside
    # afterwards the products, tables, verifiers and 3-fold evaluations never recurse
    from_build.clear()
    exercise_algebras()
    assert not from_build and not outside


def test_no_table_is_built_at_import():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import stableforms.cli, stableforms.compalg as c; print(c._table.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# A matrix applied to many vectors is cleared once: a LinearMap keeps its cleared
# rows for every apply and pullback, a product read off a form keeps its G^-1, and
# an InnerProduct keeps the map that raises forms for its Hodge stars and inner
# products of forms.

@pytest.fixture
def cleared(monkeypatch) -> Counter:
    """Matrices cleared by ``linalg._numerators`` for ``linalg._apply``, by row count: the
    names ``exteralg`` and ``vcp`` hold, not ``linalg``'s own, which ``_sparse`` also calls."""
    counts = Counter()

    def counting(a, _orig=linalg._numerators):
        counts[len(a)] += 1
        return _orig(a)
    for module in (exteralg, vcp):
        monkeypatch.setattr(module, "_numerators", counting)
    return counts


def test_a_linear_map_clears_its_matrix_once(cleared):
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)] for _ in range(8)]
    vectors = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)] for _ in range(5)]
    expected = [linalg.mat_vec(rows, v) for v in vectors]
    cleared.clear()
    g = LinearMap.from_rows(rows)
    assert [g.apply(v) for v in vectors] == expected
    pullback(g, alt_form(8, 2, {(1, 2): 1, (3, 8): Fraction(-2, 3)}))
    assert cleared == {8: 1}


def test_a_para_check_clears_its_l_once(cleared):
    """L's integer rows are applied 30 times in 6 trials and give its eigenspace ranks; L is
    cleared once."""
    e8 = [[int(i == k) for i in range(8)] for k in range(8)]
    assert vcp.verify_para_extension_identities(vcp.cross_3fold(AlgebraTag.B, "X1"), e8[0], e8[4], 6).passed
    assert cleared == {8: 1}


@pytest.mark.parametrize("build,n", [
    (lambda: stable7.cross_from_phi(fresh(PHI_MINUS), VOL7), 7),
    (lambda: bridge.lift_to_3fold(fresh(PHI_MINUS), VOL7, "X2"), 8),
], ids=["cross_from_phi", "lift_to_3fold"])
def test_a_product_from_a_form_clears_its_inverse_gram_once(build, n, cleared):
    product = build()
    basis = [[Fraction(int(i == k), k + 1) for i in range(n)] for k in range(n)]
    for k in range(4):
        product(*(basis[(k + j) % n] for j in range(product.fold)))
    assert cleared[n] == 1


def test_an_inner_product_builds_its_raising_map_once(cleared, monkeypatch):
    ip = exteralg.InnerProduct.diagonal([1, -1, 1, 1, -1, 1, 1])
    counts = counting(monkeypatch, LinearMap, ("from_rows",))
    for _ in range(3):
        exteralg.hodge_star(PHI_MINUS, ip, VOL7)
        exteralg.form_inner(PHI_MINUS, PHI_PLUS, ip)
    assert counts == {"from_rows": 1} and cleared == {7: 1}


def test_a_frame_model_clears_each_inverse_gram_once(cleared):
    """The construct frame.g2 operation raises forms on the base and on the total space."""
    frame_g2(F_PRIMITIVE)
    assert cleared == {6: 1, 7: 1}
