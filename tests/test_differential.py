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
"""

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import iwasawa_su3
from stableforms import framecalc as fc
from stableforms.cli import form_to_document
from stableforms.exteralg import (InnerProduct, VolumeForm, alt_form, basis_form, form_inner,
                                  hodge_star, wedge)

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


if __name__ == "__main__":
    json.dump({name: nabla_documents(name) for name in sorted(IWASAWA_F)}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
