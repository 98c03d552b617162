import itertools
import random
from fractions import Fraction

import pytest

from stableforms.exteralg import AltForm, LinearMap, alt_form
from stableforms.framecalc import SU3Data

PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]
# fixed integer bases (det -2 and -6) for pulled-back canonical forms
G6 = LinearMap.from_rows([[1, 2, 0, 0, 1, 0], [0, 1, 0, 1, 0, 0], [1, 0, 1, 0, 0, 2],
                          [0, 0, 1, 1, 0, 0], [2, 0, 0, 0, 1, 1], [0, 1, 0, 0, 0, 1]])
G7 = LinearMap.from_rows([[1, 0, 2, 0, 0, 1, 0], [0, 1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 0, 1],
                          [0, 2, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0, 1], [1, 0, 0, 0, 0, 1, 0],
                          [0, 0, 1, 0, 0, 0, 1]])


def iwasawa_su3() -> SU3Data:
    """Adapted triple on the Iwasawa frame: pairs (1,2), (3,4), (5,6)."""
    return SU3Data(
        omega=alt_form(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1}),
        Omega1=alt_form(6, 3, {(1, 3, 5): 1, (2, 4, 5): -1, (1, 4, 6): -1, (2, 3, 6): -1}),
        Omega2=alt_form(6, 3, {(1, 3, 6): 1, (1, 4, 5): 1, (2, 3, 5): 1, (2, 4, 6): -1}),
    )


def random_invertible(rng: random.Random, n: int, span: int = 3) -> LinearMap:
    while True:
        g = LinearMap.from_rows([[rng.randint(-span, span) for _ in range(n)] for _ in range(n)])
        if g.det() != 0:
            return g


def rational_rotation(rng: random.Random, n: int, steps: int = 8) -> LinearMap:
    """Product of Givens rotations with Pythagorean cosines: exactly orthogonal."""
    g = LinearMap.diagonal([1] * n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
        co, si = Fraction(a, c), Fraction(b, c)
        rows = [[Fraction(1 if r == s else 0) for s in range(n)] for r in range(n)]
        rows[i][i], rows[i][j], rows[j][i], rows[j][j] = co, -si, si, co
        g = g.compose(LinearMap.from_rows(rows))
    return g


def tall_invertible(rng: random.Random, n: int) -> LinearMap:
    """g with entries m 10^e, m in [-3, 3] and |e| <= 200, det g != 0."""
    while True:
        g = LinearMap.from_rows([[rng.randint(-3, 3) * Fraction(10) ** rng.randint(-200, 200)
                                  for _ in range(n)] for _ in range(n)])
        if g.det() != 0:
            return g


def stabilizer_rows(form) -> list[list[Fraction]]:
    """The C(n,3) x n^2 system whose nullspace is the stabilizer algebra of a 3-form:
    row (i, j, k) is sum over slots of form(.., A e_slot, ..) in the entries of A."""
    n = form.dim
    rows = []
    for (i, j, k) in itertools.combinations(range(1, n + 1), 3):
        row = [Fraction(0)] * (n * n)
        for p in range(1, n + 1):
            # A e_i contributes a_{p i} * form(e_p, e_j, e_k), etc.
            row[(p - 1) * n + (i - 1)] += form.coeff((p, j, k))
            row[(p - 1) * n + (j - 1)] += form.coeff((i, p, k))
            row[(p - 1) * n + (k - 1)] += form.coeff((i, j, p))
        rows.append(row)
    return rows


# the field-arithmetic determinant and pullback that the integer kernels replaced: the
# references of the differential tests, and the round trips of QuadExt bases

def ref_det(m):
    """Gaussian elimination with field division; int entries become Fractions first."""
    m = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in m]
    n, d = len(m), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d = d * m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def ref_pullback(g, a):
    n, p = a.dim, a.degree
    if p == 0:
        return a
    out: dict = {}
    for jdx in itertools.combinations(range(1, n + 1), p):
        total = Fraction(0)
        for idx, c in a.terms.items():
            d = ref_det([[g.matrix[i - 1][j - 1] for j in jdx] for i in idx])
            if d != 0:
                total = total + c * d
        if total != 0:
            out[jdx] = total
    return AltForm(n, p, out)


def random_three_form(rng: random.Random, dim: int, span: int = 3, nterms: int = 8):
    idxs = list(itertools.combinations(range(1, dim + 1), 3))
    picked = rng.sample(idxs, min(nterms, len(idxs)))
    return alt_form(dim, 3, {i: Fraction(rng.randint(-span, span)) for i in picked})


@pytest.fixture
def rng():
    return random.Random(20240817)
