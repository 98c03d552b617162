"""Differential tests of the fraction-free eliminations, ``linalg._bareiss`` and ``rref``.

* ``rank`` against the number of pivot columns of ``ref_rref``, the
  Gauss-Jordan loop over Fractions that ``rref`` ran before it became
  fraction-free (and that ``rank`` used to call).
* ``rref`` and ``nullspace`` against ``ref_rref``, entry for entry and type
  for type, on seeded matrices with zero rows and columns, dependent rows,
  int entries and rows scaled by 10^e (|e| <= 200).
* ``det`` against a plain-``Fraction`` Gauss loop kept below and against
  ``sympy.Matrix.det``, on seeded int and Fraction matrices with rows scaled
  by 10^e (|e| <= 200), zero rows, pivot-free columns and singular
  low-rank products; hypothesis checks det(AB) = det(A) det(B) and
  det(cA) = c^n det(A).
* The exact ``det`` fixes: int entries give an int, never a float.
* The eliminations take int and Fraction entries only: ``rank``, ``det``,
  ``inverse``, ``rref``, ``nullspace`` and ``inertia`` raise ``_clear``'s one
  TypeError on a QuadExt or a float entry, so neither reaches an integer
  division.
* ``rref``, ``inverse`` and ``inertia`` on int entries are exact: Fractions,
  never floats, and the exact signature where float elimination misread it.
* ``_clear``, which tells rational values by their ``denominator``, clears
  int and Fraction groups, and raises a TypeError that names the type on a
  float group, a QuadExt group and a rational group next to a float one.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G6, stabilizer_rows
from stableforms import stable6
from stableforms.cli import parse_form_document
from stableforms.exteralg import InnerProduct, LinearMap, basis_form, pullback
from stableforms.linalg import _clear, det, inertia, inverse, mat_mul, nullspace, rank, rref
from stableforms.scalars import QuadExt
from stableforms.stable6 import canonical_omega_minus, canonical_omega_plus
from test_cli_golden import DOCS


def ref_rref(m) -> tuple[list, list[int]]:
    """``linalg.rref`` before the fraction-free path: Gauss-Jordan over Fractions."""
    a = [[Fraction(x) if type(x) is int else x for x in row] for row in m]
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def reference_rank(m) -> int:
    return len(ref_rref(m)[1])


def random_matrix(rng: random.Random, nrows: int, ncols: int, span: int = 4) -> list:
    return [[Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(ncols)]
            for _ in range(nrows)]


def seeded_matrices():
    """Random rational matrices with zero rows, duplicate rows and low-rank products."""
    rng = random.Random(20260)
    cases = [[], [[]], [[], []], [[Fraction(0)] * 5] * 3, [[0, 0], [0, 1]], [[1, 2], [2, 4]]]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        m = random_matrix(rng, nrows, ncols)
        if rng.random() < 0.3:
            m[rng.randrange(nrows)] = [Fraction(0)] * ncols
        if nrows > 1 and rng.random() < 0.3:
            m[rng.randrange(nrows)] = list(m[rng.randrange(nrows)])
        if rng.random() < 0.3:  # a zero column
            c = rng.randrange(ncols)
            for row in m:
                row[c] = Fraction(0)
        cases.append(m)
    for _ in range(30):
        nrows, inner, ncols = rng.randint(1, 10), rng.randint(1, 4), rng.randint(1, 10)
        cases.append(mat_mul(random_matrix(rng, nrows, inner), random_matrix(rng, inner, ncols)))
    return cases


@pytest.mark.parametrize("m", seeded_matrices())
def test_rank_matches_rref(m):
    assert rank(m) == reference_rank(m)


def rref_cases():
    """``seeded_matrices``, then each again with int entries or with rows times 10^e, |e| <= 200."""
    rng = random.Random(1997)
    cases = seeded_matrices()
    for k, m in enumerate(seeded_matrices()):
        if k % 2:
            cases.append([[x.numerator for x in row] for row in m])
        else:
            factors = [Fraction(10) ** (rng.choice((1, -1)) * rng.randint(0, 200)) for _ in m]
            cases.append([[f * x for x in row] for f, row in zip(factors, m)])
    return cases


@pytest.mark.parametrize("m", rref_cases())
def test_rref_and_nullspace_match_fraction_gauss_jordan(m):
    red, pivots = rref(m)
    expected, expected_pivots = ref_rref(m)
    assert pivots == expected_pivots
    assert red == expected
    assert all(type(x) is Fraction for row in red for x in row)
    ncols = len(m[0]) if m else 0
    basis = []
    for f in (c for c in range(ncols) if c not in expected_pivots):
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for r, c in enumerate(expected_pivots):
            v[c] = -expected[r][f]
        basis.append(v)
    got = nullspace(m, ncols)
    assert got == basis
    assert all(type(x) is Fraction for v in got for x in v)


def test_int_entries():
    rng = random.Random(7)
    for _ in range(20):
        m = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
        assert rank(m) == reference_rank([[Fraction(x) for x in row] for row in m])


@pytest.mark.parametrize("seed", range(8))
def test_rows_scaled_by_powers_of_ten(seed):
    """Scaling rows by 10^e or 10^-e, e in 0..200, changes neither rank."""
    rng = random.Random(seed)
    inner = rng.randint(1, 6)
    base = mat_mul(random_matrix(rng, 8, inner), random_matrix(rng, inner, 9))
    factors = [Fraction(10) ** (rng.choice((1, -1)) * rng.randint(0, 200)) for _ in base]
    scaled = [[f * x for x in row] for f, row in zip(factors, base)]
    assert rank(scaled) == reference_rank(scaled) == reference_rank(base) == rank(base)


GOLDEN_FORMS = {name: parse_form_document(doc) for name, doc in DOCS.items()
                if doc.get("degree") == 3 and doc["dim"] in (6, 7) and name != "malformed"}


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(10 ** 40 + 1, 3)], ids=["normal", "tall"])
@pytest.mark.parametrize("name", sorted(GOLDEN_FORMS))
def test_golden_stabilizer_systems(name, scale):
    """The stabilizer system of each golden form, at normal and tall scale: ``rank``
    agrees with the reference, and ``stabilizer_dim`` (which builds no system) agrees
    with n^2 minus that rank."""
    form = scale * GOLDEN_FORMS[name]
    rows = stabilizer_rows(form)
    assert rank(rows) == reference_rank(rows)
    assert stable6.stabilizer_dim(form) == form.dim ** 2 - rank(rows)


def test_non_rational_entries_rejected():
    with pytest.raises(TypeError):
        rank([[QuadExt.of(1, 2), QuadExt.of(0, 2)]])
    with pytest.raises(TypeError):
        rank([[Fraction(1), 0.5]])


OMEGAS = [pullback(G6, canonical_omega_plus()), pullback(G6, canonical_omega_minus())]
BIG = 10 ** 200


@settings(max_examples=30, deadline=None)
@given(omega=st.sampled_from(OMEGAS),
       p=st.integers(-BIG, BIG).filter(bool), q=st.integers(1, BIG))
def test_stabilizer_dim_scale_invariant(omega, p, q):
    assert stable6.stabilizer_dim(Fraction(p, q) * omega) == stable6.stabilizer_dim(omega) == 16


# -- det ---------------------------------------------------------------------

def reference_det(m) -> Fraction:
    """Gaussian elimination with row pivoting over plain Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n, d = len(a), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def seeded_square_matrices():
    """(kind, matrix): int or Fraction entries, rows times 10^e, degenerate shapes."""
    rng = random.Random(1968)
    cases = [("int", m) for m in ([], [[0]], [[-5]], [[0, 0], [0, 1]], [[1, 2], [2, 4]],
                                  [[0, 1], [1, 0]], [[0, 1, 2], [0, 3, 4], [5, 6, 7]],
                                  [[1, 2, 3], [2, 4, 7], [1, 1, 1]])]
    for t in range(80):
        n = rng.randint(1, 8)
        kind = ("int", "fraction")[t % 2]
        if t % 4 < 2:
            m = random_matrix(rng, n, n)
        else:  # singular low-rank product
            inner = rng.randint(1, max(1, n - 1))
            m = mat_mul(random_matrix(rng, n, inner), random_matrix(rng, inner, n))
        if kind == "int":
            m = [[x.numerator for x in row] for row in m]
        if rng.random() < 0.2:
            m[rng.randrange(n)] = [0 if kind == "int" else Fraction(0)] * n
        if n > 1 and rng.random() < 0.3:  # a later column copies an earlier one: no pivot left
            j, c = sorted(rng.sample(range(n), 2))
            for row in m:
                row[c] = row[j]
        if rng.random() < 0.5:
            exps = [rng.randint(0, 200) for _ in range(n)]
            if kind == "int":
                m = [[x * 10 ** e for x in row] for row, e in zip(m, exps)]
            else:
                m = [[x * Fraction(10) ** (rng.choice((1, -1)) * e) for x in row]
                     for row, e in zip(m, exps)]
        cases.append((kind, m))
    return cases


SQUARE = seeded_square_matrices()


@pytest.mark.parametrize("kind,m", SQUARE)
def test_det_matches_fraction_gauss(kind, m):
    d = det(m)
    assert d == reference_det(m)
    assert type(d) is (int if kind == "int" else Fraction)


@pytest.mark.parametrize("kind,m", SQUARE[:40:3])
def test_det_matches_sympy(kind, m):
    expected = sympy.Matrix(len(m), len(m), [sympy.Rational(x.numerator, x.denominator)
                                             for row in m for x in row]).det() if m else 1
    assert det(m) == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))


@pytest.mark.parametrize("bad", [QuadExt.of(1, 2), QuadExt.root(Fraction(-3)), 0.5, 2.0],
                         ids=["quadext-rational", "quadext", "float", "integral-float"])
@pytest.mark.parametrize("op", [rank, det, inverse, rref, nullspace, inertia])
def test_eliminations_reject_non_rational_entries(op, bad):
    m = [[Fraction(2), 1, Fraction(1, 3)], [0, 1, 5], [1, bad, Fraction(-7, 2)]]
    with pytest.raises(TypeError, match=f"^expected int or Fraction values, got {type(bad).__name__}$"):
        op(m)


entry = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=12))


def square(n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_det_is_multiplicative(data, n):
    a, b = data.draw(square(n)), data.draw(square(n))
    assert det(mat_mul(a, b)) == det(a) * det(b)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), e=st.integers(-200, 200), c=entry.filter(bool))
def test_det_is_homogeneous(data, n, e, c):
    a = data.draw(square(n))
    c = c * Fraction(10) ** e
    assert det([[c * x for x in row] for row in a]) == c ** n * det(a)


def test_alt_form_evaluates_exactly_on_int_vectors():
    value = basis_form(3, 1, 2, 3)([3, 1, 0], [1, 2, 0], [0, 0, 7])
    assert value == 35 and not isinstance(value, float)


def test_linear_map_det_of_int_rows_is_int():
    d = LinearMap(2, 2, ((2, 1), (1, 1))).det()
    assert d == 1 and type(d) is int


def test_degenerate_int_gram_rejected():
    """The exact det is 0; the float elimination read 1.99e-12 and accepted it."""
    with pytest.raises(ValueError, match="inner product is degenerate"):
        InnerProduct(3, ((24, -65, -5), (-65, -11, -6), (-5, -6, -1)))


def test_inverse_gram_of_int_rows_is_exact():
    inv = InnerProduct(2, ((2, 1), (1, 1))).inverse_gram()
    assert inv == [[1, -1], [-1, 2]]
    assert all(type(x) is Fraction for row in inv for x in row)


def test_rref_of_int_rows_is_exact():
    red, pivots = rref([[3, 1], [1, 2]])
    assert (red, pivots) == ([[1, 0], [0, 1]], [0, 1])
    assert all(type(x) is Fraction for row in red for x in row)
    red, _ = rref([[2, 4, 1], [1, 3, 5]])
    assert red == [[1, 0, Fraction(-17, 2)], [0, 1, Fraction(9, 2)]]


def test_inertia_of_int_rows_is_exact():
    """Float elimination read (1, 2, 0); the matrix is singular of signature (1, 1)."""
    sym = [[24, -65, -5], [-65, -11, -6], [-5, -6, -1]]
    assert inertia(sym) == (1, 1, 1)
    assert inertia([[Fraction(x) for x in row] for row in sym]) == (1, 1, 1)
    # the hyperbolic pivot: every diagonal entry zero, an off-diagonal one not
    assert inertia([[0, 2, 0], [2, 0, 0], [0, 0, 0]]) == (1, 1, 1)


def test_clear_reads_the_denominators():
    assert _clear([Fraction(1, 2), 3], [Fraction(-2, 3), True]) == ([[1, 6], [-2, 3]], [2, 3])
    assert _clear([], [7]) == ([[], [7]], [1, 1])


@pytest.mark.parametrize("groups", [
    ([0.5, 2.0],),
    ([QuadExt.of(1, 2), QuadExt.root(Fraction(2))],),
    ([Fraction(1, 3), 2], [Fraction(5, 7), 0.25]),
], ids=["float", "quadext", "rational and float"])
def test_clear_rejects_other_values(groups):
    """A float or a quadratic irrational, alone or after rational values, raises a TypeError
    that names its type."""
    name = type(groups[-1][-1]).__name__
    with pytest.raises(TypeError, match=f"expected int or Fraction values, got {name}$"):
        _clear(*(iter(g) for g in groups))
