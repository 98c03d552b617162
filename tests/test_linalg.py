"""Differential tests: the fraction-free ``rank`` against the rank of ``rref``.

``rref`` is the field Gauss-Jordan routine that ``rank`` used to call; the
number of its pivot columns is the reference rank for every input below.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G6
from stableforms import stable6
from stableforms.cli import parse_form_document
from stableforms.exteralg import pullback
from stableforms.linalg import mat_mul, rank, rref
from stableforms.scalars import QuadExt
from stableforms.stable6 import canonical_omega_minus, canonical_omega_plus
from test_cli_golden import DOCS


def reference_rank(m) -> int:
    return len(rref(m)[1])


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
def test_golden_stabilizer_systems(name, scale, monkeypatch):
    """The rows that ``stabilizer_dim`` hands to ``rank``, at normal and tall scale."""
    systems = []
    monkeypatch.setattr(stable6, "rank", lambda rows: systems.append(rows) or rank(rows))
    stable6.stabilizer_dim(scale * GOLDEN_FORMS[name])
    assert rank(systems[0]) == reference_rank(systems[0])


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
