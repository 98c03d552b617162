"""Exact dense linear algebra over the rationals, on one integer kernel.

Matrices are sequences of rows with int or Fraction entries.  ``_clear`` is
the one type gate: every kernel clears its rows through it, and it raises
TypeError on any other entry (a float, a quadratic irrational), so none
reaches an integer division.  Rows are cleared to integers, and three
fraction-free eliminations do all the work:

* ``rref``, the one Gauss-Jordan loop, under ``nullspace`` and ``inverse``;
* ``_bareiss``, the one Gaussian elimination, under ``rank``, every ``det``
  and the larger minors of ``exteralg.AltForm.__call__``;
* ``_inertia_det``, its symmetric variant with diagonal pivots, which reads
  the signature of a symmetric matrix off the signs of its pivots and its
  determinant off the last one (``inertia`` returns the signature).

``det`` returns an int on int entries and a Fraction on other rational ones;
``rref``, ``nullspace`` and ``inverse`` return Fractions.  ``_clear`` (integer
numerators over one common denominator) and ``_pair`` (a bilinear form
summed over its nonzero coefficients only) are the integer kernel of
``exteralg``, ``compalg`` and ``mat_mul``, so every kernel on it takes rational
values only.  A matrix applied many times is cleared once (``_numerators``)
and each ``_apply`` clears only its vector, as ``mat_vec`` does once.  This
module is exact only, with no float conversion or float function (a hygiene
test checks it).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = list


def transpose(m) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a, b) -> Matrix:
    """a b, one sum of products per entry: the rows of a and columns of b are cleared
    first, so the sums run on ints, and each entry is built as one Fraction."""
    n = len(a)
    cleared, dens = _clear(*a, *transpose(b))
    prod = [[sum(map(operator.mul, row, col)) for col in cleared[n:]] for row in cleared[:n]]
    return [[Fraction(x, dr * dc) for x, dc in zip(row, dens[n:])] for row, dr in zip(prod, dens[:n])]


def _apply(m: tuple, v) -> list:
    """a v for m = ``_numerators(a)``, clearing only v: the sums run on ints and each
    entry is one Fraction."""
    rows, den = m
    (cv,), (dv,) = _clear(v)
    return [Fraction(sum(map(operator.mul, row, cv)), den * dv) for row in rows]


def mat_vec(a, v) -> list:
    """a v, one ``_apply`` of a cleared for this product alone."""
    return _apply(_numerators(a), v)


def rref(m) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The rows are cleared to coprime integers for fraction-free Gauss-Jordan
    elimination (Bareiss 1968; Nakos, Turner and Williams 1997): at pivot p
    every other row becomes (p * row - row[c] * pivot_row) // previous pivot,
    exact since its entries are then minors, so the rows end as d times the
    reduced form, d the last pivot.
    """
    a = [ints for ints, _, _ in map(_integer_row, m)]
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p, top = a[r][c], a[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if r + 1 == nrows:
            break
    return [[Fraction(x, prev) if x else Fraction(0) for x in row] for row in a], pivots


def _clear(*groups: Iterable) -> tuple[list[list], list[int]]:
    """Each group of values as integer numerators over the lcm of its denominators.

    Returns the numerator lists and those lcms; TypeError unless every value is
    an int or a Fraction (the values that have a ``denominator``).
    """
    groups = [list(g) for g in groups]
    try:
        dens = [math.lcm(*[x.denominator for x in g]) for g in groups]
    except AttributeError:
        bad = next(x for g in groups for x in g if not hasattr(x, "denominator"))
        raise TypeError(f"expected int or Fraction values, got {type(bad).__name__}") from None
    return [[x.numerator * (d // x.denominator) for x in g] for g, d in zip(groups, dens)], dens


def _numerators(m) -> tuple[list[list[int]], int]:
    """A rational matrix as integer rows over one common denominator."""
    (nums,), (den,) = _clear(x for row in m for x in row)
    w = len(nums) // max(len(m), 1)
    return [nums[w * i:w * i + w] for i in range(len(m))], den


def _sparse(m) -> tuple[tuple, int]:
    """The nonzero entries (i, j, c) of a square rational matrix, each c an
    integer numerator over the common denominator returned with them."""
    rows, den = _numerators(m)
    return tuple((i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row) if c), den


def _bilinear(entries: tuple, u: Sequence, v: Sequence):
    """sum c u_i v_j over the entries (i, j, c), with no clearing or denominators."""
    return sum(c * u[i] * v[j] for i, j, c in entries)


def _pair(form: tuple, u: Sequence, v: Sequence) -> Fraction:
    """u^T M v for ``form = _sparse(M)``, summed over the nonzero entries of M only:
    one sum of integer products, one Fraction."""
    entries, den = form
    (cu, cv), dens = _clear(u, v)
    return Fraction(_bilinear(entries, cu, cv), den * dens[0] * dens[1])


def _integer_row(row) -> tuple[list[int], int, int]:
    """(ints, g, scale) with row = ints * g / scale, ints coprime: ``_clear``'s numerators and
    lcm scale, over their gcd g (``_clear`` raises the TypeError on a non-rational entry)."""
    (ints,), (scale,) = _clear(row)
    g = math.gcd(*ints)
    return ([x // g for x in ints] if g > 1 else ints), g, scale


def _bareiss(rows: list, det: bool = False):
    """Rank of an int matrix, or with det=True the determinant of a square one.

    It takes int rows, as ``_integer_row`` and ``_numerators`` give them: every
    caller clears its rows first, so the type gate is ``_clear``'s.
    Fraction-free elimination (Bareiss 1968): after a pivot p in the leading
    column, every other row becomes (p * row - row[0] * pivot_row) // previous
    pivot, exact as its entries are then minors (Sylvester's identity).
    Vanishing rows are dropped and pivot-free columns skipped (with det=True
    such a column gives 0); at full rank the last pivot, signed by the row
    order, is the determinant.
    """
    n, r, prev, sign = len(rows), 0, 1, 1
    rows = [row for row in rows if any(row)]
    while rows:
        for i, row in enumerate(rows):
            if row[0]:
                break
        else:  # no pivot in this column: every row is nonzero further right
            if det:
                return 0
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(i)
        sign = -sign if i & 1 else sign  # moving row i to the front takes i transpositions
        p, tail = pivot[0], pivot[1:]
        updated = ([(p * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in rows)
        rows = [new for new in updated if any(new)]
        prev, r = p, r + 1
    return (sign * prev if r == n else 0) if det else r


def rank(m) -> int:
    """Rank of a matrix with int or Fraction entries."""
    return _bareiss([ints for ints, _, _ in map(_integer_row, m)])


def nullspace(m, ncols: int | None = None) -> list[list]:
    """Basis of the right nullspace, one vector per free column."""
    if not m:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)] for j in range(ncols)] if ncols else []
    ncols = len(m[0]) if ncols is None else ncols
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def inverse(a) -> Matrix:
    """Exact inverse, ValueError on a singular matrix: the rows are cleared,
    row_i = ints_i * g_i / scale_i, and ``rref`` takes [ints | diag(scale)] to
    [I | ints^-1 diag(scale)], so that no common factor g_i of a row enters the
    elimination; column j of the right half over g_j is column j of a^-1."""
    n = len(a)
    rows = [_integer_row(row) for row in a]
    red, pivots = rref([ints + [scale * (i == j) for j in range(n)]
                        for i, (ints, _, scale) in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[x / g if g != 1 else x for x, (_, g, _) in zip(row[n:], rows)] for row in red]


def det(a):
    """Exact determinant: an int on int entries, a Fraction on other rational ones.

    The rows are cleared, row_i = ints_i * g_i / scale_i, for ``_bareiss``.
    """
    cleared = [_integer_row(row) for row in a]
    num = _bareiss([ints for ints, _, _ in cleared], det=True) * math.prod(g for _, g, _ in cleared)
    den = math.prod(scale for _, _, scale in cleared)
    ints = den == 1 and all(isinstance(x, int) for row in a for x in row)
    return num if ints else Fraction(num, den)


def inertia(sym) -> tuple[int, int, int]:
    """Signature (n_pos, n_neg, n_zero) of a rational symmetric matrix (``_inertia_det``)."""
    return _inertia_det(sym)[0]


def _inertia_det(sym) -> tuple[tuple[int, int, int], Fraction]:
    """The signature (n_pos, n_neg, n_zero) and the determinant of a rational
    symmetric matrix, from one elimination.

    The entries are cleared to integers over one positive denominator, and
    their content (gcd) divided out, for a symmetric fraction-free
    elimination (Bareiss 1968) with diagonal pivots: after a pivot p every
    other entry becomes (p a_ij - a_ik a_kj) // previous pivot, exact as the
    entries are then principal-bordered minors.  The Gaussian pivot is p over
    the previous one, so p counts as positive when its sign is the previous
    pivot's (Jacobi).  When every remaining diagonal entry is zero but an
    off-diagonal one is not, a row+column addition creates a usable pivot
    (the standard hyperbolic-block trick); it is a congruence of the original
    matrix by a unimodular one, so the divisions stay exact and the
    determinant is kept.  At full rank the last pivot is therefore the
    determinant of the cleared matrix, and times (content / denominator)^n
    that of sym; with a null direction it is 0.  TypeError unless
    int/Fraction.
    """
    n = len(sym)
    ints, content, scale = _integer_row([x for row in sym for x in row])
    a = [ints[i * n:(i + 1) * n] for i in range(n)]
    pos = neg = 0
    prev = 1
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(a) for j in range(i + 1, len(row)) if row[j]),
                        None)
            if pair is None:
                break
            i, j = pair
            # congruence by (row_i += row_j, col_i += col_j): the diagonal gains 2 a_ij
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            continue
        p, top = a[k][k], a.pop(k)
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        a = [[(p * x - row[k] * y) // prev for c, (x, y) in enumerate(zip(row, top)) if c != k]
             for row in a]
        prev = p
    zero = n - pos - neg
    return (pos, neg, zero), Fraction(0) if zero else Fraction(prev * content ** n, scale ** n)
