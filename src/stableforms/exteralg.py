"""Exact exterior algebra over R^n for n <= 8.

Conventions fixed here and inherited by every other module:

* Basis covectors are 1-indexed; a multi-index is a strictly increasing
  tuple of integers in 1..n.
* Contraction uses the antiderivation sign
  ``i_v(e^{i1} ^ ... ^ e^{ip}) = sum_k (-1)^(k-1) v^{ik} e^{...no ik...}``.
* The Hodge star is defined by ``b ^ *a = <b, a> vol`` for every b of the
  same degree as a, where <.,.> is the inner product induced on forms by the
  (possibly indefinite) inner product on vectors.  The caller's volume form
  carries the orientation choice.

Coefficients are Fractions (ints are accepted as input).  ``wedge``,
``contract`` and ``pullback`` (hence ``hodge_star``) are integer-cleared:
each operand is written as integer numerators over one common denominator
(the lcm of its denominators), the loops multiply and add Python ints only,
and each output term becomes one ``Fraction``.  The wedge merge sign comes
from the bitmap representation of multi-indices (bit i-1 for index i;
Dorst, Fontijne and Mann, *Geometric Algebra for Computer Science*, ch.
19).  A ``LinearMap`` clears its matrix once.  A pullback by a monomial map
(one nonzero entry per row at most, as the G^-1 that ``hodge_star`` and
``form_inner`` raise by, built once per ``InnerProduct``) sends each term to
one signed term, with no minor; any other map is expanded along the last
index of each term (``_laplace``), at every degree.  ``contract``'s integer
loop (``_interior``) is also the contraction of the cross products read off
a form (``vcp._product_from_form``).  Every kernel here takes int and
Fraction values only: a float or a quadratic irrational raises TypeError in
``linalg._clear``.  ``_minor`` alone stays type-agnostic up to 3 x 3, for
the float residual of ``stable7``.
``AltForm.__call__`` clears its coefficients and vectors once.
``_interior_wedges`` clears a form once into a dense integer vector and
reads every i_{e_j} a and i_{e_j} a ^ a, as integer dicts keyed by bitmask,
off a signed index table of the nonzero term pairs, one per (n, p) and
process (``_interior_table``): the one kernel of K (``stable6``) and B
(``stable7``); ``stable6.stabilizer_dim`` reads the orbit off the ranks of
both.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import (_apply, _bareiss, _clear, _integer_row, _numerators, _pair, _sparse, inertia, mat_mul,
                     nullspace)
from .linalg import det as _det
from .linalg import inverse as _inverse
from .scalars import _Record, rat

MAX_DIM = 8

Index = tuple[int, ...]


class PreconditionError(ValueError):
    """A model fails a structural precondition (reported, never ignored).

    framecalc raises it; it lives here so that the CLI catches it without
    running framecalc."""


# every sorted multi-index on R^MAX_DIM and its bitmask
_MASK = {idx: sum(1 << (i - 1) for i in idx)
         for p in range(MAX_DIM + 1) for idx in itertools.combinations(range(1, MAX_DIM + 1), p)}
_INDEX = {m: idx for idx, m in _MASK.items()}


def sort_index(idx: Sequence[int]) -> tuple[Index, int]:
    """Sorted multi-index and permutation sign; sign 0 on repeated entries."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return idx, 0
    inversions = sum([a > b for a, b in itertools.combinations(idx, 2)])
    return tuple(sorted(idx)), -1 if inversions & 1 else 1


class AltForm(_Record):
    """Alternating p-form with exact coefficients on sorted multi-indices."""

    dim: int
    degree: int
    terms: dict

    def __post_init__(self):
        # the invariants of this form at e^{1..n}, one entry made on first read:
        # "K" -> (K, lambda) in stable6, "B" -> (B, signature, det B) in stable7
        object.__setattr__(self, "_memo", {})
        if not (0 <= self.dim <= MAX_DIM):
            raise ValueError(f"dimension {self.dim} out of range 0..{MAX_DIM}")
        if self.degree < 0 or (self.degree > self.dim and self.terms):
            raise ValueError(f"degree {self.degree} invalid in dimension {self.dim}")
        for idx in self.terms:
            # _MASK holds every sorted multi-index on R^MAX_DIM; the checks below run on a miss only
            if len(idx) == self.degree and idx in _MASK and (not idx or idx[-1] <= self.dim):
                continue
            if len(idx) != self.degree:
                raise ValueError(f"index {idx} has wrong length for degree {self.degree}")
            if any(not (1 <= i <= self.dim) for i in idx):
                raise ValueError(f"index {idx} out of range 1..{self.dim}")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise ValueError(f"index {idx} is not strictly increasing")

    @staticmethod
    def zero(dim: int, degree: int) -> "AltForm":
        return AltForm(dim, degree, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, idx: Sequence[int]):
        key, sign = sort_index(tuple(idx))
        if sign == 0:
            return Fraction(0)
        return sign * self.terms.get(key, Fraction(0))

    def __add__(self, other: "AltForm") -> "AltForm":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("form shape mismatch in addition")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            s = terms.get(idx, 0) + c
            if s == 0:
                terms.pop(idx, None)
            else:
                terms[idx] = s
        return AltForm(self.dim, self.degree, terms)

    def __neg__(self) -> "AltForm":
        return AltForm(self.dim, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "AltForm") -> "AltForm":
        return self + (-other)

    def __rmul__(self, c) -> "AltForm":
        if c == 0:
            return AltForm.zero(self.dim, self.degree)
        return AltForm(self.dim, self.degree, {i: c * x for i, x in self.terms.items()})

    __mul__ = __rmul__

    def __call__(self, *vectors: Sequence) -> Fraction:
        """Evaluate on `degree` many vectors given in coordinates.

        The coefficients and the vectors are cleared once to integer numerators, each
        term adds its numerator times one integer minor (``_minor``) of the rows it
        indexes, and the sum is divided once; TypeError unless all are int or Fraction.
        """
        if len(vectors) != self.degree:
            raise ValueError(f"expected {self.degree} vectors, got {len(vectors)}")
        (xs, *cleared), dens = _clear(self.terms.values(), *vectors)
        rows = list(zip(*cleared))  # row i holds the i-th coordinates of the vectors
        cols = tuple(range(self.degree))
        total = sum(c * _minor([rows[i - 1] for i in idx], cols) for idx, c in zip(self.terms, xs))
        return Fraction(total, math.prod(dens))

    def __repr__(self):
        if not self.terms:
            return f"AltForm({self.dim},{self.degree}; 0)"
        parts = " + ".join(f"{c}*e{''.join(map(str, i))}" for i, c in sorted(self.terms.items()))
        return f"AltForm({self.dim},{self.degree}; {parts})"


def alt_form(dim: int, degree: int, terms: Mapping[Sequence[int], object] | Iterable) -> AltForm:
    """Build an AltForm, normalizing index order, signs and zero coefficients."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict = {}
    for idx, c in items:
        key, sign = sort_index(tuple(idx))
        if sign == 0:
            continue
        c = rat(c) if isinstance(c, (int, str)) else c
        s = out.get(key, 0) + sign * c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return AltForm(dim, degree, out)


def basis_form(dim: int, *idx: int) -> AltForm:
    return alt_form(dim, len(idx), {tuple(idx): Fraction(1)})


class LinearMap(_Record):
    """Linear map given by a rational matrix; column j is the image of e_j."""

    dim_in: int
    dim_out: int
    matrix: tuple

    def __post_init__(self):
        if len(self.matrix) != self.dim_out or any(len(r) != self.dim_in for r in self.matrix):
            raise ValueError("matrix shape does not match declared dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LinearMap":
        rows = tuple(tuple(rat(x) if isinstance(x, (int, str)) else x for x in r) for r in rows)
        return LinearMap(len(rows[0]), len(rows), rows)

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "LinearMap":
        return LinearMap.from_rows(list(zip(*cols)))

    @staticmethod
    def diagonal(entries: Sequence) -> "LinearMap":
        n = len(entries)
        return LinearMap.from_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def column(self, j: int) -> list:
        return [self.matrix[i][j] for i in range(self.dim_out)]

    @functools.cached_property
    def _rows(self) -> tuple:  # the matrix cleared once, for every apply and pullback
        return _numerators(self.matrix)

    def apply(self, v: Sequence) -> list:
        if len(v) != self.dim_in:
            raise ValueError("vector length does not match the map's input dimension")
        return _apply(self._rows, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        return LinearMap.from_rows(mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "LinearMap":
        if self.dim_in != self.dim_out:
            raise ValueError("only square maps invert")
        return LinearMap.from_rows(_inverse(self.matrix))

    def det(self):
        if self.dim_in != self.dim_out:
            raise ValueError("determinant needs a square map")
        return _det(self.matrix)


class InnerProduct(_Record):
    """Symmetric nondegenerate bilinear form with rational Gram matrix."""

    dim: int
    gram: tuple

    def __post_init__(self):
        g = self.gram
        if len(g) != self.dim or any(len(r) != self.dim for r in g):
            raise ValueError("Gram matrix shape mismatch")
        for i in range(self.dim):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix is not symmetric")
        if any(g[i][j] for i in range(self.dim) for j in range(i)):
            degenerate = _det(g) == 0
        else:  # diagonal: degenerate when a row is zero (gcd 0); _integer_row rejects what det rejects
            degenerate = not all(_integer_row(r)[1] for r in g)
        if degenerate:
            raise ValueError("inner product is degenerate")

    @functools.cached_property
    def _form(self) -> tuple:
        return _sparse(self.gram)

    @functools.cached_property
    def _raise(self) -> LinearMap:  # G^-1, the pullback of hodge_star and form_inner
        return LinearMap.from_rows(_inverse(self.gram))

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "InnerProduct":
        rows = tuple(tuple(rat(x) if isinstance(x, (int, str)) else x for x in r) for r in rows)
        return InnerProduct(len(rows), rows)

    @staticmethod
    def diagonal(entries: Sequence) -> "InnerProduct":
        n = len(entries)
        return InnerProduct.from_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def euclidean(n: int) -> "InnerProduct":
        return InnerProduct.diagonal([1] * n)

    def pair(self, u: Sequence, v: Sequence):
        """u^T G v, summed over the nonzero Gram entries only."""
        return _pair(self._form, u, v)

    def inverse_gram(self) -> list:
        """G^-1 as a fresh list of rows; the inverse is computed once per instance."""
        return [list(r) for r in self._raise.matrix]

    def signature(self) -> tuple[int, int]:
        pos, neg, zero = inertia(self.gram)
        return pos, neg


class VolumeForm(_Record):
    """Nonzero top form; the stored form fixes orientation."""

    form: AltForm

    def __post_init__(self):
        if self.form.degree != self.form.dim:
            raise ValueError("volume form must have top degree")
        if self.form.is_zero:
            raise ValueError("volume form must be nonzero")

    @staticmethod
    def standard(dim: int, coeff=Fraction(1)) -> "VolumeForm":
        return VolumeForm(alt_form(dim, dim, {tuple(range(1, dim + 1)): coeff}))

    def coefficient(self):
        """Coefficient against e^{1..n}; sign encodes the orientation."""
        full = tuple(range(1, self.form.dim + 1))
        c = self.form.terms.get(full, Fraction(0))
        if c == 0:
            raise ValueError("volume form does not hit the full multi-index")
        return c

    def ratio(self, top: AltForm):
        """Scalar r with top = r * vol; top must be a top-degree form."""
        if top.degree != self.form.dim:
            raise ValueError("ratio needs a top-degree form")
        full = tuple(range(1, self.form.dim + 1))
        return top.terms.get(full, Fraction(0)) / self.coefficient()


def _check_shape(form: AltForm, vol: VolumeForm, n: int):
    if form.dim != n or form.degree != 3:
        raise ValueError(f"expected a 3-form on a {n}-dimensional space")
    if vol.form.dim != n:
        raise ValueError(f"volume form must live on the same {n}-space")


def _over(den: int, nums: dict) -> dict:
    """Accumulated numerators as Fractions over den."""
    return {k: Fraction(s, den) for k, s in nums.items()}


@functools.cache
def _merge_signs(ma: int) -> tuple[int, ...]:
    """Sign of e^A ^ e^B = sign * e^(A|B) for the multi-index with mask ma and every mask mb.

    Entry mb is 0 when the two share an index.  Otherwise it is the parity of
    the pairs (a in A, b in B) with a > b, the transpositions that sort A+B.
    Bounded by construction: at most 2^MAX_DIM rows of 2^MAX_DIM entries.
    """
    # bit b of odd is set when an odd number of A's indices exceed b
    odd = sum(1 << b for b in range(MAX_DIM) if (ma >> (b + 1)).bit_count() & 1)
    return tuple(0 if ma & mb else (-1 if (mb & odd).bit_count() & 1 else 1)
                 for mb in range(1 << MAX_DIM))


def wedge(a: AltForm, b: AltForm) -> AltForm:
    """Exterior product; bilinear, sign by permutation parity."""
    if a.dim != b.dim:
        raise ValueError("wedge of forms on different spaces")
    deg = a.degree + b.degree
    if deg > a.dim:
        return AltForm.zero(a.dim, deg)
    (xa, xb), dens = _clear(a.terms.values(), b.terms.values())
    right = [(_MASK[ib], y) for ib, y in zip(b.terms, xb)]
    out: dict = {}
    for ia, x in zip(a.terms, xa):
        ma = _MASK[ia]
        signs = _merge_signs(ma)
        for mb, y in right:
            sign = signs[mb]
            if sign:
                m = ma | mb
                s = out.get(m, 0) + sign * x * y
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
    terms = {_INDEX[m]: s for m, s in out.items()}
    return AltForm(a.dim, deg, _over(dens[0] * dens[1], terms))


def contract(v, a: AltForm) -> AltForm:
    """Interior product i_v a with the Leibniz sign convention.

    The vector may be a coordinate sequence or a single-column LinearMap.
    """
    if isinstance(v, LinearMap):
        if v.dim_in != 1:
            raise ValueError("contraction takes a single column")
        v = v.column(0)
    if a.degree == 0:
        raise ValueError("cannot contract a 0-form")
    if len(v) != a.dim:
        raise ValueError("vector length does not match form dimension")
    (xv, xa), dens = _clear(v, a.terms.values())
    return AltForm(a.dim, a.degree - 1, _over(dens[0] * dens[1], _interior(xv, zip(a.terms, xa))))


def _interior(v: Sequence[int], terms: Iterable) -> dict:
    """i_v on integer numerators: the (index, numerator) terms of a form to the
    {index: numerator} dict of its contraction, with no zero entry."""
    out: dict = {}
    for idx, c in terms:
        for k, i in enumerate(idx):
            vi = v[i - 1]
            if not vi:
                continue
            key = idx[:k] + idx[k + 1:]
            s = out.get(key, 0) + (-vi * c if k & 1 else vi * c)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


@functools.cache
def _interior_table(n: int, p: int) -> tuple:
    """For each j = 1..n, a row (I, s, A, right) for every p-index I containing j, as masks:
    i_{e_j} e^I = s e^A with A = I - j, and right holds (C, t, A|C) for every p-index C
    disjoint from A, with e^A ^ e^C = t e^(A|C).  At most 45 tables, since n <= MAX_DIM."""
    masks = [_MASK[idx] for idx in itertools.combinations(range(1, n + 1), p)]
    table = []
    for bit in (1 << j for j in range(n)):
        rows = []
        for m in (m for m in masks if m & bit):
            ma, signs = m ^ bit, _merge_signs(m ^ bit)  # s = (-1)^k, k the indices of I below j
            rows.append((m, -1 if (m & (bit - 1)).bit_count() & 1 else 1, ma,
                         tuple((mc, signs[mc], ma | mc) for mc in masks if not ma & mc)))
        table.append(tuple(rows))
    return tuple(table)


def _contractions(a: AltForm) -> tuple[list[int], list[dict], int]:
    """a cleared once to a dense vector of integer numerators over the lcm d of its
    denominators, indexed by mask, and i_{e_j} a for j = 1..n as {mask: numerator
    over d} dicts with no zero entry.
    """
    (nums,), dens = _clear(a.terms.values())
    x = [0] * (1 << a.dim)
    for idx, c in zip(a.terms, nums):
        x[_MASK[idx]] = c
    return x, [{ma: s * x[m] for m, s, ma, _ in rows if x[m]}
               for rows in _interior_table(a.dim, a.degree)], dens[0]


def _interior_wedges(a: AltForm) -> tuple[list[dict], list[dict], int]:
    """i_{e_j} a and i_{e_j} a ^ a for j = 1..n, as {mask: numerator} dicts.

    The contractions are ``_contractions``, numerators over d; the wedges
    are numerators over d^2, read off ``_interior_table``: no product for a
    zero numerator, no ``_merge_signs`` read per term pair.  The one integer
    kernel of K (``stable6``) and B (``stable7``).
    """
    x, contractions, d = _contractions(a)
    wedges = []
    for rows, left in zip(_interior_table(a.dim, a.degree), contractions):
        out: dict = {}
        for _, _, ma, right in rows:
            y = left.get(ma)
            if y:
                for mc, t, m in right:
                    z = x[mc]
                    if z:
                        out[m] = out.get(m, 0) + t * y * z
        wedges.append(out)
    return contractions, wedges, d


def _minor(rows: list, cols: tuple):
    """det of the submatrix (columns cols of rows): closed forms up to 3 x 3, then Bareiss."""
    p = len(rows)
    if p == 1:
        return rows[0][cols[0]]
    if p == 2:
        (r0, r1), (j0, j1) = rows, cols
        return r0[j0] * r1[j1] - r0[j1] * r1[j0]
    if p == 3:
        (r0, r1, r2), (j0, j1, j2) = rows, cols
        return (r0[j0] * (r1[j1] * r2[j2] - r1[j2] * r2[j1])
                - r0[j1] * (r1[j0] * r2[j2] - r1[j2] * r2[j0])
                + r0[j2] * (r1[j0] * r2[j1] - r1[j1] * r2[j0]))
    m = [[r[j] for j in cols] for r in rows]
    return _bareiss(m, det=True)


def _monomial(rows: list, a: AltForm, nums: list) -> dict:
    """g* a on integer rows with one nonzero entry each at most, a's numerators nums: e^I goes
    to one signed term, 0 on a zero row or a repeated column; the keys come out sorted."""
    image = [next(((1 << j, x) for j, x in enumerate(r) if x), (0, 0)) for r in rows]
    out: dict = {}
    for idx, c in zip(a.terms, nums):
        m = 0
        for bit, x in (image[i - 1] for i in idx):
            c *= _merge_signs(m)[bit] * x
            m |= bit
        if c:
            out[m] = out.get(m, 0) + c
    return {_INDEX[m]: out[m] for m in sorted(out, key=_INDEX.__getitem__) if out[m]}


@functools.cache
def _expansion(n: int, q: int) -> tuple:
    """Each q-index J on R^n, in sorted order, with the (j, k, odd) for every index j + 1 in J:
    J - j is the k-th (q-1)-index in sorted order, and e^(J - j) ^ e^j = (-1)^odd e^J.
    At most 2^MAX_DIM rows per (n, q)."""
    position = {idx: k for k, idx in enumerate(itertools.combinations(range(1, n + 1), q - 1))}
    return tuple((idx, tuple((i - 1, position[idx[:k] + idx[k + 1:]], (q - 1 - k) & 1)
                             for k, i in enumerate(idx)))
                 for idx in itertools.combinations(range(1, n + 1), q))


def _laplace(rows: list, a: AltForm, nums: list) -> dict:
    """g* a on integer rows by Laplace expansion along the last index, a's numerators nums.

    With e^I = e^P ^ e^k for the leading (p-1)-index P of I, g* a = sum_P g*(e^P) ^ v_P, where
    v_P = sum_k a_{Pk} g* e^k is one integer covector (g* e^k is row k of g).  g*(e^P) is built
    the same way one degree down, g*(e^P) = g*(e^P') ^ g* e^(last of P), each P once per call,
    as the integer list of its coefficients in sorted index order; a wedge with a covector v
    reads each coefficient J off ``_expansion``: (w ^ v)_J = sum over j in J of +-w_(J - j) v_j.
    Keys come out sorted."""
    n = len(rows)
    pulled = {(): [1]}

    def lower(idx: Index) -> list:
        if idx not in pulled:
            prev, row = lower(idx[:-1]), rows[idx[-1] - 1]
            pulled[idx] = wedged = []
            for _, terms in _expansion(n, len(idx)):
                t = 0
                for j, k, odd in terms:
                    x = prev[k] * row[j]
                    t = t - x if odd else t + x
                wedged.append(t)
        return pulled[idx]

    covectors: dict = {}
    for idx, c in zip(a.terms, nums):
        if c:
            v = covectors.setdefault(idx[:-1], [0] * n)
            for j, x in enumerate(rows[idx[-1] - 1]):
                if x:
                    v[j] += c * x
    pairs = [(lower(idx), v) for idx, v in covectors.items()]
    out: dict = {}
    for jdx, terms in _expansion(n, a.degree):
        t = 0
        for w, v in pairs:
            for j, k, odd in terms:
                x = w[k] * v[j]
                t = t - x if odd else t + x
        if t:
            out[jdx] = t
    return out


def pullback(g: LinearMap, a: AltForm) -> AltForm:
    """(g* a)(v_1..v_p) = a(g v_1, .., g v_p): e^I goes to sum_J det(g[I, J]) e^J, keys sorted.

    On integer numerators (``LinearMap._rows``): ``_monomial`` when no row of g has two
    nonzero entries, else the Laplace expansion of ``_laplace``, at every degree."""
    if g.dim_in != g.dim_out:
        raise ValueError("pullback needs a square map")
    if g.dim_in != a.dim:
        raise ValueError("map and form dimensions differ")
    n, p = a.dim, a.degree
    rows, den = g._rows
    (xa,), (da,) = _clear(a.terms.values())
    if p == 0:
        return a
    pull = _monomial if all(sum(map(bool, r)) < 2 for r in rows) else _laplace
    return AltForm(n, p, _over(da * den ** p, pull(rows, a, xa)))


def form_inner(a: AltForm, b: AltForm, ip: InnerProduct):
    """Induced inner product <e^I, e^J> = det(G^{-1}[I, J]): sum_I a_I (G^{-1}* b)_I."""
    if (a.dim, a.degree) != (b.dim, b.degree):
        raise ValueError("form shape mismatch")
    raised = pullback(ip._raise, b).terms
    return sum((c * raised.get(idx, 0) for idx, c in a.terms.items()), Fraction(0))


def hodge_star(a: AltForm, ip: InnerProduct, vol: VolumeForm) -> AltForm:
    """Hodge dual: the unique (n-p)-form with b ^ *a = <b, a> vol for all b."""
    if ip.dim != a.dim or vol.form.dim != a.dim:
        raise ValueError("dimension mismatch in hodge_star")
    n, p = a.dim, a.degree
    v = vol.coefficient()
    # <e^I, a> = sum_J a_J det(G^{-1}[I, J]) is the pullback of a by the symmetric G^{-1}
    raised = pullback(ip._raise, a)
    out: dict = {}
    for idx, coeff in raised.terms.items():
        comp = _MASK[idx] ^ ((1 << n) - 1)
        out[_INDEX[comp]] = _merge_signs(_MASK[idx])[comp] * v * coeff
    return AltForm(n, n - p, out)


def divisor_space(a: AltForm) -> list[AltForm]:
    """Basis of D(a) = { u in V* : u ^ a = 0 }, by exact nullspace."""
    if a.is_zero:
        raise ValueError("divisor space of the zero form is undefined")
    n = a.dim
    rows_index = list(itertools.combinations(range(1, n + 1), a.degree + 1)) if a.degree + 1 <= n else []
    if not rows_index:
        # wedging a top form with any covector is zero
        return [basis_form(n, i) for i in range(1, n + 1)]
    wedges = [wedge(basis_form(n, j), a) for j in range(1, n + 1)]
    system = [[w.terms.get(key, Fraction(0)) for w in wedges] for key in rows_index]
    basis = nullspace(system, ncols=n)
    return [alt_form(n, 1, {(j + 1,): c for j, c in enumerate(vec) if c != 0}) for vec in basis]


def is_decomposable(a: AltForm) -> bool:
    """True iff a is a wedge of 1-forms, i.e. dim D(a) equals the degree."""
    return len(divisor_space(a)) == a.degree
