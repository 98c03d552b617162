"""Independent reference algebra used to generate inputs and check outputs.

Forms are plain dicts {increasing 1-based index tuple: coefficient}.  This
module deliberately shares no code with the library, so a check built on it
cannot be fooled by a defect in the code under test.  Coefficients may be
ints, Fractions or any ring element supporting +, -, * (such as Quad below),
because only ring operations are used.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq`; 0 on a repeated entry."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def add_term(out: dict, idx, c):
    s = out.get(idx, 0) + c
    if s == 0:
        out.pop(idx, None)
    else:
        out[idx] = s


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign = perm_sign(ia + ib)
            if sign:
                add_term(out, tuple(sorted(ia + ib)), sign * ca * cb)
    return out


def contract_basis(i: int, a: dict) -> dict:
    """Interior product with the basis vector e_i."""
    out: dict = {}
    for idx, c in a.items():
        if i in idx:
            k = idx.index(i)
            add_term(out, idx[:k] + idx[k + 1:], (-1) ** k * c)
    return out


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def det(m) -> Fraction:
    """Determinant of a small rational matrix by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, result = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def pullback3(g, a: dict, n: int) -> dict:
    """(g* a)_J = sum_I a_I det(g[I, J]) for a 3-form a; g given by rows."""
    out = {}
    for jdx in itertools.combinations(range(1, n + 1), 3):
        total = 0
        for idx, c in a.items():
            total = total + c * det3([[g[i - 1][j - 1] for j in jdx] for i in idx])
        if total != 0:
            out[jdx] = total
    return out


def lambda6(omega: dict) -> Fraction:
    """lambda = tr(K^2)/6 with K(e_j) = -i_{e_j} Omega ^ Omega against e^{1..6}."""
    K = [[Fraction(0)] * 6 for _ in range(6)]
    for j in range(1, 7):
        w = wedge(contract_basis(j, omega), omega)
        for i in range(1, 7):
            comp = tuple(k for k in range(1, 7) if k != i)
            K[i - 1][j - 1] = -(-1) ** (i - 1) * Fraction(w.get(comp, 0))
    return sum(K[i][k] * K[k][i] for i in range(6) for k in range(6)) / 6


def q_matrix7(phi: dict) -> list:
    """B[i][j] e^{1..7} = i_{e_i} phi ^ i_{e_j} phi ^ phi."""
    cs = [contract_basis(i, phi) for i in range(1, 8)]
    full = tuple(range(1, 8))
    return [[Fraction(wedge(wedge(cs[i], cs[j]), phi).get(full, 0)) for j in range(7)]
            for i in range(7)]


def random_gl(rng: random.Random, n: int, span: int = 2) -> list:
    """Random integer matrix with entries in [-span, span] and nonzero determinant."""
    while True:
        g = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        d = det(g)
        if d != 0:
            return g


def random_unit_vector(rng: random.Random, n: int, span: int = 3) -> list:
    """Exact rational point of the unit sphere by inverse stereographic projection."""
    t = [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n - 1)]
    s = sum(x * x for x in t)
    return [(s - 1) / (s + 1)] + [2 * x / (s + 1) for x in t]


# Canonical forms, written out from their definitions (README conventions).
OMEGA_PLUS = {(1, 2, 3): 1, (4, 5, 6): 1}
OMEGA_MINUS = {(1, 2, 3): 1, (1, 5, 6): -1, (2, 4, 6): 1, (3, 4, 5): -1}
PHI_PLUS = {(1, 2, 3): 1, (1, 6, 7): 1, (2, 5, 7): -1, (3, 5, 6): 1,
            (1, 4, 5): -1, (2, 4, 6): -1, (3, 4, 7): -1}
PHI_MINUS = {(1, 2, 3): 1, (1, 6, 7): -1, (2, 5, 7): 1, (3, 5, 6): -1,
             (1, 4, 5): 1, (2, 4, 6): 1, (3, 4, 7): 1}
DECOMPOSABLE = {(1, 2, 3): 1}


class Quad:
    """a + b*sqrt(D) with rational a, b, D; just enough ring arithmetic for checks."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D=0):
        self.a, self.b, self.D = Fraction(a), Fraction(b), Fraction(D)

    @staticmethod
    def lift(x) -> "Quad":
        if isinstance(x, Quad):
            return x
        if hasattr(x, "D"):  # a quadratic-extension scalar from the code under test
            return Quad(x.a, x.b, x.D)
        return Quad(x)

    def _d(self, o: "Quad"):
        if self.b and o.b and self.D != o.D:
            raise ValueError("mixed radicands")
        return self.D if self.b else o.D

    def __add__(self, o):
        o = Quad.lift(o)
        return Quad(self.a + o.a, self.b + o.b, self._d(o))

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.D)

    def __sub__(self, o):
        return self + (-Quad.lift(o))

    def __rsub__(self, o):
        return Quad.lift(o) - self

    def __mul__(self, o):
        o = Quad.lift(o)
        d = self._d(o)
        return Quad(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __eq__(self, o):
        o = Quad.lift(o)
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.D == o.D)

    def __ne__(self, o):
        return not self == o

    __hash__ = None

    def __repr__(self):
        return f"Quad({self.a}, {self.b}, {self.D})"


# l^2 at each Cayley-Dickson doubling step from R, per algebra tag
DOUBLING = {"H": (-1, -1), "U": (-1, 1), "O": (-1, -1, -1), "B": (-1, -1, 1)}


def cd_mul(x: tuple, y: tuple, signs: tuple) -> tuple:
    """(a + b l)(c + d l) = (a c + l^2 conj(d) b) + (d a + b conj(c)) l."""
    if not signs:
        return (x[0] * y[0],)
    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]

    def conj(v):
        return (v[0],) + tuple(-t for t in v[1:])

    def add(u, v):
        return tuple(p + q for p, q in zip(u, v))
    first = add(cd_mul(a, c, signs[:-1]), tuple(signs[-1] * t for t in cd_mul(conj(d), b, signs[:-1])))
    return first + add(cd_mul(d, a, signs[:-1]), cd_mul(b, conj(c), signs[:-1]))


def cayley_table(tag: str) -> list:
    """Rows of signed basis names, "+e3" / "-e0", of e_i * e_j."""
    n = 2 ** len(DOUBLING[tag])
    basis = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    table = []
    for x in basis:
        row = []
        for y in basis:
            (k, c), = [(k, c) for k, c in enumerate(cd_mul(x, y, DOUBLING[tag])) if c]
            row.append(f"{'+' if c > 0 else '-'}e{k}")
        table.append(row)
    return table
