"""Cayley-Dickson composition algebras: H, split-H, O and split-O.

Multiplication is generated recursively from R by the doubling rule

    (a + b l)(c + d l) = (a c + l^2 conj(d) b) + (d a + b conj(c)) l

with the basis ordering e_0..e_3 = 1, i, j, k and e_{s+4} = e_s * l.  The
structure constants e_i e_j = s e_k are never hard coded: the first product
in an algebra runs the rule once on every pair of int unit vectors and
keeps the n x n table of (k, s) for its doubling signs (``_table``), and the
tables are snapshot tested downstream.  ``multiply`` clears both operands
to integer numerators over one denominator each and makes one pass over the
table; it takes int and Fraction coordinates only (TypeError on others).
``verify_identities`` clears each random draw once and runs every product
of its checks through that same pass, on the integer numerators.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import _bilinear, _clear, _pair, _sparse
from .scalars import rat


class AlgebraTag(enum.Enum):
    H = "H"   # quaternions
    U = "U"   # split-quaternions
    O = "O"   # octonions
    B = "B"   # split-octonions

    @property
    def dim(self) -> int:
        return 4 if self in (AlgebraTag.H, AlgebraTag.U) else 8

    @property
    def doubling_signs(self) -> tuple[int, ...]:
        """l^2 at each doubling level, starting from R."""
        return {
            AlgebraTag.H: (-1, -1),
            AlgebraTag.U: (-1, 1),
            AlgebraTag.O: (-1, -1, -1),
            AlgebraTag.B: (-1, -1, 1),
        }[self]

    @property
    def signature(self) -> tuple[int, ...]:
        """Diagonal of the norm form N on the basis e_0, e_1, ..."""
        diag = [1]
        for s in self.doubling_signs:
            diag = diag + [-s * x for x in diag]
        return tuple(diag)


@dataclass(frozen=True)
class AlgElement:
    tag: AlgebraTag
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.tag.dim:
            raise ValueError(f"{self.tag.value} elements need {self.tag.dim} coordinates")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        _same_tag(self, other)
        return AlgElement(self.tag, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        _same_tag(self, other)
        return AlgElement(self.tag, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.tag, tuple(-a for a in self.coords))

    def __rmul__(self, c) -> "AlgElement":
        c = rat(c) if isinstance(c, (int, str)) else c
        return AlgElement(self.tag, tuple(c * a for a in self.coords))

    def __repr__(self):
        body = " + ".join(f"{c}*e{k}" for k, c in enumerate(self.coords) if c != 0) or "0"
        return f"{self.tag.value}({body})"


def element(tag: AlgebraTag, coords: Sequence) -> AlgElement:
    return AlgElement(tag, tuple(rat(c) if isinstance(c, (int, str)) else c for c in coords))


def basis_element(tag: AlgebraTag, k: int) -> AlgElement:
    return AlgElement(tag, tuple(Fraction(1 if i == k else 0) for i in range(tag.dim)))


def _same_tag(x: AlgElement, y: AlgElement):
    if x.tag != y.tag:
        raise ValueError(f"algebra tag mismatch: {x.tag.value} vs {y.tag.value}")


def _cd_mul(x: tuple, y: tuple, signs: tuple[int, ...]) -> tuple:
    if not signs:
        return (x[0] * y[0],)
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    inner = signs[:-1]
    s = signs[-1]
    first = _add(_cd_mul(a, c, inner), _scale(s, _cd_mul(_cd_conj(d), b, inner)))
    second = _add(_cd_mul(d, a, inner), _cd_mul(b, _cd_conj(c), inner))
    return first + second


def _cd_conj(x: tuple) -> tuple:
    return (x[0],) + tuple(-c for c in x[1:])


def _add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def _scale(s, x: tuple) -> tuple:
    return tuple(s * a for a in x)


@functools.cache
def _table(signs: tuple[int, ...]) -> tuple:
    """Rows of (k, s) with e_i e_j = s e_k, from the doubling rule on int unit vectors."""
    n = 2 ** len(signs)
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    rows = []
    for x in units:
        row = []
        for y in units:
            (k, s), = [(k, c) for k, c in enumerate(_cd_mul(x, y, signs)) if c]
            row.append((k, s))
        rows.append(tuple(row))
    return tuple(rows)


def _mul(table: tuple, x: Sequence, y: Sequence) -> list:
    """Coordinates of x y by the structure constants, on integer numerators."""
    out = [0] * len(x)
    for xi, row in zip(x, table):
        if xi:
            nx = -xi
            for (k, s), yj in zip(row, y):
                out[k] += (xi if s > 0 else nx) * yj
    return out


def _over(dens: list[int], nums: Sequence) -> tuple:
    """Numerators over the product of the operands' denominators."""
    den = math.prod(dens)
    return tuple(Fraction(x, den) for x in nums)


@functools.cache
def _norm_form(tag: AlgebraTag) -> tuple:
    """The diagonal norm form of ``tag`` as ``linalg._sparse`` entries, over denominator 1."""
    sig = tag.signature
    return _sparse([[s if i == j else 0 for j in range(tag.dim)] for i, s in enumerate(sig)])


def multiply(x: AlgElement, y: AlgElement) -> AlgElement:
    _same_tag(x, y)
    (cx, cy), dens = _clear(x.coords, y.coords)
    return AlgElement(x.tag, _over(dens, _mul(_table(x.tag.doubling_signs), cx, cy)))


def conjugate(x: AlgElement) -> AlgElement:
    return AlgElement(x.tag, _cd_conj(x.coords))


def re(x: AlgElement) -> AlgElement:
    return AlgElement(x.tag, (x.coords[0],) + tuple(Fraction(0) for _ in x.coords[1:]))


def im(x: AlgElement) -> AlgElement:
    return AlgElement(x.tag, (Fraction(0),) + x.coords[1:])


def norm(x: AlgElement) -> Fraction:
    """N(x) = x * conj(x), a scalar multiple of e_0."""
    return multiply(x, conjugate(x)).coords[0]


def inner(x: AlgElement, y: AlgElement) -> Fraction:
    """The diagonal norm form sum_i s_i x_i y_i, s = tag.signature.

    Equal to the polarization (x conj(y) + y conj(x)) / 2 read off e_0;
    verify_identities checks that equality against the product.
    """
    _same_tag(x, y)
    return _pair(_norm_form(x.tag), x.coords, y.coords)


def multiplication_table(tag: AlgebraTag) -> list[list[AlgElement]]:
    """e_i e_j for every pair, read off the structure constants."""
    return [[s * basis_element(tag, k) for k, s in row] for row in _table(tag.doubling_signs)]


def random_element(tag: AlgebraTag, rng: random.Random, span: int = 9) -> AlgElement:
    return AlgElement(tag, tuple(Fraction(rng.randint(-span, span), rng.randint(1, 4))
                                 for _ in range(tag.dim)))


@dataclass(frozen=True)
class IdentityReport:
    tag: AlgebraTag
    trials: int
    passed: bool
    failures: tuple

    def failed_checks(self) -> tuple:
        return tuple(name for name, _ in self.failures)


def verify_identities(tag: AlgebraTag, trials: int, seed: int = 0) -> IdentityReport:
    """Randomized exact verification of the defining composition-algebra laws.

    Checks, per random pair/triple: multiplicativity of N, alternativity
    (two-generator associativity), the conjugation anti-homomorphism, and the
    two linearization identities
    x conj(y) + y conj(x) = 2 <x,y> e_0 and x(conj(y) z) + y(conj(x) z) = 2 <x,y> z.

    Every law is homogeneous, of one degree in each of x, y and z on both
    sides: composition N(xy) = N(x) N(y) of degree (2, 2), left and right
    alternativity (2, 1) and (1, 2), the anti-homomorphism and polarization
    (1, 1), linearized Moufang (1, 1, 1).  So a law holds at (x, y, z)
    exactly when it holds at (d_x x, d_y y, d_z z) for positive integers d,
    and each draw is cleared to its integer numerators once (``_clear``):
    every product (``_mul``), norm and inner product of a trial runs on ints.
    The witnesses are the drawn elements.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    failures: list = []

    def record(name, witness):
        if len(failures) < 8:
            failures.append((name, witness))

    table, metric = _table(tag.doubling_signs), _norm_form(tag)[0]

    def mul(u: Sequence, v: Sequence) -> tuple:
        return tuple(_mul(table, u, v))

    def norm_of(u: Sequence) -> int:
        return _mul(table, u, _cd_conj(u))[0]

    zeros = (0,) * (tag.dim - 1)
    for _ in range(trials):
        x, y, z = (random_element(tag, rng) for _ in range(3))
        (cx, cy, cz), _ = _clear(x.coords, y.coords, z.coords)
        xy, xx, two_xy = mul(cx, cy), mul(cx, cx), 2 * _bilinear(metric, cx, cy)
        xc, yc = _cd_conj(cx), _cd_conj(cy)
        if norm_of(xy) != norm_of(cx) * norm_of(cy):
            record("composition", (x, y))
        if mul(cx, xy) != mul(xx, cy):
            record("left_alternative", (x, y))
        if mul(mul(cy, cx), cx) != mul(cy, xx):
            record("right_alternative", (x, y))
        if _cd_conj(xy) != mul(yc, xc):
            record("conjugation_antihom", (x, y))
        if _add(mul(cx, yc), mul(cy, xc)) != (two_xy, *zeros):
            record("polarization", (x, y))
        if _add(mul(cx, mul(yc, cz)), mul(cy, mul(xc, cz))) != _scale(two_xy, cz):
            record("linearized_moufang", (x, y, z))
    return IdentityReport(tag, trials, not failures, tuple(failures))
