"""Vector cross products on R^7 and R^8 and their fundamental forms.

The 2-fold product lives on the imaginary part of O or B (coordinates
e_1..e_7 of the algebra, stored as a 7-vector), the two 3-fold products X1
and X2 on the full algebra (8-vector).  Products built from a stable 3-form
(module stable7) reuse the same container, so the axiom verifiers run
uniformly over every construction.  Every product is one integer core
(``CrossProduct.evaluator``): integer vectors in, integer numerators and
one denominator out.  Calling a product clears its vectors into the core;
the verifiers, the reductions and the bridges clear their vectors once and
run the core and every pairing on ints.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .compalg import AlgebraTag, _cd_conj, _mul, _norm_form, _table
from .exteralg import AltForm, InnerProduct, LinearMap, _interior, alt_form
from .linalg import _bilinear, _clear, _numerators
from .linalg import det as _det
from .linalg import mat_vec, nullspace, rank
from .scalars import rat

Vector = tuple


def _vec(v: Sequence) -> Vector:
    return tuple(rat(x) if isinstance(x, (int, str)) else x for x in v)


@dataclass(frozen=True)
class CrossProduct:
    """An r-fold cross product as an integer core plus its metric.

    The core (``evaluator``) is the one evaluation of the product: it takes r
    integer vectors and returns the integer numerators of their product and one
    positive int denominator.  A product is linear in each argument, so on
    rational vectors it is the core of their numerators over the product of
    their denominators; ``__call__`` clears the vectors, runs the core and
    builds one Fraction per entry.  The bridges and verifiers clear their
    vectors once and call the core directly.
    """

    dim: int
    fold: int
    variant: str
    ip: InnerProduct
    evaluator: Callable
    tag: AlgebraTag | None = None

    def __call__(self, *vectors: Sequence) -> Vector:
        if len(vectors) != self.fold:
            raise ValueError(f"{self.fold}-fold product takes {self.fold} vectors")
        vecs = [_vec(v) for v in vectors]
        for v in vecs:
            if len(v) != self.dim:
                raise ValueError(f"vectors must have dimension {self.dim}")
        cleared, dens = _clear(*vecs)
        nums, den = self.evaluator(*cleared)
        den *= math.prod(dens)
        return tuple(Fraction(x, den) for x in nums)


def eval(cp: CrossProduct, *vectors: Sequence) -> Vector:  # noqa: A001 - spec name
    return cp(*vectors)


def cross_2fold(tag: AlgebraTag) -> CrossProduct:
    """X(a,b) = a.b + <a,b> e_0 on the imaginary 7-space of O or B."""
    if tag not in (AlgebraTag.O, AlgebraTag.B):
        raise ValueError("2-fold products live on Im(O) or Im(B)")
    sig = tag.signature[1:]

    def ev(a: Sequence[int], b: Sequence[int]) -> tuple[list, int]:
        xa, xb = (0, *a), (0, *b)
        prod = _mul(_table(tag.doubling_signs), xa, xb)
        # adding <a,b> e_0 kills the real part; the result is imaginary
        if prod[0] + _bilinear(_norm_form(tag)[0], xa, xb) != 0:
            raise ArithmeticError("2-fold product produced a real component; broken algebra data")
        return prod[1:], 1

    return CrossProduct(7, 2, "X", InnerProduct.diagonal(sig), ev, tag=tag)


def cross_3fold(tag: AlgebraTag, variant: str) -> CrossProduct:
    """X1(a,b,c) = -a(conj(b)c) + <a,b>c + <b,c>a - <c,a>b; X2 with -(a conj(b))c."""
    if tag not in (AlgebraTag.O, AlgebraTag.B):
        raise ValueError("3-fold products live on O or B")
    if variant not in ("X1", "X2"):
        raise ValueError("variant must be 'X1' or 'X2'")

    def ev(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> tuple[list, int]:
        table, metric = _table(tag.doubling_signs), _norm_form(tag)[0]
        cb = _cd_conj(b)
        if variant == "X1":
            lead = _mul(table, a, _mul(table, cb, c))
        else:
            lead = _mul(table, _mul(table, a, cb), c)
        ab, bc, ca = (_bilinear(metric, u, v) for u, v in ((a, b), (b, c), (c, a)))
        return [ab * z + bc * x - ca * y - w for w, x, y, z in zip(lead, a, b, c)], 1

    return CrossProduct(8, 3, variant, InnerProduct.diagonal(tag.signature), ev, tag=tag)


@dataclass(frozen=True)
class FundamentalForm:
    mu: AltForm


def fundamental_form(cp: CrossProduct) -> FundamentalForm:
    """mu(v_1..v_{r+1}) = <X(v_1..v_r), v_{r+1}> as an exact AltForm, from the core on the
    integer basis vectors and the integer Gram entries over g."""
    n, r = cp.dim, cp.fold
    form, g = cp.ip._form
    basis = [[int(i == k) for i in range(n)] for k in range(n)]
    terms = {}
    for idx in itertools.combinations(range(n), r + 1):
        x, den = cp.evaluator(*(basis[i] for i in idx[:r]))
        val = _bilinear(form, x, basis[idx[r]])
        if val != 0:
            terms[tuple(i + 1 for i in idx)] = Fraction(val, g * den)
    return FundamentalForm(alt_form(n, r + 1, terms))


def _product_from_form(mu: AltForm, ginv: list) -> Callable:
    """The core of the r-fold product X with <X(v_1..v_r), w> = mu(v_1..v_r, w), inverting
    ``fundamental_form``: X = G^{-1} (i_{v_r} .. i_{v_1} mu).

    mu and G^{-1} are cleared once, here, to integer numerators over d_mu and d_G; the core
    contracts mu by the integer vectors with the integer loop of ``exteralg.contract``
    (``_interior``) and applies the integer rows of G^{-1}, over d_mu d_G."""
    rows, dg = _numerators(ginv)
    (nums,), (dm,) = _clear(mu.terms.values())
    terms, n = dict(zip(mu.terms, nums)), mu.dim

    def ev(*vectors: Sequence[int]) -> tuple[list, int]:
        one = terms
        for v in vectors:
            one = _interior(v, one.items())
        y = [one.get((k,), 0) for k in range(1, n + 1)]
        return [sum(map(operator.mul, row, y)) for row in rows], dm * dg

    return ev


@dataclass(frozen=True)
class AxiomReport:
    variant: str
    trials: int
    passed: bool
    failures: tuple

    def failed_checks(self) -> tuple:
        return tuple(name for name, _ in self.failures)


def _random_vector(rng: random.Random, n: int, span: int = 5) -> Vector:
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n))


def verify_axioms(cp: CrossProduct, trials: int, seed: int = 0) -> AxiomReport:
    """Exact randomized check of the two Brown-Gray axioms plus skewness.

    For X(w_1..w_r): <X, w_i> = 0 (orthogonality), <X, X> = det <w_i, w_j>
    (the Gram norm) and X(.., w_j, .., w_i, ..) = -X(.., w_i, .., w_j, ..).
    A cross product is linear in each w_i, so each identity has one degree
    in each w_i on both sides (1 for orthogonality and skewness, 2 for the
    Gram norm) and holds at (w_1..w_r) exactly when it holds at (d_1 w_1..
    d_r w_r) for positive integers d.  So each draw is cleared once and the
    core evaluated on its integer numerators, X = x / D; pairs are taken on
    the integer Gram entries over their denominator g, so the Gram norm reads
    <x,x> g^(r-1) = det(int Gram) D^2, and the swapped product x'/D' is skew
    when x' D = -x D'.  The witnesses are the drawn vectors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    failures: list = []

    def record(name, witness):
        if len(failures) < 8:
            failures.append((name, witness))

    n, r = cp.dim, cp.fold
    form, g = cp.ip._form
    for _ in range(trials):
        ws = [_random_vector(rng, n) for _ in range(r)]
        vs, _ = _clear(*ws)
        x, den = cp.evaluator(*vs)
        if r > 1:
            i, j = rng.sample(range(r), 2)
            swapped = list(vs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            y, dy = cp.evaluator(*swapped)
        for k, v in enumerate(vs):
            if _bilinear(form, x, v):
                record("orthogonality", (k, ws))
        gram = [[_bilinear(form, u, v) for v in vs] for u in vs]
        if _bilinear(form, x, x) * g ** (r - 1) != _det(gram) * den ** 2:
            record("gram_norm", ws)
        if r > 1 and [c * den for c in y] != [-c * dy for c in x]:
            record("skew_symmetry", (i, j, ws))
    return AxiomReport(cp.variant, trials, not failures, tuple(failures))


def reduce_by_unit_vector(cp3: CrossProduct, a: Sequence) -> CrossProduct:
    """Induced 2-fold product X(x,y) = X3(a,x,y) on the complement of a.

    Requires <a,a> = 1 exactly (space-like unit); null or time-like vectors
    are rejected since the Gram axiom fails on them.  a and the complement
    basis are cleared once: the core maps integer coordinates x to the integer
    ambient vector D x (D the basis denominator) and reads the coordinates of
    X3's core at (A, D x, D y) over d_a D^2 and X3's denominator.
    """
    if cp3.fold != 3:
        raise ValueError("reduction starts from a 3-fold product")
    a = _vec(a)
    form, g = cp3.ip._form
    (ca,), (da,) = _clear(a)
    na = _bilinear(form, ca, ca)
    if na == 0:
        raise ValueError("null vector cannot induce a reduction")
    if na != g * da * da:
        raise ValueError("reduction vector must satisfy <a,a> = 1 exactly")
    _, sub_gram, to_local, (rows, den) = _complement(cp3.ip, [ca])
    cols = list(zip(*rows))

    def ambient(x: Sequence[int]) -> list:  # D times the vector with coordinates x
        return [sum(map(operator.mul, col, x)) for col in cols]

    def ev(x: Sequence[int], y: Sequence[int]) -> tuple[list, int]:
        w, dw = cp3.evaluator(ca, ambient(x), ambient(y))
        return list(to_local(w)), dw * da * den * den

    return CrossProduct(7, 2, f"{cp3.variant}|{list(a)}", InnerProduct.from_rows(sub_gram), ev, tag=cp3.tag)


def _complement(ip: InnerProduct, vectors: Sequence[Sequence]) -> tuple[list, list, Callable, tuple]:
    """The ip-orthogonal complement of span(vectors), which must be mutually orthogonal and non-null.

    The vectors may be any positive multiples, their integer numerators say.  Returns a basis (the
    nullspace of the covectors <v, .>), its Gram matrix, the map from a w in the complement to its
    coordinates, and the basis cleared once (``_numerators``: integer rows over one D), on which
    the Gram matrix is taken.  Every caller's w is orthogonal to the vectors, since X(.., a, ..)
    is orthogonal to a.  A basis vector is 1 on its own free column and 0 on the other free
    columns, so those entries of w (or of any multiple of w) are its coordinates (times that
    multiple); that 1 is the vector's last nonzero entry, as an rref row is 0 left of its pivot."""
    comp = [tuple(v) for v in nullspace([mat_vec(ip.gram, v) for v in vectors], ncols=ip.dim)]
    rows, den = _numerators(comp)
    entries, g = ip._form
    sub_gram = [[Fraction(_bilinear(entries, u, v), g * den * den) for v in rows] for u in rows]
    free = [max(i for i, x in enumerate(u) if x) for u in comp]

    def to_local(w: Sequence) -> Vector:
        return tuple(w[f] for f in free)

    return comp, sub_gram, to_local, (rows, den)


@dataclass(frozen=True)
class ParaExtensionReport:
    variant: str
    trials: int
    identity_one: bool
    identity_two: bool
    branch: str            # "commuting" or "anticommuting"
    eigen_dims: tuple[int, int]
    passed: bool


def para_structure_from_plane(cp3: CrossProduct, a: Sequence, b: Sequence) -> LinearMap:
    """L v = -X3(a, b, v) on the orthogonal complement of the Lorentzian
    plane span{a, b}, extended to the plane by La = b, Lb = a.

    X3 is linear in each argument, so its core is evaluated on the numerators
    A, B of a, b and the integer multiple f t of each basis vector's tangent
    part t (``_plane_split``), and each column is one Fraction per entry over
    f, d_a d_b and the core's denominator."""
    a, b = _vec(a), _vec(b)
    _require_lorentzian(cp3, a, b)
    n = cp3.dim
    split, f = _plane_split(cp3.ip, a, b)
    (ca, cb), (da, db) = _clear(a, b)
    cols = []
    for k in range(n):
        tangent, plane = split([int(i == k) for i in range(n)])
        u, du = cp3.evaluator(ca, cb, tangent)
        du *= da * db
        cols.append(tuple(Fraction(du * p - c, f * du) for p, c in zip(plane, u)))
    return LinearMap.from_columns(cols)


def _plane_split(ip: InnerProduct, a: Vector, b: Vector) -> tuple[Callable, int]:
    """(split, f) for the Lorentzian plane span{a, b}, on integers.

    Write v = t + <a,v> a - <b,v> b with t orthogonal to the plane; split takes an integer v
    to the integer vectors f t and f (<a,v> b - <b,v> a), the image of v's plane part under
    La = b, Lb = a.  With a = A/d_a and b = B/d_b cleared and the Gram matrix integer entries
    over g, f = g d_a^2 d_b^2 makes both integer: f t = f v - b(A,v) d_b^2 A + b(B,v) d_a^2 B,
    and the image is d_a d_b (b(A,v) B - b(B,v) A)."""
    form, g = ip._form
    (ca, cb), (da, db) = _clear(a, b)
    f, sa, sb, sab = g * (da * db) ** 2, db * db, da * da, da * db

    def split(v: Sequence) -> tuple[list, list]:
        pa, pb = _bilinear(form, ca, v), _bilinear(form, cb, v)
        return ([f * x - pa * sa * y + pb * sb * z for x, y, z in zip(v, ca, cb)],
                [sab * (pa * z - pb * y) for y, z in zip(ca, cb)])

    return split, f


def _require_lorentzian(cp3: CrossProduct, a: Vector, b: Vector):
    if cp3.ip.pair(a, a) != 1 or cp3.ip.pair(b, b) != -1 or cp3.ip.pair(a, b) != 0:
        raise ValueError("plane must be Lorentzian: <a,a>=1, <b,b>=-1, <a,b>=0")


def verify_para_extension_identities(cp3: CrossProduct, a: Sequence, b: Sequence,
                                     trials: int, seed: int = 0) -> ParaExtensionReport:
    """Exact check of the paracomplex-extension identities on a Lorentzian plane.

    With L v = -X(a, b, v) on the complement and La = b, Lb = a on the plane
    (so L^2 = Id), the following hold identically for tangent x, y and plane
    normal n, and are verified exactly on random rational tuples:

        X(Lx, y, n) + L X(x, y, n) = <Lx, y> n + <x, y> L n
        X(Lx, Ly, n) - X(x, y, n) = -2 <Lx, y> L n

    (The +/+ and -2 signs are forced: the left side of the first identity
    has a tangent component that any -/- right side could not produce.)
    In addition exactly one of

        L X(n, x, y) = X(Ln, x, y)                       (branch "commuting")
        L X(n, x, y) = -X(Ln, x, y) + 2 <Lx, y> n        (branch "anticommuting")

    holds; which one depends on the 3-fold variant and is reported.

    Every identity is linear in each of x, y and n, so it holds at (x, y, n)
    exactly when it holds at positive integer multiples of them: each trial
    checks it on the integer tangents of ``_plane_split`` and the integer normal
    d_a d_b n.  L is read as its integer rows over their denominator d_L, the
    five cores of a trial are brought over one denominator D, and pairs
    are taken on the integer Gram entries over g; each identity is multiplied
    through by these factors (d_L^2 where L enters twice), so it is checked
    on ints.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a, b = _vec(a), _vec(b)
    L = para_structure_from_plane(cp3, a, b)
    n_dim = cp3.dim
    rng = random.Random(seed)
    split = _plane_split(cp3.ip, a, b)[0]
    form, g = cp3.ip._form
    (ca, cb), (da, db) = _clear(a, b)
    rows, dl = L._rows
    X = cp3.evaluator

    def lv(v: Sequence) -> list:
        return [sum(map(operator.mul, row, v)) for row in rows]

    def combine(*terms) -> list:
        return [sum(c * v[i] for c, v in terms) for i in range(n_dim)]

    id1 = id2 = True
    commuting = anticommuting = True
    for _ in range(trials):
        (vx, vy), _ = _clear(_random_vector(rng, n_dim), _random_vector(rng, n_dim))
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        x, y = split(vx)[0], split(vy)[0]
        nrm = [s * db * p + t * da * q for p, q in zip(ca, cb)]
        lx, ly, ln = lv(x), lv(y), lv(nrm)
        pair_lxy, pair_xy = _bilinear(form, lx, y), _bilinear(form, x, y)
        outs = (X(x, y, nrm), X(lx, y, nrm), X(lx, ly, nrm), X(nrm, x, y), X(ln, x, y))
        den = math.lcm(*(d for _, d in outs))
        xyn, lxyn, lxlyn, nxy, lnxy = ([c * (den // d) for c in u] for u, d in outs)
        lxn = lv(nxy)
        if combine((g, lxyn), (g, lv(xyn))) != combine((den * pair_lxy, nrm), (den * pair_xy, ln)):
            id1 = False
        if combine((g, lxlyn), (-g * dl * dl, xyn)) != combine((-2 * den * pair_lxy, ln)):
            id2 = False
        if lxn != lnxy:
            commuting = False
        if combine((g, lxn)) != combine((-g, lnxy), (2 * den * pair_lxy, nrm)):
            anticommuting = False

    # eigenspace dimensions of L restricted to the complement of the plane, on L's integer rows
    plus, minus = (n_dim - rank([[x - s * dl * (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(rows)]) for s in (1, -1))
    # the plane itself carries one +1 and one -1 eigenvector (a+b, a-b)
    dims = (plus - 1, minus - 1)
    branch = "commuting" if commuting else ("anticommuting" if anticommuting else "none")
    passed = id1 and id2 and (commuting != anticommuting)
    return ParaExtensionReport(cp3.variant, trials, id1, id2, branch, dims, passed)
