"""The library hands only int and Fraction entries to ``linalg``, and every kernel
rejects any other value.

Every function that ``stableforms.linalg`` defines is wrapped, under every
name by which a ``stableforms`` module holds it, and each call records the
type of every scalar in its positional arguments, nested lists and tuples
included.  The 6-dimensional frames with sqrt|lambda| irrational, whose
printed bases carry QuadExt entries, are built from rational pairs: neither
they, nor the CLI classification that prints them, nor
``bridge.synthesize_compatible_ip`` pass a QuadExt (or a float) to
``linalg``.

Every exact kernel raises a TypeError that names the type on a float, a
QuadExt, or a float next to rational values: ``wedge``, ``contract``,
``pullback`` by monomial and dense maps at every degree (the map's entries
or the form's coefficients), ``AltForm.__call__``, ``LinearMap.apply``,
``mat_mul``, ``mat_vec``, ``InnerProduct.pair``, ``compalg.multiply`` and
``compalg.inner``, the 2- and 3-fold cross products, and ``FrameModel.d``.
"""

import contextlib
import inspect
import io
import itertools
import json
import os
import sys
import tempfile
from collections import Counter
from fractions import Fraction

import pytest

from conftest import G6
from stableforms import bridge, cli, framecalc, linalg, stable6
from stableforms.compalg import AlgebraTag, AlgElement, inner, multiply
from stableforms.exteralg import (AltForm, InnerProduct, LinearMap, VolumeForm, basis_form, contract, pullback,
                                  wedge)
from stableforms.linalg import mat_mul, mat_vec
from stableforms.scalars import QuadExt
from stableforms.vcp import cross_2fold, cross_3fold
from test_cli_golden import DOCS
from test_differential import omega_d  # lambda = 4 d^3

VOL6 = VolumeForm.standard(6)


def scalar_types(value, out: Counter):
    if isinstance(value, (list, tuple)):
        for x in value:
            scalar_types(x, out)
    else:
        out[type(value).__name__] += 1


@pytest.fixture
def entries(monkeypatch):
    """Types of the scalars handed to linalg, counted over every wrapped call."""
    seen = Counter()
    originals = {id(fn): fn for name, fn in vars(linalg).items()
                 if inspect.isfunction(fn) and fn.__module__ == linalg.__name__}
    wrappers = {}
    for key, fn in originals.items():
        def recording(*args, _orig=fn, **kwargs):
            # one-pass iterables (generators, dict views) are read once and handed on as lists
            args = [a if isinstance(a, (list, tuple)) or not hasattr(a, "__iter__") else list(a)
                    for a in args]
            scalar_types(args, seen)
            return _orig(*args, **kwargs)
        wrappers[key] = recording
    for module in [m for name, m in sys.modules.items() if name.startswith("stableforms")]:
        for name, value in list(vars(module).items()):
            if id(value) in originals and value is originals[id(value)]:
                monkeypatch.setattr(module, name, wrappers[id(value)])
    return seen


def classify_document(doc: dict):
    """`stableforms classify DOC --canonicalize --json`, in process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", path, "--canonicalize", "--json"]) == cli.EXIT_OK


def quadext_basis(canon) -> bool:
    return any(isinstance(x, QuadExt) for row in canon.basis.matrix for x in row)


@pytest.mark.parametrize("d", [2, -2, Fraction(5, 7), Fraction(-5, 7)])
def test_canonicalize6_with_irrational_root_is_rational_inside(d, entries):
    omega = Fraction(3, 10 ** 40) * pullback(G6, omega_d(d))
    canon = stable6.canonicalize6(omega, VOL6)
    assert quadext_basis(canon)
    assert set(entries) <= {"int", "Fraction"} and entries["Fraction"]


def test_cli_classify_of_the_golden_quadext_document_is_rational_inside(entries):
    classify_document(DOCS["omega_quadext"])
    assert set(entries) <= {"int", "Fraction"} and entries["Fraction"]


@pytest.mark.parametrize("d", [1, -1, -2])
def test_synthesize_compatible_ip_is_rational_inside(d, entries):
    ss = stable6.scaled_structure(pullback(G6, omega_d(d)), VOL6)
    bridge.synthesize_compatible_ip(ss)
    assert set(entries) <= {"int", "Fraction"} and entries["Fraction"]


def test_guard_sees_a_planted_quadext(entries):
    """The guard is not vacuous: a QuadExt handed to linalg is recorded, under the
    name another module imported it by."""
    from stableforms import exteralg
    with pytest.raises(TypeError):
        exteralg._det([[QuadExt.of(1, 2), 0], [0, 1]])
    assert entries["QuadExt"]


# (x, y) handed to each kernel among rational values, and the type its error names
NON_RATIONAL = {"float": (0.5, 2.0, "float"),
                "quadext": (QuadExt.of(1, 2), QuadExt.root(Fraction(2)), "QuadExt"),
                "rational next to float": (Fraction(1, 3), 0.25, "float")}


def kernel_calls(x, y) -> list:
    """(what, kernel, arguments): every exact kernel, handed x and y among rational values."""
    rows = [[1, 0, 1, 2], [1, Fraction(1, 2), 0, 1], [0, 1, 1, 0], [2, 0, 0, 1]]
    bad_rows = [[x, 0, 1, 2], [1, y, 0, 1], [0, 1, 1, 0], [2, 0, 0, 1]]
    diagonal = [[Fraction(1, 3) * (i == j) for j in range(4)] for i in range(4)]
    bad_diagonal = [[(x, y, 1, 1)[i] * (i == j) for j in range(4)] for i in range(4)]
    e1, v = [1, 0, 0, 0], [x, y, 1, 0]
    one, two = AltForm(4, 1, {(1,): x, (2,): y}), AltForm(4, 2, {(1, 2): x, (3, 4): y})
    rational_two = AltForm(4, 2, {(1, 2): 1, (1, 3): Fraction(2, 3)})
    h, bad_h = AlgElement(AlgebraTag.H, (1, Fraction(1, 2), 0, 3)), AlgElement(AlgebraTag.H, (x, y, 0, 3))
    calls = [
        ("wedge", wedge, (one, basis_form(4, 3))), ("wedge", wedge, (basis_form(4, 3), one)),
        ("contract", contract, (v, rational_two)), ("contract", contract, (e1, two)),
        ("AltForm.__call__", two, (e1, [0, 1, 0, 0])), ("AltForm.__call__", rational_two, (v, e1)),
        ("LinearMap.apply", LinearMap.from_rows(bad_rows).apply, (e1,)),
        ("LinearMap.apply", LinearMap.from_rows(rows).apply, (v,)),
        ("mat_mul", mat_mul, (bad_rows, rows)), ("mat_mul", mat_mul, (rows, bad_rows)),
        ("mat_vec", mat_vec, (bad_rows, e1)), ("mat_vec", mat_vec, (rows, v)),
        ("InnerProduct.pair", InnerProduct.diagonal([1, -1, 2, 1]).pair, (v, e1)),
        ("InnerProduct.pair", InnerProduct.diagonal([1, -1, 2, 1]).pair, (e1, v)),
        ("compalg.multiply", multiply, (bad_h, h)), ("compalg.multiply", multiply, (h, bad_h)),
        ("compalg.inner", inner, (bad_h, h)), ("compalg.inner", inner, (h, bad_h)),
        ("2-fold cross product", cross_2fold(AlgebraTag.O), (v + [0, 0, 0], e1 + [0, 0, 0])),
        ("3-fold cross product", cross_3fold(AlgebraTag.O, "X1"), (v + [0] * 4, e1 + [0] * 4, e1[::-1] * 2)),
        ("3-fold cross product", cross_3fold(AlgebraTag.B, "X2"), (e1 * 2, v + [0] * 4, e1[::-1] * 2)),
        ("FrameModel.d", framecalc.kodaira_thurston().d, (one,)),
    ]
    for shape, good, bad in (("monomial", diagonal, bad_diagonal), ("dense", rows, bad_rows)):
        for p in range(5):
            idxs = list(itertools.combinations(range(1, 5), p))
            what = f"pullback by a {shape} map, degree {p}"
            calls += [(what, pullback, (LinearMap.from_rows(bad), AltForm(4, p, {idxs[-1]: Fraction(1, 3)}))),
                      (what, pullback, (LinearMap.from_rows(good), AltForm(4, p, dict(zip(idxs, (y, x))))))]
    return calls


@pytest.mark.parametrize("kind", sorted(NON_RATIONAL))
def test_every_kernel_rejects_non_rational_values(kind):
    x, y, name = NON_RATIONAL[kind]
    for what, kernel, args in kernel_calls(x, y):
        try:
            kernel(*args)
        except TypeError as ex:
            message = str(ex)
        else:
            message = "no error"
        assert message == f"expected int or Fraction values, got {name}", what
