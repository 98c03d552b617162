"""The frozen records of ``scalars._Record`` against the ``@dataclass(frozen=True)``
classes they replaced.

Each record is checked against a test-local dataclass twin with the same
fields: ``vcp.CrossProduct`` (with its default ``tag = None``),
``stable7.QForm`` and a 3-field record defined here.  Record and twin have
the same constructor signature and raise the same TypeError on a missing or
an extra argument; ``==``, ``!=`` and ``hash`` agree, an instance equals no
instance of another class with equal fields, and the reprs are the same up to
the class name; assigning or deleting an attribute raises AttributeError, and
``_replace`` copies as ``dataclasses.replace`` does.  ``AltForm`` and
``InnerProduct`` still raise their ``__post_init__`` ValueErrors, the memos
(``AltForm._memo``, ``CircleBundleModel._memo``, ``SU3Data._omega2``) enter
neither ``==`` nor ``repr``, and a method a class defines itself wins.
"""

from __future__ import annotations

import dataclasses
import inspect
from fractions import Fraction
from typing import Callable

import pytest

from stableforms import framecalc, stable7, vcp
from stableforms.compalg import AlgebraTag
from stableforms.exteralg import AltForm, InnerProduct, VolumeForm, alt_form, wedge
from stableforms.scalars import QuadExt, _Record


@dataclasses.dataclass(frozen=True)
class CrossProductTwin:
    dim: int
    fold: int
    variant: str
    ip: InnerProduct
    evaluator: Callable
    tag: AlgebraTag | None = None


@dataclasses.dataclass(frozen=True)
class QFormTwin:
    B: tuple
    vol: VolumeForm
    _signature: tuple[int, int, int]


class Triple(_Record):
    a: int
    b: Fraction
    c: tuple


@dataclasses.dataclass(frozen=True)
class TripleTwin:
    a: int
    b: Fraction
    c: tuple


def core(*vectors):
    return [0] * 8, 1


IP8 = InnerProduct.diagonal([1] * 4 + [-1] * 4)
VOL7 = VolumeForm.standard(7)
B7 = tuple(tuple(Fraction(int(i == j)) for j in range(7)) for i in range(7))
# (record, twin, [argument tuples, the first two equal and the third different])
PAIRS = {
    "CrossProduct": (vcp.CrossProduct, CrossProductTwin,
                     [(8, 3, "X1", IP8, core), (8, 3, "X1", IP8, core, None),
                      (8, 3, "X1", IP8, core, AlgebraTag.B)]),
    "QForm": (stable7.QForm, QFormTwin, [(B7, VOL7, (7, 0, 0)), (B7, VOL7, (7, 0, 0)), (B7, VOL7, (0, 7, 0))]),
    "Triple": (Triple, TripleTwin, [(1, Fraction(1, 2), (3,)), (1, Fraction(2, 4), (3,)), (1, Fraction(1, 2), ())]),
}


def outcome(run, *names):
    """run()'s value, or its exception's type and message with each class name in names
    replaced by "C", so that a record and its twin compare."""
    try:
        return "value", run()
    except Exception as ex:  # noqa: BLE001 - the exception is what is compared
        text = str(ex)
        for name in sorted(names, key=len, reverse=True):  # TripleTwin before Triple
            text = text.replace(name, "C")
        # a dataclass raises FrozenInstanceError, an AttributeError
        return next(c for c in type(ex).__mro__ if c.__module__ == "builtins").__name__, text


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_signature_and_argument_errors_match_the_dataclass(name):
    record, twin, (args, *_) = PAIRS[name]
    assert inspect.signature(record) == inspect.signature(twin)
    names = (record.__qualname__, twin.__qualname__)
    assert record._fields == tuple(f.name for f in dataclasses.fields(twin))
    for bad_args, kwargs in ((args[:-1], {}), ((*args, 0, 0), {}), (args, {"extra": 1}),
                             (args[1:], {"zz": 0})):
        got = outcome(lambda: record(*bad_args, **kwargs), *names)
        assert got[0] == "TypeError" and got == outcome(lambda: twin(*bad_args, **kwargs), *names)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_eq_hash_and_repr_match_the_dataclass(name):
    record, twin, argsets = PAIRS[name]
    names = (record.__qualname__, twin.__qualname__)
    recs, twins = [record(*a) for a in argsets], [twin(*a) for a in argsets]
    for i in range(3):
        for j in range(3):
            assert (recs[i] == recs[j]) == (twins[i] == twins[j]) == (i == j or {i, j} == {0, 1})
            assert (recs[i] != recs[j]) == (twins[i] != twins[j])
        assert recs[i] != twins[i] and twins[i] != recs[i] and not recs[i] == twins[i]
        assert outcome(lambda: hash(recs[i])) == outcome(lambda: hash(twins[i]))
        assert repr(recs[i]).replace(names[0], "C", 1) == repr(twins[i]).replace(names[1], "C", 1)
    if name == "QForm":  # its VolumeForm holds an AltForm, whose terms are a dict
        assert outcome(lambda: hash(recs[0]))[0] == "TypeError"
    else:
        assert hash(recs[0]) == hash(recs[1]) == hash(twins[0])


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_attributes_are_frozen_like_the_dataclass(name):
    record, twin, (args, *_) = PAIRS[name]
    rec, tw = record(*args), twin(*args)
    for attr in (*record._fields, "other"):
        for change in (lambda x: setattr(x, attr, 0), lambda x: delattr(x, attr)):
            got, expected = outcome(lambda: change(rec)), outcome(lambda: change(tw))
            assert got == expected and got[0] == "AttributeError"
    assert rec == record(*args) and not hasattr(rec, "other")


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_replace_copies_like_the_dataclass(name):
    record, twin, (_, args, other) = PAIRS[name]
    rec, tw = record(*args), twin(*args)
    changes = {f: v for f, v, w in zip(record._fields, other, args) if v != w}
    assert changes
    assert rec._replace(**changes) == record(*other)
    assert dataclasses.replace(tw, **changes) == twin(*other)
    assert rec._replace() == rec and rec._replace() is not rec
    assert outcome(lambda: rec._replace(zz=0), record.__qualname__) == \
        outcome(lambda: dataclasses.replace(tw, zz=0), twin.__qualname__)


@pytest.mark.parametrize("build, message", [
    (lambda: AltForm(9, 3, {}), "dimension 9 out of range 0..8"),
    (lambda: AltForm(6, 3, {(1, 2): 1}), r"index \(1, 2\) has wrong length for degree 3"),
    (lambda: AltForm(6, 2, {(2, 1): 1}), r"index \(2, 1\) is not strictly increasing"),
    (lambda: InnerProduct(2, ((1, 2), (3, 4))), "Gram matrix is not symmetric"),
    (lambda: InnerProduct(2, ((1, 1), (1, 1))), "inner product is degenerate"),
    (lambda: InnerProduct(2, ((1,),)), "Gram matrix shape mismatch"),
])
def test_post_init_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_memos_enter_neither_eq_nor_repr():
    a, b = (alt_form(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1}) for _ in range(2))
    text = repr(a)
    a._memo["K"] = "filled"
    assert a == b and repr(a) == text and a._memo != b._memo
    cb, other = (framecalc.make_circle_bundle(framecalc.flat_torus(6), alt_form(6, 2, {})) for _ in range(2))
    text = repr(cb)
    framecalc.nabla_phi(cb, framecalc.standard_su3())
    assert cb._memo and not other._memo
    assert cb == other and repr(cb) == text and "_memo" not in text
    su3 = framecalc.standard_su3()
    assert su3 == framecalc.standard_su3() and "_omega2" not in repr(su3)
    assert su3._omega2 == wedge(su3.omega, su3.omega)
    for record in (a, cb, su3):
        with pytest.raises(AttributeError):
            record._memo = {}


def test_methods_a_class_defines_win():
    """QuadExt keeps its own eq, hash and repr, AltForm its repr; every other dunder is
    generated per class."""
    x = QuadExt(Fraction(3), Fraction(0), Fraction(2))
    assert x == 3 and hash(x) == hash(Fraction(3)) and repr(x) == "(3+0*sqrt(2))"
    assert repr(alt_form(6, 3, {(1, 2, 3): 1})) == "AltForm(6,3; 1*e123)"
    for cls in (QuadExt, AltForm, vcp.CrossProduct, stable7.QForm, Triple):
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
