"""The library hands only int and Fraction entries to ``linalg``.

Every function that ``stableforms.linalg`` defines is wrapped, under every
name by which a ``stableforms`` module holds it, and each call records the
type of every scalar in its positional arguments, nested lists and tuples
included.  The 6-dimensional frames with sqrt|lambda| irrational, whose
printed bases carry QuadExt entries, are built from rational pairs: neither
they, nor the CLI classification that prints them, nor
``bridge.synthesize_compatible_ip`` pass a QuadExt (or a float) to
``linalg``.
"""

import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
from collections import Counter
from fractions import Fraction

import pytest

from conftest import G6
from stableforms import bridge, cli, linalg, stable6
from stableforms.exteralg import VolumeForm, pullback
from stableforms.scalars import QuadExt
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
