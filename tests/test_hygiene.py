"""Dead-code guard for ``src/stableforms``, by ``ast`` (no linter needed).

* Every name a module imports is used in that module; the package
  ``__init__`` is exempt, since its imports are the public re-exports.
* Every module-level ``_private`` function is referenced somewhere in the
  package outside its own definition, and so is every public function of
  every module, but for the entries of ``PUBLIC_API``: the uncalled public
  functions that the README, the CLI, perfbench or the spec need, each with
  its reason.  Methods are not covered.
* The exact-only modules (``linalg``, ``exteralg``, ``compalg``, ``vcp``)
  contain no ``float(`` call, no float literal and no ``math.sqrt``,
  ``math.exp`` or ``math.log``: floats enter the package elsewhere, in
  named places.
* No module but ``scalars`` takes a float root (a power by a float literal
  or by a quotient, ``math.sqrt`` or ``math.cbrt``): every root of a
  rational goes through ``scalars.exact_root`` or ``scalars._float_root``.
* ``QuadExt`` is named only in ``scalars`` (which defines it), ``stable6``
  (whose canonical bases carry it when sqrt|lambda| is irrational) and
  ``cli`` (which prints them): every other module computes over Q.
* No module but ``stable6`` names a private of ``stable6``, and none but
  ``stable7`` one of ``stable7``: every other caller takes K and lambda,
  the hat, the orbit, the frame, the signature and the metric's volume form
  from the public calls.
* No module but ``exteralg`` imports ``linalg.inverse``: every other caller
  reads a Gram inverse from ``InnerProduct`` or needs none.
* No function tests a name bound from ``_clear(...)`` against None:
  ``linalg._clear`` raises TypeError on any value that is not an int or a
  Fraction, so no kernel keeps a second path for one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stableforms"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def statement_names(trees) -> list[tuple[ast.stmt, set[str]]]:
    """Each top-level statement of the module bodies, with the names and attribute names it uses."""
    out = []
    for tree in trees:
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            out.append((stmt, names))
    return out


def unreferenced_functions(modules: dict, names, private: bool) -> list[str]:
    """The module-level functions of the named modules, private (``_name``) or public,
    whose name no other top-level statement of the package uses."""
    statements = statement_names(modules.values())
    return [f"{name}: {stmt.name}" for name in names for stmt in modules[name].body
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__")
            and stmt.name.startswith("_") == private
            and not any(stmt.name in used for other, used in statements if other is not stmt)]


def unreferenced_private_functions(modules: dict) -> list[str]:
    return unreferenced_functions(modules, modules, private=True)


def unreferenced_public_functions(modules: dict, name: str) -> list[str]:
    """The public module-level functions of one module that nothing else in the package references."""
    return unreferenced_functions(modules, [name], private=False)


EXACT_ONLY = ("linalg.py", "exteralg.py", "compalg.py", "vcp.py")
FLOAT_FUNCTIONS = {"sqrt", "exp", "log"}


def float_uses(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"float( (line {node.lineno})")
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            out.append(f"float literal {node.value!r} (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_FUNCTIONS
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            out.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [f"math.{a.name} (line {node.lineno})" for a in node.names
                    if a.name in FLOAT_FUNCTIONS]
    return out


@pytest.mark.parametrize("name", EXACT_ONLY)
def test_exact_modules_use_no_floats(name):
    assert float_uses(MODULES[name]) == []


def test_guard_flags_floats():
    """The float check is not vacuous: it catches each planted float use."""
    tree = ast.parse("import math\nfrom math import log\n\n"
                     "def f(x):\n    return float(x) + 0.5 * math.sqrt(x) + math.gcd(2, 4)\n")
    assert float_uses(tree) == ["math.log (line 2)", "float( (line 5)", "float literal 0.5 (line 5)",
                                "math.sqrt (line 5)"]


ROOT_OWNER = "scalars.py"
ROOT_FUNCTIONS = {"sqrt", "cbrt"}


def float_roots(tree: ast.Module) -> list[str]:
    """Each float root: a power whose exponent is a float literal or a quotient, signed or
    not (``** 0.5``, ``** (1 / 3)``, ``** -(1.0 / k)``), and each ``math.sqrt`` or ``math.cbrt``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            e = node.right.operand if isinstance(node.right, ast.UnaryOp) else node.right
            if (isinstance(e, ast.BinOp) and isinstance(e.op, ast.Div)
                    or isinstance(e, ast.Constant) and type(e.value) is float):
                out.append(f"** {ast.unparse(node.right)} (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr in ROOT_FUNCTIONS
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            out.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [f"math.{a.name} (line {node.lineno})" for a in node.names if a.name in ROOT_FUNCTIONS]
    return out


@pytest.mark.parametrize("name", sorted(set(MODULES) - {ROOT_OWNER}))
def test_only_scalars_takes_float_roots(name):
    assert float_roots(MODULES[name]) == []


def test_guard_flags_float_roots():
    """The root check is not vacuous: it catches each planted root and the owner's own, and
    passes integer powers and plain quotients."""
    tree = ast.parse("import math\nfrom math import cbrt\n\n"
                     "def f(x, k):\n    return x ** 0.5 + x ** (1 / 3) - x ** -(1.0 / k) + math.sqrt(x)\n\n"
                     "def g(x, k):\n    return x ** 2 + x ** k + x ** -1 + x / 3 + math.isqrt(k)\n")
    assert sorted(float_roots(tree)) == ["** -(1.0 / k) (line 5)", "** 0.5 (line 5)", "** 1 / 3 (line 5)",
                                         "math.cbrt (line 2)", "math.sqrt (line 5)"]
    assert float_roots(MODULES[ROOT_OWNER]) != []


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__.py"}))
def test_no_unused_imports(name):
    assert unused_imports(MODULES[name]) == []


def test_no_unreferenced_private_functions():
    assert unreferenced_private_functions(MODULES) == []


def test_guard_flags_dead_code():
    """The checks above are not vacuous: they catch a planted import and helper."""
    tree = ast.parse("import math\nfrom .linalg import det as _det, rank\n\n"
                     "def _helper(x):\n    return _helper(x - 1) + rank(x)\n\n"
                     "def _used():\n    return 1\n\nVALUE = _used()\n")
    assert unused_imports(tree) == ["math (line 1)", "_det (line 2)"]
    assert unreferenced_private_functions({"m.py": tree}) == ["m.py: _helper"]


PUBLIC_API = {
    "stable6.py": {
        "canonical_omega_plus_4term": "the paper's 4-term display of the O6_PLUS canonical form",
        "adapted_vol6": "the README names it: the orientation of the canonical displays",
    },
    "stable7.py": {
        "canonical_phi_plus": "the canonical form of the O7_PLUS orbit, the paper's case list",
        "cross_from_phi": "the README's induced cross products: the 2-fold product of phi",
    },
    "exteralg.py": {"contract": "the README names contraction; the products contract on its integer loop"},
    "compalg.py": {"element": "the spec's constructor of an algebra element from coordinates"},
    "vcp.py": {
        "eval": "the spec name of a cross product's evaluation",
        "fundamental_form": "the README's fundamental forms of a cross product",
        "para_structure_from_plane": "the L of the README's Lorentzian-plane identities, on its own; "
                                     "the verifier shares its code (_para_structure)",
        "reduce_by_unit_vector": "the README's unit-vector reductions",
    },
    "bridge.py": {"lift_to_3fold": "the README's 3-fold lift; perfbench construct calls and traces it"},
    "framecalc.py": {
        "flat_torus": "a frame model perfbench construct builds",
        "kodaira_thurston": "a frame model perfbench construct builds",
        "iwasawa_model": "a frame model perfbench construct builds",
        "standard_su3": "the SU(3) data perfbench construct builds its G2 bundles from",
        "build_g2": "the README names it: phi and *phi of a circle bundle",
        "nabla_phi": "the README names it; perfbench construct calls and traces it",
        "critical_point_check": "the README's critical points; perfbench construct calls and traces it",
    },
}


def public_api_violations(modules: dict, name: str, public_api: dict) -> list[str]:
    """The public functions of one module that nothing in the package references and
    ``public_api`` does not keep, then each kept name that is referenced or gone."""
    dead = set(unreferenced_public_functions(modules, name))
    kept = {f"{name}: {fn}" for fn in public_api.get(name, {})}
    return sorted(dead - kept) + sorted(f"{entry} (kept, but referenced or gone)" for entry in kept - dead)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_unreferenced_public_functions(name):
    assert public_api_violations(MODULES, name, PUBLIC_API) == []


def test_guard_flags_a_dead_public_function():
    """The public check is not vacuous: it catches an uncalled copy helper."""
    tree = ast.parse("def mat_copy(m):\n    return [list(r) for r in m]\n\n"
                     "def rank(m):\n    return len(m)\n\nVALUE = rank([])\n")
    assert unreferenced_public_functions({"linalg.py": tree}, "linalg.py") == ["linalg.py: mat_copy"]


def test_guard_flags_an_unkept_public_function():
    """The public API check is not vacuous: it catches a planted uncalled alias and a
    stale entry, and passes a kept name and a called function."""
    tree = ast.parse("def eval(cp, *vs):\n    return cp(*vs)\n\n"
                     "def to_vcp(phi):\n    return cross(phi)\n\n"
                     "def cross(phi):\n    return phi\n")
    api = {"vcp.py": {"eval": "spec name", "cross": "called", "gone": "deleted"}}
    assert public_api_violations({"vcp.py": tree}, "vcp.py", api) == [
        "vcp.py: to_vcp", "vcp.py: cross (kept, but referenced or gone)",
        "vcp.py: gone (kept, but referenced or gone)"]


QUADEXT_MODULES = {"scalars.py", "stable6.py", "cli.py"}


def quadext_mentions(sources: dict) -> list[str]:
    """The modules outside ``QUADEXT_MODULES`` whose text names QuadExt."""
    return sorted(name for name, text in sources.items()
                  if name not in QUADEXT_MODULES and "QuadExt" in text)


def test_quadext_stays_in_its_modules():
    assert quadext_mentions({path.name: path.read_text() for path in SRC.glob("*.py")}) == []


def test_guard_flags_a_quadext_mention():
    """The QuadExt check is not vacuous: it catches a planted import and a docstring."""
    sources = {"linalg.py": "from .scalars import QuadExt\n", "exteralg.py": '"""over QuadExt."""\n',
               "stable6.py": "from .scalars import QuadExt\n", "vcp.py": "x = 1\n"}
    assert quadext_mentions(sources) == ["exteralg.py", "linalg.py"]


OWNERS = ("stable6.py", "stable7.py")


def private_uses(modules: dict, owner: str) -> list[str]:
    """Each import of a ``_private`` name from the owner module, and each
    ``owner._private`` attribute, outside the owner: module, enclosing top-level
    definition (None at module level) and name."""
    stem = owner.removesuffix(".py")
    out = []
    for name, tree in modules.items():
        if name == owner:
            continue
        for stmt in tree.body:
            where = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == stem:
                    found = [alias.name for alias in node.names]
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == stem):
                    found = [node.attr]
                else:
                    continue
                out += [f"{name}: {where}: {n}" for n in found if n.startswith("_") and not n.startswith("__")]
    return out


@pytest.mark.parametrize("owner", OWNERS)
def test_privates_stay_with_their_owner(owner):
    assert private_uses(MODULES, owner) == []


def test_guard_flags_a_stable7_private():
    """The owner check is not vacuous: it catches a planted import and attribute, and
    passes public names, dunders and stable7's own uses."""
    tree = ast.parse("from . import stable7\nfrom .stable7 import _invariants, q_form\n\n"
                     "def f(phi):\n    return stable7._orbit7(phi), stable7.classify7(phi), stable7.__name__\n")
    own = ast.parse("from .linalg import _clear\n\nX = _clear\n")
    assert private_uses({"cli.py": tree, "stable7.py": own}, "stable7.py") == [
        "cli.py: None: _invariants", "cli.py: f: _orbit7"]


def test_guard_flags_a_stable6_private():
    """The same check catches the stable6 privates its callers once read, and leaves
    stable6's own uses and the other owner's names alone."""
    tree = ast.parse("from . import stable6\n\n"
                     "def check(omega, ss):\n"
                     "    return stable6._hat(omega, ss), stable6.hat(omega, ss.lam.vol)\n\n"
                     "def size(form):\n"
                     "    from .stable6 import _k_entry, k_endo\n    return _k_entry(form)\n")
    own = ast.parse("def k_endo(omega):\n    return _k_entry(omega)\n")
    modules = {"framecalc.py": tree, "stable6.py": own}
    assert private_uses(modules, "stable6.py") == ["framecalc.py: check: _hat",
                                                   "framecalc.py: size: _k_entry"]
    assert private_uses(modules, "stable7.py") == []


INVERSE_OWNER = "exteralg.py"


def inverse_uses(modules: dict) -> list[str]:
    """Each import of ``inverse`` from ``linalg``, and each ``linalg.inverse`` attribute,
    outside ``INVERSE_OWNER``: module and line."""
    out = []
    for name, tree in modules.items():
        if name == INVERSE_OWNER:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
                out += [f"{name}: line {node.lineno}" for alias in node.names if alias.name == "inverse"]
            elif (isinstance(node, ast.Attribute) and node.attr == "inverse"
                  and isinstance(node.value, ast.Name) and node.value.id == "linalg"):
                out.append(f"{name}: line {node.lineno}")
    return out


def test_only_exteralg_imports_the_inverse():
    assert inverse_uses(MODULES) == []


def test_guard_flags_an_inverse_import():
    """The inverse check is not vacuous: it catches a planted renamed import and a
    module attribute, and passes exteralg's own import and a method named inverse."""
    vcp = ast.parse("from .linalg import mat_vec, inverse as _inv\n\nX = _inv\n")
    bridge = ast.parse("from . import linalg\n\ndef f(m, k):\n    return linalg.inverse(m), k.inverse()\n")
    own = ast.parse("from .linalg import inverse as _inverse\n")
    assert inverse_uses({"vcp.py": vcp, "bridge.py": bridge, "exteralg.py": own}) == [
        "vcp.py: line 1", "bridge.py: line 4"]


def is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def clear_none_tests(modules: dict) -> list[str]:
    """Each comparison with None, and each conditional expression with a None branch, whose
    test reads a name bound from a ``_clear(...)`` call in the same top-level definition:
    module, definition and line."""
    out = []
    for name, tree in modules.items():
        for stmt in tree.body:
            cleared = set()
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                        and "_clear" in (getattr(node.value.func, "id", None), getattr(node.value.func, "attr", None))):
                    cleared |= {n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Compare) and any(map(is_none, [node.left, *node.comparators])):
                    test = node
                elif isinstance(node, ast.IfExp) and (is_none(node.body) or is_none(node.orelse)):
                    test = node.test
                else:
                    continue
                if any(isinstance(n, ast.Name) and n.id in cleared for n in ast.walk(test)):
                    out.append(f"{name}: {getattr(stmt, 'name', None)}: line {node.lineno}")
    return out


def test_no_kernel_tests_cleared_values_against_none():
    assert clear_none_tests(MODULES) == []


def test_guard_flags_a_none_test_of_cleared_values():
    """The None check is not vacuous: it catches a planted comparison and a conditional
    expression, and passes a None test of a name not bound from ``_clear``."""
    tree = ast.parse("from . import linalg\nfrom .linalg import _clear\n\n"
                     "def over(a):\n    (xs,), dens = _clear(a)\n    if dens is None:\n        return xs\n"
                     "    return dens[0]\n\n"
                     "def scale(a, b):\n    cleared, dens = linalg._clear(a, b)\n"
                     "    return dens[0] * dens[1] if dens else None\n\n"
                     "def fine(a, den=None):\n    (xs,), dens = _clear(a)\n"
                     "    return xs if den is None else dens\n")
    assert clear_none_tests({"exteralg.py": tree}) == ["exteralg.py: over: line 6", "exteralg.py: scale: line 12"]
