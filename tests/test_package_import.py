"""What importing the package runs, and first use of a deferred submodule.

``bridge``, ``compalg``, ``framecalc`` and ``vcp`` are in ``sys.modules`` from
``import stableforms`` on, but their code runs on first attribute use. Each
case runs in a fresh interpreter, since the test process has imported every
module already. A module's code has run exactly when its ``__dict__``, read
past any attribute hook with ``object.__getattribute__``, holds the names it
defines.  No layer imports ``dataclasses`` or ``inspect``, on the classify path
or with every layer run.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAYERS = ("scalars", "linalg", "exteralg", "compalg", "vcp", "stable6", "stable7", "bridge",
          "framecalc")
# a name each deferred module defines
DEFERRED = {"bridge": "stable6_to_7", "compalg": "AlgebraTag", "framecalc": "FrameModel",
            "vcp": "CrossProduct"}
# standard modules no layer imports: dataclasses imports inspect, and with the
# generation of each record class that took about 15 ms of every CLI start
UNUSED_STDLIB = ("dataclasses", "inspect")

RAN = """
import sys
def ran(name):
    return DEFERRED[name] in object.__getattribute__(sys.modules["stableforms." + name], "__dict__")
"""


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    prelude = f"DEFERRED = {DEFERRED!r}\nUNUSED_STDLIB = {UNUSED_STDLIB!r}\n" + RAN
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_registers_every_layer_and_runs_no_deferred_one():
    out = run_fresh("""
        import json, stableforms
        print(json.dumps({"modules": sorted(n for n in sys.modules if n.startswith("stableforms.")),
                          "ran": [n for n in DEFERRED if ran(n)]}))
    """)
    assert out["modules"] == sorted(f"stableforms.{m}" for m in LAYERS)
    assert out["ran"] == []


def test_classify_runs_no_deferred_module(tmp_path):
    docs = {
        6: [{"idx": [1, 2, 3], "coef": "1"}, {"idx": [4, 5, 6], "coef": "1"}],
        7: [{"idx": list(i), "coef": c} for i, c in [((1, 2, 3), "1"), ((1, 6, 7), "-1"),
                                                      ((2, 5, 7), "1"), ((3, 5, 6), "-1"),
                                                      ((1, 4, 5), "1"), ((2, 4, 6), "1"),
                                                      ((3, 4, 7), "1")]],
    }
    for dim, terms in docs.items():
        path = tmp_path / f"form{dim}.json"
        path.write_text(json.dumps({"dim": dim, "degree": 3, "terms": terms}))
        out = run_fresh(f"""
            import io, json, contextlib
            from stableforms import cli
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                code = cli.main(["classify", {str(path)!r}, "--canonicalize", "--json"])
            print(json.dumps({{"code": code, "cls": json.loads(buf.getvalue())["class"],
                              "ran": [n for n in DEFERRED if ran(n)],
                              "stdlib": [m for m in UNUSED_STDLIB if m in sys.modules]}}))
        """)
        assert out == {"code": 0, "cls": "O6_PLUS" if dim == 6 else "O7_MINUS", "ran": [], "stdlib": []}


def test_no_layer_imports_dataclasses_or_inspect():
    out = run_fresh(f"""
        import importlib, json
        for name in {LAYERS!r}:  # a deferred layer runs on its first attribute read
            importlib.import_module("stableforms." + name).__doc__
        print(json.dumps({{"ran": [n for n in DEFERRED if ran(n)],
                          "stdlib": [m for m in UNUSED_STDLIB if m in sys.modules]}}))
    """)
    assert out == {"ran": list(DEFERRED), "stdlib": []}


def test_every_public_name_resolves_by_from_import():
    out = run_fresh("""
        import json, stableforms
        found = []
        for name in stableforms.__all__:
            scope = {}
            exec(f"from stableforms import {name}", scope)
            found.append(scope[name] is not None)
        print(json.dumps({"found": found}))
    """)
    assert out["found"] and all(out["found"])
    out = run_fresh("""
        import json
        from stableforms import *
        import stableforms
        print(json.dumps({"missing": [n for n in stableforms.__all__ if n not in globals()]}))
    """)
    assert out["missing"] == []


def test_every_public_name_resolves_as_an_attribute():
    """A deferred module is bound without running; AlgebraTag and AlgElement run compalg."""
    out = run_fresh("""
        import json, stableforms
        values = {n: getattr(stableforms, n) for n in stableforms.__all__}
        print(json.dumps({"missing": [n for n, v in values.items() if v is None],
                          "ran": [n for n in DEFERRED if ran(n)]}))
    """)
    assert out == {"missing": [], "ran": ["compalg"]}


def test_deferred_module_is_the_registered_one_after_first_use():
    out = run_fresh("""
        import importlib, json, stableforms
        registered = sys.modules["stableforms.framecalc"]
        import stableforms.framecalc
        print(json.dumps({"same": stableforms.framecalc is registered
                                  and importlib.import_module("stableforms.framecalc") is registered,
                          "ran": ran("framecalc"), "plain": type(registered).__name__}))
    """)
    assert out == {"same": True, "ran": True, "plain": "module"}


def test_first_use_from_many_threads_at_once():
    """8 threads pass a barrier, then each touches one attribute of every deferred
    module (in its own order); none may see a module whose code has not finished."""
    out = run_fresh("""
        import json, threading
        sys.setswitchinterval(1e-6)
        import stableforms
        names = list(DEFERRED.items())
        barrier = threading.Barrier(8)
        errors = []

        def touch(k):
            barrier.wait(timeout=60)
            for name, attr in names[k % 4:] + names[:k % 4]:
                try:
                    getattr(getattr(stableforms, name), attr)
                except Exception as ex:
                    errors.append(f"{name}.{attr}: {type(ex).__name__}: {ex}")

        threads = [threading.Thread(target=touch, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        print(json.dumps({"alive": sum(t.is_alive() for t in threads), "errors": errors}))
    """)
    assert out == {"alive": 0, "errors": []}
