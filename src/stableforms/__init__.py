"""stableforms: exact calculus for stable 3-forms, exceptional vector cross
products, and invariant-frame G2 models.

All values are immutable after construction and every operation is a pure
function, so the whole API is safe for concurrent use.

Importing the package runs ``scalars``, ``linalg``, ``exteralg``, ``stable6``
and ``stable7``. ``bridge``, ``compalg``, ``framecalc`` and ``vcp`` are
deferred: each is in ``sys.modules`` and on the package from the start, but
its code runs on the first use of any of its attributes (``import
stableforms.vcp`` is one), once and under a lock, so threads racing to it
all see the whole module; ``stableforms classify`` runs none of them. They
are real ``sys.modules`` entries, not names served by ``__getattr__``, so
that code looking layers up there finds them (perfbench's tracer
patches every layer that way). ``cli`` alone is served by ``__getattr__``:
were it in ``sys.modules`` before ``python -m stableforms.cli`` runs it,
runpy would warn that it runs twice.
"""

import importlib.util
import sys
import threading
import types

from . import exteralg, stable6, stable7
from .exteralg import (AltForm, InnerProduct, LinearMap, VolumeForm, alt_form,
                       basis_form, contract, divisor_space, hodge_star,
                       is_decomposable, pullback, wedge)
from .stable6 import NotStableError, OrbitClass6, ScaledStructure
from .stable7 import OrbitClass7

__all__ = [
    "AlgebraTag", "AlgElement", "AltForm", "InnerProduct", "LinearMap",
    "VolumeForm", "NotStableError", "OrbitClass6", "OrbitClass7",
    "ScaledStructure", "alt_form", "basis_form", "contract", "divisor_space",
    "hodge_star", "is_decomposable", "pullback", "wedge",
    "bridge", "cli", "compalg", "exteralg", "framecalc", "stable6", "stable7", "vcp",
]

__version__ = "0.1.0"

_load_lock = threading.RLock()  # reentrant: a module's own code touches it while it runs
_pending = {}  # full name -> spec, for each deferred module whose code has not run


class _Deferred(types.ModuleType):
    """A registered submodule whose code runs on its first attribute use."""

    def __getattribute__(self, attr):
        with _load_lock:
            spec = _pending.pop(types.ModuleType.__getattribute__(self, "__name__"), None)
            if spec is not None:
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType  # later uses cost nothing
        return types.ModuleType.__getattribute__(self, attr)


def _defer(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    _pending[spec.name] = spec
    sys.modules[spec.name] = module
    return module


bridge, compalg, framecalc, vcp = map(_defer, ("bridge", "compalg", "framecalc", "vcp"))


def __getattr__(name):
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    if name in ("AlgebraTag", "AlgElement"):
        return getattr(compalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
