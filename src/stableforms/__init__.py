"""stableforms: exact calculus for stable 3-forms, exceptional vector cross
products, and invariant-frame G2 models.

All values are immutable after construction and every operation is a pure
function, so the whole API is safe for concurrent use.
"""

from . import bridge, compalg, exteralg, framecalc, stable6, stable7, vcp
from .compalg import AlgebraTag, AlgElement
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


def __getattr__(name):
    # cli is loaded on first use: importing it here would make
    # ``python -m stableforms.cli`` find it in sys.modules and run it twice
    if name == "cli":
        from importlib import import_module
        return import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
