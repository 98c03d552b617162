"""Outside-in tracing of the library's public functions.

The tracer wraps each function listed in TARGETS without editing the
library: the wrapper is rebound under every name in every ``stableforms``
module that holds the original (``from .exteralg import wedge`` copies the
reference, and ``from .linalg import det as _det`` renames it), and methods
are patched on their class.  Each call records a span
``[name, start, end, parent span, operation id]`` in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions; a (class, method) pair patches a method instead
TARGETS = {
    "exteralg": ["wedge", "contract", "pullback", "hodge_star", "form_inner", "divisor_space"],
    "linalg": ["det", "rref", "inertia", "inverse", "mat_mul"],
    "compalg": ["multiply", "inner", "conjugate"],
    "vcp": [("eval", "CrossProduct", "__call__"), "verify_axioms"],
    "stable6": ["k_endo", "lambda_coeff", "scaled_structure", "hat", "canonicalize6",
                "stabilizer_dim"],
    "stable7": ["q_form", "classify7", "metric_from_phi", "canonicalize7"],
    "bridge": ["vcp_to_stable7", "vcp_to_stable6", "stable6_to_7", "lift_to_3fold"],
    "framecalc": [("d", "FrameModel", "d"), ("codifferential", "FrameModel", "codifferential"),
                  "classify_g2", "nabla_phi", "hitchin_variation", "critical_point_check"],
}

SPAN_NAMES = [f"{layer}.{t if isinstance(t, str) else t[0]}"
              for layer, targets in TARGETS.items() for t in targets]


def _form_key(form) -> int:
    return hash((form.dim, form.degree, frozenset(form.terms.items())))


def _has_quadext(matrix) -> bool:
    return any(type(x).__name__ == "QuadExt" for row in matrix for x in row)


class Tracer:
    """Spans and counters of one traced run, kept in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self.forms: dict[str, set] = defaultdict(set)  # distinct argument forms per function
        self._patches: list[tuple] = []

    # -- observers: path and waste counters taken at the traced boundaries --
    def _observe(self, name: str, args, result):
        if name in ("stable7.q_form", "stable6.k_endo"):
            self.forms[name].add(_form_key(args[0]))
        elif name == "stable6.canonicalize6":
            self.counters["stable6.canonicalize6.results"] += 1
            if _has_quadext(result.basis.matrix):
                self.counters["stable6.canonicalize6.quadext"] += 1
        elif name == "bridge.stable6_to_7":
            self.counters["bridge.stable6_to_7.results"] += 1
            if not result.normalization_exact:
                self.counters["bridge.stable6_to_7.inexact"] += 1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every target; the library must already be imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stableforms" or n.startswith("stableforms."))]
        for layer, targets in TARGETS.items():
            mod = sys.modules[f"stableforms.{layer}"]
            for t in targets:
                if isinstance(t, tuple):
                    label, cls_name, meth = t
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{layer}.{label}", orig))
                    continue
                orig = getattr(mod, t)
                wrapper = self._wrap(f"{layer}.{t}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- export and aggregation --
    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "forms": {k: sorted(v) for k, v in self.forms.items()}}

    def merge(self, dumped: dict, op_id: int):
        """Append the spans and counters of a traced child process."""
        offset = len(self.spans)
        for name, t0, t1, parent, _ in dumped["spans"]:
            self.spans.append([name, t0, t1, parent + offset if parent >= 0 else -1, op_id])
        self.counters.update(dumped["counters"])
        for k, v in dumped["forms"].items():
            self.forms[k].update(v)

    def per_function(self, scale=None) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over all recorded spans.

        `scale[op]`, when given, multiplies the self time of operation op's spans.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for i, (name, t0, t1, _, op) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += ((t1 - t0) - child[i]) * (scale[op] if scale else 1.0)
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_spans(self, path):
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
