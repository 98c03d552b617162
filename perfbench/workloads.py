"""The benchmark's workloads: seeded inputs, the timed operation and its check.

Every workload is a closed loop over an endless sequence of *cycles*.  A
cycle is a fixed pattern of operation kinds whose inputs come from
``random.Random(f"{workload}:{seed}:{cycle}")``, so any prefix of the
sequence has a near-constant mix and the same seed always gives the same
inputs.  An operation's ``run`` is the only timed part; ``check`` runs
afterwards and raises :class:`CheckFailed` on a wrong answer.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import refalg as R

LIB_MODULES = ("scalars", "linalg", "exteralg", "compalg", "vcp", "stable6", "stable7",
               "bridge", "framecalc", "cli")


class CheckFailed(Exception):
    """An operation returned a result that disagrees with the reference."""


def expect(cond: bool, what: str, got=None, want=None):
    if not cond:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    inputs: object = None          # scanned for coefficient bit height in traced runs


def load_library() -> SimpleNamespace:
    """Import stableforms afresh (drops an earlier import, so set-up can be repeated)."""
    for name in [n for n in sys.modules if n == "stableforms" or n.startswith("stableforms.")]:
        del sys.modules[name]
    importlib.import_module("stableforms")
    return SimpleNamespace(**{m: importlib.import_module(f"stableforms.{m}") for m in LIB_MODULES})


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


# ---------------------------------------------------------------------------
# Generated 3-forms: g* of a canonical form, optionally scaled by a tall c.

KINDS = {  # kind -> (dim, canonical form, orbit, stabilizer dimension)
    "6+": (6, R.OMEGA_PLUS, "O6_PLUS", 16),
    "6-": (6, R.OMEGA_MINUS, "O6_MINUS", 16),
    "6d": (6, R.DECOMPOSABLE, "NOT_STABLE", 26),
    "7+": (7, R.PHI_PLUS, "O7_PLUS", 14),
    "7-": (7, R.PHI_MINUS, "O7_MINUS", 14),
    "7d": (7, R.DECOMPOSABLE, "NOT_STABLE", 36),
}
CANONICAL = {"O6_PLUS": R.OMEGA_PLUS, "O6_MINUS": R.OMEGA_MINUS, "O7_MINUS": R.PHI_MINUS}
# invariants of the canonical forms, from the reference algebra
REF_LAMBDA = {k: R.lambda6(form) for k, (dim, form, _, _) in KINDS.items() if dim == 6}
REF_B = {k: R.q_matrix7(form) for k, (dim, form, _, _) in KINDS.items() if dim == 7}
ABS_SIGNATURE = {"O7_MINUS": (7, 0), "O7_PLUS": (1, 0), "NOT_STABLE": (0, 7)}


@dataclass
class Sample:
    kind: str
    tall: bool
    dim: int
    terms: dict
    g: list
    det_g: Fraction
    c: Fraction

    @property
    def orbit(self) -> str:
        return KINDS[self.kind][2]

    @property
    def stab(self) -> int:
        return KINDS[self.kind][3]

    def expected_lambda(self) -> Fraction:
        return self.c ** 4 * self.det_g ** 2 * REF_LAMBDA[self.kind]

    def expected_B(self) -> list:
        b, g, n = REF_B[self.kind], self.g, 7
        k = self.c ** 3 * self.det_g
        return [[k * sum(g[p][i] * b[p][q] * g[q][j] for p in range(n) for q in range(n))
                 for j in range(n)] for i in range(n)]


def make_sample(rng: random.Random, kind: str, tall: bool = False) -> Sample:
    """c * g^* (canonical form) with g a random integer GL(n) matrix.

    The tall slice takes c around 10^40: a rational with a 40-digit
    numerator and a one-digit denominator.
    """
    dim, base, _, _ = KINDS[kind]
    g = R.random_gl(rng, dim)
    c = Fraction(10 ** 40 + rng.randrange(10 ** 39), rng.randint(1, 9)) if tall else Fraction(1)
    terms = {idx: c * x for idx, x in R.pullback3(g, base, dim).items()}
    return Sample(kind, tall, dim, terms, g, R.det(g), c)


def to_form(lib, dim: int, degree: int, terms: dict):
    return lib.exteralg.alt_form(dim, degree, dict(terms))


def sorted_terms(form) -> tuple:
    return tuple(sorted(form.terms.items()))


# ---------------------------------------------------------------------------
# classify: what `stableforms classify --canonicalize` computes, in-process.

# Four dim-6 and four dim-7 forms per round.  Doubling 6- and 7- puts the
# median inside the 6- latencies and p90 inside the 7- ones rather than on a
# gap between kinds, which keeps both steady from run to run.
CLASSIFY_ROUND = ("7-", "6+", "7+", "6-", "7d", "6d", "7-", "6-")
# Round r makes the form at TALL_POSITION[r] tall: one form in eight, each
# position once per cycle.  The two phi- positions are tall in rounds 3 and
# 4, mid-cycle, so a run meets the same number of them whatever the seed.
TALL_POSITION = (1, 2, 3, 0, 6, 4, 5, 7)


def classify_run(lib, form) -> dict:
    """Mirror of cli.cmd_classify with --canonicalize and the default orientation."""
    dim = form.dim
    vol = lib.exteralg.VolumeForm.standard(dim)
    out = {"stab": lib.stable6.stabilizer_dim(form)}
    if dim == 6:
        out["lambda"] = lib.stable6.lambda_coeff(form, vol).value
        cls = lib.stable6.classify6(form, vol)
        out["class"] = cls.value
        if cls != lib.stable6.OrbitClass6.NOT_STABLE:
            out["basis"] = lib.stable6.canonicalize6(form, vol).basis.matrix
    else:
        qf = lib.stable7.q_form(form, vol)
        out["B"] = qf.B
        out["signature"] = qf.signature()
        cls = lib.stable7.classify7(form, vol)
        out["class"] = cls.value
        if cls == lib.stable7.OrbitClass7.O7_MINUS:
            canon = lib.stable7.canonicalize7(form, vol)
            out["basis"], out["residual"] = canon.basis, canon.residual
    return out


def check_classify(s: Sample, res: dict):
    """Orbit and stabilizer as generated; invariants covariant under c * g^*.

    lambda(c g*Omega) = c^4 det(g)^2 lambda(Omega) and
    B(c g*phi) = c^3 det(g) g^T B(phi) g; canonical bases must pull the
    canonical form back to the input (exactly in dim 6, to 1e-9 relative in
    dim 7, where the basis is floating point).
    """
    expect(res["class"] == s.orbit, "orbit", res["class"], s.orbit)
    expect(res["stab"] == s.stab, "stabilizer dimension", res["stab"], s.stab)
    if s.dim == 6:
        expect(res["lambda"] == s.expected_lambda(), "lambda", res["lambda"], s.expected_lambda())
        if s.orbit == "NOT_STABLE":
            expect(res.get("basis") is None, "basis of an unstable form", res.get("basis"), None)
            return
        basis = [[R.Quad.lift(x) for x in row] for row in res["basis"]]
        back = R.pullback3(basis, CANONICAL[s.orbit], 6)
        expect(back.keys() == s.terms.keys() and all(back[k] == s.terms[k] for k in back),
               "canonical basis round trip", back, s.terms)
        return
    if "B" in res:
        expect([list(r) for r in res["B"]] == s.expected_B(), "Q form B", res["B"], "c^3 det(g) g^T B g")
    pos, neg, zero = res["signature"]
    expect((abs(pos - neg), zero) == ABS_SIGNATURE[s.orbit], "Q signature", res["signature"], s.orbit)
    if s.orbit == "O7_MINUS":
        basis = res["basis"]
        top = max(abs(float(x)) for x in s.terms.values())
        back = R.pullback3(basis, CANONICAL["O7_MINUS"], 7)
        err = max(abs(float(back.get(k, 0.0)) - float(s.terms.get(k, 0)))
                  for k in set(back) | set(s.terms))
        expect(err <= 1e-9 * top, "float canonical basis round trip", err, f"<= 1e-9 * {top}")
        expect(res["residual"] <= 1e-9 * top, "reported residual", res["residual"], f"<= 1e-9 * {top}")
    else:
        expect(res.get("basis") is None, "basis outside O7_MINUS", res.get("basis"), None)


def classify_cycle(env, seed: int, cycle: int) -> list[Op]:
    rng = cycle_rng("classify", seed, cycle)
    ops = []
    for tall_pos in TALL_POSITION:
        for pos, kind in enumerate(CLASSIFY_ROUND):
            s = make_sample(rng, kind, tall=(pos == tall_pos))
            form = to_form(env.lib, s.dim, 3, s.terms)
            label = f"classify.{kind}" + (".tall" if s.tall else "")
            ops.append(Op(label, lambda form=form: classify_run(env.lib, form),
                          lambda res, s=s: check_classify(s, res), inputs=s.terms))
    return ops


def classify_warmup(env) -> Op:
    s = make_sample(random.Random("classify:warmup"), "6+")
    form = to_form(env.lib, 6, 3, s.terms)
    return Op("warmup", lambda: classify_run(env.lib, form), lambda res: check_classify(s, res))


# ---------------------------------------------------------------------------
# construct: verifiers, bridge routes and frame models in equal thirds.

VERIFY_TRIALS = 6
E0 = tuple(Fraction(int(i == 0)) for i in range(8))
E4 = tuple(Fraction(int(i == 4)) for i in range(8))
THETA_RE = {(1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}  # Re (e1+ie2)(e3+ie4)(e5+ie6)
THETA_IM = {(1, 3, 6): 1, (1, 4, 5): 1, (2, 3, 5): 1, (2, 4, 6): -1}
SU3_OMEGA = {(1, 4): 1, (2, 5): 1, (3, 6): 1}
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def _tag(lib, name):
    return lib.compalg.AlgebraTag(name)


def op_verify(env, rng, r: int, k: int) -> Op:
    lib, vseed = env.lib, rng.randrange(2 ** 31)
    variant = ("X1", "X2")[(k + r) % 2]
    if r == 0:
        tag = "HUOB"[k % 4]

        def run():
            rep = lib.compalg.verify_identities(_tag(lib, tag), VERIFY_TRIALS, vseed)
            return {"passed": rep.passed, "trials": rep.trials, "failed": rep.failed_checks()}
        kind = "verify.identities"
    elif r in (1, 2):
        tag = "OB"[k % 2]
        fold = r + 1

        def run():
            cp = (lib.vcp.cross_2fold(_tag(lib, tag)) if fold == 2
                  else lib.vcp.cross_3fold(_tag(lib, tag), variant))
            rep = lib.vcp.verify_axioms(cp, VERIFY_TRIALS, vseed)
            return {"passed": rep.passed, "trials": rep.trials, "failed": rep.failed_checks()}
        kind = f"verify.axioms{fold}"
    else:
        def run():
            cp = lib.vcp.cross_3fold(_tag(lib, "B"), variant)
            rep = lib.vcp.verify_para_extension_identities(cp, E0, E4, VERIFY_TRIALS, vseed)
            return {"passed": rep.passed, "trials": rep.trials, "branch": rep.branch,
                    "eigen_dims": rep.eigen_dims}
        kind = "verify.para"

    def check(res):
        expect(res["passed"] is True, "verifier report passed", res, True)
        expect(res["trials"] == VERIFY_TRIALS, "trials", res["trials"], VERIFY_TRIALS)
    return Op(kind, run, check)


# orbit a bridge route must land in, by route and algebra (or source orbit)
BRIDGE_ORBIT = {("vcp7", "O"): "O7_MINUS", ("vcp7", "B"): "O7_PLUS",
                ("vcp6", "O"): "O6_MINUS", ("vcp6", "B"): "O6_PLUS",
                ("stable6", "6-"): "O7_MINUS", ("stable6", "6+"): "O7_PLUS"}


def check_vcp6(cls: str, plane_scale: Fraction, lam: Fraction, want: str):
    expect(cls == want, "vcp_to_stable6 orbit", cls, want)
    expect(plane_scale ** 2 == abs(lam), "plane scale^2 = |lambda|", plane_scale, lam)


def hyperbolic_unit(rng) -> tuple:
    """x e0 + y e4 with x^2 - y^2 = 1: a space-like unit of the split octonions."""
    s = Fraction(rng.randint(2, 9), rng.randint(1, 3))
    return tuple([(s * s + 1) / (2 * s), 0, 0, 0, (s * s - 1) / (2 * s), 0, 0, 0])


def op_bridge(env, rng, r: int, k: int) -> Op:
    lib = env.lib
    tag = "OB"[(k + r) % 2]
    variant = ("X1", "X2")[k % 2]
    if r == 0:
        a = tuple(R.random_unit_vector(rng, 8)) if tag == "O" else hyperbolic_unit(rng)
        want = BRIDGE_ORBIT["vcp7", tag]

        def run():
            res = lib.bridge.vcp_to_stable7(lib.vcp.cross_3fold(_tag(lib, tag), variant), a)
            cls = lib.stable7.classify7(res.phi, lib.exteralg.VolumeForm.standard(7))
            return {"phi": sorted_terms(res.phi), "class": cls.value}

        def check(res):
            expect(res["class"] == want, "vcp_to_stable7 orbit", res["class"], want)
        return Op("bridge.vcp7", run, check, inputs=a)
    if r == 1:
        want = BRIDGE_ORBIT["vcp6", tag]

        def run():
            res = lib.bridge.vcp_to_stable6(lib.vcp.cross_3fold(_tag(lib, tag), variant), E0, E4)
            cls = lib.stable6.classify6(res.omega, res.vol)
            return {"omega": sorted_terms(res.omega), "class": cls.value,
                    "lambda": res.structure.lam.value, "plane_scale": res.plane_scale}

        def check(res):
            check_vcp6(res["class"], res["plane_scale"], res["lambda"], want)
        return Op("bridge.vcp6", run, check)
    if r == 2:
        s = make_sample(rng, ("6-", "6+")[k % 2])
        form = to_form(lib, 6, 3, s.terms)
        want = BRIDGE_ORBIT["stable6", s.kind]

        def run():
            vol = lib.exteralg.VolumeForm.standard(6)
            ip = lib.bridge.synthesize_compatible_ip(lib.stable6.scaled_structure(form, vol))
            lift = lib.bridge.stable6_to_7(form, ip, vol)
            return {"phi": sorted_terms(lift.phi), "class": lift.orbit.value,
                    "exact": lift.normalization_exact, "scale": lift.scale_float}

        def check(res):
            expect(res["class"] == want, "stable6_to_7 orbit", res["class"], want)
        return Op("bridge.stable6_to_7", run, check, inputs=s.terms)
    s = make_sample(rng, "7-")
    form = to_form(lib, 7, 3, s.terms)

    def vec():  # a vector of the W summand of R + W
        return (Fraction(0),) + tuple(Fraction(rng.randint(-3, 3)) for _ in range(7))
    triples = [(E0, vec(), vec()) for _ in range(3)]
    probes = [vec() for _ in triples]

    def run():
        cp = lib.bridge.lift_to_3fold(form, None, variant)
        return {"gram": cp.ip.gram, "values": [cp(*t) for t in triples]}

    def check(res):
        """The e0-slot of beta ^ phi +- *phi is phi: <X(e0, y, z), w> = phi(y, z, w)."""
        gram = res["gram"]

        def pair(u, v):
            return sum(u[i] * gram[i][j] * v[j] for i in range(8) for j in range(8))
        for (x, y, z), w, val in zip(triples, probes, res["values"]):
            expect(all(pair(val, v) == 0 for v in (x, y, z)), "product orthogonal to its inputs", val, 0)
            want = sum(c * R.det3([[v[i] for v in (y, z, w)] for i in idx]) for idx, c in s.terms.items())
            expect(pair(val, w) == want, "<X(e0, y, z), w> = phi(y, z, w)", pair(val, w), want)
    return Op("bridge.lift_to_3fold", run, check, inputs=(s.terms, triples))


def one_one_form(rng, primitive: bool) -> dict:
    """Random (1,1) 2-form for J e_k = e_{k+3}: F + J*F projected, then made primitive if asked."""
    jmap = {1: (4, 1), 2: (5, 1), 3: (6, 1), 4: (1, -1), 5: (2, -1), 6: (3, -1)}
    f0 = {}
    for i in range(1, 7):
        for j in range(i + 1, 7):
            v = rng.randint(-2, 2)
            if v:
                f0[(i, j)] = Fraction(v)
    f = {}
    for (i, j), v in f0.items():
        R.add_term(f, (i, j), v / 2)
        (ji, si), (jj, sj) = jmap[i], jmap[j]
        R.add_term(f, tuple(sorted((ji, jj))), R.perm_sign((ji, jj)) * si * sj * v / 2)
    if primitive:
        dot = sum(f.get(idx, 0) for idx in SU3_OMEGA)
        for idx in SU3_OMEGA:
            R.add_term(f, idx, -dot / 3)
    return f


def op_frame(env, rng, r: int, k: int) -> Op:
    lib = env.lib
    fc = lib.framecalc
    if r == 0:
        F = one_one_form(rng, primitive=(k % 2 == 0))
        f_dot_omega = sum(F.get(idx, 0) for idx in SU3_OMEGA)
        Fform = to_form(lib, 6, 2, F)

        def run():
            cb = fc.make_circle_bundle(fc.flat_torus(6), Fform)
            su3 = fc.standard_su3()
            rep = fc.classify_g2(cb, su3)
            npr = fc.nabla_phi(cb, su3)
            return {"report": rep.as_dict(), "F_dot_omega": rep.witnesses["F_dot_omega"],
                    "theta_ok": npr.theta_display_ok, "pairing_ok": npr.pairing_identity_ok}

        def check(res):
            check_g2(res["report"], res["F_dot_omega"], f_dot_omega)
            expect(res["theta_ok"] and res["pairing_ok"], "nabla phi identities", res, True)
        return Op("frame.g2", run, check, inputs=F)
    if r == 1:
        s = make_sample(rng, ("6-", "6+")[k % 2])
        form = to_form(lib, 6, 3, s.terms)
        direction = {}
        while not direction:
            for idx in rng.sample(sorted(R.OMEGA_MINUS.keys() | THETA_IM.keys() | THETA_RE.keys()), 5):
                R.add_term(direction, idx, Fraction(rng.randint(-3, 3)))
        dform = to_form(lib, 6, 3, direction)

        def run():
            value = fc.hitchin_eval(fc.flat_torus(6), form)
            fd, pairing = fc.hitchin_variation(form, dform, lib.exteralg.VolumeForm.standard(6))
            return {"lambda": value.lam, "density": value.density, "fd": fd, "pairing": pairing}

        def check(res):
            check_hitchin(s, res["lambda"], res["fd"], res["pairing"])
        return Op("frame.hitchin", run, check, inputs=(s.terms, direction))
    if r == 2:
        if k % 2 == 0:
            s = make_sample(rng, ("6+", "6-")[(k // 2) % 2])
            terms, model, want = s.terms, "flat", s.orbit
        else:
            a, b, c = PYTHAGOREAN[rng.randrange(len(PYTHAGOREAN))]
            co, si = Fraction(a, c), Fraction(b, c) * rng.choice((1, -1))
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            terms = {}
            for idx in THETA_RE.keys() | THETA_IM.keys():
                R.add_term(terms, idx, scale * (co * THETA_RE.get(idx, 0) - si * THETA_IM.get(idx, 0)))
            model, want = "iwasawa", "O6_MINUS"
        form = to_form(lib, 6, 3, terms)

        def run():
            m = fc.flat_torus(6) if model == "flat" else fc.iwasawa_model()
            rep = fc.critical_point_check(m, form)
            return {"closed": rep.closed, "cocritical": rep.cocritical, "critical": rep.critical,
                    "orbit": rep.orbit.value}

        def check(res):
            expect(res["orbit"] == want, "orbit", res["orbit"], want)
            expect(res["closed"] and res["cocritical"] and res["critical"], "critical point", res, True)
        return Op(f"frame.critical.{model}", run, check, inputs=terms)

    alpha, beta = para_cy_pair(rng)
    aform, bform = to_form(lib, 4, 2, alpha), to_form(lib, 4, 2, beta)

    def run():
        return fc.para_cy_check(fc.kodaira_thurston(), aform, bform)

    def check(res):
        expect(res["all_pass"] is True, "para-CY conditions", res, True)
    return Op("frame.para_cy", run, check, inputs=(alpha, beta))


def para_cy_pair(rng) -> tuple[dict, dict]:
    """Closed decomposable 2-forms on Kodaira-Thurston (d e^4 = e^23) with alpha ^ beta != 0.

    alpha lies in Lambda^2 span(e1, e2, e3); beta = v ^ (e4 + w) with v in
    span(e2, e3), so d beta = -v ^ e^23 = 0.
    """
    def vec(support):
        return {(i,): Fraction(rng.randint(-3, 3)) for i in support}
    while True:
        alpha = R.wedge(vec((1, 2, 3)), vec((1, 2, 3)))
        w = vec((1, 2, 3))
        R.add_term(w, (4,), Fraction(1))
        beta = R.wedge(vec((2, 3)), w)
        if R.wedge(alpha, beta):
            return alpha, beta


def check_g2(report: dict, got_f_dot_omega: Fraction, f_dot_omega: Fraction):
    """Flat base: semi-parallel, and W3 exactly when the curvature is primitive."""
    expect(report["semi_parallel"] is True, "semi-parallel", report, True)
    expect(got_f_dot_omega == f_dot_omega, "<F, omega>", got_f_dot_omega, f_dot_omega)
    expect(report["W3"] == (f_dot_omega == 0), "W3 <=> <F, omega> = 0", report["W3"], f_dot_omega)


def check_hitchin(s: Sample, lam: Fraction, fd: float, pairing: float):
    """lambda is covariant; d sqrt|lambda| = -(hat ^ dOmega)/vol, the ratio -1 to 1e-6."""
    expect(lam == s.expected_lambda(), "lambda", lam, s.expected_lambda())
    if pairing == 0:
        expect(abs(fd) <= 1e-6, "variation at zero pairing", fd, 0.0)
    else:
        expect(abs(fd / pairing + 1.0) <= 1e-6, "variation ratio", fd / pairing, -1.0)


CONSTRUCT_CYCLE = 15


def construct_cycle(env, seed: int, cycle: int) -> list[Op]:
    """15 calls, five of each third.

    The fifth of each third (identities, a second lift, a second Hitchin
    pair) makes the count odd and the two dearest calls lifts, so the
    median falls inside the 3-fold verifier latencies and p90 inside the
    lift ones, not on a gap between kinds.
    """
    rng = cycle_rng("construct", seed, cycle)
    ops = []
    for r in range(4):
        ops += [op_verify(env, rng, r, cycle), op_bridge(env, rng, r, cycle),
                op_frame(env, rng, r, cycle)]
    return ops + [op_verify(env, rng, 0, cycle + 1), op_bridge(env, rng, 3, cycle + 1),
                  op_frame(env, rng, 1, cycle + 1)]


def construct_warmup(env) -> Op:
    lib = env.lib

    def run():
        return lib.compalg.verify_identities(lib.compalg.AlgebraTag.H, 1, 0).passed
    return Op("warmup", run, lambda res: expect(res is True, "warm-up verifier", res, True))


# ---------------------------------------------------------------------------
# cli: one `python -m stableforms.cli ...` subprocess per operation.

RAT = r"-?\d+(?:/\d+)?"
QUAD_RE = re.compile(rf"^({RAT})\+({RAT})\*sqrt\(({RAT})\)$")
TRACEBACK_FRAME = re.compile(r'File ".*?stableforms[/\\](\w+)\.py", line \d+, in (\w+)')


def parse_scalar(text: str):
    m = QUAD_RE.match(text)
    return R.Quad(*map(Fraction, m.groups())) if m else Fraction(text)


def form_doc(dim: int, degree: int, terms: dict) -> dict:
    return {"dim": dim, "degree": degree,
            "terms": [{"idx": list(idx), "coef": str(c)} for idx, c in sorted(terms.items())]}


def model_doc(dim: int, d: dict | None = None, **blocks) -> dict:
    doc = {"dim": dim, "metric": [1] * dim}
    if d:
        doc["d"] = {str(k): form_doc(dim, 2, v)["terms"] for k, v in d.items()}
    doc.update(blocks)
    return doc


def cli_parse_classify(out: dict, dim: int) -> dict:
    res = {"class": out["class"], "stab": out["stab_dim"]}
    if dim == 6:
        res["lambda"] = Fraction(out["lambda"])
        if "basis" in out:
            res["basis"] = [[parse_scalar(x) for x in row] for row in out["basis"]]
    else:
        q = out["q_signature"]
        res["signature"] = (q["pos"], q["neg"], q["zero"])
        if "basis" in out:
            res["basis"] = [[float(x) for x in row] for row in out["basis"]]
            res["residual"] = out["residual"]
    return res


def check_cayley(tag: str, out: dict):
    """The table follows from the doubling rule; N(e_i) = e_i conj(e_i) gives the signature."""
    table = R.cayley_table(tag)
    expect(out["table"] == table, "multiplication table", out["table"], table)
    sig = [1] + [1 if row[i] == "-e0" else -1 for i, row in enumerate(table) if i]
    expect(out["signature"] == sig, "norm signature", out["signature"], sig)


class CliEnv:
    """Where generated documents live and how a CLI subprocess is started."""

    def __init__(self, root: Path, workdir: Path):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None  # set to a Tracer to run children under the traced entry point
        self.child_spans = workdir / "child_spans.json"

    def write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return str(path)

    def run_cli(self, args: list, env_extra: dict) -> tuple:
        env = dict(self.env, **env_extra)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "stableforms.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("tracedcli.py")), *args]
            env["PERFBENCH_SPANS"] = str(self.child_spans)
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True,
                              timeout=150)
        if self.tracer is not None and self.child_spans.exists():
            self.tracer.merge(json.loads(self.child_spans.read_text()), self.tracer.op_id)
            self.child_spans.unlink()
        return proc.returncode, proc.stdout, proc.stderr


class CliFailure(Exception):
    """A CLI call ended in neither its expected exit code nor a documented one."""


def cli_op(env, kind: str, args: list, want_code: int, check, inputs=None, env_extra=None) -> Op:
    """`kind` is cli.<subcommand>[.<detail>]."""
    def run():
        return env.cli.run_cli(args, env_extra or {})

    def full_check(res):
        code, out, err = res
        if code not in (0, 2, 3, 4):
            frames = TRACEBACK_FRAME.findall(err)
            where = f" at {frames[-1][0]}.{frames[-1][1]}" if frames else ""
            last = err.strip().splitlines()[-1] if err.strip() else ""
            raise CliFailure(f"exit {code}{where}: {last}")
        expect(code == want_code, "exit code", code, want_code)
        if want_code == 0:
            check(json.loads(out))
        else:
            expect(out == "", "no stdout on error", out, "")
    return Op(kind, run, full_check, inputs=inputs)


MALFORMED = (
    lambda: '{"dim": 6, "degree": 3, "terms": [',                                  # truncated JSON
    lambda: {"dim": 6, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1/0"}]},  # zero denominator
    lambda: {"dim": 6, "degree": 3, "terms": [{"idx": [3, 2, 1], "coef": "1"}]},   # not ascending
    lambda: {"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1"},
                                             {"idx": [1, 2, 3], "coef": "2"}]},     # duplicate idx
    lambda: {"dim": 6, "terms": []},                                               # missing degree
)


def cli_classify_op(env, rng, name: str, kind: str, tall: bool) -> Op:
    s = make_sample(rng, kind, tall)
    path = env.cli.write(name, form_doc(s.dim, 3, s.terms))
    label = f"cli.classify.{kind}" + (".tall" if tall else "")
    return cli_op(env, label, ["classify", path, "--canonicalize", "--json"], 0,
                  lambda out: check_classify(s, cli_parse_classify(out, s.dim)), inputs=s.terms)


# Thirteen classify documents and thirteen other calls per cycle.  Sorted by
# cost, a cycle has nine cheap start-up-bound calls, one dim-7 decomposable
# classification, nine calls near 6- classify cost (five 6- documents, two
# stable6 bridges, vcp6, para-extension), the two vcp7 bridges, four phi+
# documents and one phi- document; the median then falls inside the
# nine-call middle block and p90 in the middle of the phi+ block (one phi-
# per cycle above it), not on a gap between kinds or in a block's tail.
# One document per cycle is tall, rotating; the phi- document comes first,
# so a run's first cycle meets the tall phi- overflow.
CLI_CLASSIFY = ("7-", "7+", "7+", "6+", "7+", "6-", "7d", "6d", "6-", "6-", "6-", "7+", "6-")
CLI_CYCLE = 26
SU3_DOC = {"omega": form_doc(6, 2, SU3_OMEGA)["terms"],
           "Omega1": form_doc(6, 3, R.OMEGA_MINUS)["terms"],
           "Omega2": form_doc(6, 3, {(1, 2, 6): 1, (1, 3, 5): -1, (2, 3, 4): 1,
                                     (4, 5, 6): -1})["terms"]}
BAD_MODELS = ({"dim": 6, "metric": [1, 1, 2, 1, 1, 1]},
              {"dim": 6, "metric": [1] * 6, "bundle": {"F": []}, "su3": {}},
              {"dim": 6, "metric": [1] * 6, "d": {"x": []}})


def cli_cycle(env, seed: int, cycle: int) -> list[Op]:
    """26 calls covering every subcommand, one of them malformed (exit 2)."""
    rng = cycle_rng("cli", seed, cycle)
    w = env.cli
    pre = f"c{cycle}_"
    variant = ("X1", "X2")[(cycle // 2) % 2]
    classify = [cli_classify_op(env, rng, f"{pre}form{i}.json", kind, i == cycle % len(CLI_CLASSIFY))
                for i, kind in enumerate(CLI_CLASSIFY)]

    def cayley(tag):
        return cli_op(env, "cli.cayley", ["cayley", "--algebra", tag, "--json"], 0,
                      lambda out: check_cayley(tag, out))

    def vcp7(tag):
        a = R.random_unit_vector(rng, 8) if tag == "O" else hyperbolic_unit(rng)
        want = BRIDGE_ORBIT["vcp7", tag]
        return cli_op(env, "cli.bridge.vcp7",
                      ["bridge", "--from", "vcp7", "--algebra", tag, "--variant", variant,
                       "--a", ",".join(str(x) for x in a)], 0,
                      lambda out: expect(out["class"] == want, "vcp7 orbit", out["class"], want),
                      inputs=a)

    def vcp6(tag):
        want = BRIDGE_ORBIT["vcp6", tag]

        def check(out):
            check_vcp6(out["class"], Fraction(out["plane_scale"]), Fraction(out["lambda"]), want)
        return cli_op(env, "cli.bridge.vcp6", ["bridge", "--from", "vcp6", "--algebra", tag,
                                               "--variant", variant, "--plane", "e0,e4"], 0, check)

    def stable6(kind, i):
        s = make_sample(rng, kind)
        want = BRIDGE_ORBIT["stable6", kind]
        path = w.write(f"{pre}s6form{i}.json", form_doc(6, 3, s.terms))
        return cli_op(env, "cli.bridge.stable6",
                      ["bridge", "--from", "stable6", "--form", path, "--ip", "synthesize"], 0,
                      lambda out: expect(out["class"] == want, "lift orbit", out["class"], want),
                      inputs=s.terms)

    def g2class():
        F = one_one_form(rng, primitive=(cycle % 2 == 0))
        f_dot_omega = sum(F.get(idx, 0) for idx in SU3_OMEGA)
        path = w.write(f"{pre}g2model.json",
                       model_doc(6, bundle={"F": form_doc(6, 2, F)["terms"]}, su3=SU3_DOC))

        def check(out):
            check_g2(out, Fraction(out["witnesses"]["F_dot_omega"]), f_dot_omega)
        return cli_op(env, "cli.g2class", ["g2class", path], 0, check, inputs=F)

    def hitchin():
        s = make_sample(rng, ("6-", "6+")[cycle % 2])
        direction = {idx: Fraction(rng.randint(1, 3)) * rng.choice((1, -1))
                     for idx in rng.sample(sorted(THETA_RE.keys() | THETA_IM.keys()), 5)}
        paths = [w.write(f"{pre}t6.json", model_doc(6)),
                 w.write(f"{pre}hform.json", form_doc(6, 3, s.terms)),
                 w.write(f"{pre}hdir.json", form_doc(6, 3, direction))]

        def check(out):
            check_hitchin(s, Fraction(out["lambda"]), out["variation"]["derivative"],
                          out["variation"]["pairing"])
        return cli_op(env, "cli.hitchin", ["hitchin", paths[0], paths[1], "--variation", paths[2]],
                      0, check, inputs=(s.terms, direction))

    def para_cy():
        alpha, beta = para_cy_pair(rng)
        paths = [w.write(f"{pre}kt.json", model_doc(4, d={4: {(2, 3): 1}})),
                 w.write(f"{pre}alpha.json", form_doc(4, 2, alpha)),
                 w.write(f"{pre}beta.json", form_doc(4, 2, beta))]
        return cli_op(env, "cli.para-cy", ["para-cy", *paths], 0,
                      lambda out: expect(out["all_pass"] is True, "para-CY conditions", out, True),
                      inputs=(alpha, beta))

    def vcp_check(*args):
        vseed = str(rng.randrange(2 ** 31))
        return cli_op(env, f"cli.vcp-check.{args[1]}", ["vcp-check", *args, "--trials", "4"], 0,
                      lambda out: expect(out["passed"] is True, "verifier passed", out, True),
                      env_extra={"STABLEFORMS_SEED": vseed})

    def malformed():
        if cycle % 2 == 0:
            path = w.write(f"{pre}bad.json", MALFORMED[rng.randrange(len(MALFORMED))]())
            return cli_op(env, "cli.classify.malformed", ["classify", path, "--json"], 2, None)
        path = w.write(f"{pre}badmodel.json", rng.choice(BAD_MODELS))
        return cli_op(env, "cli.g2class.malformed", ["g2class", path], 2, None)

    others = [
        cayley("HUOB"[cycle % 4]), vcp7("O"),
        vcp_check("--what", "identities", "--algebra", "HUOB"[(cycle + 1) % 4]),
        vcp6("OB"[cycle % 2]), g2class(), hitchin(), stable6("6+", 0), para_cy(),
        vcp_check("--what", "axioms", "--algebra", "OB"[cycle % 2], "--fold",
                  ("2", "3")[(cycle // 2) % 2], "--variant", variant),
        malformed(), vcp7("B"),
        vcp_check("--what", "para-extension", "--algebra", "B", "--variant", variant),
        stable6("6-", 1),
    ]
    ops = []
    for i, op in enumerate(others):
        if i < len(classify):
            ops.append(classify[i])
        ops.append(op)
    return ops


def cli_warmup(env) -> Op:
    return cli_op(env, "warmup", ["cayley", "--algebra", "H", "--json"], 0,
                  lambda out: check_cayley("H", out))
