"""Batch CLI and JSON serialization for the library.

Documents are plain JSON, rationals are strings ("3/4" or "-2"), and all
output is deterministic: sorted keys, normalized rationals.  Exit codes:
0 ok, 2 parse error, 3 shape or stability error (or a value outside the
float range), 4 precondition failure.
A reader that closes stdout early (``| head``) ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import bridge, compalg, framecalc, stable6, stable7, vcp
from .exteralg import AltForm, InnerProduct, PreconditionError, VolumeForm, alt_form
from .scalars import QuadExt, rat, rat_str

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_PRECONDITION = 4

# the values of compalg.AlgebraTag, spelled out so that parsing arguments loads no compalg
ALGEBRAS = ("H", "U", "O", "B")


class ParseError(ValueError):
    pass


def _rational(text: str) -> Fraction:
    """rat(text), refusing with ValueError a decimal exponent beyond Python's own cap on the
    digits of an integer string: Fraction("1e100000000") would build 10^(10^8) first."""
    m = re.search(r"e([-+]?[0-9_]+)\s*\Z", text, re.IGNORECASE)
    if m and abs(int(m.group(1))) > sys.int_info.default_max_str_digits:
        raise ValueError(f"decimal exponent beyond +-{sys.int_info.default_max_str_digits}")
    return rat(text)


def parse_terms(items, dim: int, degree: int, where: str) -> AltForm:
    if not isinstance(items, list):
        raise ParseError(f"{where}: terms must be a list")
    seen = set()
    out = {}
    for pos, term in enumerate(items):
        label = f"{where}: term #{pos} {term!r}"
        if not isinstance(term, dict) or "idx" not in term or "coef" not in term:
            raise ParseError(f"{label} must be an object with idx and coef")
        idx = term["idx"]
        if (not isinstance(idx, list) or len(idx) != degree
                or any(not isinstance(i, int) for i in idx)
                or any(not (1 <= i <= dim) for i in idx)
                or any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1))):
            raise ParseError(f"{label}: idx must be a strictly ascending list of {degree} "
                             f"integers in 1..{dim}")
        key = tuple(idx)
        if key in seen:
            raise ParseError(f"{label}: duplicate idx {idx}")
        seen.add(key)
        try:
            coef = _rational(str(term["coef"]))
        except (ValueError, ZeroDivisionError) as ex:
            raise ParseError(f"{label}: bad coefficient ({ex})") from ex
        if coef != 0:
            out[key] = coef
    return alt_form(dim, degree, out)


def parse_form_document(doc, where: str = "form") -> AltForm:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: document must be a JSON object")
    for field in ("dim", "degree", "terms"):
        if field not in doc:
            raise ParseError(f"{where}: missing field '{field}'")
    dim, degree = doc["dim"], doc["degree"]
    if not isinstance(dim, int) or not isinstance(degree, int) or not (1 <= dim <= 8):
        raise ParseError(f"{where}: dim must be an integer in 1..8 and degree an integer")
    if not (0 <= degree <= dim):
        raise ParseError(f"{where}: degree {degree} invalid for dim {dim}")
    return parse_terms(doc["terms"], dim, degree, where)


def form_to_document(a: AltForm) -> dict:
    terms = [{"idx": list(idx), "coef": rat_str(c)} for idx, c in sorted(a.terms.items())]
    return {"dim": a.dim, "degree": a.degree, "terms": terms}


def parse_model_document(doc) -> tuple:
    """Returns (FrameModel, CircleBundleModel | None, SU3Data | None)."""
    if not isinstance(doc, dict):
        raise ParseError("model: document must be a JSON object")
    for field in ("dim", "metric"):
        if field not in doc:
            raise ParseError(f"model: missing field '{field}'")
    dim = doc["dim"]
    metric = doc["metric"]
    if not isinstance(dim, int) or not (1 <= dim <= 8):
        raise ParseError("model: dim must be an integer in 1..8")
    if (not isinstance(metric, list) or len(metric) != dim
            or any(m not in (1, -1) for m in metric)):
        raise ParseError("model: metric must be a list of +-1 of length dim")
    d = doc.get("d") or {}
    if not isinstance(d, dict):
        raise ParseError("model: d must be an object mapping coframe indices to 2-form terms")
    d1 = {}
    for key, items in d.items():
        try:
            k = int(key)
        except ValueError as ex:
            raise ParseError(f"model: bad coframe index '{key}'") from ex
        d1[k] = parse_terms(items, dim, 2, f"model: d[{key}]")
    try:
        model = framecalc.FrameModel(dim, tuple(metric), d1)
    except PreconditionError:
        raise
    except ValueError as ex:
        raise ParseError(f"model: {ex}") from ex
    cbm = None
    su3 = None
    if "bundle" in doc:
        bundle = doc["bundle"]
        if not isinstance(bundle, dict) or "F" not in bundle:
            raise ParseError("model: bundle must be an object with field 'F'")
        F = parse_terms(bundle["F"], dim, 2, "model: bundle.F")
        cbm = framecalc.make_circle_bundle(model, F)
    if "su3" in doc:
        block = doc["su3"]
        if not isinstance(block, dict) or any(k not in block for k in ("omega", "Omega1", "Omega2")):
            raise ParseError("model: su3 needs omega, Omega1, Omega2")
        su3 = framecalc.SU3Data(
            omega=parse_terms(block["omega"], dim, 2, "model: su3.omega"),
            Omega1=parse_terms(block["Omega1"], dim, 3, "model: su3.Omega1"),
            Omega2=parse_terms(block["Omega2"], dim, 3, "model: su3.Omega2"),
        )
    return model, cbm, su3


def _emit(payload: dict, as_json: bool, text: str | None = None):
    if as_json or text is None:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ParseError(f"{path}: {ex}") from ex


def _scalar_str(x) -> str:
    if isinstance(x, QuadExt):
        return f"{rat_str(x.a)}+{rat_str(x.b)}*sqrt({rat_str(x.D)})"
    return rat_str(x)


def cmd_classify(args) -> int:
    doc = _load_json(args.form)
    form = parse_form_document(doc)
    dim = form.dim
    if args.dim and args.dim != dim:
        raise ParseError(f"--dim {args.dim} does not match document dim {dim}")
    if form.degree != 3 or dim not in (6, 7):
        raise ParseError("classification expects a 3-form in dimension 6 or 7")
    orientation = Fraction(args.vol) if args.vol else Fraction(1)
    vol = VolumeForm.standard(dim, orientation)
    stab = stable6.stabilizer_dim(form)
    if dim == 6:
        lam = stable6.lambda_coeff(form, vol).value
        cls = stable6.classify6(form, vol)
        payload = {"class": cls.value, "lambda": rat_str(lam), "stab_dim": stab}
        text = f"{cls.value}, lambda={rat_str(lam)}, stab_dim={stab}"
        if args.canonicalize and cls != stable6.OrbitClass6.NOT_STABLE:
            canon = stable6.canonicalize6(form, vol)
            payload["basis"] = [[_scalar_str(x) for x in row] for row in canon.basis.matrix]
            payload["scale"] = "1"  # every canonical 6-form basis is at scale 1
    else:
        qf = stable7.q_form(form, vol)
        pos, neg, zero = qf.signature()
        cls = stable7.classify7(form, vol)
        payload = {"class": cls.value, "q_signature": {"pos": pos, "neg": neg, "zero": zero},
                   "abs_signature": abs(pos - neg), "stab_dim": stab}
        text = f"{cls.value}, |sig|={abs(pos - neg)}, stab_dim={stab}"
        if args.canonicalize and cls == stable7.OrbitClass7.O7_MINUS:
            canon = stable7.canonicalize7(form, vol)
            payload["basis"] = [[repr(x) for x in row] for row in canon.basis]
            payload["residual"] = canon.residual
    _emit(payload, args.json, text)
    return EXIT_OK


def cmd_cayley(args) -> int:
    tag = compalg.AlgebraTag(args.algebra)
    table = compalg.multiplication_table(tag)
    entries = []
    lines = []
    for i, row in enumerate(table):
        row_out = []
        for j, prod in enumerate(row):
            nz = [(k, c) for k, c in enumerate(prod.coords) if c != 0]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise ArithmeticError("basis product is not a signed basis element")
            k, c = nz[0]
            row_out.append(f"{'+' if c > 0 else '-'}e{k}")
            lines.append(f"e{i}*e{j} = {'' if c > 0 else '-'}e{k}")
        entries.append(row_out)
    payload = {"algebra": tag.value, "dim": tag.dim,
               "signature": list(tag.signature), "table": entries}
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


def _parse_vector(spec: str, dim: int) -> list:
    if spec.startswith("e") and spec[1:].isdigit():
        k = int(spec[1:])
        if not (0 <= k < dim):
            raise ParseError(f"basis vector {spec} out of range for dim {dim}")
        return [Fraction(1 if i == k else 0) for i in range(dim)]
    parts = spec.split(",")
    if len(parts) != dim:
        raise ParseError(f"vector needs {dim} comma-separated entries or a basis name like e0")
    try:
        return [_rational(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError) as ex:
        raise ParseError(f"bad vector entry: {ex}") from ex


def cmd_bridge(args) -> int:
    src = getattr(args, "from")
    if src == "vcp7":
        cp3 = vcp.cross_3fold(compalg.AlgebraTag(args.algebra), args.variant)
        a = _parse_vector(args.a, 8)
        res = bridge.vcp_to_stable7(cp3, a)
        payload = {"phi": form_to_document(res.phi), "labels": list(res.frame.labels),
                   "class": stable7.classify7(res.phi, VolumeForm.standard(7)).value}
        _emit(payload, True)
        return EXIT_OK
    if src == "vcp6":
        cp3 = vcp.cross_3fold(compalg.AlgebraTag(args.algebra), args.variant)
        plane = args.plane.split(";") if ";" in args.plane else args.plane.split(",", 1)
        if len(plane) != 2:
            raise ParseError("--plane takes exactly two vectors, separated by one ';' or as two "
                             f"basis names 'e0,e4', got {len(plane)}")
        a, b = (_parse_vector(v.strip(), 8) for v in plane)
        res = bridge.vcp_to_stable6(cp3, a, b)
        payload = {
            "Omega": form_to_document(res.omega),
            "Omega_hat": form_to_document(res.omega_hat),
            "class": stable6.classify6(res.omega, res.vol).value,
            "lambda": rat_str(res.structure.lam.value),
            "plane_scale": rat_str(res.plane_scale),
            "labels": list(res.frame.labels),
            "orientation": rat_str(res.vol.coefficient()),
        }
        _emit(payload, True)
        return EXIT_OK
    # stable6 -> dim 7
    doc = _load_json(args.form)
    form = parse_form_document(doc)
    if form.dim != 6 or form.degree != 3:
        raise ParseError("--from stable6 expects a 3-form document in dimension 6")
    orientation = Fraction(args.vol) if args.vol else Fraction(1)
    vol = VolumeForm.standard(6, orientation)
    if args.ip == "euclidean":
        ip = InnerProduct.euclidean(6)
    elif args.ip == "split":
        ip = InnerProduct.diagonal([1, 1, 1, -1, -1, -1])
    else:
        ip = bridge.synthesize_compatible_ip(stable6.scaled_structure(form, vol))
    lift = bridge.stable6_to_7(form, ip, vol)
    payload = {
        "phi": form_to_document(lift.phi),
        "class": lift.orbit.value,
        "normalization_exact": lift.normalization_exact,
        "omega_scale": lift.scale_float,
        "residual": lift.residual,
    }
    _emit(payload, True)
    return EXIT_OK


def cmd_g2class(args) -> int:
    doc = _load_json(args.model)
    model, cbm, su3 = parse_model_document(doc)
    if cbm is None or su3 is None:
        raise ParseError("g2class needs a model document with bundle and su3 blocks")
    report = framecalc.classify_g2(cbm, su3)
    payload = report.as_dict()
    payload["witnesses"] = {
        "dphi": form_to_document(report.witnesses["dphi"]),
        "delta_phi": form_to_document(report.witnesses["delta_phi"]),
        "dphi_wedge_phi": form_to_document(report.witnesses["dphi_wedge_phi"]),
        "F_dot_omega": rat_str(report.witnesses["F_dot_omega"]),
        "torsion": form_to_document(report.witnesses["torsion"]),
    }
    _emit(payload, True)
    return EXIT_OK


def cmd_hitchin(args) -> int:
    mdoc = _load_json(args.model)
    model, _, _ = parse_model_document(mdoc)
    form = parse_form_document(_load_json(args.form))
    if form.dim != model.dim:
        raise ParseError("form and model dimensions differ")
    value = framecalc.hitchin_eval(model, form)
    payload = {"lambda": rat_str(value.lam), "phi_density": value.density}
    if args.variation:
        if value.lam == 0:
            print("error: variation requested at a non-stable form", file=sys.stderr)
            return EXIT_SHAPE
        direction = parse_form_document(_load_json(args.variation), "variation")
        fd, pairing = framecalc.hitchin_variation(form, direction, model.vol())
        payload["variation"] = {"derivative": fd, "pairing": pairing,
                                "constant": framecalc.HITCHIN_VARIATION_CONSTANT}
    _emit(payload, True)
    return EXIT_OK


def cmd_para_cy(args) -> int:
    model, _, _ = parse_model_document(_load_json(args.model))
    alpha = parse_form_document(_load_json(args.alpha), "alpha")
    beta = parse_form_document(_load_json(args.beta), "beta")
    omega = parse_form_document(_load_json(args.omega), "omega") if args.omega else None
    report = framecalc.para_cy_check(model, alpha, beta, omega)
    _emit(report, True)
    return EXIT_OK


def cmd_vcp_check(args) -> int:
    if args.trials < 1:
        raise ParseError(f"--trials must be a positive integer, got {args.trials}")
    if args.what == "axioms" and args.algebra not in ("O", "B"):
        raise ParseError("cross-product axioms live on the octonions (O) or the split octonions (B)")
    raw = os.environ.get("STABLEFORMS_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise ParseError(f"STABLEFORMS_SEED must be an integer, got {raw!r}") from None
    tag = compalg.AlgebraTag(args.algebra)
    if args.what == "identities":
        rep = compalg.verify_identities(tag, args.trials, seed)
        payload = {"what": "identities", "algebra": tag.value, "trials": rep.trials,
                   "passed": rep.passed, "failed_checks": list(rep.failed_checks())}
    elif args.what == "axioms":
        if args.fold == 2:
            cp = vcp.cross_2fold(tag)
        else:
            cp = vcp.cross_3fold(tag, args.variant)
        rep = vcp.verify_axioms(cp, args.trials, seed)
        payload = {"what": "axioms", "algebra": tag.value, "fold": args.fold,
                   "variant": cp.variant, "trials": rep.trials, "passed": rep.passed,
                   "failed_checks": list(rep.failed_checks())}
    else:
        if tag != compalg.AlgebraTag.B:
            raise ParseError("para-extension identities live on the split octonions (B)")
        cp3 = vcp.cross_3fold(tag, args.variant)
        e0 = [Fraction(1 if i == 0 else 0) for i in range(8)]
        e4 = [Fraction(1 if i == 4 else 0) for i in range(8)]
        rep = vcp.verify_para_extension_identities(cp3, e0, e4, args.trials, seed)
        payload = {"what": "para-extension", "algebra": tag.value, "variant": args.variant,
                   "trials": rep.trials, "identity_one": rep.identity_one,
                   "identity_two": rep.identity_two, "branch": rep.branch,
                   "eigen_dims": list(rep.eigen_dims), "passed": rep.passed}
    _emit(payload, True)
    return EXIT_OK if payload["passed"] else EXIT_SHAPE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stableforms",
                                description="stable 3-forms, cross products and G2 models")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a 3-form document (dim 6 or 7)")
    c.add_argument("form")
    c.add_argument("--dim", type=int, choices=(6, 7))
    c.add_argument("--vol", choices=("1", "-1"), help="orientation sign of e^{1..n}")
    c.add_argument("--canonicalize", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("cayley", help="print a Cayley-Dickson multiplication table")
    c.add_argument("--algebra", required=True, choices=ALGEBRAS)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cayley)

    c = sub.add_parser("bridge", help="run the cross-product/stable-form dictionary")
    c.add_argument("--from", required=True, choices=("vcp7", "vcp6", "stable6"))
    c.add_argument("--algebra", default="O", choices=("O", "B"))
    c.add_argument("--variant", default="X1", choices=("X1", "X2"))
    c.add_argument("--a", default="e0", help="unit vector: e0..e7 or 8 comma-separated rationals")
    c.add_argument("--plane", default="e0,e4",
                   help="two vectors 'a;b' (e.g. 'e0;e4') or two basis names 'e0,e4'")
    c.add_argument("--form", help="form document for --from stable6")
    c.add_argument("--ip", default="synthesize", choices=("euclidean", "split", "synthesize"))
    c.add_argument("--vol", choices=("1", "-1"))
    c.set_defaults(func=cmd_bridge)

    c = sub.add_parser("g2class", help="torsion classes of a circle-bundle model")
    c.add_argument("model")
    c.set_defaults(func=cmd_g2class)

    c = sub.add_parser("hitchin", help="evaluate the volume functional on a model form")
    c.add_argument("model")
    c.add_argument("form")
    c.add_argument("--variation", help="direction form document")
    c.set_defaults(func=cmd_hitchin)

    c = sub.add_parser("para-cy", help="check a decomposable para-Calabi-Yau pair")
    c.add_argument("model")
    c.add_argument("alpha")
    c.add_argument("beta")
    c.add_argument("--omega")
    c.set_defaults(func=cmd_para_cy)

    c = sub.add_parser("vcp-check", help="randomized exact verifiers (seeded by STABLEFORMS_SEED)")
    c.add_argument("--what", required=True, choices=("axioms", "identities", "para-extension"))
    c.add_argument("--algebra", required=True, choices=ALGEBRAS)
    c.add_argument("--fold", type=int, default=2, choices=(2, 3))
    c.add_argument("--variant", default="X1", choices=("X1", "X2"))
    c.add_argument("--trials", type=int, default=200)
    c.set_defaults(func=cmd_vcp_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout on purpose (e.g. `| head`): stop quietly, and
        # send the interpreter's final flush of the unwritten output to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParseError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as ex:
        print(f"precondition failed: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as ex:  # shape errors and NotStableError
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_SHAPE
    except ArithmeticError as ex:  # a value outside the float range, a failed exact check
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_SHAPE


if __name__ == "__main__":
    sys.exit(main())
