"""Fuzzing ``stableforms classify``, ``bridge --from stable6``, ``g2class``,
``hitchin`` and ``para-cy``: every document ends in a documented exit code.

Hypothesis (derandomized, so every run sees the same examples) generates
form documents: malformed JSON and JSON shapes, wrong dim or degree,
repeated, unsorted or out-of-range indices, non-string coefficients, zero
forms, and coefficients from 1e-400 to 1e400, on sparse random forms and on
the canonical forms with each coefficient rescaled.  Each document runs in
process, through ``classify`` with and without ``--canonicalize``, and
through ``bridge --from stable6`` (dim-6 documents, dense c g^* Omega+-
among them) with each ``--ip`` choice, each under ``--vol 1`` and ``--vol
-1``.  The exit code must be 0, 2, 3 or 4 (an argparse ``SystemExit(2)``
counts as 2), and nothing may escape ``cli.main`` or leave a traceback on
stderr.  A decimal exponent beyond Python's cap on integer string digits
is a parse error, found before any large integer is built, and a lambda of
any size is printed.

Model documents are mostly well formed (dim 6, flat or Iwasawa or random
structure constants, with bundle and su3 blocks; dim 4 Kodaira-Thurston),
with one field possibly broken or removed; they run through ``g2class``,
through ``hitchin`` with and without ``--variation`` on 3-form documents,
and through ``para-cy`` with and without ``--omega`` on form documents of
the model's middle degree.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stableforms import cli, framecalc
from stableforms.exteralg import LinearMap, alt_form, pullback
from stableforms.stable6 import canonical_omega_minus, canonical_omega_plus
from stableforms.stable7 import canonical_phi_minus, canonical_phi_plus

# a mantissa times 10^e, |e| <= 400, written as a string: exact for the parser
HUGE_OR_TINY = st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-400, 400))
COEFFICIENTS = st.one_of(
    HUGE_OR_TINY,
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-3, 50)),  # /0 and negative denominators
    st.integers(-10 ** 6, 10 ** 6),  # not a string
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([None, True, [], {}, "", "x", "nan", "inf", "1/0", "0", "-0/5"]),
)
INDICES = st.one_of(
    st.lists(st.sampled_from(range(1, 8)), min_size=3, max_size=3, unique=True).map(sorted),
    st.lists(st.integers(-1, 9), max_size=4),  # repeated, unsorted, out of range, wrong length
    st.sampled_from([None, "123", [1.0, 2, 3], [[1], 2, 3], [True, 2, 3]]),
)
TERMS = st.one_of(
    st.lists(st.fixed_dictionaries({"idx": INDICES, "coef": COEFFICIENTS}), max_size=8),
    st.lists(st.sampled_from([None, 1, "term", [], {"idx": [1, 2, 3]}, {"coef": "1"}]), max_size=2),
    st.sampled_from([None, {}, "terms", 3]),
)
DIMS = st.one_of(st.integers(-1, 9), st.sampled_from(["7", 7.0, None, [7]]))
RANDOM_DOCUMENTS = st.fixed_dictionaries({"dim": st.one_of(st.sampled_from([6, 7]), DIMS),
                                          "degree": st.one_of(st.just(3), DIMS), "terms": TERMS})
CANONICAL = [canonical_omega_plus(), canonical_omega_minus(), canonical_phi_minus(), canonical_phi_plus()]


@st.composite
def rescaled_canonical(draw, forms: list = CANONICAL) -> dict:
    """One of the forms times 10^e, |e| <= 400, each coefficient also times m 10^k with
    1 <= m <= 9 and |k| <= 3, possibly a term dropped (an unstable form).  Wider spreads
    within one form are left to the sparse random forms: on a dense unstable form they
    make the exact rank of the stabilizer system take up to a minute."""
    form, e = draw(st.sampled_from(forms)), draw(st.integers(-400, 400))
    terms = [{"idx": list(idx), "coef": f"{c * draw(st.integers(1, 9))}e{e + draw(st.integers(-3, 3))}"}
             for idx, c in form.terms.items()]
    if draw(st.booleans()):
        del terms[draw(st.integers(0, len(terms) - 1))]
    return {"dim": form.dim, "degree": 3, "terms": terms}


MALFORMED = st.sampled_from(["", "{", "not json", "[1,", '{"dim": 7,', "null", "[]", '"form"', "3",
                             "{}", '{"dim": 7}', '{"dim": 7, "degree": 3}', '{"terms": []}'])
TEXTS = st.one_of(MALFORMED, RANDOM_DOCUMENTS.map(json.dumps), rescaled_canonical().map(json.dumps),
                  st.builds(lambda dim: json.dumps({"dim": dim, "degree": 3, "terms": []}),
                            st.sampled_from([6, 7])))  # zero forms
OPTIONS = [[*canonicalize, "--vol", vol] for canonicalize in ([], ["--canonicalize"]) for vol in ("1", "-1")]


def run_cli(argv: list) -> tuple[int, str]:
    """``stableforms ARGV`` in process: exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:  # argparse
            code = ex.code
    return code, err.getvalue()


def run_classify(path: str, options: list) -> tuple[int, str]:
    """``stableforms classify PATH --json OPTIONS`` in process: exit code and stderr."""
    return run_cli(["classify", path, "--json", *options])


def scaled_document(form, exponent: int) -> str:
    return json.dumps({"dim": form.dim, "degree": 3, "terms": [{"idx": list(idx), "coef": f"{c}e{exponent}"}
                                                               for idx, c in form.terms.items()]})


@settings(max_examples=120, derandomize=True, deadline=None)
@given(text=TEXTS)
@example(text=scaled_document(canonical_phi_minus(), 400))  # canonicalize: a float residual overflows
@example(text=scaled_document(canonical_omega_minus(), -400))
def test_classify_exits_with_a_documented_code(text):
    assert_documented_exits(text, lambda path: [["classify", path, "--json", *options] for options in OPTIONS])


def assert_documented_exits(text: str, commands):
    """Write text to a file and run every argv of commands(path) on it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in commands(path):
            code, err = run_cli(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_SHAPE, cli.EXIT_PRECONDITION), (code, err)
            assert "Traceback" not in err


# c g^* Omega+- with g an integer matrix (possibly singular) and c = m 10^e, |e| <= 400,
# mostly |e| <= 3, where the lift's float normalization stays in range
DENSE6 = st.builds(
    lambda base, entries, m, e: json.dumps({"dim": 6, "degree": 3, "terms": [
        {"idx": list(idx), "coef": f"{m * x}e{e}"}
        for idx, x in pullback(LinearMap.from_rows([entries[6 * i:6 * i + 6] for i in range(6)]),
                               base).terms.items()]}),
    st.sampled_from(CANONICAL[:2]), st.lists(st.integers(-2, 2), min_size=36, max_size=36),
    st.integers(1, 9), st.one_of(st.integers(-3, 3), st.integers(-400, 400)))
BRIDGE_TEXTS = st.one_of(MALFORMED, RANDOM_DOCUMENTS.map(json.dumps), DENSE6,
                         rescaled_canonical(CANONICAL[:2]).map(json.dumps))
BRIDGE_OPTIONS = [["--ip", ip, "--vol", vol] for ip in ("euclidean", "split", "synthesize")
                  for vol in ("1", "-1")]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(text=BRIDGE_TEXTS)
@example(text=scaled_document(canonical_omega_minus(), 60))  # the float normalization overflows
@example(text=scaled_document(canonical_omega_plus(), -400))
def test_bridge_from_stable6_exits_with_a_documented_code(text):
    assert_documented_exits(text, lambda path: [["bridge", "--from", "stable6", "--form", path, *options]
                                                for options in BRIDGE_OPTIONS])


def test_a_decimal_exponent_beyond_the_digit_cap_is_a_parse_error():
    """"1e100000000" would build a 10^(10^8) integer; it is refused at once, naming the term,
    in a form document and in a vector argument.  1e400 still parses."""
    cap = sys.int_info.default_max_str_digits
    for coef, parsed in (("1e100000000", False), ("-3E-100000000", False), (f"1e{cap + 1}", False),
                         (f"1e{'9' * (cap + 10)}", False), ("1e400", True), (f"1e-{cap}", True)):
        doc = {"dim": 7, "degree": 3,
               "terms": [{"idx": [1, 2, 3], "coef": coef}, {"idx": [4, 5, 6], "coef": "3"}]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "form.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            start = time.perf_counter()
            code, err = run_classify(path, [])
            assert time.perf_counter() - start < 1
        assert "Traceback" not in err
        if parsed:
            assert code in (cli.EXIT_OK, cli.EXIT_SHAPE), (coef, code, err)
        else:
            assert code == cli.EXIT_PARSE and "term #0" in err, (coef, code, err)
    code, err = run_cli(["bridge", "--from", "vcp7", "--a", "1e100000000," + ",".join(["0"] * 7)])
    assert code == cli.EXIT_PARSE and "decimal exponent" in err, (code, err)


@pytest.mark.parametrize("coef", ["1e1100", "1e4300"])
def test_a_lambda_past_the_digit_cap_is_printed(coef):
    """c Omega_minus with c = 10^1100 or 10^4300 has lambda = -4 c^4, 4401 or 17201
    digits: classify prints it exactly and exits 0."""
    exponent = int(coef[2:])
    text = json.dumps({"dim": 6, "degree": 3, "terms": [
        {"idx": list(idx), "coef": coef if c > 0 else "-" + coef}
        for idx, c in canonical_omega_minus().terms.items()]})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["classify", path, "--json"])
    assert code == cli.EXIT_OK, err.getvalue()
    payload = json.loads(out.getvalue())
    assert payload["class"] == "O6_MINUS"
    assert payload["lambda"] == "-4" + "0" * (4 * exponent)


def test_a_coefficient_literal_past_the_digit_cap_is_a_parse_error():
    """A 5000-digit integer literal is refused by the parser, naming the term."""
    literal = "1" + "0" * 4999
    doc = {"dim": 6, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": literal},
                                            {"idx": [4, 5, 6], "coef": "1"}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = run_classify(path, [])
    assert code == cli.EXIT_PARSE and "term #0" in err and "Traceback" not in err


# -- model documents: g2class, hitchin and para-cy

def terms_of(form) -> list:
    return cli.form_to_document(form)["terms"]


def two_form_terms() -> st.SearchStrategy:
    """Term lists of 2-forms on the 6-space: mostly sorted index pairs in range with small or
    huge coefficients; sometimes bad indices or bad coefficients, or not a term list."""
    pair = st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True).map(sorted)
    small = st.sampled_from(["1", "-1", "2", "1/2", "0"])
    term = st.one_of(st.fixed_dictionaries({"idx": pair, "coef": st.one_of(small, small, HUGE_OR_TINY)}),
                     st.fixed_dictionaries({"idx": pair, "coef": small}),
                     st.fixed_dictionaries({"idx": st.one_of(pair, INDICES), "coef": COEFFICIENTS}))
    return st.one_of(st.lists(term, max_size=4), st.lists(term, max_size=4),
                     st.sampled_from([None, "F", [None], [{"idx": [1, 2]}]]))


IWASAWA_D = {str(k): terms_of(f) for k, f in framecalc.iwasawa_model().d1.items()}
KODAIRA_THURSTON_D = {str(k): terms_of(f) for k, f in framecalc.kodaira_thurston().d1.items()}
SU3 = {name: terms_of(getattr(framecalc.standard_su3(), name)) for name in ("omega", "Omega1", "Omega2")}
# closed (1,1) curvatures of the standard triple, and forms that are not
F_CHOICES = [terms_of(alt_form(6, 2, t)) for t in ({(1, 4): 1, (2, 5): -1}, {}, {(1, 2): 1},
                                                   {(1, 4): "1e300", (3, 6): "-1e300"})]
# a field of a model document replaced by something the parser must refuse, or removed
BROKEN = {"dim": DIMS, "metric": st.one_of(st.lists(st.sampled_from([1, -1, 0, 2, "1", None]), max_size=7),
                                           st.sampled_from([None, "metric", 1])),
          "d": st.sampled_from([[1], "d", {"5": None}, {"x": []}, {"9": [{"idx": [1, 2], "coef": "1"}]}]),
          "bundle": st.sampled_from([None, {}, [], "F", {"F": None}, {"F": [{"idx": [1, 2, 3], "coef": "1"}]}]),
          "su3": st.one_of(st.sampled_from([None, {}, {"omega": []}, "su3"]),
                           st.fixed_dictionaries({"omega": two_form_terms(), "Omega1": TERMS,
                                                  "Omega2": st.just(SU3["Omega2"])}))}


@st.composite
def model_documents(draw) -> dict:
    """A model document that is mostly well formed: dim 6 (flat, the Iwasawa frame or random
    structure constants, which may violate Jacobi) or dim 4 (Kodaira-Thurston), Riemannian
    or split, with bundle and su3 blocks on dim 6; then one field possibly broken or removed."""
    dim = draw(st.sampled_from([6, 6, 6, 4]))
    doc = {"dim": dim, "metric": draw(st.sampled_from([[1] * dim, [1] * (dim // 2) + [-1] * (dim // 2)]))}
    if dim == 4:
        doc["d"] = KODAIRA_THURSTON_D
    else:
        doc["d"] = draw(st.one_of(st.just({}), st.just(IWASAWA_D), st.dictionaries(
            st.sampled_from(["1", "4", "5", "6"]), two_form_terms(), max_size=2)))
        if draw(st.sampled_from([True, True, True, False])):
            doc["bundle"] = {"F": draw(st.one_of(st.sampled_from(F_CHOICES), two_form_terms()))}
            doc["su3"] = SU3
    field = draw(st.sampled_from([None, None, None, *BROKEN]))
    if field is not None:
        if draw(st.booleans()):
            doc[field] = draw(BROKEN[field])
        else:
            doc.pop(field, None)
    return doc


MODEL_TEXTS = st.one_of(MALFORMED, model_documents().map(json.dumps))
FORM6_TEXTS = st.one_of(RANDOM_DOCUMENTS.map(json.dumps), DENSE6, rescaled_canonical(CANONICAL[:2]).map(json.dumps))


@st.composite
def pair_texts(draw, dim: int) -> str:
    """A form document of degree dim/2 on the model's dim: a few basis terms, sometimes of
    another degree or dimension, or malformed."""
    kind = draw(st.sampled_from(["terms", "terms", "terms", "other", "malformed"]))
    if kind == "malformed":
        return draw(MALFORMED)
    degree, n = (dim // 2, dim) if kind == "terms" else (draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([4, 6, 7])))
    terms = draw(st.lists(st.fixed_dictionaries({
        "idx": st.lists(st.integers(1, n), min_size=degree, max_size=degree, unique=True).map(sorted),
        "coef": st.one_of(st.sampled_from(["1", "-1", "2"]), HUGE_OR_TINY)}), min_size=1, max_size=3,
        unique_by=lambda t: tuple(t["idx"])))
    return json.dumps({"dim": n, "degree": degree, "terms": terms})


@st.composite
def para_cy_texts(draw) -> dict:
    model = draw(model_documents())
    dim = model["dim"] if model.get("dim") in (4, 6) else 4
    return {"model": json.dumps(model), **{name: draw(pair_texts(dim)) for name in ("alpha", "beta", "omega")}}


def assert_documented_exits_on_files(texts: dict, commands):
    """Write each text of texts to its own file and run every argv of commands(paths)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in commands(paths):
            code, err = run_cli(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_SHAPE, cli.EXIT_PRECONDITION), (argv, code, err)
            assert "Traceback" not in err


@settings(max_examples=80, derandomize=True, deadline=None)
@given(model=MODEL_TEXTS)
def test_g2class_exits_with_a_documented_code(model):
    assert_documented_exits_on_files({"model": model}, lambda p: [["g2class", p["model"]]])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(model=MODEL_TEXTS, form=FORM6_TEXTS, direction=FORM6_TEXTS)
def test_hitchin_exits_with_a_documented_code(model, form, direction):
    assert_documented_exits_on_files(
        {"model": model, "form": form, "direction": direction},
        lambda p: [["hitchin", p["model"], p["form"]],
                   ["hitchin", p["model"], p["form"], "--variation", p["direction"]]])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(texts=para_cy_texts())
def test_para_cy_exits_with_a_documented_code(texts):
    assert_documented_exits_on_files(
        texts,
        lambda p: [["para-cy", p["model"], p["alpha"], p["beta"]],
                   ["para-cy", p["model"], p["alpha"], p["beta"], "--omega", p["omega"]]])
