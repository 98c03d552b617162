"""Fuzzing ``stableforms classify``: every document ends in a documented exit code.

Hypothesis (derandomized, so every run sees the same examples) generates
``classify`` documents: malformed JSON and JSON shapes, wrong dim or degree,
repeated, unsorted or out-of-range indices, non-string coefficients, zero
forms, and coefficients from 1e-400 to 1e400, on sparse random forms and on
the canonical forms with each coefficient rescaled.  Each document runs in
process with and without ``--canonicalize`` and under ``--vol 1`` and
``--vol -1``.  The exit code must be 0, 2, 3 or 4 (an argparse
``SystemExit(2)`` counts as 2), and nothing may escape ``cli.main`` or leave
a traceback on stderr.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stableforms import cli
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
def rescaled_canonical(draw) -> dict:
    """A canonical form times 10^e, |e| <= 400, each coefficient also times m 10^k with
    1 <= m <= 9 and |k| <= 3, possibly a term dropped (an unstable form).  Wider spreads
    within one form are left to the sparse random forms: on a dense unstable form they
    make the exact rank of the stabilizer system take up to a minute."""
    form, e = draw(st.sampled_from(CANONICAL)), draw(st.integers(-400, 400))
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


def run_classify(path: str, options: list) -> tuple[int, str]:
    """``stableforms classify PATH --json OPTIONS`` in process: exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["classify", path, "--json", *options])
        except SystemExit as ex:  # argparse
            code = ex.code
    return code, err.getvalue()


def scaled_document(form, exponent: int) -> str:
    return json.dumps({"dim": form.dim, "degree": 3, "terms": [{"idx": list(idx), "coef": f"{c}e{exponent}"}
                                                               for idx, c in form.terms.items()]})


@settings(max_examples=120, derandomize=True, deadline=None)
@given(text=TEXTS)
@example(text=scaled_document(canonical_phi_minus(), 400))  # canonicalize: a float residual overflows
@example(text=scaled_document(canonical_omega_minus(), -400))
def test_classify_exits_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for options in OPTIONS:
            code, err = run_classify(path, options)
            assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_SHAPE, cli.EXIT_PRECONDITION), (code, err)
            assert "Traceback" not in err
