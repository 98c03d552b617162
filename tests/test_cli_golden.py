"""Byte-for-byte CLI output on a fixed corpus of calls.

The expected stdout and exit code of every call are stored in
``tests/data/cli_golden.json``.  Refactors of the classification and bridge
code must leave them unchanged.  To regenerate after an intended output
change, run ``python tests/test_cli_golden.py > tests/data/cli_golden.json``
with ``src`` on the path.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import G6, G7
from stableforms.cli import form_to_document, main
from stableforms.exteralg import alt_form, basis_form, pullback
from stableforms.stable6 import canonical_omega_minus, canonical_omega_plus
from stableforms.stable7 import canonical_phi_minus, canonical_phi_plus

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# |lambda| = 28 is not a square: the canonical basis has QuadExt entries
QUADEXT_OMEGA = alt_form(6, 3, {(3, 4, 5): -2, (2, 3, 4): -2, (3, 4, 6): -2, (1, 3, 6): 2,
                                (2, 4, 6): -2, (1, 2, 5): -2, (1, 5, 6): -1})

DOCS = {
    "omega_plus": form_to_document(pullback(G6, canonical_omega_plus())),
    "omega_minus": form_to_document(pullback(G6, canonical_omega_minus())),
    "omega_quadext": form_to_document(QUADEXT_OMEGA),
    "decomposable6": form_to_document(basis_form(6, 1, 2, 3)),
    "phi_minus": form_to_document(pullback(G7, canonical_phi_minus())),
    "phi_plus": form_to_document(pullback(G7, canonical_phi_plus())),
    "decomposable7": form_to_document(basis_form(7, 2, 4, 6)),
    "direction": form_to_document(alt_form(6, 3, {(1, 3, 5): 1, (2, 4, 6): -2, (1, 2, 6): 1})),
    "flat6": {"dim": 6, "metric": [1] * 6, "d": {}},
    "bundle": {"dim": 6, "metric": [1] * 6, "d": {},
               "bundle": {"F": [{"idx": [1, 4], "coef": "1"}, {"idx": [2, 5], "coef": "-1"},
                                {"idx": [1, 2], "coef": "1/2"}, {"idx": [4, 5], "coef": "1/2"}]},
               "su3": {"omega": form_to_document(alt_form(6, 2, {(1, 4): 1, (2, 5): 1,
                                                                 (3, 6): 1}))["terms"],
                       "Omega1": form_to_document(canonical_omega_minus())["terms"],
                       "Omega2": [{"idx": [1, 2, 6], "coef": "1"}, {"idx": [1, 3, 5], "coef": "-1"},
                                  {"idx": [2, 3, 4], "coef": "1"},
                                  {"idx": [4, 5, 6], "coef": "-1"}]}},
    "kt": {"dim": 4, "metric": [1] * 4, "d": {"4": [{"idx": [2, 3], "coef": "1"}]}},
    "kt_alpha": {"dim": 4, "degree": 2, "terms": [{"idx": [1, 3], "coef": "1"}]},
    "kt_beta": {"dim": 4, "degree": 2, "terms": [{"idx": [2, 4], "coef": "1"}]},
    "kt_omega": {"dim": 4, "degree": 2,
                 "terms": [{"idx": [1, 2], "coef": "1"}, {"idx": [3, 4], "coef": "1"}]},
    "malformed": {"dim": 6, "degree": 3, "terms": [{"idx": [3, 2, 1], "coef": "1"}]},
}

# name -> argv; "@doc" is replaced by the path of the written document
CORPUS = {
    "classify6_plus": ["classify", "@omega_plus", "--canonicalize", "--json"],
    "classify6_minus": ["classify", "@omega_minus", "--canonicalize", "--json"],
    "classify6_quadext": ["classify", "@omega_quadext", "--canonicalize", "--json"],
    "classify6_decomposable": ["classify", "@decomposable6", "--canonicalize", "--json"],
    "classify6_text_vol": ["classify", "@omega_minus", "--vol", "-1"],
    "classify7_minus": ["classify", "@phi_minus", "--canonicalize", "--json"],
    "classify7_plus": ["classify", "@phi_plus", "--canonicalize", "--json"],
    "classify7_decomposable": ["classify", "@decomposable7", "--canonicalize", "--json"],
    "classify_malformed": ["classify", "@malformed"],
    "cayley_O": ["cayley", "--algebra", "O", "--json"],
    "cayley_U_text": ["cayley", "--algebra", "U"],
    "bridge_vcp7": ["bridge", "--from", "vcp7", "--algebra", "B", "--variant", "X2", "--a", "e0"],
    "bridge_vcp6_O": ["bridge", "--from", "vcp6", "--algebra", "O", "--variant", "X2"],
    "bridge_vcp6_B": ["bridge", "--from", "vcp6", "--algebra", "B", "--variant", "X1"],
    "bridge_stable6": ["bridge", "--from", "stable6", "--form", "@omega_minus"],
    "bridge_stable6_plus": ["bridge", "--from", "stable6", "--form", "@omega_plus", "--vol", "-1"],
    "bridge_stable6_incompatible": ["bridge", "--from", "stable6", "--form", "@omega_plus",
                                    "--ip", "split"],
    "g2class": ["g2class", "@bundle"],
    "hitchin": ["hitchin", "@flat6", "@omega_minus", "--variation", "@direction"],
    "para_cy": ["para-cy", "@kt", "@kt_alpha", "@kt_beta", "--omega", "@kt_omega"],
    "vcp_identities": ["vcp-check", "--what", "identities", "--algebra", "O", "--trials", "4"],
    "vcp_axioms": ["vcp-check", "--what", "axioms", "--algebra", "B", "--fold", "3",
                   "--variant", "X1", "--trials", "4"],
    "vcp_para": ["vcp-check", "--what", "para-extension", "--algebra", "B", "--variant", "X2",
                 "--trials", "4"],
}


def run_call(name: str, workdir: str) -> dict:
    argv = []
    for arg in CORPUS[name]:
        if arg.startswith("@"):
            path = os.path.join(workdir, arg[1:] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(DOCS[arg[1:]], fh)
            arg = path
        argv.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("STABLEFORMS_SEED", "3")
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_call(name, str(tmp_path)) == expected


if __name__ == "__main__":
    os.environ["STABLEFORMS_SEED"] = "3"
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_call(name, tmp) for name in sorted(CORPUS)}
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
