import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import G7, tall_invertible
from stableforms import compalg
from stableforms.cli import (ALGEBRAS, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_SHAPE,
                             form_to_document, main, parse_form_document)
from stableforms.exteralg import alt_form, pullback
from stableforms.stable7 import canonical_phi_minus


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def omega_plus_doc():
    return {"dim": 6, "degree": 3,
            "terms": [{"idx": [1, 2, 3], "coef": "1"}, {"idx": [4, 5, 6], "coef": "1"}]}


def phi_minus_doc():
    return {"dim": 7, "degree": 3, "terms": [
        {"idx": [1, 2, 3], "coef": "1"}, {"idx": [1, 6, 7], "coef": "-1"},
        {"idx": [2, 5, 7], "coef": "1"}, {"idx": [3, 5, 6], "coef": "-1"},
        {"idx": [1, 4, 5], "coef": "1"}, {"idx": [2, 4, 6], "coef": "1"},
        {"idx": [3, 4, 7], "coef": "1"}]}


def bundle_model_doc(f_terms):
    return {"dim": 6, "metric": [1] * 6, "d": {},
            "bundle": {"F": f_terms},
            "su3": {"omega": [{"idx": [1, 4], "coef": "1"}, {"idx": [2, 5], "coef": "1"},
                              {"idx": [3, 6], "coef": "1"}],
                    "Omega1": [{"idx": [1, 2, 3], "coef": "1"}, {"idx": [1, 5, 6], "coef": "-1"},
                               {"idx": [2, 4, 6], "coef": "1"}, {"idx": [3, 4, 5], "coef": "-1"}],
                    "Omega2": [{"idx": [1, 2, 6], "coef": "1"}, {"idx": [1, 3, 5], "coef": "-1"},
                               {"idx": [2, 3, 4], "coef": "1"}, {"idx": [4, 5, 6], "coef": "-1"}]}}


class TestDocuments:
    def test_round_trip(self):
        form = alt_form(6, 3, {(1, 2, 3): "3/4", (2, 4, 6): -2})
        doc = form_to_document(form)
        assert parse_form_document(doc) == form
        assert form_to_document(parse_form_document(doc)) == doc

    def test_duplicate_idx_rejected(self):
        doc = {"dim": 6, "degree": 2,
               "terms": [{"idx": [1, 2], "coef": "1"}, {"idx": [1, 2], "coef": "2"}]}
        with pytest.raises(Exception, match="duplicate"):
            parse_form_document(doc)


class TestClassify(object):
    def test_text_output(self, tmp_path, capsys):
        rc = main(["classify", write(tmp_path, "f.json", omega_plus_doc())])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "O6_PLUS, lambda=1, stab_dim=16"

    def test_seven_dim(self, tmp_path, capsys):
        rc = main(["classify", write(tmp_path, "f.json", phi_minus_doc())])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "O7_MINUS, |sig|=7, stab_dim=14"

    def test_canonicalize_json(self, tmp_path, capsys):
        rc = main(["classify", write(tmp_path, "f.json", omega_plus_doc()),
                   "--json", "--canonicalize"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "O6_PLUS"
        assert payload["basis"][0][0] == "1"

    def test_canonicalize_seven(self, tmp_path, capsys):
        rc = main(["classify", write(tmp_path, "f.json", phi_minus_doc()),
                   "--json", "--canonicalize"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "O7_MINUS"
        assert payload["residual"] <= 1e-9

    def test_canonicalize_seven_tall(self, tmp_path, capsys):
        # c ~ 1e40: s^9 = c^21 is far past the float range, the frame stays exact
        phi = Fraction(10 ** 40 + 1, 3) * pullback(G7, canonical_phi_minus())
        rc = main(["classify", write(tmp_path, "f.json", form_to_document(phi)),
                   "--json", "--canonicalize"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "O7_MINUS"
        assert len(payload["basis"]) == 7 and all(len(row) == 7 for row in payload["basis"])
        assert payload["residual"] <= 1e-9 * max(abs(float(c)) for c in phi.terms.values())

    def test_canonicalize_seven_past_the_float_range_names_the_residual(self, tmp_path, capsys):
        """10^400 phi_minus: exit 3 with the stage and the coefficient's power of 2 on stderr."""
        phi = 10 ** 400 * canonical_phi_minus()
        rc = main(["classify", write(tmp_path, "f.json", form_to_document(phi)), "--json", "--canonicalize"])
        assert rc == EXIT_SHAPE
        out, err = capsys.readouterr()
        assert err == ("error: OverflowError: canonicalize7 residual: coefficient near 2^1328 is outside "
                       "the float range\n")
        assert out == ""

    def test_tall_unstable_full_support(self, tmp_path, capsys):
        # g^* (e123 + e456 + e147), g with entries m 10^e, |e| <= 200: det B = 0, stab_dim 18
        form = pullback(tall_invertible(random.Random(18), 7),
                        alt_form(7, 3, {(1, 2, 3): 1, (4, 5, 6): 1, (1, 4, 7): 1}))
        rc = main(["classify", write(tmp_path, "f.json", form_to_document(form)), "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "NOT_STABLE" and payload["stab_dim"] == 18

    def test_malformed_idx_exit_2(self, tmp_path, capsys):
        doc = {"dim": 6, "degree": 3, "terms": [{"idx": [2, 2, 3], "coef": "1"}]}
        rc = main(["classify", write(tmp_path, "bad.json", doc)])
        assert rc == EXIT_PARSE
        assert "[2, 2, 3]" in capsys.readouterr().err

    def test_not_stable_is_not_an_error(self, tmp_path, capsys):
        doc = {"dim": 6, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1"}]}
        rc = main(["classify", write(tmp_path, "f.json", doc)])
        assert rc == EXIT_OK
        assert "NOT_STABLE" in capsys.readouterr().out


class TestCayley:
    def test_octonion_entry(self, tmp_path, capsys):
        rc = main(["cayley", "--algebra", "O"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "e1*e4 = e5" in out

    def test_split_json(self, capsys):
        rc = main(["cayley", "--algebra", "B", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"][4][4] == "+e0"
        assert payload["signature"] == [1, 1, 1, 1, -1, -1, -1, -1]

    def test_quaternions(self, capsys):
        rc = main(["cayley", "--algebra", "H"])
        assert rc == EXIT_OK
        assert "e1*e2 = e3" in capsys.readouterr().out

    def test_algebra_choices_are_the_tags(self):
        """--algebra lists the tags literally, so that parsing loads no compalg."""
        assert list(ALGEBRAS) == [t.value for t in compalg.AlgebraTag]


class TestBridge:
    def test_vcp7(self, capsys):
        rc = main(["bridge", "--from", "vcp7", "--variant", "X1", "--a", "e0"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "O7_MINUS"
        assert len(payload["phi"]["terms"]) == 7

    def test_vcp6_branch(self, capsys):
        rc = main(["bridge", "--from", "vcp6", "--plane", "e0,e4", "--variant", "X2"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "O6_MINUS"
        assert payload["lambda"] == "-4"
        assert len(payload["Omega_hat"]["terms"]) == 4

    def test_vcp6_semicolon_plane(self, capsys):
        outputs = []
        for plane in ("e0,e4", "e0;e4"):
            rc = main(["bridge", "--from", "vcp6", "--plane", plane])
            assert rc == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_stable6_lift(self, tmp_path, capsys):
        doc = {"dim": 6, "degree": 3, "terms": [
            {"idx": [1, 2, 3], "coef": "1"}, {"idx": [1, 5, 6], "coef": "-1"},
            {"idx": [2, 4, 6], "coef": "1"}, {"idx": [3, 4, 5], "coef": "-1"}]}
        rc = main(["bridge", "--from", "stable6", "--form", write(tmp_path, "f.json", doc),
                   "--ip", "euclidean", "--vol", "-1"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "O7_MINUS"
        assert payload["normalization_exact"] is True

    def test_stable6_synthesized_ip(self, tmp_path, capsys):
        rc = main(["bridge", "--from", "stable6",
                   "--form", write(tmp_path, "f.json", omega_plus_doc())])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "O7_PLUS"


class TestG2Class:
    def test_primitive_curvature(self, tmp_path, capsys):
        model = bundle_model_doc([{"idx": [1, 4], "coef": "1"}, {"idx": [2, 5], "coef": "-1"}])
        rc = main(["g2class", write(tmp_path, "m.json", model)])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["W3"] is True and payload["parallel"] is False

    def test_nonprimitive(self, tmp_path, capsys):
        model = bundle_model_doc([{"idx": [1, 4], "coef": "1"}])
        rc = main(["g2class", write(tmp_path, "m.json", model)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["semi_parallel"] is True and payload["W3"] is False

    def test_unbalanced_base_exit_4(self, tmp_path, capsys):
        model = bundle_model_doc([])
        model["d"] = {"4": [{"idx": [2, 3], "coef": "1"}]}
        rc = main(["g2class", write(tmp_path, "m.json", model)])
        assert rc == EXIT_PRECONDITION
        assert "Omega" in capsys.readouterr().err

    def test_determinism(self, tmp_path, capsys):
        model = bundle_model_doc([{"idx": [1, 4], "coef": "1"}, {"idx": [2, 5], "coef": "-1"}])
        path = write(tmp_path, "m.json", model)
        main(["g2class", path])
        first = capsys.readouterr().out
        main(["g2class", path])
        second = capsys.readouterr().out
        assert first == second


class TestHitchin:
    def test_density_and_variation(self, tmp_path, capsys):
        model = {"dim": 6, "metric": [1] * 6, "d": {}}
        rc = main(["hitchin", write(tmp_path, "m.json", model),
                   write(tmp_path, "f.json", omega_plus_doc()),
                   "--variation", write(tmp_path, "v.json", omega_plus_doc())])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == "1"
        assert payload["phi_density"] == 1.0
        assert abs(payload["variation"]["derivative"] - 2.0) < 1e-8

    def test_density_above_the_float_range_names_the_root(self, tmp_path, capsys):
        """lambda = 10^1600 has a square root past the float range: exit 3 with the root's
        order and binary exponent, not the bare "math range error" of math.ldexp."""
        model = {"dim": 6, "metric": [1] * 6, "d": {}}
        huge = {"dim": 6, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1" + "0" * 400},
                                                 {"idx": [4, 5, 6], "coef": "1" + "0" * 400}]}
        rc = main(["hitchin", write(tmp_path, "m.json", model), write(tmp_path, "f.json", huge)])
        assert rc == EXIT_SHAPE
        err = capsys.readouterr().err
        assert err == ("error: OverflowError: root of order 2 near 2^2657 is above the normal "
                       "float range\n")
        assert "math range error" not in err

    def test_variation_on_unstable_exit_3(self, tmp_path, capsys):
        model = {"dim": 6, "metric": [1] * 6, "d": {}}
        unstable = {"dim": 6, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1"}]}
        rc = main(["hitchin", write(tmp_path, "m.json", model),
                   write(tmp_path, "f.json", unstable),
                   "--variation", write(tmp_path, "v.json", omega_plus_doc())])
        assert rc == EXIT_SHAPE


class TestParaCY:
    def test_kodaira_thurston(self, tmp_path, capsys):
        model = {"dim": 4, "metric": [1] * 4, "d": {"4": [{"idx": [2, 3], "coef": "1"}]}}
        alpha = {"dim": 4, "degree": 2, "terms": [{"idx": [1, 3], "coef": "1"}]}
        beta = {"dim": 4, "degree": 2, "terms": [{"idx": [2, 4], "coef": "1"}]}
        omega = {"dim": 4, "degree": 2,
                 "terms": [{"idx": [1, 2], "coef": "1"}, {"idx": [3, 4], "coef": "1"}]}
        rc = main(["para-cy", write(tmp_path, "m.json", model),
                   write(tmp_path, "a.json", alpha), write(tmp_path, "b.json", beta),
                   "--omega", write(tmp_path, "w.json", omega)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["all_pass"] is True


class TestVcpCheck:
    def test_axioms(self, capsys):
        rc = main(["vcp-check", "--what", "axioms", "--algebra", "B", "--fold", "3",
                   "--variant", "X2", "--trials", "40"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_identities_seeded(self, capsys, monkeypatch):
        monkeypatch.setenv("STABLEFORMS_SEED", "7")
        rc = main(["vcp-check", "--what", "identities", "--algebra", "U", "--trials", "60"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_non_integer_seed_is_a_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("STABLEFORMS_SEED", "abc")
        rc = main(["vcp-check", "--what", "identities", "--algebra", "H"])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err
        assert "STABLEFORMS_SEED" in err and "Traceback" not in err

    def test_para_extension_branches(self, capsys):
        rc = main(["vcp-check", "--what", "para-extension", "--algebra", "B",
                   "--variant", "X1", "--trials", "40"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["branch"] == "anticommuting"
        rc = main(["vcp-check", "--what", "para-extension", "--algebra", "B",
                   "--variant", "X2", "--trials", "40"])
        assert json.loads(capsys.readouterr().out)["branch"] == "commuting"


class TestMalformedInput:
    """Malformed arguments and documents exit 2 with a message, never a traceback."""

    def test_zero_denominator_vector(self, capsys):
        rc = main(["bridge", "--from", "vcp7", "--a", "1/0,0,0,0,0,0,0,0"])
        assert rc == EXIT_PARSE
        assert "bad vector entry" in capsys.readouterr().err

    def test_three_plane_vectors(self, capsys):
        rc = main(["bridge", "--from", "vcp6", "--plane",
                   "1,0,0,0,0,0,0,0;0,0,0,0,1,0,0,0;0,0,0,0,0,1,0,0"])
        assert rc == EXIT_PARSE
        assert "exactly two vectors" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hitchin", "g2class", "para-cy"])
    def test_model_d_not_an_object(self, command, tmp_path, capsys):
        model = write(tmp_path, "m.json", {"dim": 6, "metric": [1] * 6, "d": [1]})
        form = write(tmp_path, "f.json", omega_plus_doc())
        args = {"hitchin": [model, form], "g2class": [model], "para-cy": [model, form, form]}
        rc = main([command, *args[command]])
        assert rc == EXIT_PARSE
        assert "model: d must be an object" in capsys.readouterr().err


ERROR_DOCUMENTS = {
    "omega": omega_plus_doc(),
    "phi": phi_minus_doc(),
    "two_form": {"dim": 6, "degree": 2, "terms": [{"idx": [1, 2], "coef": "1"}]},
    "flat6": {"dim": 6, "metric": [1] * 6, "d": {}},
    # d e^1 = e^24 and d e^4 = e^13: d^2 e^1 = -e^2 ^ e^13 != 0
    "not_jacobi": {"dim": 4, "metric": [1] * 4, "d": {"1": [{"idx": [2, 4], "coef": "1"}],
                                                       "4": [{"idx": [1, 3], "coef": "1"}]}},
    "d9": {"dim": 6, "metric": [1] * 6, "d": {"9": [{"idx": [1, 2], "coef": "1"}]}},
    # JSON true is not the integer 1, though Python's bool is an int
    "bool_idx": {"dim": 6, "degree": 3, "terms": [{"idx": [True, 2, 3], "coef": "1"},
                                                  {"idx": [4, 5, 6], "coef": "1"}]},
    "bool_dim": {"dim": True, "degree": 1, "terms": [{"idx": [1], "coef": "1"}]},
    "bool_degree": {"dim": 6, "degree": True, "terms": [{"idx": [1], "coef": "1"}]},
    "bool_model_dim": {"dim": True, "metric": [1], "d": {}},
    "bool_metric": {"dim": 6, "metric": [True, 1, 1, 1, 1, 1], "d": {}},
    # nor is 1.0 a metric entry: the frame code takes ints and Fractions only
    "float_metric": {"dim": 6, "metric": [1.0, 1, 1, 1, 1, 1], "d": {}},
}

ERROR_PATHS = {
    "classify_dim_mismatch": (["classify", "{omega}", "--dim", "7"], EXIT_PARSE,
                              "error: --dim 7 does not match document dim 6"),
    "classify_2form": (["classify", "{two_form}"], EXIT_PARSE,
                       "error: classification expects a 3-form in dimension 6 or 7"),
    "vcp7_basis_out_of_range": (["bridge", "--from", "vcp7", "--a", "e9"], EXIT_PARSE,
                                "error: basis vector e9 out of range for dim 8"),
    "vcp7_short_vector": (["bridge", "--from", "vcp7", "--a", "1,0,0"], EXIT_PARSE,
                          "error: vector needs 8 comma-separated entries or a basis name like e0"),
    "stable6_dim7_form": (["bridge", "--from", "stable6", "--form", "{phi}"], EXIT_PARSE,
                          "error: --from stable6 expects a 3-form document in dimension 6"),
    "hitchin_dim_mismatch": (["hitchin", "{flat6}", "{phi}"], EXIT_PARSE,
                             "error: form and model dimensions differ"),
    "para_extension_on_O": (["vcp-check", "--what", "para-extension", "--algebra", "O"], EXIT_PARSE,
                            "error: para-extension identities live on the split octonions (B)"),
    "axioms_on_H": (["vcp-check", "--what", "axioms", "--algebra", "H", "--fold", "3"], EXIT_PARSE,
                    "error: cross-product axioms live on the octonions (O) or the split octonions (B)"),
    "trials_zero": (["vcp-check", "--what", "identities", "--algebra", "O", "--trials", "0"], EXIT_PARSE,
                    "error: --trials must be a positive integer, got 0"),
    "trials_negative": (["vcp-check", "--what", "axioms", "--algebra", "B", "--trials", "-3"], EXIT_PARSE,
                        "error: --trials must be a positive integer, got -3"),
    "axioms_cross_2fold": (["vcp-check", "--what", "axioms", "--algebra", "O", "--fold", "2"], EXIT_OK,
                           None),
    "g2class_not_jacobi": (["g2class", "{not_jacobi}"], EXIT_PRECONDITION,
                           "precondition failed: d^2 e^1 != 0; structure constants violate Jacobi"),
    "g2class_d_out_of_range": (["g2class", "{d9}"], EXIT_PARSE,
                               "error: model: d(e^9) must be a 2-form on the model space"),
    "classify_bool_idx": (["classify", "{bool_idx}"], EXIT_PARSE,
                          "error: form: term #0 {'idx': [True, 2, 3], 'coef': '1'}: idx must be a strictly "
                          "ascending list of 3 integers in 1..6"),
    "classify_bool_dim": (["classify", "{bool_dim}"], EXIT_PARSE,
                          "error: form: dim must be an integer in 1..8 and degree an integer"),
    "classify_bool_degree": (["classify", "{bool_degree}"], EXIT_PARSE,
                             "error: form: dim must be an integer in 1..8 and degree an integer"),
    "hitchin_bool_model_dim": (["hitchin", "{bool_model_dim}", "{omega}"], EXIT_PARSE,
                               "error: model: dim must be an integer in 1..8"),
    "hitchin_bool_metric": (["hitchin", "{bool_metric}", "{omega}"], EXIT_PARSE,
                            "error: model: metric must be a list of +-1 of length dim"),
    "g2class_float_metric": (["g2class", "{float_metric}"], EXIT_PARSE,
                             "error: model: metric must be a list of +-1 of length dim"),
}


@pytest.mark.parametrize("name", sorted(ERROR_PATHS))
def test_error_paths_exit_with_one_line(name, tmp_path, capsys):
    """Each documented exit code with its one stderr line, in process."""
    argv, code, line = ERROR_PATHS[name]
    paths = {key: write(tmp_path, f"{key}.json", doc) for key, doc in ERROR_DOCUMENTS.items()}
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    if line is None:
        assert err == "" and json.loads(out)["passed"] is True
    else:
        assert err == line + "\n" and out == ""


def test_module_run_writes_no_warning():
    """``python -m stableforms.cli`` imports the package first; cli must not be loaded twice."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "stableforms.cli", "cayley", "--algebra", "O"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK
    assert "e1*e2" in proc.stdout
    assert proc.stderr == ""


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe early (``| head``) gets no traceback, only a documented code."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "stableforms.cli", "cayley", "--algebra", "O"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()  # before the child has imported the package, so every write fails
    try:
        stderr = proc.communicate(timeout=120)[1]
    finally:
        proc.kill()
    assert "Traceback" not in stderr
    assert proc.returncode in {EXIT_OK, EXIT_PARSE, EXIT_SHAPE, EXIT_PRECONDITION}


def test_arithmetic_error_exits_3_without_traceback(tmp_path):
    """The stable6 bridge's float scale overflows on (10^400 + 1) Omega_minus: exit 3, one line."""
    form = (10 ** 400 + 1) * alt_form(6, 3, {(1, 2, 3): 1, (1, 5, 6): -1, (2, 4, 6): 1,
                                            (3, 4, 5): -1})
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "stableforms.cli", "bridge", "--from", "stable6",
                           "--form", write(tmp_path, "f.json", form_to_document(form)),
                           "--ip", "euclidean"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_SHAPE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: OverflowError")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
