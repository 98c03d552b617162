"""The benchmark's own tests: determinism, tracing transparency, checks that bite.

    python -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer as T
import workloads as W

ROOT = Path(run.ROOT)


@pytest.fixture(scope="module")
def lib_env():
    return SimpleNamespace(lib=W.load_library(), cli=None)


def cli_env(tmp_path):
    return SimpleNamespace(lib=None, cli=W.CliEnv(ROOT, tmp_path))


def fingerprint(ops):
    return [(op.kind, repr(op.inputs)) for op in ops]


@pytest.mark.parametrize("name", ["classify", "construct"])
def test_generation_is_deterministic(lib_env, name):
    cycle, _, unit = run.WORKLOADS[name]
    ops = cycle(lib_env, 7, 0)
    assert fingerprint(ops) == fingerprint(cycle(lib_env, 7, 0))
    assert fingerprint(cycle(lib_env, 7, 1)) != fingerprint(cycle(lib_env, 8, 1))
    assert len(ops) % unit == 0


def test_cli_documents_are_deterministic(tmp_path):
    docs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        ops = W.cli_cycle(cli_env(d), 7, 0)
        docs.append(({p.name: p.read_text() for p in sorted(d.iterdir())},
                     [op.kind for op in ops]))
    assert docs[0] == docs[1]
    assert len(docs[0][1]) == W.CLI_CYCLE


def test_classify_mix(lib_env):
    ops_kinds = [op.kind for op in W.classify_cycle(lib_env, 1, 0)]
    assert len(ops_kinds) == 64
    assert sum(k.endswith(".tall") for k in ops_kinds) == 8
    dims = [k.split(".")[1][0] for k in ops_kinds]
    assert dims.count("6") == dims.count("7") == 32


def cheap_ops(lib_env):
    """A handful of fast operations from both in-process workloads."""
    classify = [op for op in W.classify_cycle(lib_env, 3, 0)
                if op.kind in ("classify.6+", "classify.6-", "classify.6d")][:3]
    construct = [op for op in W.construct_cycle(lib_env, 3, 0)
                 if op.kind.startswith(("frame.", "verify.identities", "verify.axioms2"))]
    return classify + construct


def test_tracing_does_not_change_outputs(lib_env):
    ops = cheap_ops(lib_env)
    plain = [repr(op.run()) for op in ops]
    originals = {name: getattr(lib_env.lib.exteralg, name) for name in ("wedge", "_det")}
    tr = T.Tracer()
    tr.install()
    try:
        traced = [repr(op.run()) for op in ops]
        assert lib_env.lib.stable6.wedge is not originals["wedge"]  # rebound under the copy too
    finally:
        tr.uninstall()
    assert traced == plain
    assert {name: getattr(lib_env.lib.exteralg, name) for name in originals} == originals
    calls = tr.per_function()
    assert calls["exteralg.wedge"][0] > 0 and calls["linalg.det"][0] > 0
    assert calls["framecalc.d"][0] > 0  # a patched method
    assert all(self_s >= -1e-6 for _, self_s in calls.values())


def test_self_time_subtracts_children():
    tr = T.Tracer()
    tr.spans = [["stable6.hat", 0.0, 10.0, -1, 0], ["exteralg.wedge", 1.0, 4.0, 0, 0],
                ["linalg.det", 2.0, 3.0, 1, 0], ["exteralg.wedge", 5.0, 6.0, 0, 0]]
    pf = tr.per_function()
    assert pf["stable6.hat"] == (1, 6.0)
    assert pf["exteralg.wedge"] == (2, 3.0)
    assert pf["linalg.det"] == (1, 1.0)


def run_checked(op):
    res = op.run()
    op.check(res)
    return res


def assert_rejected(op, res):
    with pytest.raises(W.CheckFailed):
        op.check(res)


def test_classify_checks_catch_wrong_answers(lib_env):
    ops = {op.kind: op for op in W.classify_cycle(lib_env, 5, 0)}
    op6 = ops["classify.6-"]
    res = run_checked(op6)
    assert_rejected(op6, dict(res, **{"class": "O6_PLUS"}))
    assert_rejected(op6, dict(res, **{"lambda": res["lambda"] + 1}))
    assert_rejected(op6, dict(res, stab=res["stab"] + 1))
    basis = [list(r) for r in res["basis"]]
    basis[0][0] = basis[0][0] + 1
    assert_rejected(op6, dict(res, basis=basis))
    op7 = ops["classify.7+"]
    res = run_checked(op7)
    B = [list(r) for r in res["B"]]
    B[0][1] += Fraction(1, 3)
    assert_rejected(op7, dict(res, B=B))
    assert_rejected(op7, dict(res, signature=(7, 0, 0)))


def test_construct_checks_catch_wrong_answers(lib_env):
    ops = {op.kind: op for op in W.construct_cycle(lib_env, 5, 0)}
    g2 = ops["frame.g2"]
    res = run_checked(g2)
    flipped = copy.deepcopy(res)
    flipped["report"]["W3"] = not res["report"]["W3"]
    assert_rejected(g2, flipped)
    hitchin = ops["frame.hitchin"]
    res = run_checked(hitchin)
    assert_rejected(hitchin, dict(res, fd=res["fd"] * 1.001))
    lift = ops["bridge.lift_to_3fold"]
    res = run_checked(lift)
    values = [tuple(v) for v in res["values"]]
    values[0] = (values[0][0] + 1,) + values[0][1:]
    assert_rejected(lift, dict(res, values=values))
    verify = ops["verify.identities"]
    res = run_checked(verify)
    assert_rejected(verify, dict(res, passed=False))


def test_cli_checks_catch_wrong_answers(tmp_path):
    ops = W.cli_cycle(cli_env(tmp_path), 5, 0)
    cayley = next(op for op in ops if op.kind == "cli.cayley")
    code, out, err = run_checked(cayley)
    doc = json.loads(out)
    doc["table"][1][2], doc["table"][2][1] = doc["table"][2][1], doc["table"][1][2]
    with pytest.raises(W.CheckFailed):
        cayley.check((0, json.dumps(doc), ""))
    with pytest.raises(W.CheckFailed):
        cayley.check((3, "", "error"))
    with pytest.raises(W.CliFailure):
        cayley.check((1, "", 'File "x/stableforms/cli.py", line 1, in main\nKeyError: 1'))
    bad = next(op for op in ops if op.kind.endswith(".malformed"))
    assert run_checked(bad)[0] == 2
    with pytest.raises(W.CheckFailed):
        bad.check((0, "{}", ""))


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(m) for m in run.PER_LAYER]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_length_is_fixed_whole_units():
    for name, (_, _, unit) in run.WORKLOADS.items():
        n = run.run_length(name, 30)
        assert n % unit == 0 and n >= run.MIN_SAMPLES
        assert run.run_length(name, 1) >= run.MIN_SAMPLES
