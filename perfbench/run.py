#!/usr/bin/env python3
"""stableforms benchmark: closed-loop workloads over the public API and the CLI.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the repository root (the library is loaded from ./src).  With
``--trace 0`` the loop runs a fixed number of operations sized to last about
``--seconds`` (see run_length), whole rounds or cycles and at least
MIN_SAMPLES, and reports the end-to-end metrics; with ``--trace 1`` it runs whole cycles (at least MIN_TRACED_OPS
operations) twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  Every operation's result is checked
outside the timed interval.  Human-readable lines come first; the
last line of stdout is one JSON object.  Details (per-kind latencies,
failure attributions, the CLI stdout digest) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import count
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import refalg as R  # noqa: E402  (the benchmark's own modules sit next to this file)
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPS = 9
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
IMPORT_REPS = 5
MIN_TRACED_OPS = 48  # whole cycles, at least this many operations, in a traced run
GAUGE_NOMINAL_S = 0.002  # the reference computation's time on the nominal machine
GAUGE_EVERY_S = 0.2
GAUGE_WINDOW_S = 1.0
GAUGE_WARMUP = 5  # untimed first runs of the reference computation

# name -> (cycle generator, warm-up operation, unit): a run stops only at a
# multiple of `unit` operations, so it always holds whole rounds or cycles and
# the mix, hence the place of p50 and p90 in it, does not depend on its length
WORKLOADS = {
    "classify": (W.classify_cycle, W.classify_warmup, len(W.CLASSIFY_ROUND)),
    "construct": (W.construct_cycle, W.construct_warmup, W.CONSTRUCT_CYCLE),
    "cli": (W.cli_cycle, W.cli_warmup, W.CLI_CYCLE),
}
# Operations per second of wall time each workload ran at when the benchmark
# was defined (2-core shared cloud VM, unscaled).  A run performs a fixed
# number of operations, so it lasts about --seconds there, and every run of
# a workload attempts the same operations whatever the machine's speed: the
# count of failed ones (the tall-slice overflow) repeats exactly.
RATE = {"classify": 3.7, "construct": 10.0, "cli": 3.3}
CLI_SUBCOMMANDS = ("classify", "cayley", "bridge", "g2class", "hitchin", "para-cy", "vcp-check")

# name, unit, better, bound (share of the parent's median a change may worsen it by)
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_p90_ms", "ms", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
PER_LAYER = (
    [(f"{n}.calls", "count/op", "lower") for n in T.SPAN_NAMES]
    + [(f"{n}.self_s", "s/op", "lower") for n in T.SPAN_NAMES]
    + [("stable7.q_form_per_form", "ratio", "lower"),
       ("stable6.k_endo_per_form", "ratio", "lower"),
       ("stable6.quadext_basis_share", "ratio", "lower"),
       ("bridge.inexact_normalization_share", "ratio", "lower"),
       ("scalars.max_coef_bits", "bits", "lower"),
       ("failed_ratio", "ratio", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("cli.import_s", "s", "lower")]
    + [(f"cli.{sub}.p50_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
)


def failure_label(ex: BaseException) -> str:
    """Exception type and the innermost library frame it was raised in."""
    frames = [f for f in traceback.extract_tb(ex.__traceback__) if "stableforms" in f.filename]
    where = f" at {Path(frames[-1].filename).stem}.{frames[-1].name}" if frames else ""
    return f"{type(ex).__name__}{where}"


GAUGE_FORM = {idx: Fraction(c, 7) for idx, c in R.pullback3(
    [[1, 2, 0, 1, 0, -1], [0, 1, 1, 0, 2, 0], [1, 0, 1, 1, 0, 1],
     [2, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 2], [1, 1, 1, 0, 0, 1]], R.OMEGA_MINUS, 6).items()}


class SpeedGauge:
    """Scales measured times to a nominal machine speed.

    On a shared machine the speed of allocation-heavy pure-Python code swings
    by tens of percent within seconds, as neighbours load the shared caches.
    The gauge times a fixed reference computation (the benchmark's own
    Fraction exterior algebra, about 2 ms) between operations, at least every
    GAUGE_EVERY_S, and multiplies each measured time by
    GAUGE_NOMINAL_S / (median reference time within GAUGE_WINDOW_S of it).
    The scaled times are those the machine would show if it always ran the
    reference in GAUGE_NOMINAL_S.  Raw times are reported alongside.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self):
        t0 = perf_counter()
        R.lambda6(GAUGE_FORM)
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def maybe_sample(self):
        if not self.at or perf_counter() - self.at[-1] >= GAUGE_EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        lo, hi = bisect_left(self.at, t - GAUGE_WINDOW_S), bisect_right(self.at, t + GAUGE_WINDOW_S)
        i = bisect_left(self.at, t)
        near = self.took[lo:hi] or self.took[max(i - 2, 0):i + 2]
        return GAUGE_NOMINAL_S / statistics.median(near)

    def scale(self, t0: float, dt: float) -> float:
        return dt * self.factor(t0 + dt / 2)


def execute(op: W.Op) -> tuple[float, float, object, str, str]:
    """Run one operation (timed) and check it (untimed): (start, seconds, result, status, note)."""
    t0 = perf_counter()
    try:
        res = op.run()
    except Exception as ex:  # a raising operation is a failure to count, not a crash
        return t0, perf_counter() - t0, None, "failed", failure_label(ex)
    dt = perf_counter() - t0
    try:
        op.check(res)
    except W.CliFailure as ex:
        return t0, dt, res, "failed", str(ex)
    except Exception as ex:  # CheckFailed, or output too malformed to check
        return t0, dt, res, "wrong", f"{type(ex).__name__}: {ex}"
    return t0, dt, res, "ok", ""


class Record:
    """Outcomes of the measured operations."""

    def __init__(self):
        self.kinds, self.starts, self.raw, self.status, self.notes = [], [], [], [], []
        self.results: list = []
        self.times: list[float] = []  # gauge-scaled, filled by finish()

    def add(self, op: W.Op, t0: float, dt: float, res, status: str, note: str, keep_result: bool):
        self.kinds.append(op.kind)
        self.starts.append(t0)
        self.raw.append(dt)
        self.status.append(status)
        if status != "ok":
            self.notes.append(f"{op.kind}: {note}")
        self.results.append(res if keep_result else None)

    def finish(self, gauge: SpeedGauge):
        self.times = [gauge.scale(t0, dt) for t0, dt in zip(self.starts, self.raw)]

    def failures(self) -> Counter:
        return Counter(self.notes)

    def per_kind(self) -> dict:
        by = defaultdict(list)
        for k, t in zip(self.kinds, self.times):
            by[k].append(t)
        return {k: {"n": len(v), "p50_ms": 1000 * statistics.median(v)} for k, v in sorted(by.items())}


def run_ops(ops, rec: Record, gauge: SpeedGauge, keep_result: bool, tracer=None):
    for i, op in enumerate(ops):
        gauge.maybe_sample()
        if tracer is not None:
            tracer.op_id = i
        rec.add(op, *execute(op), keep_result=keep_result)


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup(workload: str, seed: int, workdir: Path):
    """Import (in-process workloads), generate the first cycle and warm up; timed by the caller."""
    cycle_fn, warmup_fn, _ = WORKLOADS[workload]
    if workload == "cli":
        env = SimpleNamespace(lib=None, cli=W.CliEnv(ROOT, workdir))
    else:
        env = SimpleNamespace(lib=W.load_library(), cli=None)
    first = cycle_fn(env, seed, 0)
    _, _, _, status, note = execute(warmup_fn(env))
    if status != "ok":
        raise RuntimeError(f"warm-up failed: {note}")
    return env, first


def stdout_digest(record: Record, n: int) -> str:
    h = hashlib.sha256()
    for res in record.results[:n]:
        h.update((res[1] if res else "").encode() + b"\0")
    return h.hexdigest()


def run_length(workload: str, seconds: float) -> int:
    """Operations in a measured run: seconds * RATE, rounded up to whole units, >= MIN_SAMPLES."""
    unit = WORKLOADS[workload][2]
    return unit * math.ceil(max(MIN_SAMPLES, seconds * RATE[workload]) / unit)


def measure(env, workload: str, seed: int, seconds: float, first: list, gauge: SpeedGauge) -> Record:
    cycle_fn = WORKLOADS[workload][0]
    n_ops = run_length(workload, seconds)
    rec = Record()
    for k in count():
        ops = first if k == 0 else cycle_fn(env, seed, k)
        for op in ops:
            if len(rec.raw) == n_ops:
                gauge.sample()
                rec.finish(gauge)
                return rec
            run_ops([op], rec, gauge, keep_result=(env.cli is not None and k == 0))
    raise AssertionError("unreachable")


def latency_ms(times: list) -> tuple[float, float]:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return 1000 * statistics.median(times), 1000 * deciles[8]


def coef_bits(x) -> int:
    """Largest numerator or denominator bit length in a nested result."""
    if isinstance(x, bool) or x is None or isinstance(x, float):
        return 0
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, str):
        return max((coef_bits(Fraction(t)) for t in re.findall(W.RAT, x)), default=0)
    if isinstance(x, dict):
        return max((coef_bits(v) for v in x.values()), default=0)
    if isinstance(x, (list, tuple)):
        return max((coef_bits(v) for v in x), default=0)
    if hasattr(x, "D"):
        return max(coef_bits(x.a), coef_bits(x.b), coef_bits(x.D))
    return 0


def cli_import_s(env, gauge: SpeedGauge) -> float:
    times = []
    for _ in range(IMPORT_REPS):
        gauge.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import stableforms"], cwd=ROOT, env=env.cli.env,
                       check=True, timeout=60)
        times.append((t0, perf_counter() - t0))
    gauge.sample()
    return statistics.median(gauge.scale(t0, dt) for t0, dt in times)


def traced_run(env, ops: list, first_cycle: int, spans_path: Path,
               gauge: SpeedGauge) -> tuple[dict, Record, bool, dict]:
    """Untraced then traced pass over the same operations; per-layer metrics."""
    plain, traced = Record(), Record()
    run_ops(ops, plain, gauge, keep_result=True)
    tr = T.Tracer()
    if env.cli is None:
        tr.install()
    else:
        env.cli.tracer = tr
    try:
        run_ops(ops, traced, gauge, keep_result=True, tracer=tr)
    finally:
        tr.uninstall()
        if env.cli is not None:
            env.cli.tracer = None
    gauge.sample()
    plain.finish(gauge)
    traced.finish(gauge)
    tr.write_spans(spans_path)

    if env.cli is None:
        same = [repr(a) == repr(b) for a, b in zip(plain.results, traced.results)]
    else:
        same = [a[:2] == b[:2] for a, b in zip(plain.results, traced.results)]
    n = len(ops)
    m = {}
    per_fn = tr.per_function([t / r for t, r in zip(traced.times, traced.raw)])
    for name, (calls, self_s) in per_fn.items():
        m[f"{name}.calls"] = calls / n
        m[f"{name}.self_s"] = self_s / n
    forms = {k: len(v) for k, v in tr.forms.items()}
    m["stable7.q_form_per_form"] = per_fn["stable7.q_form"][0] / forms.get("stable7.q_form", 1)
    m["stable6.k_endo_per_form"] = per_fn["stable6.k_endo"][0] / forms.get("stable6.k_endo", 1)
    c = tr.counters
    m["stable6.quadext_basis_share"] = (c["stable6.canonicalize6.quadext"]
                                        / max(c["stable6.canonicalize6.results"], 1))
    m["bridge.inexact_normalization_share"] = (c["bridge.stable6_to_7.inexact"]
                                               / max(c["bridge.stable6_to_7.results"], 1))
    outputs = plain.results
    if env.cli is not None:
        outputs = [json.loads(r[1]) if r and r[0] == 0 and r[1] else None for r in outputs]
    m["scalars.max_coef_bits"] = max(max(coef_bits(op.inputs), coef_bits(res))
                                     for op, res in zip(ops, outputs))
    m["failed_ratio"] = (n - plain.status.count("ok")) / n
    m["trace.overhead_ratio"] = sum(traced.times) / sum(plain.times) - 1
    m["cli.import_s"] = cli_import_s(env, gauge) if env.cli is not None else 0.0
    for sub in CLI_SUBCOMMANDS:
        ts = [t for op, t in zip(ops, plain.times)
              if op.kind.split(".")[:2] == ["cli", sub] and not op.kind.endswith(".malformed")]
        m[f"cli.{sub}.p50_ms"] = 1000 * statistics.median(ts) if ts else 0.0
    extra = {"outputs_identical": all(same), "traced_pass_failures": dict(traced.failures()),
             "traced_ops": n, "spans": len(tr.spans), "span_file": str(spans_path.relative_to(ROOT))}
    if env.cli is not None:
        extra["cli_stdout_sha256"] = stdout_digest(plain, first_cycle)
    return m, plain, all(same), extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "stableforms" / "__init__.py").is_file():
        print(f"error: no library at {SRC}/stableforms; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    # One core for this process and its children, so that the gauge runs
    # where the measured work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = SpeedGauge()
    try:
        for _ in range(GAUGE_WARMUP):
            R.lambda6(GAUGE_FORM)
        for _ in range(3):
            gauge.sample()
        setup_runs = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            env, first = setup(args.workload, args.seed, workdir)
            setup_runs.append((t0, perf_counter() - t0))
            # free the set-up's library copy (its modules form reference
            # cycles), so that peak_rss_mb does not grow with SETUP_REPS
            gc.collect()
            gauge.sample()
        setup_times = [gauge.scale(t0, dt) for t0, dt in setup_runs]
        if args.trace:
            ops, k = list(first), 1
            while len(ops) < MIN_TRACED_OPS:
                ops += WORKLOADS[args.workload][0](env, args.seed, k)
                k += 1
            metrics, rec, same, extra = traced_run(env, ops, len(first),
                                                   OUT / f"spans-{tag}.jsonl.gz", gauge)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            rec = measure(env, args.workload, args.seed, args.seconds, first, gauge)
            ok = rec.status.count("ok")
            p50, p90 = latency_ms(rec.times)
            metrics = {
                "ops_per_s": ok / sum(rec.times),
                "latency_p50_ms": p50,
                "latency_p90_ms": p90,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": rss_mb(resource.RUSAGE_CHILDREN if env.cli else resource.RUSAGE_SELF),
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
            same = True
            raw50, raw90 = latency_ms(rec.raw)
            extra = {"samples": len(rec.times), "beyond_p90": sum(t * 1000 > p90 for t in rec.times),
                     "failed_ratio": (len(rec.times) - ok) / len(rec.times),
                     "raw": {"ops_per_s": ok / sum(rec.raw), "latency_p50_ms": raw50,
                             "latency_p90_ms": raw90,
                             "setup_s": statistics.median(dt for _, dt in setup_runs)},
                     "gauge_median_s": statistics.median(gauge.took)}
            if env.cli is not None:
                extra["cli_stdout_sha256"] = stdout_digest(rec, len(first))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = rec.status.count("wrong") == 0 and same
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup_runs_s": setup_times, **extra,
              "failures": dict(rec.failures()), "per_kind": rec.per_kind(), "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(rec.times)} correct={correct}")
    for key in sorted(extra):
        print(f"  {key}: {extra[key]}")
    for note, k in sorted(rec.failures().items()):
        print(f"  failure x{k}: {note}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(rec.times),
        "failed": len(rec.times) - rec.status.count("ok"),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
