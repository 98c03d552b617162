"""Run the stableforms CLI under the benchmark's tracer (child of a traced cli run).

    PERFBENCH_SPANS=spans.json python perfbench/tracedcli.py classify form.json --json

Runs ``stableforms.cli`` as ``__main__`` exactly as ``python -m
stableforms.cli`` does (same stdout, stderr and exit code), with the library
already traced, and writes the recorded spans and counters to
$PERFBENCH_SPANS.
"""

import json
import os
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stableforms  # noqa: E402,F401  (the tracer patches the imported modules)
from tracer import Tracer  # noqa: E402


def main():
    tr = Tracer()
    tr.install()
    try:
        runpy.run_module("stableforms.cli", run_name="__main__", alter_sys=True)
    finally:
        tr.uninstall()
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(tr.dump()))


if __name__ == "__main__":
    main()
