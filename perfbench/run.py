"""Benchmark of dclat: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ideal-scale --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):

- ``ideal-scale``: ideal lattices of antichains and sparse random posets
  from 2^8 to 2^11 elements through build, predicates and extraction;
- ``generic-check``: ``dclat check``, ``birkhoff`` and ``components`` on
  DCP files of product lattices that are not built as ideal lattices;
- ``verify-suites``: the verification suites on many small posets, and
  verified component splits of Boolean lattices.

Each run starts one fresh worker process (``worker.py``) and relays its
report.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics and the
tracing overhead.  The lines before it print every metric by name, with
its unit, plus ``fail_frac`` and how ``op_tail_s`` was taken.

``--smoke`` runs one round at minimal sizes; ``selftest.py`` uses it.
Scratch files go to ``.bench_build/perfbench`` inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of dclat.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round at minimal sizes")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dclat" / "__init__.py").is_file():
        print(f"error: no dclat sources under {src}; run from the root of a dclat checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(ROOT / ".bench_build" / "perfbench"),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: worker printed no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
