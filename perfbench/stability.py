"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py [--seeds 10] [--trace 0] [--workload NAME ...]
        [--compare FILE] [--out FILE]

Runs seeds 1 to ``--seeds`` of every workload, one worker process at a
time.  For every workload and metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  With ``--trace 0`` each
end-to-end spread is checked against a third of its bound in BENCHMARK.json.

``--out`` appends this set of runs to the ``sets`` list of a JSON file,
creating it if needed; ``baseline.json`` is made that way, from two sets
with ``--trace 0`` and one with ``--trace 1``.  ``--compare`` reads such a
file and checks that no end-to-end median got worse than the one in its
first ``--trace 0`` set by more than the metric's bound; a workload or
metric missing from that set is a failure.  The exit code is 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="Spread of every metric over several seeds.")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--compare")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        sets = json.loads(Path(args.compare).read_text())["sets"]
        earlier = next(s for s in sets if s["trace"] == 0)["workloads"]
    seeds = list(range(1, args.seeds + 1))
    report = {
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, {platform.system()}, CPython {platform.python_version()}",
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "trace": args.trace,
        "workloads": {},
    }
    ok_all = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        table = {}
        print(f"{workload}: {len(seeds)} seeds", flush=True)
        for name, vals in values.items():
            row = dict(quartiles(vals), unit=units[name], values=vals)
            table[name] = row
            flag = ""
            if args.trace == 0:
                ok = row["spread"] < bounds[name] / 3
                ok_all &= ok
                flag = f"  bound {bounds[name]}: {'ok' if ok else 'TOO WIDE'}"
                if earlier is not None:
                    before = earlier.get(workload, {}).get(name, {}).get("median")
                    if before is None:
                        ok_all = False
                        flag += "  MISSING from the earlier set"
                    else:
                        worse = (row["median"] - before) / before
                        worse = worse if lower_is_better[name] else -worse
                        ok = worse <= bounds[name]
                        ok_all &= ok
                        flag += f"  vs earlier median {before:.6g}: {worse:+.4f} {'ok' if ok else 'WORSE'}"
            print(f"  {name:<30} median {row['median']:.6g} {row['unit']}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}{flag}", flush=True)
        report["workloads"][workload] = table
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"sets": []}
        doc["sets"].append(report)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
