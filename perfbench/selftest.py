"""The benchmark's own test.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

It checks that BENCHMARK.json keeps to its format, runs every workload in
smoke mode (one round at minimal sizes) with tracing off and on, and checks
that every metric BENCHMARK.json names is present, finite and in its stated
unit, and that no operation failed.  Last, it runs the benchmark in a
directory that holds only BENCHMARK.json and the benchmark's own files,
where it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_benchmark() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    assert all(NAME.fullmatch(n) for n in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds.get("setup_s") == max(bounds.values()), "setup_s needs the largest bound"
    return bench


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def check_result(stdout: str, expected: list[dict], workload: str, trace: int) -> None:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (workload, trace, set(metrics) ^ {m["name"] for m in expected})
    for m in expected:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (workload, m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (workload, m["name"], got)
    text = "\n".join(lines[:-1])
    for m in expected:
        assert m["name"] in text, f"{m['name']} missing from the printed report"
    if trace == 0:
        assert "fail_frac" in text and "beyond it" in text and "size steps" in text


def test_smoke() -> None:
    bench = load_benchmark()
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke"], ROOT)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            check_result(proc.stdout, expected, w["name"], trace)


def test_fails_without_sources() -> None:
    bench = load_benchmark()
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_smoke()
    test_fails_without_sources()
    print("selftest passed")
