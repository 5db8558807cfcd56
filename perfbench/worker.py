"""One run of one workload, in a fresh single-threaded process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
The run sets up its inputs from the seed, then runs a closed loop with one
caller: each operation starts when the previous one returns.  The loop runs
a fixed plan, a whole number of rounds sized so that the timed phase lasts
about ``--seconds`` at this commit; the same work on every commit keeps
``wall_s`` and the latencies comparable.  The operations of each kind and
size are spread evenly over the run.

Every operation runs under one time guard, ``OP_LIMIT_S``.  The run's
deadline is ``DEADLINE_FACTOR`` times the plan's nominal length; past it the
operations not yet started count as failed, so a pathological regression
ends the run early with ``"correct": false`` instead of hanging it.  An
exception, a wrong answer and a timeout all count as a failed operation.

With ``--trace 1`` the plan has half as many rounds and every operation runs
twice, untraced and with every layer traced (see ``spans``); the run prints
the per-layer metrics and the tracing overhead.

Set-up runs at least ``SETUP_REPS`` times and until ``SETUP_MIN_S`` have
passed, each time importing ``dclat`` afresh, and ``setup_s`` is the median:
a set-up of a few tens of milliseconds is too noisy to time a few times.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import types

import spans
import workloads

SETUP_REPS = 5
SETUP_MIN_S = 2.0
OP_LIMIT_S = 30.0  # the largest operation, a 2^11 ideal-scale pipeline, takes 3.5 to 5.5 s at this commit
DEADLINE_FACTOR = 3.0  # times the plan's nominal length
TRACED_COST = 2.2  # an operation run untraced and traced, over its untraced time
MEMORY_LIMIT = 3 << 30  # address space: an exploding operation fails with MemoryError

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "elems_per_s": "elems/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "growth_exp": "slope",
}


class OpTimeout(BaseException):
    """Raised by the alarm when an operation overruns its limit.

    A BaseException, so that no ``except Exception`` inside the library
    swallows it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name == "trace_overhead_frac":
        return "ratio"
    return "count"


def load_dclat() -> types.SimpleNamespace:
    """Import dclat afresh (dropping any earlier import) and return its layers."""
    for name in [m for m in sys.modules if m == "dclat" or m.startswith("dclat.")]:
        del sys.modules[name]
    importlib.import_module("dclat")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"dclat.{layer}") for layer in spans.LAYERS}
    )


def run_op(op: workloads.Op, deadline: float, tracer=None) -> tuple[float, str | None]:
    """Run one operation under the time guard; return its seconds and the failure, if any."""
    signal.setitimer(signal.ITIMER_REAL, max(min(OP_LIMIT_S, deadline - time.perf_counter()), 1e-3))
    reason = None
    start = time.perf_counter()
    try:
        try:
            if tracer is None:
                op.run()
            else:
                tracer.enable()
                try:
                    with tracer.span(f"op.{op.kind}"):
                        op.run()
                finally:
                    tracer.disable()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        reason = "timed out"
    except workloads.Mismatch as e:
        reason = f"wrong answer: {e}"
    except Exception as e:  # any library error is a failed operation, not a crash
        reason = f"{type(e).__name__}: {e}"
    return time.perf_counter() - start, reason


def run_plan(plan: list[workloads.Op], deadline: float, tracer=None) -> dict:
    """Run the operations in order and collect latencies and failures.

    With a tracer, every operation runs twice back to back, untraced and
    traced, the order alternating from one operation to the next, so both
    sides see the same machine conditions; ``traced`` holds the traced
    latencies.
    """
    latencies: list[float] = []
    traced: list[float] = []
    done: list[tuple[workloads.Op, float]] = []
    failures: list[str] = []
    attempted = len(plan) * (2 if tracer else 1)
    t0 = time.perf_counter()
    for i, op in enumerate(plan):
        if time.perf_counter() >= deadline:
            failures.append(f"{len(plan) - i} operations not started: run deadline reached")
            break
        if tracer is None:
            outcomes = [run_op(op, deadline)]
        else:
            tracer.op_id = i
            order = (None, tracer) if i % 2 == 0 else (tracer, None)
            by_mode = {t is not None: run_op(op, deadline, t) for t in order}
            outcomes = [by_mode[False], by_mode[True]]
            traced.append(outcomes[1][0])
        latencies.append(outcomes[0][0])
        reasons = [r for _, r in outcomes if r is not None]
        failures += [f"op {i} ({op.kind}): {r}" for r in reasons]
        if not reasons:
            done.append((op, outcomes[0][0]))
    return {
        "wall_s": time.perf_counter() - t0,
        "attempted": attempted,
        "failed": attempted - len(done) * (2 if tracer else 1),
        "latencies": latencies,
        "traced": traced,
        "done": done,
        "failures": failures,
    }


def interleave(plan: list[workloads.Op]) -> list[workloads.Op]:
    """Spread every (kind, size step) group evenly over the run.

    The machine's speed drifts over tens of seconds; when each group's
    samples span the whole run, its latencies see the same drift as the
    run's wall time, and a median or a ratio between groups cancels it.
    """
    groups: dict[tuple, list[workloads.Op]] = {}
    for op in plan:
        groups.setdefault((op.kind, op.step), []).append(op)
    keyed = [((i + 0.5) / len(ops), g, i, op) for g, ops in enumerate(groups.values()) for i, op in enumerate(ops)]
    return [op for *_, op in sorted(keyed, key=lambda t: t[:3])]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 21 samples
    no percentile at or above the median has ten beyond it, and the median
    is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, (n - 1) // 2)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def growth(done) -> tuple[float, int]:
    """Slope of log(median op time) against log(median elements) over size steps."""
    by_step: dict[str, tuple[list[float], list[int]]] = {}
    for op, lat in done:
        if op.step is not None:
            ts, es = by_step.setdefault(op.step, ([], []))
            ts.append(lat)
            es.append(op.elements)
    points = [(math.log(statistics.median(es)), math.log(statistics.median(ts))) for ts, es in by_step.values()]
    if len(points) < 2:
        return 0.0, len(points)
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return (sxy / sxx if sxx else 0.0), len(points)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round at minimal sizes")
    ap.add_argument("--scratch", required=True, help="directory for DCP files and the span log")
    args = ap.parse_args(argv)

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(args.scratch, exist_ok=True)
    build = workloads.WORKLOADS[args.workload]

    setup_times = []
    scratch_dirs: list[str] = []
    try:
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
            gc.collect()
            t = time.perf_counter()
            d = load_dclat()
            wl = build(d, args.seed, args.smoke, scratch_root=args.scratch)
            setup_times.append(time.perf_counter() - t)
            scratch_dirs += wl.scratch
        setup_s = statistics.median(setup_times)

        rounds = 1 if args.smoke else max(1, round(args.seconds / wl.rounds_nominal_s))
        nominal_s = rounds * wl.rounds_nominal_s
        tracer = None
        if args.trace:
            rounds = max(1, rounds // 2)  # every operation runs twice
            nominal_s = rounds * wl.rounds_nominal_s * TRACED_COST
            tracer = spans.Tracer()
            tracer.prepare()
            tracer.enable()
            tracer.op_id = "setup"
            wl = build(d, args.seed, args.smoke, tracer=tracer, scratch_root=args.scratch)
            tracer.disable()
            scratch_dirs += wl.scratch
            setup_layer = tracer.metrics()
            tracer.reset()
        plan = interleave([op for r in range(rounds) for op in wl.round_ops(r)])
        gc.collect()
        deadline = time.perf_counter() + DEADLINE_FACTOR * nominal_s
        res = run_plan(plan, deadline, tracer)
        if tracer:
            trace_path = os.path.join(args.scratch, f"trace-{args.workload}.jsonl")
            tracer.write(trace_path)
    finally:
        for folder in scratch_dirs:
            shutil.rmtree(folder, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {len(plan)} operations in "
          f"{rounds} rounds, closed loop with one caller, trace {'on' if args.trace else 'off'}")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")

    if not args.trace:
        lat = res["latencies"] or [0.0]
        wall = res["wall_s"]
        tail_s, tail_pct, beyond = tail(lat)
        slope, steps = growth(res["done"])
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "ops_per_s": len(res["done"]) / wall,
            "elems_per_s": sum(op.elements for op, _ in res["done"]) / wall,
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "growth_exp": slope,
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups: import dclat, generate inputs and DCP text",
            "op_tail_s": f"p{tail_pct:.1f} of {len(lat)} operations, {beyond} beyond it",
            "growth_exp": f"fitted over {steps} size steps",
        }
        for name, value in metrics.items():
            print(f"  {name:<14} {value:.6g} {E2E_UNITS[name]}" + (f"  ({notes[name]})" if name in notes else ""))
        print(f"  {'fail_frac':<14} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations failed)")
        out = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}
    else:
        metrics = tracer.metrics()
        for key in ("generators.busy_s", "generators.calls", "generators.generate_s"):
            metrics[key] = setup_layer[key]  # generators run only while setting up
        # traced over untraced wall time of the same operations, run in pairs
        metrics["trace_overhead_frac"] = sum(res["traced"]) / sum(res["latencies"]) - 1.0
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.6g} {layer_unit(name)}")
        print(f"  note: {spans.UNSPLIT_NOTE}")
        print("  note: generators.* time the traced set-up; every other layer times the traced operations")
        print(f"  note: the benchmark's own code (oracles, output capture) took {tracer.other_self_s:.6g} s self time")
        print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(trace_path)}")
        out = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
