"""The embtrees benchmark: one seeded command, four closed-loop workloads.

    python3 perfbench/run.py --workload sample_thin --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run it from the root of a checkout; it imports embtrees from ./src, with
asserts on (the interpreter default that the CLI, demos and tests use).
One client in one process and one thread sends each op only after the
previous one returned.  Op latencies, set-up times and spans are read from
the process CPU clock (time.process_time): the benchmark is single-threaded
and does no I/O, so on an idle machine that clock equals wall-clock time,
but unlike wall-clock time it excludes the time a shared virtual machine's
CPU is lent to other tenants.  The --seconds budget is wall-clock time.

A run repeats the workload's fixed op list (a pass, with fresh seeded inputs
each time) for --seconds, but always completes the workload's minimum number
of passes.  Every answer is checked; a wrong answer or an exception counts
as failed and makes the command exit 1.

--trace 0 reports the end-to-end metrics: setup_s is the median over seven
fresh interpreters of the time to `import embtrees` and build the inputs of
the first pass.
--trace 1 runs each pass untraced and traced on the same inputs, reports the
per-layer metrics from the traced passes, and writes the spans to
perfbench/out/.  Metric names and units come from BENCHMARK.json; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7
HARD_STOP_S = 150.0  # no new pass after this, whatever the minimum says

# the pinned uniformity check: (steps, profile) -> every tree is reached
GATE = (("-1,1", "1;2,1"), ("-1,0,1", "2,2"))
GATE_DRAWS_PER_TREE = 20
GATE_Z = 4.753424  # one-sided normal quantile of 1e-6


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# set-up time and the uniformity gate
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               workload, str(seed)],
                              stdout=subprocess.PIPE, text=True, timeout=120)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            fail(f"set-up probe for {workload} failed (exit {proc.returncode})", 1)
        times.append(float(words[1]))
    return times


def chi2_bound(dof: int) -> float:
    """Wilson-Hilferty upper quantile of chi-square at tail 1e-6."""
    h = 2.0 / (9 * dof)
    return dof * (1 - h + GATE_Z * math.sqrt(h)) ** 3


def uniformity_gate(E, seed: int) -> list[str]:
    """Sample pinned small profiles; every tree must be reached and the
    chi-square statistic must stay under its 1e-6 upper quantile."""
    lines = []
    for steps, text in GATE:
        S, p = E.StepSet.parse(steps), E.Profile.parse(text)
        trees = list(E.enumerate_embedded_cayley(S, p))
        index = {t: j for j, t in enumerate(trees)}
        if len(index) != E.count_cayley_profile(S, p):
            fail(f"gate {text}: oracle and formula disagree", 1)
        hits = [0] * len(trees)
        rng = random.Random(f"{seed}:gate:{text}")
        for _ in range(GATE_DRAWS_PER_TREE * len(trees)):
            j = index.get(E.sample_embedded_cayley(S, p, seed=rng))
            if j is None:
                fail(f"gate {text}: sampled a tree outside the profile", 1)
            hits[j] += 1
        chi2 = sum((h - GATE_DRAWS_PER_TREE) ** 2 for h in hits) / GATE_DRAWS_PER_TREE
        bound = chi2_bound(len(trees) - 1)
        if min(hits) == 0 or chi2 > bound:
            fail(f"gate {text}: min hits {min(hits)}, chi2 {chi2:.1f} > {bound:.1f}", 1)
        lines.append(f"gate S={{{steps}}} {text}: {len(trees)} trees, "
                     f"{sum(hits)} draws, all reached, chi2 {chi2:.1f} <= {bound:.1f}")
    return lines


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(ops, make_seed) -> list[dict]:
    """Closed loop: each op starts after the previous one returned; the
    answer check runs after the clock stops."""
    records = []
    for op in ops:
        start = time.process_time()
        try:
            result = op.run(make_seed)
        except Exception as exc:  # an op that raises counts as failed
            latency = time.process_time() - start
            records.append({"op": op, "latency": latency, "completed": False,
                            "correct": False, "vertices": 0, "objects": 0,
                            "error": f"{type(exc).__name__}: {str(exc)[:120]}"})
            continue
        latency = time.process_time() - start
        correct, vertices, objects = op.check(result)
        records.append({"op": op, "latency": latency, "completed": True,
                        "correct": correct, "vertices": vertices if correct else 0,
                        "objects": objects if correct else 0,
                        "error": None if correct else "wrong answer"})
    return records


def keep_going(passes: int, minimum: int, started: float, seconds: float,
               last_pass: float) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed > HARD_STOP_S:
        return False
    return passes < minimum or elapsed + last_pass <= seconds


def growth_exponent(records: list[dict]) -> float:
    """Common least-squares slope of log(median latency) on log n, with an
    intercept per op group (same kind and shape, different sizes)."""
    cells: dict = {}
    for rec in records:
        op = rec["op"]
        if rec["completed"] and op.size is not None:
            cells.setdefault(op.group, {}).setdefault(op.size, []).append(rec["latency"])
    sxy = sxx = 0.0
    for sizes in cells.values():
        if len(sizes) < 2:
            continue
        xs = [math.log(n) for n in sizes]
        ys = [math.log(statistics.median(v)) for v in sizes.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    return sxy / sxx if sxx else float("nan")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 ops beyond it."""
    lat = sorted(latencies)
    k = max(0, len(lat) - 11)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(W, args) -> tuple[dict, list[dict], list[str]]:
    setup = measure_setup(args.workload, args.seed)
    import embtrees as E
    notes = uniformity_gate(E, args.seed)
    minimum = W.MIN_PASSES[args.workload]
    started = time.perf_counter()
    passes: list[list[dict]] = []
    last = 0.0
    while keep_going(len(passes), minimum, started, args.seconds, last):
        t0 = time.perf_counter()
        ops = W.build_pass(args.workload, args.seed, len(passes))
        passes.append(run_pass(ops, lambda s: s))
        last = time.perf_counter() - t0
    records = [r for p in passes for r in p]
    done = [r["latency"] for r in records if r["completed"]]
    busy = sum(r["latency"] for r in records)
    tail_value, tail_pct, tail_n = tail(
        [r["latency"] for p in passes[:minimum] for r in p if r["completed"]])
    walls = [sum(r["latency"] for r in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "latency_p50_s": statistics.median(done),
        "latency_tail_s": tail_value,
        "vertices_per_s": sum(r["vertices"] for r in records) / busy,
        "objects_per_s": sum(r["objects"] for r in records) / busy,
        "growth_exp": growth_exponent(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = sum(not r["correct"] for r in records)
    notes += [
        f"setup_s: median of {len(setup)} fresh interpreters: "
        f"{', '.join(f'{t:.3f}' for t in setup)}",
        f"wall_s: median of {len(walls)} passes of {len(passes[0])} ops "
        f"(answer checks excluded): {', '.join(f'{w:.3f}' for w in walls)}",
        f"latency_p50_s: median of {len(done)} completed ops",
        f"latency_tail_s: p{tail_pct:.1f} of the {tail_n} ops of the first "
        f"{min(minimum, len(passes))} passes (10 ops beyond it)",
        f"failed_frac: {failed / len(records):.6g} ({failed} of {len(records)} ops)",
    ]
    return metrics, records, notes


def traced(W, args) -> tuple[dict, list[dict], list[str]]:
    from tracing import COUNTS, Tracer
    import embtrees as E
    notes = uniformity_gate(E, args.seed)
    started = time.perf_counter()
    records: list[dict] = []
    tracers: list[Tracer] = []
    sampled_vertices: list[int] = []
    ratios = []
    last = 0.0
    while keep_going(len(tracers), 1, started, args.seconds, last):
        t0 = time.perf_counter()
        index = len(tracers)
        ops = W.build_pass(args.workload, args.seed, index)
        tracer = Tracer()
        walls = {}
        # alternate which side runs first
        for side in ((False, True) if index % 2 == 0 else (True, False)):
            if side:
                tracer.install()
                try:
                    recs = run_pass(ops, tracer.make_seed)
                finally:
                    tracer.uninstall()
                sampled_vertices.append(sum(r["vertices"] for r in recs
                                            if r["op"].kind.startswith("sample_")))
            else:
                recs = run_pass(ops, lambda s: s)
            walls[side] = sum(r["latency"] for r in recs)
            records += recs
        tracers.append(tracer)
        ratios.append(walls[True] / walls[False] - 1)
        last = time.perf_counter() - t0
    layers = [t.layer_times() for t in tracers]
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    first = tracers[0]
    metrics.update({key: first.counts[key] for key in COUNTS})
    metrics["sampler.draws_per_vertex"] = (
        first.draws() / sampled_vertices[0] if sampled_vertices[0] else 0.0)
    metrics["trace.overhead_frac"] = statistics.median(ratios)
    path = write_spans(args, tracers)
    notes.append(f"{len(tracers)} traced passes; counts are from the first; "
                 f"spans in {path.relative_to(ROOT)}")
    notes.append("sampler.self_s is derived: sample_embedded_cayley minus its "
                 "sample_sfunction and phi/psi child spans")
    notes += self_time_table(tracers)
    return metrics, records, notes


def write_spans(args, tracers) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    data = {"workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "passes": [{"spans": t.spans, "by_function": t.by_function()}
                       for t in tracers]}
    path.write_text(json.dumps(data))
    return path


def self_time_table(tracers) -> list[str]:
    total: dict[str, list[float]] = {}
    for t in tracers:
        for name, row in t.by_function().items():
            acc = total.setdefault(name, [0.0, 0.0, 0.0])
            for j, key in enumerate(("calls", "total_s", "self_s")):
                acc[j] += row[key] / len(tracers)
    rows = sorted(total.items(), key=lambda kv: -kv[1][2])
    lines = ["per traced pass, by function (top 20 by self time):"]
    lines += [f"  {name:<44} calls {c:>9.0f}  total {t:9.4f} s  self {s:9.4f} s"
              for name, (c, t, s) in rows[:20]]
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_all(W, args) -> int:
    """Every workload in its own process; the last line merges the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        done = proc.returncode == 0 and lines
        print("\n".join(lines[:-1] if done else lines), flush=True)
        if not done:
            status = 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "embtrees" / "__init__.py").is_file():
        fail(f"no embtrees sources under {SRC}; run from a checkout root")
    if not __debug__:
        fail("asserts are off (python -O); the benchmark measures asserts on")
    sys.path.insert(0, str(SRC))
    import embtrees
    if Path(embtrees.__file__).resolve().parent != SRC / "embtrees":
        fail(f"imported embtrees from {embtrees.__file__}, not from {SRC}")
    import workloads as W
    if args.workload == "all":
        return run_all(W, args)
    if args.workload not in W.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(W.WORKLOADS)} or all")

    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    measure = traced if args.trace else end_to_end
    metrics, records, notes = measure(W, args)
    if set(metrics) != set(units):
        fail(f"computed metrics {sorted(set(metrics) ^ set(units))} "
             "differ from BENCHMARK.json")
    failed = sum(not r["correct"] for r in records)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"1 client, closed loop; nproc {os.cpu_count()}, Python "
          f"{platform.python_version()}, asserts on")
    for line in notes:
        print("  " + line)
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    for rec in records:
        if not rec["correct"]:
            op = rec["op"]
            print(f"  FAILED {op.kind} {op.group} n={op.size}: {rec['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
