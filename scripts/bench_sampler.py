"""Size ladder of the uniform sampler, stage by stage: writes BENCH_sampler.json.

    python3 scripts/bench_sampler.py      # writes BENCH_sampler.json

It imports embtrees from the src/ of its own checkout and writes
BENCH_sampler.json at that checkout's root.  Every point is measured twice,
in a fresh interpreter with asserts on (the default, which the CLI, the
demos and the tests use) and in one under -O.

For S = {-1,0,1}, each size n in SIZES and each profile shape:
  thin  1-3 vertices per abscissa (about n/2 abscissas),
  sqrt  isqrt(n) abscissas of about isqrt(n) vertices each,
  wide  5 abscissas of n/5 vertices each,
and both regimes (ell = 0 through phi; ell < 0, with a third of the
abscissas negative, through psi), one seeded embedded Cayley tree is drawn
stage by stage, exactly as sample_embedded_cayley draws it:
  draw       the uniform (F)-function (sample_sfunction),
  bijection  phi or psi,
  relabel    the uniform renaming and labelling,
  serialize  embedded_cayley_to_json,
and one S-ary tree by sample_sary, of which
  sary       is the assembly of the S-ary shape (sary_from_injective).
Times are process CPU seconds (time.process_time): each point is drawn
REPEATS times with the same SEED, and each stage keeps its median.  The
growth exponent of each stage is the least-squares slope of log(time)
against log(n) over the sizes.
"""

from __future__ import annotations

import json
import math
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ("thin", "sqrt", "wide")
STAGES = ("draw", "bijection", "relabel", "serialize", "sary")
SIZES = (1000, 10000, 100000)
SEED = 1
REPEATS = 3


def counts_of(shape: str, n: int, rng: random.Random) -> list[int]:
    if shape == "thin":
        counts = []
        while sum(counts) < n:
            counts.append(min(rng.randint(1, 3), n - sum(counts)))
        return counts
    k = math.isqrt(n) if shape == "sqrt" else 5
    counts = [n // k] * k
    for j in range(n - sum(counts)):
        counts[j % k] += 1
    return counts


def measure(n: int, shape: str, negative: bool, seed: int) -> dict:
    """CPU seconds of each stage for one draw of each pipeline."""
    from embtrees import StepSet, Profile, core, sampler

    S = StepSet([-1, 0, 1])
    counts = counts_of(shape, n, random.Random(f"{seed}:{shape}:{n}"))
    p = Profile(counts, ell=-(len(counts) // 3) if negative else 0)
    rng = random.Random(seed)
    clock = time.process_time
    t0 = clock()
    f = sampler.sample_sfunction(S, p, rng)
    t1 = clock()
    tree = sampler.psi(f) if negative else sampler.phi(f)
    t2 = clock()
    cayley = sampler._relabel_uniform(tree, rng)
    t3 = clock()
    core.embedded_cayley_to_json(cayley)
    t4 = clock()

    assembly = []
    assemble = sampler.sary_from_injective

    def timed(marked):
        start = clock()
        out = assemble(marked)
        assembly.append(clock() - start)
        return out

    sampler.sary_from_injective = timed
    try:
        sampler.sample_sary(S, p, seed=seed)
    finally:
        sampler.sary_from_injective = assemble
    return {"n": n, "shape": shape, "ell": p.ell, "abscissas": len(counts),
            "stages_s": {"draw": t1 - t0, "bijection": t2 - t1, "relabel": t3 - t2,
                         "serialize": t4 - t3, "sary": assembly[0]}}


def slope(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(t) against log(n)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def child() -> None:
    """Measure every point in this interpreter; print the rows as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    rows = []
    for n in SIZES:
        for shape in SHAPES:
            for negative in (False, True):
                runs = [measure(n, shape, negative, SEED) for _ in range(REPEATS)]
                row = runs[0]
                row["stages_s"] = {stage: statistics.median(r["stages_s"][stage]
                                                            for r in runs)
                                   for stage in STAGES}
                rows.append(row)
    print(json.dumps(rows))


def main() -> None:
    modes = {}
    for mode, flags in (("asserts", []), ("optimized", ["-O"])):
        # the measuring interpreter is this script again, told so by --child
        proc = subprocess.run([sys.executable, *flags, __file__, "--child"],
                              stdout=subprocess.PIPE, text=True, check=True)
        rows = json.loads(proc.stdout.splitlines()[-1])
        fits = {}
        for shape in SHAPES:
            for ell_sign in ("ell=0", "ell<0"):
                picked = [r for r in rows if r["shape"] == shape
                          and (r["ell"] == 0) == (ell_sign == "ell=0")]
                fit = {stage: slope([(r["n"], r["stages_s"][stage]) for r in picked])
                       for stage in STAGES}
                fit["total"] = slope([(r["n"], sum(r["stages_s"].values()))
                                      for r in picked])
                fits[f"{shape} {ell_sign}"] = fit
        modes[mode] = {"rows": rows, "growth_exp": fits}
        print(f"{mode}: " + ", ".join(f"{k} {v['total']:.2f}" for k, v in fits.items()),
              file=sys.stderr)

    result = {
        "benchmark": "sampler size ladder, S = {-1,0,1}",
        "clock": f"process CPU seconds, median of {REPEATS} draws per point",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "sizes": list(SIZES),
        "seed": SEED,
        "stages": list(STAGES),
        "modes": modes,
    }
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    (ROOT / "BENCH_sampler.json").write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        main()
