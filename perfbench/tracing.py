"""Spans and exact counters for a traced benchmark pass.

The tracer wraps the public functions of each embtrees module (and the
private helpers that implement the bijection stages) in every embtrees
namespace that binds them, so calls between modules are seen too.  The
wrappers live only in this benchmark; the library is not edited.  They are
installed for a traced pass and removed after it.

Each span is [name, start, end, parent index], on the process CPU clock
that run.py times ops with.  A per-layer time is the
summed duration of the spans of its functions that have no ancestor span of
the same metric (so phi -> phi_with_trace counts once); self time is a
span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

from embtrees.sampler import CountingRandom

TIMED = {
    "core.census_s": ("core", ["type_distribution_of"]),
    "core.conditions_s": ("core", ["condition_t", "condition_t1", "condition_t2",
                                   "condition_t2_prime", "condition_t2_dblprime"]),
    "core.serialize_s": ("core", ["embedded_cayley_to_json", "sary_to_json"]),
    "sampler.draw_s": ("sampler", ["sample_sfunction"]),
    "sampler.sary_s": ("sampler", ["sample_sary"]),
    "bijection_nonneg.cut_s": ("bijection_nonneg", ["phi1", "_phi1_with_pieces"]),
    "bijection_nonneg.repair_s": ("bijection_nonneg", ["phi2", "_phi2_with_record"]),
    "bijection_nonneg.full_s": ("bijection_nonneg", ["phi", "phi_with_trace"]),
    "bijection_nonneg.inverse_s": ("bijection_nonneg", ["phi_inverse"]),
    "bijection_general.cut_s": ("bijection_general", ["psi1", "_psi1"]),
    "bijection_general.repair_s": ("bijection_general", ["psi2", "_psi2_swaps"]),
    "bijection_general.full_s": ("bijection_general", ["psi", "psi_with_trace"]),
    "bijection_general.inverse_s": ("bijection_general", ["psi_inverse"]),
    "formulas.profile_s": ("formulas", [
        "count_binary_profile", "count_cayley_profile", "count_sary_profile",
        "count_cayley_profile_ell1", "count_cayley_profile_ell2"]),
    "formulas.gf_s": ("formulas", ["eval_out_gf"]),
    "formulas.tree_in_tree_s": ("formulas", ["count_tree_in_tree"]),
    "formulas.types_s": ("formulas", ["count_cayley_out", "count_cayley_in",
                                      "count_cayley_complete", "count_sary_out",
                                      "count_sary_in"]),
    "algebra.bareiss_s": ("algebra", ["cayley_from_spanning", "tree_in_tree_det"]),
    "algebra.config_sum_s": ("algebra", ["eval_P", "eval_P_refined", "eval_P_out"]),
    "algebra.closed_form_s": ("algebra", ["closed_P", "closed_P_refined", "closed_P_out"]),
    "oracle.enumerate_s": ("oracle", ["enumerate_embedded_cayley", "enumerate_sary",
                                      "enumerate_sfunctions"]),
    "oracle.sweep_s": ("oracle", ["sweep_embedded_censuses"]),
}

# metrics derived as the self time of one function's spans: its time minus
# the traced calls it makes (relabelling and validation, for the sampler)
SELF_METRICS = {"sampler.self_s": ("sampler", "sample_embedded_cayley")}

# exact counts, taken from the first traced pass
COUNTS = ("bijection_nonneg.pieces", "bijection_nonneg.swaps",
          *(f"bijection_general.case_{c}" for c in ("A1", "A2", "A3", "B")),
          "formulas.result_bits", "algebra.configurations", "oracle.objects")


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return abs(value.numerator).bit_length() + value.denominator.bit_length() - 1
    return abs(value).bit_length()


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rngs: list[CountingRandom] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- seeds ---------------------------------------------------------------

    def make_seed(self, seed: int) -> CountingRandom:
        """A draw-counting random.Random; its stream equals Random(seed)'s."""
        rng = CountingRandom(seed)
        self.rngs.append(rng)
        return rng

    def draws(self) -> int:
        return sum(r.draws for r in self.rngs)

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.process_time(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._stack.remove(idx)  # a generator's span may close out of order

    def _wrap(self, fn, name: str, observe):
        if inspect.isgeneratorfunction(fn):
            # the span runs from the first resumption to exhaustion; the
            # benchmark consumes these generators with list() at once
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    for item in fn(*args, **kwargs):
                        if observe:
                            observe(item)
                        yield item
                finally:
                    self._close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe:
                observe(result)
            return result
        return wrapper

    def _count_items(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[key] += 1
                yield item
        return counted

    def _observer(self, module: str, name: str):
        counts = self.counts
        if name == "phi_with_trace":
            def observe(result):
                trace = result[1]
                counts["bijection_nonneg.pieces"] += len(trace["pieces"])
                counts["bijection_nonneg.swaps"] += sum(
                    len(e) // 2 for e in trace["frustration"].values())
            return observe
        if name == "psi_with_trace":
            def observe(result):
                counts["bijection_general.case_" + result[1]["case"]] += 1
            return observe
        if module == "formulas":
            def observe(result):
                counts["formulas.result_bits"] += _bits(result)
            return observe
        if module == "oracle" and name.startswith("enumerate_"):
            def observe(_item):
                counts["oracle.objects"] += 1
            return observe
        if name == "sweep_embedded_censuses":
            def observe(result):
                counts["oracle.objects"] += sum(result["count"].values())
            return observe
        return None

    def install(self) -> None:
        """Replace each traced function in every embtrees namespace."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "embtrees" or k.startswith("embtrees.")]
        targets = {}
        for module, names in [*TIMED.values(),
                              *((m, [n]) for m, n in SELF_METRICS.values())]:
            for name in names:
                fn = getattr(sys.modules["embtrees." + module], name)
                targets[fn] = self._wrap(fn, f"{module}.{name}",
                                         self._observer(module, name))
        configs = sys.modules["embtrees.algebra"].enumerate_cycle_configurations
        targets[configs] = self._count_items(configs, "algebra.configurations")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, targets[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Per-layer time of this pass, outermost spans of each metric only."""
        metric_of = {f"{module}.{n}": metric
                     for metric, (module, names) in TIMED.items() for n in names}
        out = dict.fromkeys(TIMED, 0.0)
        spans = self.spans
        for name, start, end, parent in spans:
            metric = metric_of.get(name)
            if metric is None:
                continue
            while parent >= 0 and metric_of.get(spans[parent][0]) != metric:
                parent = spans[parent][3]
            if parent < 0:
                out[metric] += end - start
        children = self.child_time()
        for metric, (module, function) in SELF_METRICS.items():
            out[metric] = sum((end - start - children[j]
                               for j, (name, start, end, _p) in enumerate(spans)
                               if name == f"{module}.{function}"), 0.0)
        return out

    def child_time(self) -> list[float]:
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return children

    def by_function(self) -> dict[str, dict[str, float]]:
        """Total and self time and call count per traced function."""
        children = self.child_time()
        table: dict[str, dict[str, float]] = {}
        for j, (name, start, end, _p) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children[j]
        return table
