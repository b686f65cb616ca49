"""The benchmark in perfbench/ still runs against the library.

perfbench/ is read here, never edited: its tracer wraps library functions by
module and name, and its workloads call the public API, some arguments
positionally.  A renamed function or a dropped parameter would break the
benchmark without any other test noticing, so the traced names must resolve
and the first pass of every workload must run with every answer correct.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_names_resolve(perfbench):
    tracing, _ = perfbench
    names = [(module, name) for module, names in tracing.TIMED.values() for name in names]
    names += list(tracing.SELF_METRICS.values())
    names.append(("algebra", "enumerate_cycle_configurations"))
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"embtrees.{module}"), name, None)), \
            f"embtrees.{module}.{name}"


@pytest.mark.parametrize("workload", ["sample_thin", "sample_wide", "count_exact",
                                      "verify_small"])
def test_first_pass_is_correct(perfbench, workload):
    _, workloads = perfbench
    assert workload in workloads.WORKLOADS
    ops = workloads.build_pass(workload, 1, 0)
    assert ops
    for op in ops:
        correct, _vertices, _objects = op.check(op.run(lambda seed: seed))
        assert correct, (workload, op.kind, op.group)
