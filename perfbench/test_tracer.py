"""Tests of the tracer: self time on nested stub calls with known
durations, rebinding of imported names, and an untraced pass that leaves
the program's modules untouched.  Run with ``python3 -m pytest perfbench``."""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def stub_package():
    """``stubpkg.work`` with outer -> middle -> leaf x2, each advancing a
    fake clock by known amounts, and ``stubpkg.front`` holding its own
    reference to ``leaf`` as ``from .work import leaf`` would."""
    clock = FakeClock()
    work = types.ModuleType("stubpkg.work")

    def leaf(seconds):
        clock.now += seconds
        return [0, 0, 0]

    def middle():
        clock.now += 1.0
        work.leaf(2.0)
        clock.now += 0.5
        work.leaf(3.0)
        return "middle"

    def outer():
        clock.now += 0.25
        result = work.middle()
        clock.now += 0.75
        return result

    work.leaf, work.middle, work.outer = leaf, middle, outer
    front = types.ModuleType("stubpkg.front")
    front.leaf = leaf
    package = types.ModuleType("stubpkg")
    modules = {"stubpkg": package, "stubpkg.work": work, "stubpkg.front": front}
    sys.modules.update(modules)
    yield clock, work, front
    for name in modules:
        del sys.modules[name]


def test_self_time_is_span_minus_children(stub_package):
    clock, work, front = stub_package
    originals = (work.leaf, work.middle, work.outer)
    tracer = tracing.Tracer(clock=clock)
    probes = [tracing.Probe("stubpkg.work", "outer"),
              tracing.Probe("stubpkg.work", "middle"),
              tracing.Probe("stubpkg.work", "leaf",
                            lambda args, kwargs, result: {"work.cells": len(result)}),
              tracing.Probe("stubpkg.work", "gone")]
    restore, missing = tracing.install(tracer, probes, package="stubpkg")
    assert missing == ["work.gone"]
    assert front.leaf is work.leaf is not originals[0]

    assert work.outer() == "middle"
    restore()

    totals = tracer.totals()
    assert totals["work.outer"] == {"calls": 1, "total_s": 7.5, "self_s": 1.0}
    assert totals["work.middle"] == {"calls": 1, "total_s": 6.5, "self_s": 1.5}
    assert totals["work.leaf"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert tracer.counts == {"work.cells": 6}
    parents = [tracer.spans[s.parent].name if s.parent is not None else None
               for s in tracer.spans]
    assert parents == [None, "work.outer", "work.middle", "work.middle"]
    assert (work.leaf, work.middle, work.outer) == originals
    assert front.leaf is originals[0]


def _package_bindings():
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fracchrom" or name.startswith("fracchrom."))
            for key, value in vars(mod).items()}


class _Probing:
    """A workload whose single op records, for every probe, whether the
    probed module attribute was the original function during the pass."""

    def __init__(self, originals):
        self.originals = originals
        self.seen = None

    def run(self, plan, ops):
        self.seen = {probe: getattr(sys.modules[probe.module], probe.attr) is original
                     for probe, original in self.originals.items()}
        return {"graphs": 0}


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_pass_leaves_modules_untouched(trace):
    before = _package_bindings()
    originals = {p: getattr(sys.modules[p.module], p.attr) for p in layers.PROBES}
    workload = _Probing(originals)
    _, _, _, tracer, missing = worker.timed_pass(workload, None, trace)
    assert missing == []
    if trace:
        assert tracer is not None and not any(workload.seen.values())
    else:
        assert tracer is None and all(workload.seen.values())
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_imported_names_are_rebound():
    from fracchrom import cli, sampler
    tracer = tracing.Tracer()
    restore, _ = tracing.install(tracer, layers.PROBES)
    try:
        assert cli.monte_carlo is sampler.monte_carlo
        assert cli.monte_carlo.__wrapped__ is not None
    finally:
        restore()
    assert not hasattr(cli.monte_carlo, "__wrapped__")


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = layers.layer_metrics({}, {}, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in per_layer.items()]
    fake = {"passes": [{"latencies": [1.0, 2.0], "sizes": {"graphs": 2},
                        "peak_rss_mb": 10.0, "output_bytes": 5}],
            "setups": [0.1] * 5}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in run.end_to_end(fake).items()]
