"""One pass of a workload in a fresh interpreter.

Run by ``run.py``, never by hand::

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR [--trace] [--setup-only] [--check]

Set-up is the interpreter start, ``import fracchrom`` and writing the
inputs into WORKDIR; the worker prints ``ready`` when it is done.  The
timed ops follow, then (with ``--check``) the correctness checks, which
run after the peak RSS has been read.  The last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fracchrom  # noqa: E402
from fracchrom import cli, kernel_backend  # noqa: E402,F401

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402


def timed_pass(workload, plan, trace: bool):
    """Run the ops, inside the probes when tracing (they are removed
    again before returning).  Returns the ops, the workload's sizes, the
    peak RSS in MB, and the tracer and missing probes (None and [] when
    not tracing)."""
    tracer, restore, missing = None, None, []
    if trace:
        tracer = tracing.Tracer()
        restore, missing = tracing.install(tracer, layers.PROBES)
    ops = Ops()
    try:
        sizes = workload.run(plan, ops)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if restore is not None:
            restore()
    return ops, sizes, peak_kb / 1024, tracer, missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("workdir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true")
    opts = ap.parse_args(argv)

    workload = WORKLOADS[opts.workload]()
    Path(opts.workdir).mkdir(parents=True)
    os.chdir(opts.workdir)
    plan = workload.prepare(opts.seed)
    print("ready", flush=True)
    if opts.setup_only:
        return 0

    ops, sizes, peak_mb, tracer, missing = timed_pass(workload, plan, opts.trace)
    result = {
        "latencies": ops.latencies,
        "sizes": sizes,
        "peak_rss_mb": peak_mb,
        "output_bytes": ops.output_bytes,
        "digests": ops.digests,
        "kernel_backend": kernel_backend(),
    }
    if tracer is not None:
        tracer.count("templates.candidates", sizes.get("templates", 0))
        result["trace"] = {"totals": tracer.totals(), "counts": tracer.counts,
                           "missing": missing, "uncounted": sorted(tracer.uncounted)}
    if opts.check:
        result["problems"] = workload.check(plan, ops.outputs)
        result["equivalence"] = getattr(workload, "equivalence", None)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
