"""Benchmark of the fracchrom CLI pipeline: four closed-loop workloads,
one client, one op at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 20 --trace 0

Each pass runs the seed's whole op list in a fresh interpreter (a child
process), so the program's module-level caches start empty, as for a CLI
user.  With ``--trace 0`` the run repeats passes while ``--seconds``
allows (at least one) and reports the end-to-end metrics as medians over
passes.  With ``--trace 1`` it runs one untraced and one traced pass of
the same ops and reports the per-layer metrics of the traced one.  The
first pass's outputs are checked for correctness; every later pass must
reproduce them byte for byte.  The last line of standard output is one
JSON object; any failed check makes the exit code 1.

``python3 -m pytest perfbench`` tests the tracer and the checkers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # every child is killed past this point of the run
SETUP_SAMPLES = 5


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: Path, flags: list, deadline: float) -> dict:
    """One worker process; returns its result with the measured set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir), *flags]
    # a fixed hash seed keeps set and dict order, and so the work done,
    # the same from pass to pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass ran past {RUN_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    elapsed = time.perf_counter() - start
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.splitlines()[-1]) if "--setup-only" not in flags else {}
    result.update(setup_s=setup_s, elapsed_s=elapsed)
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    counter = itertools.count()

    def run_pass(*flags):
        return spawn(workload, seed, work / f"p{next(counter)}", list(flags), deadline)

    passes = [run_pass("--check")]
    if trace:
        traced = run_pass("--trace")
    else:
        while (sum(p["elapsed_s"] for p in passes)
               + statistics.median(p["elapsed_s"] for p in passes) <= seconds):
            passes.append(run_pass())
        traced = None
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass("--setup-only")["setup_s"])

    first = passes[0]
    mismatched = sum(a != b for p in passes[1:] + ([traced] if traced else [])
                     for a, b in zip(first["digests"], p["digests"]))
    return {"passes": passes, "traced": traced, "setups": setups,
            "problems": first["problems"], "mismatched": mismatched}


def end_to_end(m: dict) -> dict:
    """The gated metrics, each a median over the run's passes."""
    passes = m["passes"]
    wall = statistics.median(sum(p["latencies"]) for p in passes)
    sizes = passes[0]["sizes"]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(m["setups"]), "s"),
        "graphs_per_s": (sizes["graphs"] / wall, "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "output_bytes": (passes[0]["output_bytes"], "B"),
    }


def workload_extras(m: dict) -> dict:
    """End-to-end figures that are printed but not gated: the op latency
    percentiles (the median of a few very unequal ops, or of many tiny
    library calls, moves with the seed's input mix) and the throughputs
    that apply to one workload only."""
    first = m["passes"][0]
    latencies = [x for p in m["passes"] for x in p["latencies"]]
    wall = end_to_end(m)["wall_s"][0]
    out = {"op_p50_s": (statistics.median(latencies), "s")}
    if len(first["latencies"]) >= 100:
        out["op_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    if "trials" in first["sizes"]:
        out["trials_per_s"] = (first["sizes"]["trials"] / wall, "1/s")
    if "templates" in first["sizes"]:
        out["templates_per_s"] = (first["sizes"]["templates"] / wall, "1/s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    for needed in ("src/fracchrom/__init__.py", "corpus/deficiency_search.json"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from a fracchrom checkout",
                  file=sys.stderr)
            return 2

    work = HERE / "_work" / str(os.getpid())
    try:
        m = measure(opts.workload, opts.seed, opts.seconds, bool(opts.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still works there

    first = m["passes"][0]
    attempted = sum(len(p["latencies"]) for p in m["passes"])
    if m["traced"]:
        attempted += len(m["traced"]["latencies"])
    failed = len(m["problems"]) + m["mismatched"]
    for problem in m["problems"][:20]:
        print(f"FAILED {problem}")
    if m["mismatched"]:
        print(f"FAILED {m['mismatched']} outputs differ between passes of one seed")

    labels = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "kernel_backend": first["kernel_backend"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(first["latencies"]),
        "passes": len(m["passes"]),
        "sizes": first["sizes"],
        "kernel_equivalence": first["equivalence"],
    }
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if m["traced"]:
        untraced = sum(first["latencies"])
        ratio = sum(m["traced"]["latencies"]) / untraced
        trace = m["traced"]["trace"]
        metrics = layers.layer_metrics(trace["totals"], trace["counts"], ratio)
        labels["missing_probes"] = trace["missing"]
        labels["uncounted_probes"] = trace["uncounted"]
    else:
        metrics = end_to_end(m)
        for name, (value, unit) in workload_extras(m).items():
            print(f"{name} {value:.6g} {unit}")
    print("labels " + json.dumps(labels, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
