"""Certify a seeded sample of random triangle-free subcubic graphs.

Draws connected triangle-free subcubic graphs with ``random.Random(seed)``
by the recipe of ``strategies.connected_subcubic_graphs(triangle_free=True)``:
a random tree of maximum degree 3, then up to 2n random edges that keep
every degree at most 3 and close no triangle.  Each graph goes through
``chi_f_upper_subcubic`` under the default guards.  The report gives the
certified count, the refusals grouped by guard message (numbers masked as
``#``), the largest certificate and the slowest graph.  Any other error
stops the sweep.

Run from the repository root (pytest does not collect this file):
    PYTHONPATH=src python3 tests/certify_sweep.py --seed 1
"""

import argparse
import random
import re
import time
from collections import Counter

from fracchrom.fractional_lp import chi_f_upper_subcubic, verify_certificate
from fracchrom.graph_core import Graph, GuardExceeded, encode_graph6


def random_graph(rng: random.Random, max_n: int) -> Graph:
    """One draw of the ``connected_subcubic_graphs`` recipe, triangle-free."""
    n = rng.randint(2, max_n)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if len(adj[w]) < 3])
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if (u != v and v not in adj[u] and len(adj[u]) < 3 and len(adj[v]) < 3
                and not adj[u] & adj[v]):
            adj[u].add(v)
            adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def sweep(seed: int, count: int, max_n: int) -> dict:
    rng = random.Random(seed)
    certified, refused = 0, Counter()
    largest = slowest = None
    for _ in range(count):
        g = random_graph(rng, max_n)
        start = time.perf_counter()
        try:
            _, cert = chi_f_upper_subcubic(g)
        except GuardExceeded as exc:
            refused[re.sub(r"\d+", "#", str(exc))] += 1
            continue
        finally:
            elapsed = time.perf_counter() - start
            if slowest is None or elapsed > slowest[0]:
                slowest = (elapsed, encode_graph6(g))
        if not verify_certificate(g, cert):
            raise RuntimeError(f"certificate of {encode_graph6(g)} fails verification")
        certified += 1
        size = (len(cert.sets), cert.N, str(cert.k), encode_graph6(g))
        if largest is None or size[:2] > largest[:2]:
            largest = size
    return {"certified": certified, "refused": refused,
            "largest": largest, "slowest": slowest}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--graphs", type=int, default=300)
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()
    start = time.perf_counter()
    report = sweep(args.seed, args.graphs, args.max_n)
    print(f"seed {args.seed}: {report['certified']} of {args.graphs} certified "
          f"in {time.perf_counter() - start:.1f} s")
    for message, n in sorted(report["refused"].items()):
        print(f"  refused {n}: {message}")
    if report["largest"]:
        sets, N, k, g6 = report["largest"]
        print(f"  largest certificate: {sets} sets, N = {N}, k = {k} ({g6})")
    elapsed, g6 = report["slowest"]
    print(f"  slowest graph: {elapsed:.2f} s ({g6})")


if __name__ == "__main__":
    main()
