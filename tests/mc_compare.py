"""Compare ``sampler.monte_carlo`` between two checkouts in one process.

Imports the ``fracchrom`` package of each checkout under its own name and
alternates between them, which side goes first switching every round.
Each round makes one ``monte_carlo`` call per graph and side, on a fresh
trial table, with the round's seed: GP(10,3), GP(16,3) and GP(24,5)
without a phase-5 plan, a clean n = 12 corpus graph without one and a
deficient n = 12 corpus graph with its exact plan, as ``prob --trials``
runs them.  Only the call is timed, in CPU seconds of this process; the
two-factor and the plan are made once per graph and side.  The report
gives, per graph, each side's median and quartiles in milliseconds and
whether the two sides gave equal counts and violations in every round.

Run from the repository root (pytest does not collect this file):
    python3 tests/mc_compare.py OLD_CHECKOUT NEW_CHECKOUT --rounds 15
No bytecode is written into either checkout.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

# (name, graph6 or (n, k) of GP(n, k), phase-5 plan?)
GRAPHS = (
    ("GP(10,3)", (10, 3), False),
    ("GP(16,3)", (16, 3), False),
    ("GP(24,5)", (24, 5), False),
    ("n12 clean", "KlSgGC@?gAoD", False),
    ("n12 deficient", "KlSHGC@@GAoD", True),
)


def load(checkout: str, name: str):
    """The ``fracchrom`` package of ``checkout``, imported as ``name``."""
    root = Path(checkout).resolve() / "src" / "fracchrom"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("augment", "graph_core", "sampler", "two_factor")}


def generalized_petersen(n: int, k: int) -> list:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return edges


def prepare(pkg: dict, spec, with_plan: bool):
    """The graph, its two-factor and, if asked, its exact phase-5 plan."""
    core = pkg["graph_core"]
    if isinstance(spec, str):
        g = core.parse_graph6(spec)
    else:
        n, k = spec
        g = core.Graph(2 * n, generalized_petersen(n, k))
    tf = pkg["two_factor"].select_two_factor(g)
    plan = pkg["augment"].exact_phase5_distribution(g, tf)[0] if with_plan else None
    return g, tf, plan


def timed_call(pkg: dict, case, trials: int, seed: int):
    """CPU seconds of one ``monte_carlo`` call on a fresh trial table, and
    its counts and violations."""
    g, tf, plan = case
    tf.derived.pop("table", None)
    start = time.process_time()
    report = pkg["sampler"].monte_carlo(g, tf, trials, seed, plan=plan)
    return time.process_time() - start, (report.counts, report.violations)


def quartiles(times: list) -> tuple:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="checkout whose package is side A")
    parser.add_argument("new", help="checkout whose package is side B")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--trials", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sys.dont_write_bytecode = True
    sides = (load(args.old, "fracchrom_a"), load(args.new, "fracchrom_b"))
    cases = [[prepare(pkg, spec, with_plan) for pkg in sides]
             for _, spec, with_plan in GRAPHS]
    times = [([], []) for _ in GRAPHS]
    equal = [True] * len(GRAPHS)
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for i, pair in enumerate(cases):
            results = [None, None]
            for side in order:
                elapsed, results[side] = timed_call(
                    sides[side], pair[side], args.trials, args.seed + r)
                times[i][side].append(elapsed)
            equal[i] &= results[0] == results[1]
    print(f"{args.rounds} rounds of {args.trials} trials, CPU ms as "
          f"median [quartiles]; A = {args.old}, B = {args.new}")
    for (name, _, with_plan), (a, b), same in zip(GRAPHS, times, equal):
        (ma, a1, a3), (mb, b1, b3) = quartiles(a), quartiles(b)
        label = name + (" (plan)" if with_plan else "")
        print(f"{label:22} A {1e3 * ma:8.1f} [{1e3 * a1:.1f}-{1e3 * a3:.1f}]"
              f"  B {1e3 * mb:8.1f} [{1e3 * b1:.1f}-{1e3 * b3:.1f}]"
              f"  B/A {mb / ma:.3f}  counts {'equal' if same else 'DIFFER'}")


if __name__ == "__main__":
    main()
