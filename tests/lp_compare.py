"""Compare ``fractional_lp._solve_covering_lp`` between two checkouts in one
process.

Imports the ``fracchrom`` package of each checkout under its own name and
alternates between them, which side goes first switching every round.
Each round solves, through each side's ``_solve_covering_lp``, the LP over
the maximal independent sets of three groups of graphs: the 140 corpus
graphs, the GP ladder GP(5,2), GP(7,2), GP(8,3), GP(9,2), GP(10,3), and
GP(13,5) (897 columns).  The columns are enumerated once per graph, by
side A, and both sides solve the same lists.  Only the solves are timed,
in CPU seconds of this process, summed per group.  The report gives, per
group, each side's median and quartiles and whether the two sides
returned equal ``(value, y, x)`` on every LP in every round.

Run from the repository root (pytest does not collect this file):
    python3 tests/lp_compare.py OLD_CHECKOUT NEW_CHECKOUT --rounds 15
No bytecode is written into either checkout.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
LADDER = ((5, 2), (7, 2), (8, 3), (9, 2), (10, 3))


def load(checkout: str, name: str):
    """The ``fracchrom`` package of ``checkout``, imported as ``name``."""
    root = Path(checkout).resolve() / "src" / "fracchrom"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("fractional_lp", "graph_core")}


def generalized_petersen(n: int, k: int) -> list:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return edges


def groups(pkg: dict) -> list:
    """(name, [(n, columns), ...]) for the three groups of LPs."""
    core, lp = pkg["graph_core"], pkg["fractional_lp"]

    def lps(graphs):
        return [(g.n, lp.maximal_independent_sets(g)) for g in graphs]

    corpus = [core.parse_graph6(line) for path in sorted(CORPUS.glob("*.g6"))
              for line in path.read_text().split()]
    ladder = [core.Graph(2 * n, generalized_petersen(n, k)) for n, k in LADDER]
    return [("corpus (140)", lps(corpus)),
            ("GP ladder", lps(ladder)),
            ("GP(13,5)", lps([core.Graph(26, generalized_petersen(13, 5))]))]


def timed_solves(pkg: dict, problems: list):
    """CPU seconds of solving every LP of ``problems``, and the answers."""
    solve = pkg["fractional_lp"]._solve_covering_lp
    start = time.process_time()
    answers = [solve(n, cols) for n, cols in problems]
    return time.process_time() - start, answers


def quartiles(times: list) -> tuple:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="checkout whose package is side A")
    parser.add_argument("new", help="checkout whose package is side B")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sys.dont_write_bytecode = True
    sides = (load(args.old, "fracchrom_a"), load(args.new, "fracchrom_b"))
    cases = groups(sides[0])
    times = [([], []) for _ in cases]
    equal = [True] * len(cases)
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for i, (_, problems) in enumerate(cases):
            answers = [None, None]
            for side in order:
                elapsed, answers[side] = timed_solves(sides[side], problems)
                times[i][side].append(elapsed)
            equal[i] &= answers[0] == answers[1]
    print(f"{args.rounds} rounds, CPU ms per group as median [quartiles]; "
          f"A = {args.old}, B = {args.new}")
    for (name, problems), (a, b), same in zip(cases, times, equal):
        (ma, a1, a3), (mb, b1, b3) = quartiles(a), quartiles(b)
        print(f"{name:14} {len(problems):3} LPs  A {1e3 * ma:8.1f} [{1e3 * a1:.1f}-{1e3 * a3:.1f}]"
              f"  B {1e3 * mb:8.1f} [{1e3 * b1:.1f}-{1e3 * b3:.1f}]"
              f"  B/A {mb / ma:.3f}  answers {'equal' if same else 'DIFFER'}")


if __name__ == "__main__":
    main()
