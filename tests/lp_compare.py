"""Compare ``fractional_lp._solve_covering_lp`` between two checkouts in one
process.

Imports the ``fracchrom`` package of each checkout under its own name and
alternates between them, which side goes first switching every round.
Each round solves, through each side's ``_solve_covering_lp``, the LP over
the maximal independent sets of three groups of graphs: the 140 corpus
graphs, the GP ladder GP(5,2), GP(7,2), GP(8,3), GP(9,2), GP(10,3), and
GP(13,5) (897 columns).  Each side enumerates its own columns once per
graph, in its own set format, before the rounds; only the solves are
timed, in CPU seconds of this process, summed per group.  The report
gives, per group, each side's median and quartiles and whether the two
sides returned equal ``(value, y, x)``, which holds no sets, on every LP
in every round.

Run from the repository root (pytest does not collect this file):
    python3 tests/lp_compare.py OLD_CHECKOUT NEW_CHECKOUT --rounds 15
No bytecode is written into either checkout.
"""

import time
from pathlib import Path

from compare_harness import alternate, generalized_petersen, parser, report, sides

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
LADDER = ((5, 2), (7, 2), (8, 3), (9, 2), (10, 3))
GROUPS = ("corpus (140)", "GP ladder", "GP(13,5)")


def groups(pkg: dict) -> list:
    """One ``[(n, columns), ...]`` per group of ``GROUPS``, the columns
    enumerated by ``pkg``."""
    core, lp = pkg["graph_core"], pkg["fractional_lp"]

    def lps(graphs):
        return [(g.n, lp.maximal_independent_sets(g)) for g in graphs]

    corpus = [core.parse_graph6(line) for path in sorted(CORPUS.glob("*.g6"))
              for line in path.read_text().split()]
    ladder = [core.Graph(2 * n, generalized_petersen(n, k)) for n, k in LADDER]
    return [lps(corpus), lps(ladder),
            lps([core.Graph(26, generalized_petersen(13, 5))])]


def timed_solves(pkg: dict, problems: list, _round: int):
    """CPU seconds of solving every LP of ``problems``, and the answers."""
    solve = pkg["fractional_lp"]._solve_covering_lp
    start = time.process_time()
    answers = [solve(n, cols) for n, cols in problems]
    return time.process_time() - start, answers


def main() -> None:
    args = parser(__doc__).parse_args()
    packages = sides(args, ("fractional_lp", "graph_core"))
    cases = list(zip(*(groups(pkg) for pkg in packages)))
    times, equal = alternate(packages, cases, args.rounds, timed_solves)
    labels = [f"{name} {len(a)} LPs" for name, (a, _) in zip(GROUPS, cases)]
    report(f"{args.rounds} rounds, CPU ms per group as median [quartiles]; "
           f"A = {args.old}, B = {args.new}", labels, times, equal, "answers")


if __name__ == "__main__":
    main()
