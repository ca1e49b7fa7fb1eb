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

import time

from compare_harness import alternate, generalized_petersen, parser, report, sides

# (name, graph6 or (n, k) of GP(n, k), phase-5 plan?)
GRAPHS = (
    ("GP(10,3)", (10, 3), False),
    ("GP(16,3)", (16, 3), False),
    ("GP(24,5)", (24, 5), False),
    ("n12 clean", "KlSgGC@?gAoD", False),
    ("n12 deficient", "KlSHGC@@GAoD", True),
)


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


def main() -> None:
    p = parser(__doc__)
    p.add_argument("--trials", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    packages = sides(args, ("augment", "graph_core", "sampler", "two_factor"))
    cases = [[prepare(pkg, spec, with_plan) for pkg in packages]
             for _, spec, with_plan in GRAPHS]

    def timed_call(pkg: dict, case, r: int):
        """CPU seconds of one ``monte_carlo`` call on a fresh trial table,
        and its counts and violations."""
        g, tf, plan = case
        tf.derived.pop("table", None)
        start = time.process_time()
        out = pkg["sampler"].monte_carlo(g, tf, args.trials, args.seed + r, plan=plan)
        return time.process_time() - start, (out.counts, out.violations)

    times, equal = alternate(packages, cases, args.rounds, timed_call)
    labels = [name + (" (plan)" if with_plan else "") for name, _, with_plan in GRAPHS]
    report(f"{args.rounds} rounds of {args.trials} trials, CPU ms as "
           f"median [quartiles]; A = {args.old}, B = {args.new}",
           labels, times, equal, "counts")


if __name__ == "__main__":
    main()
