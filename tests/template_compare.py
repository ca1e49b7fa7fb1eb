"""Compare template building between two checkouts in one process.

Imports the ``fracchrom`` package of each checkout under its own name and
alternates between them, which side goes first switching every round.
Each round makes, through each side's package, three groups of calls at
every vertex of the 140 corpus graphs and of GP(5,2), GP(7,2), GP(8,3),
GP(9,2), GP(10,2) and GP(10,3), on the graph's selected two-factor:
``builtin`` of every builtin name, ``sigma_library``, and
``parse_template_dsl`` of the canonical text of every placed builtin
plus one text in symbolic vertices.  Each side selects its own
two-factors and writes its own texts once, before the rounds; only the
calls are timed, in CPU seconds of this process, summed per group.
Templates of two packages never compare equal, so each result is
compared by a canonical tuple (sorted arcs, the four mark sets, focus);
a refused placement or text counts as its message.  The report gives,
per group, each side's median and quartiles and whether the two sides
gave equal results in every round.

Run from the repository root (pytest does not collect this file):
    python3 tests/template_compare.py OLD_CHECKOUT NEW_CHECKOUT --rounds 15
No bytecode is written into either checkout.
"""

import time
from pathlib import Path

from compare_harness import alternate, generalized_petersen, parser, report, sides

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
LADDER = ((5, 2), (7, 2), (8, 3), (9, 2), (10, 2), (10, 3))
SYMBOLIC = "focus %d / arc u->v / arc (u-)' -> u- / arc v+2 -> v+2' / xstar u-"


def text_of(t) -> str:
    """``t`` in the template language, every vertex a numeral."""
    lines = ["focus %d" % t.focus]
    lines += ["arc %d->%d" % arc for arc in sorted(t.arcs)]
    for directive, group in (("star", t.d1), ("xstar", t.d1bar),
                             ("tri", t.d3), ("xtri", t.d3bar)):
        lines += ["%s %d" % (directive, x) for x in sorted(group)]
    return " / ".join(lines)


def canonical(result):
    """A template as a tuple of plain values; a message or ``None`` as
    it is."""
    if isinstance(result, str) or result is None:
        return result
    return (tuple(sorted(result.arcs)), tuple(sorted(result.d1)),
            tuple(sorted(result.d1bar)), tuple(sorted(result.d3)),
            tuple(sorted(result.d3bar)), result.focus)


def attempt(T, call, *args):
    """``call(*args)``, or the message of the ``TemplateError`` it raised."""
    try:
        return call(*args)
    except T.TemplateError as exc:
        return str(exc)


def builtins(T, placements):
    return [attempt(T, T.builtin, name, tf, u)
            for tf, u in placements for name in T.BUILTIN_NAMES]


def libraries(T, placements):
    return [t for tf, u in placements for _, t in T.sigma_library(tf, u)]


def parses(T, texts):
    return [attempt(T, T.parse_template_dsl, text, tf) for tf, text in texts]


def groups(pkg: dict) -> list:
    """``(group, calls, items)`` per group: the ``(tf, u)`` placements,
    twice, and the ``(tf, text)`` texts."""
    core, T = pkg["graph_core"], pkg["templates"]
    graphs = [core.parse_graph6(line) for path in sorted(CORPUS.glob("*.g6"))
              for line in path.read_text().split()]
    graphs += [core.Graph(2 * n, generalized_petersen(n, k)) for n, k in LADDER]
    placements = []
    for g in graphs:
        tf = pkg["two_factor"].select_two_factor(g)
        placements += [(tf, u) for u in range(g.n)]
    texts = []
    for tf, u in placements:
        placed = [attempt(T, T.builtin, name, tf, u) for name in T.BUILTIN_NAMES]
        texts += [(tf, text_of(t)) for t in placed if not isinstance(t, str)]
        texts.append((tf, SYMBOLIC % u))
    return [("builtin", builtins, placements),
            ("sigma_library", libraries, placements),
            ("parse_template_dsl", parses, texts)]


def timed_calls(pkg: dict, case, _round: int):
    """CPU seconds of one group's calls, and their canonical results."""
    _, calls, items = case
    start = time.process_time()
    results = calls(pkg["templates"], items)
    elapsed = time.process_time() - start
    return elapsed, [canonical(r) for r in results]


def main() -> None:
    args = parser(__doc__).parse_args()
    packages = sides(args, ("graph_core", "templates", "two_factor"))
    cases = list(zip(*(groups(pkg) for pkg in packages)))
    times, equal = alternate(packages, cases, args.rounds, timed_calls)
    labels = [f"{a[0]} {len(a[2])}" for a, _ in cases]
    report(f"{args.rounds} rounds, CPU ms per group as median [quartiles]; "
           f"A = {args.old}, B = {args.new}", labels, times, equal, "templates")


if __name__ == "__main__":
    main()
