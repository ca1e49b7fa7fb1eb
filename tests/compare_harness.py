"""What ``lp_compare.py`` and ``mc_compare.py`` share: each checkout's
``fracchrom`` package imported under its own name, the timed rounds that
alternate between the two sides, and their report.

Each side prepares its own cases with its own package, so no object made
by one side's code reaches the other's.  pytest does not collect this
file.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path


def load(checkout: str, name: str, submodules) -> dict:
    """The ``submodules`` of the ``fracchrom`` package of ``checkout``,
    imported as the package ``name``."""
    root = Path(checkout).resolve() / "src" / "fracchrom"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in submodules}


def generalized_petersen(n: int, k: int) -> list:
    """The edges of GP(n, k)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return edges


def quartiles(times: list) -> tuple:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def _rounds(text: str) -> int:
    rounds = int(text)
    if rounds < 2:
        raise argparse.ArgumentTypeError("must be at least 2")
    return rounds


def parser(doc: str) -> argparse.ArgumentParser:
    """The two checkouts and ``--rounds`` (at least 2, for quartiles);
    the caller may add more."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("old", help="checkout whose package is side A")
    p.add_argument("new", help="checkout whose package is side B")
    p.add_argument("--rounds", type=_rounds, default=15)
    return p


def sides(args, submodules) -> tuple:
    """Side A's and side B's packages, writing no bytecode into either."""
    sys.dont_write_bytecode = True
    return (load(args.old, "fracchrom_a", submodules),
            load(args.new, "fracchrom_b", submodules))


def alternate(packages, cases, rounds: int, timed) -> tuple:
    """Run ``timed(package, case, round)``, which returns ``(seconds,
    result)``, on each side's case of every pair in ``cases``, ``rounds``
    times, the side that goes first switching every round.  Returns per
    pair the two sides' lists of seconds and whether their results were
    equal in every round."""
    times = [([], []) for _ in cases]
    equal = [True] * len(cases)
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for i, pair in enumerate(cases):
            results = [None, None]
            for side in order:
                elapsed, results[side] = timed(packages[side], pair[side], r)
                times[i][side].append(elapsed)
            equal[i] &= results[0] == results[1]
    return times, equal


def report(header: str, labels, times, equal, what: str) -> None:
    """Print ``header`` and, per label, each side's median and quartiles
    in CPU milliseconds, B/A of the medians and whether ``what`` was
    equal on both sides."""
    print(header)
    for label, (a, b), same in zip(labels, times, equal):
        (ma, a1, a3), (mb, b1, b3) = quartiles(a), quartiles(b)
        print(f"{label:24} A {1e3 * ma:8.1f} [{1e3 * a1:.1f}-{1e3 * a3:.1f}]"
              f"  B {1e3 * mb:8.1f} [{1e3 * b1:.1f}-{1e3 * b3:.1f}]"
              f"  B/A {mb / ma:.3f}  {what} {'equal' if same else 'DIFFER'}")
