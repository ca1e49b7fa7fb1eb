"""Correctness checks on the program's outputs, written independently of
the program's own verifiers.  Each returns a list of problems; an empty
list means the output passed."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

FLOOR = Fraction(88, 256)
TARGET = Fraction(32, 11)


def corpus_row(row: dict, expected_deficient: int) -> list[str]:
    """One ``corpus`` row of a cubic triangle-free bridgeless graph."""
    problems = []
    if row.get("min_marginal") is None or Fraction(row["min_marginal"]) < FLOOR:
        problems.append(f"min_marginal {row.get('min_marginal')} is below 88/256")
    if row.get("chi_f") is None or Fraction(row["chi_f"]) > TARGET:
        problems.append(f"chi_f {row.get('chi_f')} exceeds 32/11")
    if row.get("deficient_count") != expected_deficient:
        problems.append(f"deficient_count {row.get('deficient_count')} != "
                        f"{expected_deficient} in deficiency_search.json")
    return problems


def certificate(cert: dict, n: int, edges) -> list[str]:
    """A ``certify`` certificate: every set independent, every vertex
    covered exactly N times, and k = |sets| / N at most 32/11."""
    problems = []
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    N = cert["N"]
    multiplicity = Counter(tuple(sorted(s)) for s in cert["sets"])
    cover = [0] * n
    for members, mult in multiplicity.items():
        if any(not 0 <= v < n for v in members):
            problems.append(f"set {list(members)} names a vertex outside 0..{n - 1}")
            continue
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if (u, v) in edge_set:
                    problems.append(f"set {list(members)} contains edge ({u}, {v})")
        for v in members:
            cover[v] += mult
    for v, c in enumerate(cover):
        if c != N:
            problems.append(f"vertex {v} is covered {c} times, not N = {N}")
    if N < 1 or Fraction(len(cert["sets"]), N) > TARGET:
        problems.append(f"k = {len(cert['sets'])}/{N} exceeds 32/11")
    return problems


def monte_carlo(doc: dict, exact: dict) -> list[str]:
    """A sampled ``prob`` report against the exact marginals: no dependent
    set, and every frequency within five standard deviations."""
    problems = []
    if doc["violations"] != 0:
        problems.append(f"{doc['violations']} trials produced a dependent set")
    trials = doc["trials"]
    for v, count in enumerate(doc["counts"]):
        p = Fraction(exact[str(v)])
        sigma = math.sqrt(float(p * (1 - p)) / trials)
        if abs(count / trials - float(p)) > 5 * sigma:
            problems.append(f"vertex {v}: frequency {count}/{trials} is more "
                            f"than 5 sigma from the exact {p}")
    return problems


def lemma4_row(exact: Fraction, bound: Fraction, q_exact: Fraction,
               q_up: Fraction, admissible: bool) -> list[str]:
    """One template: an admissible one meets the Lemma 4 bound exactly,
    and the exact q never exceeds its closed-form upper bound."""
    problems = []
    if admissible and exact < bound:
        problems.append(f"event probability {exact} < Lemma 4 bound {bound}")
    if q_exact > q_up:
        problems.append(f"exact q {q_exact} > q_upper {q_up}")
    return problems
