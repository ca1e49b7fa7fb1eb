"""Exact fractional chromatic numbers and multiset certificates.

The fractional chromatic number is the optimum of the covering LP over
independent sets.  This module enumerates the maximal independent sets
(the only columns an optimal solution needs) and solves the LP exactly
by the simplex method on a condensed integral tableau (Edmonds–Bareiss
fraction-free pivoting).  It also converts between the three equivalent
shapes a fractional colouring comes in: a weighting of independent sets,
a distribution with all vertex marginals at least 1/k, and a multiset of
kN independent sets covering every vertex exactly N times.

``chi_f_upper_subcubic`` assembles a 32/11-sized certificate for any
triangle-free subcubic graph by walking the reduction tree from
``graph_core.reduce_subcubic``: cubic bridgeless leaves get their
certificate from the sampled five-phase law, doubled constructions
restrict the double's certificate back to one copy, and a graph cut at
its bridges merges its parts' certificates, in its own labels, from the
last part back to the first.  Each merge aligns two certificates on a
common N and deals one side's sets to the other's indices, in one pass,
so the bridge endpoints never share a set.

A certificate holds its kN sets in full, but they are copies of few
distinct sets (305 of 819,200 on the dodecahedron).  Each step does its
work once per distinct set and repeats the result: the trim works on
runs of copies, relabelling and restriction map each distinct set once,
a bridge merge joins each distinct pair of sets once, and the verifier
checks each distinct set once and counts its copies.  The sets and their
order are what a copy-by-copy construction gives.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .augment import exact_phase5_distribution
from .graph_core import Graph, GraphError, GuardExceeded, analyze, mask_vertices, reduce_subcubic, suppress_vertex
from .sampler import Distribution, _check_guards, is_independent
from .two_factor import TwoFactor, select_two_factor, two_factor_from_matching

__all__ = [
    "ColouringError", "MergeFailure",
    "FractionalColouring", "MultisetCertificate", "CertificateVerdict",
    "TARGET_BOUND",
    "maximal_independent_sets", "chi_f_exact",
    "distribution_to_weighting", "weighting_to_multiset",
    "verify_certificate", "certificate_from_json_dict",
    "chi_f_upper_subcubic",
]

TARGET_BOUND = Fraction(32, 11)

DEFAULT_MAX_N = 40
DEFAULT_MAX_MULTISET = 2 * 10**6


class ColouringError(ValueError):
    """Raised when a conversion's input is not a fractional colouring."""


class MergeFailure(RuntimeError):
    """No re-indexing can separate the bridge endpoints (needs k < 2)."""


# -- column enumeration ----------------------------------------------------------


def _mis_masks(g: Graph) -> list[int]:
    """Bitmasks of all maximal independent sets, pivoting recursion."""
    n = g.n
    if n == 0:
        return [0]
    full = (1 << n) - 1
    # non-neighbour masks: BK cliques over the complement give our sets
    nonadj = [full & ~(g.adj_mask[v] | (1 << v)) for v in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        both = p | x
        pivot, best = -1, -1
        scan = both
        while scan:
            v = (scan & -scan).bit_length() - 1
            cnt = (p & nonadj[v]).bit_count()
            if cnt > best:
                pivot, best = v, cnt
            scan &= scan - 1
        cand = p & ~nonadj[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            expand(r | bit, p & nonadj[v], x & nonadj[v])
            p &= ~bit
            x |= bit
            cand &= ~bit

    expand(0, full, 0)
    out.sort()
    return out


def maximal_independent_sets(g: Graph) -> list[frozenset]:
    """All maximal independent sets, ascending by vertex bitmask."""
    if g.n > DEFAULT_MAX_N:
        raise GuardExceeded(
            f"maximal_independent_sets guard: n = {g.n} > {DEFAULT_MAX_N}"
        )
    return [frozenset(mask_vertices(m)) for m in _mis_masks(g)]


# -- the covering LP --------------------------------------------------------------


@dataclass(frozen=True)
class FractionalColouring:
    """A weighting of independent sets.

    ``weights`` maps frozensets to nonnegative rationals.  It is a
    fractional colouring when every vertex gathers weight at least 1;
    its size is then an upper bound on the fractional chromatic number.
    """

    graph: Graph
    weights: dict

    @property
    def size(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def vertex_weight(self, v: int) -> Fraction:
        return sum((w for s, w in self.weights.items() if v in s), Fraction(0))

    def is_valid(self) -> bool:
        return (all(w >= 0 for w in self.weights.values())
                and all(is_independent(self.graph, s) for s in self.weights)
                and all(self.vertex_weight(v) >= 1 for v in range(self.graph.n)))

    def to_json_dict(self) -> dict:
        return {
            "size": str(self.size),
            "weights": [
                {"set": sorted(s), "weight": str(w)}
                for s, w in sorted(self.weights.items(), key=lambda kv: sorted(kv[0]))
            ],
        }


def chi_f_exact(g: Graph):
    """Exact fractional chromatic number with both certificates.

    Returns ``(value, primal, dual)``: the optimum as a Fraction, an
    optimal ``FractionalColouring``, and the optimal dual vertex weights
    (a maximum fractional clique).  Both certificates are re-verified
    against each other before returning: equal objectives, feasibility
    on both sides, and complementary slackness.
    """
    if g.n == 0:
        return Fraction(0), FractionalColouring(g, {}), {}
    cols = maximal_independent_sets(g)
    value, y, x = _solve_covering_lp(g.n, cols)

    primal = FractionalColouring(
        g, {cols[i]: x[i] for i in range(len(cols)) if x[i] > 0})
    dual = {v: y[v] for v in range(g.n)}

    # cross-examination: anything wrong here is an internal defect
    if not primal.is_valid():
        raise RuntimeError("optimal weighting fails the covering constraints")
    if primal.size != value or sum(dual.values(), Fraction(0)) != value:
        raise RuntimeError("primal and dual objectives disagree")
    for s in cols:
        if sum((dual[v] for v in s), Fraction(0)) > 1:
            raise RuntimeError("dual exceeds 1 on an independent set")
    for s, w in primal.weights.items():
        if w > 0 and sum((dual[v] for v in s), Fraction(0)) != 1:
            raise RuntimeError("slack set carries weight")
    for v in range(g.n):
        if dual[v] > 0 and primal.vertex_weight(v) != 1:
            raise RuntimeError("overcovered vertex carries dual weight")
    return value, primal, dual


def _solve_covering_lp(n: int, cols: list[frozenset]):
    """Solve min Σx : Σ_{I∋v} x_I ≥ 1, x ≥ 0 through its dual.

    The dual — maximize Σy over Σ_{v∈I} y_v ≤ 1, y ≥ 0 — starts feasible
    at the slack basis, so a single-phase simplex with Bland's rule
    suffices; the primal optimum is read off the slack reduced costs.

    The tableau is condensed: one row per independent set plus the
    objective row, one column per nonbasic variable plus the right-hand
    side, with labels naming the variable of each row and column
    (variable v < n is y_v, variable n + i the slack of set i).  Every
    entry is an int over the common denominator d, the previous pivot (1
    at the start), and each pivot divides exactly by d (Edmonds 1967;
    Bareiss 1968).
    Pivots stay positive, so d > 0 and every sign test and ratio
    comparison reads as it would on the rational tableau.
    """
    m = len(cols)
    rows = [[int(v in s) for v in range(n)] + [1] for s in cols] + [[1] * n + [0]]
    basic, nonbasic, d = list(range(n, n + m)), list(range(n)), 1
    while True:
        enter = min(((nonbasic[j], j) for j in range(n) if rows[m][j] > 0),
                    default=None)
        if enter is None:
            break
        c = enter[1]
        r = min((i for i in range(m) if rows[i][c] > 0), default=None,
                key=lambda i: (Fraction(rows[i][n], rows[i][c]), basic[i]))
        if r is None:
            raise RuntimeError("unbounded dual: the graph has no vertices?")
        pivot_row, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                new = [a * p - f * b for a, b in zip(row, pivot_row)]
                if any(e % d for e in new):
                    raise RuntimeError("integer pivot left a remainder")
                rows[i] = [e // d for e in new]
                rows[i][c] = -f
        pivot_row[c] = d
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
        d = p

    # basic variables sit at their rhs; nonbasic slacks give x as -cost
    at = {b: Fraction(rows[i][n], d) for i, b in enumerate(basic)}
    cost = {b: Fraction(-rows[m][j], d) for j, b in enumerate(nonbasic)}
    y = [at.get(v, Fraction(0)) for v in range(n)]
    x = [cost.get(n + i, Fraction(0)) for i in range(m)]
    return Fraction(-rows[m][n], d), y, x


# -- the three shapes of a colouring ---------------------------------------------


def distribution_to_weighting(g: Graph, dist: Distribution, k: Fraction) -> FractionalColouring:
    """Scale an independent-set law into a size-k fractional colouring.

    Requires every vertex marginal to be at least 1/k, exactly.
    """
    k = Fraction(k)
    if k <= 0:
        raise ColouringError("the target size k must be positive")
    for v in range(g.n):
        if dist.marginal(v) < 1 / k:
            raise ColouringError(
                f"vertex {v} has marginal {dist.marginal(v)} < 1/k = {1 / k}"
            )
    return FractionalColouring(g, {J: k * p for J, p in dist.pmf.items()})


@dataclass(frozen=True)
class MultisetCertificate:
    """kN independent sets covering every vertex exactly N times."""

    n_vertices: int
    N: int
    sets: tuple

    @property
    def k(self) -> Fraction:
        return Fraction(len(self.sets), self.N)

    def to_json_dict(self) -> dict:
        """Each set as a sorted list: one sort per distinct set, and a list
        of its own for every entry."""
        order = {s: sorted(s) for s in set(self.sets)}
        return {
            "k": str(self.k),
            "N": self.N,
            "sets": [order[s].copy() for s in self.sets],
        }


def certificate_from_json_dict(data: dict, n_vertices: int) -> MultisetCertificate:
    """Read back the shape ``MultisetCertificate.to_json_dict`` writes.

    The input comes from outside, so its shape is checked: a dict whose
    N is a positive int and whose ``sets`` is a list of lists of ints,
    none listing a vertex twice.  Whether the sets form a certificate is
    ``verify_certificate``'s question.
    """
    if not isinstance(data, dict):
        raise ColouringError("a certificate must be a JSON object")
    N, sets, k = data.get("N"), data.get("sets"), data.get("k")
    if type(N) is not int or N <= 0:
        raise ColouringError(f"certificate N must be a positive integer, not {N!r}")
    if not (isinstance(sets, list) and all(
            isinstance(s, list) and all(type(v) is int for v in s) for s in sets)):
        raise ColouringError("certificate sets must be a list of lists of vertex integers")
    frozen = tuple(frozenset(s) for s in sets)
    for s, members in zip(sets, frozen):
        if len(members) != len(s):
            raise ColouringError(f"certificate set {s} repeats a vertex")
    cert = MultisetCertificate(n_vertices, N, frozen)
    if str(cert.k) != k:
        raise ColouringError(f"certificate claims k = {k} but holds {cert.k}")
    return cert


def weighting_to_multiset(w: FractionalColouring) -> MultisetCertificate:
    """Clear denominators and trim overcoverage down to exactly N.

    N is the least common denominator of the weights; each set enters
    with multiplicity N·w(I), and any vertex covered more than N times
    is removed from the surplus copies (subsets of independent sets stay
    independent, so the certificate remains sound).  The copies are held
    as runs of one set and a count, in certificate order: trimming a
    vertex from the first copies that hold it takes it out of whole runs
    and splits at most one run in two.
    """
    g = w.graph
    N = 1
    for q in w.weights.values():
        if q < 0:
            raise ColouringError("negative weight")
        N = math.lcm(N, q.denominator)
    total = sum(int(q * N) for q in w.weights.values() if q > 0)
    if total > DEFAULT_MAX_MULTISET:
        raise GuardExceeded(
            f"certificate would hold {total} sets (> {DEFAULT_MAX_MULTISET})"
        )
    runs = [[s, int(w.weights[s] * N)] for s in sorted(w.weights, key=sorted)
            if w.weights[s] > 0]
    for v in range(g.n):
        cover = sum(c for s, c in runs if v in s)
        if cover < N:
            raise ColouringError(
                f"vertex {v} gathers weight {Fraction(cover, N)} < 1"
            )
        excess = cover - N
        i = 0
        while excess:
            s, c = runs[i]
            if v in s:
                if c > excess:
                    # the first `excess` copies lose v, the rest keep it
                    runs.insert(i + 1, [s, c - excess])
                    c = runs[i][1] = excess
                runs[i][0] = s - {v}
                excess -= c
            i += 1
    sets = []
    for s, c in runs:
        sets += [s] * c
    return MultisetCertificate(g.n, N, tuple(sets))


@dataclass(frozen=True)
class CertificateVerdict:
    ok: bool
    problems: tuple

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(g: Graph, cert: MultisetCertificate) -> CertificateVerdict:
    """Recount everything; trusts nothing about the producer.

    Equal sets are checked once, under the index of their first copy,
    and count toward coverage as often as they occur.
    """
    problems = []
    if cert.n_vertices != g.n:
        problems.append(f"certificate is for {cert.n_vertices} vertices, graph has {g.n}")
    count = [0] * g.n
    for s, mult in Counter(cert.sets).items():
        inside = [u for u in s if 0 <= u < g.n]
        bad = [f"mentions foreign vertex {u}" for u in s if not (0 <= u < g.n)]
        bad += [f"contains edge ({u}, {v})"
                for u in sorted(inside) for v in g.adj[u] if u < v and v in s]
        if bad:
            idx = cert.sets.index(s)
            problems += [f"set {idx} {b}" for b in bad]
        for u in inside:
            count[u] += mult
    for v in range(g.n):
        if count[v] != cert.N:
            problems.append(
                f"vertex {v} is covered {count[v]} times, not N = {cert.N}"
            )
    return CertificateVerdict(not problems, tuple(problems))


# -- 32/11 certificates for subcubic graphs ---------------------------------------


def _map_distinct(f, items) -> tuple:
    """``tuple(map(f, items))``, calling f once per distinct item."""
    image = {}
    for item in items:
        if item not in image:
            image[item] = f(item)
    return tuple(map(image.__getitem__, items))


def _relabel(cert: MultisetCertificate, n: int, vmap) -> MultisetCertificate:
    """Push a child certificate through child-vertex -> parent-vertex map."""
    return MultisetCertificate(n, cert.N, _map_distinct(
        lambda s: frozenset(vmap[v] for v in s), cert.sets))


def _restrict(cert: MultisetCertificate, n: int) -> MultisetCertificate:
    """Keep only the vertices below n (the first copy of a doubled graph)."""
    return MultisetCertificate(n, cert.N, _map_distinct(
        lambda s: frozenset(v for v in s if v < n), cert.sets))


def _merge_on_bridge(n: int, a: MultisetCertificate, b: MultisetCertificate,
                     x1: int, x2: int) -> MultisetCertificate:
    """Combine certificates of the two sides of a bridge (x1, x2).

    Each side's sets are repeated up to N = lcm(a.N, b.N) and padded with
    empty sets to a common count.  Then one pass deals b's sets to the
    indices so that no set holding x2 lands where a's set holds x1:
    a b-set holding x2 stays where the a-set lacks x1; the b-sets holding
    x2 at indices whose a-set holds x1 move, in order, to the first
    indices whose a-set lacks x1 and whose b-set lacks x2; every other
    index takes the next b-set that lacks x2.  Unions along indices are
    then independent.
    """
    N = math.lcm(a.N, b.N)
    count = max(len(a.sets) * (N // a.N), len(b.sets) * (N // b.N), 2 * N)
    if count > DEFAULT_MAX_MULTISET:
        raise GuardExceeded(
            f"bridge merge would hold {count} sets (> {DEFAULT_MAX_MULTISET})"
        )
    a_sets, b_sets = ((c.sets * (N // c.N) + (frozenset(),) * count)[:count]
                      for c in (a, b))
    movers = sum(x2 in t for t in b_sets)
    free = sum(x1 not in s for s in a_sets)
    if movers > free:
        raise MergeFailure(
            f"cannot separate bridge ({x1}, {x2}): {movers} sets to "
            f"place, {free} indices available"
        )
    moving = iter([t for s, t in zip(a_sets, b_sets) if x1 in s and x2 in t])
    rest = (t for t in b_sets if x2 not in t)
    pairs = []
    for s, t in zip(a_sets, b_sets):
        if x1 in s:
            t = next(rest)
        elif x2 not in t:
            # a moving set holds x2, so it is never the empty (false) set
            t = next(moving, None) or next(rest)
        pairs.append((s, t))
    return MultisetCertificate(n, N, _map_distinct(
        lambda pair: pair[0] | pair[1], pairs))


def _two_colour_certificate(g: Graph) -> MultisetCertificate:
    """N = 1 certificate from a proper 2-colouring (bipartite inputs)."""
    colour = [-1] * g.n
    for s in range(g.n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
                elif colour[v] == colour[u]:
                    raise GraphError("graph is not bipartite")
    sides = (frozenset(v for v in range(g.n) if colour[v] == 0),
             frozenset(v for v in range(g.n) if colour[v] == 1))
    sets = tuple(s for s in sides if s) or (frozenset(),)
    return MultisetCertificate(g.n, 1, sets)


def _one_bridge_leaf_two_factor(leaf: Graph, v0: int) -> TwoFactor:
    """Two-factor for the double of a host with a single degree-2 vertex v0.

    The host is the leaf's first copy, its vertices below n/2.  It is
    suppressed at v0 and a qualifying two-factor of the cubic result is
    chosen with the replacement edge on a cycle.  Its matching, in both
    copies, plus the bridge between the copies of v0 is the leaf's
    matching; the cycles are derived from it, and so run through v0.
    """
    n = leaf.n // 2
    host = Graph(n, [e for e in leaf.edges if e[1] < n])
    g0, old_ids = suppress_vertex(host, v0)
    a, b = host.adj[v0]
    back = {old: new for new, old in enumerate(old_ids)}
    tf0 = select_two_factor(g0, cycle_edge=(back[a], back[b]))
    matching = [(old_ids[u], old_ids[v]) for u, v in tf0.m_edges]
    matching += [(u + n, v + n) for u, v in matching]
    matching.append((v0, v0 + n))
    return two_factor_from_matching(leaf, matching)


def _leaf_certificate(step, **enum_kw) -> MultisetCertificate:
    g = step.graph
    leaf = step.detail["leaf"]
    if leaf == "trivial":
        return _two_colour_certificate(g)
    # a cubic leaf's perfect matchings have n/2 edges: refuse their
    # orientations as the law would, before the two-factor search
    _check_guards(1 << g.n // 2, 0, enum_kw.get("max_orientations"), None)
    if leaf == "cubic-bridgeless":
        tf = select_two_factor(g)
    elif leaf == "one-bridge":
        tf = _one_bridge_leaf_two_factor(g, step.detail["bridge"][0])
    else:  # pragma: no cover - reduce_subcubic emits no other kinds
        raise GraphError(f"unknown leaf kind {leaf!r}")
    _, result = exact_phase5_distribution(g, tf, **enum_kw)
    w = distribution_to_weighting(g, result.distribution, TARGET_BOUND)
    return weighting_to_multiset(w)


def _certificate_for(step, **enum_kw) -> MultisetCertificate:
    if step.is_leaf:
        return _leaf_certificate(step, **enum_kw)
    if step.kind == "bridge-split":
        # the parts in g's labels, merged from the rest back to the first
        n = step.graph.n
        *parts, cert = [_relabel(_certificate_for(child, **enum_kw), n, vmap)
                        for child, vmap in zip(step.children, step.child_maps)]
        for a, bridge in zip(reversed(parts), reversed(step.detail["bridges"])):
            cert = _merge_on_bridge(n, a, cert, *bridge)
        return cert
    if step.kind in ("degree2-double", "degree2-single"):
        return _restrict(_certificate_for(step.children[0], **enum_kw), step.graph.n)
    raise GraphError(f"unknown reduction kind {step.kind!r}")  # pragma: no cover


def chi_f_upper_subcubic(g: Graph, **enum_kw):
    """A verified multiset certificate of size at most 32/11.

    Accepts any connected triangle-free subcubic graph whose reduction
    leaves fit the exact enumeration; returns ``(32/11, certificate)``.
    """
    report = analyze(g)
    if not report.is_subcubic:
        raise GraphError("certificate pipeline requires a subcubic graph")
    if not report.is_triangle_free:
        raise GraphError(
            f"triangle {report.triangle_witness} present: the 32/11 bound does not apply"
        )
    if not report.is_connected:
        raise GraphError("certificate pipeline requires a connected graph")
    cert = _certificate_for(reduce_subcubic(g), **enum_kw)
    if cert.k > TARGET_BOUND:
        raise RuntimeError(f"assembled certificate has size {cert.k} > 32/11")
    verdict = verify_certificate(g, cert)
    if not verdict:
        raise RuntimeError(
            "assembled certificate fails verification: " + "; ".join(verdict.problems)
        )
    return TARGET_BOUND, cert
