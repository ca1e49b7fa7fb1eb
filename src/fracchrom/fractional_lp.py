"""Exact fractional chromatic numbers and multiset certificates.

The fractional chromatic number is the optimum of the covering LP over
independent sets.  This module enumerates the maximal independent sets
(the only columns an optimal solution needs) and solves the LP exactly
by the simplex method on a condensed integral tableau (Edmonds–Bareiss
fraction-free pivoting).  It also turns a weighting of independent sets
into a multiset of kN independent sets covering every vertex exactly N
times, and verifies such a multiset.

``chi_f_upper_subcubic`` assembles a certificate of size at most 32/11
for any triangle-free subcubic graph by walking the reduction tree from
``graph_core.reduce_subcubic``.  A cubic bridgeless leaf gets a basic
optimal solution of the covering LP whose columns are the support of its
five-phase law; every marginal of that law is at least 11/32, so the law
scaled by 32/11 is feasible and the optimum is at most 32/11.  The LP is
solved by column generation over the support.  Doubled constructions
restrict the double's certificate back to one copy, and a graph cut at
its bridges merges its parts' certificates, in its own labels, from the
last part back to the first.  Each merge aligns two certificates on a
common N and deals one side's sets to the other's indices, in one pass,
so the bridge endpoints never share a set.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .augment import exact_phase5_distribution
from .graph_core import Graph, GraphError, GuardExceeded, analyze, mask_vertices, reduce_subcubic, suppress_vertex, vertex_mask
from .sampler import check_orientations, guard_limits, is_independent
from .two_factor import TwoFactor, select_two_factor

__all__ = [
    "ColouringError", "MergeFailure",
    "FractionalColouring", "MultisetCertificate", "CertificateVerdict",
    "TARGET_BOUND",
    "maximal_independent_sets", "chi_f_exact",
    "weighting_to_multiset", "verify_certificate",
    "chi_f_upper_subcubic",
]

TARGET_BOUND = Fraction(32, 11)

DEFAULT_MAX_N = 40
# 250 times the largest certificate (40 sets) met on the corpus, the GP
# ladder, the certify goldens and two 300-graph random sweeps
DEFAULT_MAX_MULTISET = 10**4


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
    against each other before returning, in integers over the common
    denominator of the two: equal objectives, feasibility on both
    sides, and complementary slackness.
    """
    if g.n == 0:
        return Fraction(0), FractionalColouring(g, {}), {}
    cols = maximal_independent_sets(g)
    value, y, x = _solve_covering_lp(g.n, cols)

    primal = FractionalColouring(
        g, {cols[i]: x[i] for i in range(len(cols)) if x[i] > 0})
    dual = {v: y[v] for v in range(g.n)}

    # cross-examination, in integers over the common denominator D of x
    # and y: anything wrong here is an internal defect
    D = math.lcm(*(q.denominator for q in (*x, *y)))
    X = [q.numerator * (D // q.denominator) for q in x]
    Y = [q.numerator * (D // q.denominator) for q in y]
    weighted = [(s, w) for s, w in zip(cols, X) if w > 0]
    cover = [0] * g.n
    for s, w in weighted:
        for v in s:
            cover[v] += w
    if (not all(is_independent(g, s) for s, _ in weighted)
            or any(c < D for c in cover)):
        raise RuntimeError("optimal weighting fails the covering constraints")
    if sum(w for _, w in weighted) != value * D or sum(Y) != value * D:
        raise RuntimeError("primal and dual objectives disagree")
    for s in cols:
        if sum(Y[v] for v in s) > D:
            raise RuntimeError("dual exceeds 1 on an independent set")
    for s, _ in weighted:
        if sum(Y[v] for v in s) != D:
            raise RuntimeError("slack set carries weight")
    for v in range(g.n):
        if Y[v] > 0 and cover[v] != D:
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
    comparison reads as it would on the rational tableau.  The ratio
    test compares rhs_i / a_i with rhs_r / a_r as rhs_i * a_r against
    rhs_r * a_i, both a positive, ties going to the smaller basic label;
    a row whose pivot-column entry is 0 is only scaled by the pivot.
    Every new row is checked to divide exactly by d (``_pivot_row``).
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
        r = None
        for i in range(m):
            a = rows[i][c]
            if a > 0:
                if r is None:
                    r, rhs_r, a_r = i, rows[i][n], a
                    continue
                lhs, rhs = rows[i][n] * a_r, rhs_r * a
                if lhs < rhs or lhs == rhs and basic[i] < basic[r]:
                    r, rhs_r, a_r = i, rows[i][n], a
        if r is None:
            raise RuntimeError("unbounded dual: the graph has no vertices?")
        pivot_row, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _pivot_row(row, pivot_row, c, p, d)
        pivot_row[c] = d
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
        d = p

    # basic variables sit at their rhs; nonbasic slacks give x as -cost
    at = {b: Fraction(rows[i][n], d) for i, b in enumerate(basic)}
    cost = {b: Fraction(-rows[m][j], d) for j, b in enumerate(nonbasic)}
    y = [at.get(v, Fraction(0)) for v in range(n)]
    x = [cost.get(n + i, Fraction(0)) for i in range(m)]
    return Fraction(-rows[m][n], d), y, x


def _pivot_row(row, pivot_row, c, p, d):
    """One Bareiss update of a tableau row for the pivot ``p`` at column
    ``c`` of ``pivot_row``, over the previous pivot ``d``: every entry
    becomes (a·p − f·b) / d for f the row's entry in column ``c``, and
    column ``c`` itself becomes −f.  A row with f = 0 is only scaled by
    ``p``.  Raises ``RuntimeError`` when d does not divide some entry,
    which exact Bareiss pivoting rules out."""
    f = row[c]
    if f:
        new = [a * p - f * b for a, b in zip(row, pivot_row)]
    else:
        new = [a * p for a in row]
    # d divides every entry exactly when it divides their gcd
    if math.gcd(*new) % d:
        raise RuntimeError("integer pivot left a remainder")
    new = [e // d for e in new]
    new[c] = -f
    return new


# -- multiset certificates -------------------------------------------------------


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
        return {
            "k": str(self.k),
            "N": self.N,
            "sets": [sorted(s) for s in self.sets],
        }


def weighting_to_multiset(w: FractionalColouring) -> MultisetCertificate:
    """Clear denominators and trim overcoverage down to exactly N.

    N is the least common denominator of the weights; each set enters
    with multiplicity N·w(I), and any vertex covered more than N times
    is removed from the first copies that hold it (subsets of independent
    sets stay independent, so the certificate remains sound).  The
    copies are listed in the order of each set's sorted vertices.
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
    sets = []
    for s in sorted(w.weights, key=sorted):
        sets += [s] * int(w.weights[s] * N)
    for v in range(g.n):
        cover = sum(v in s for s in sets)
        if cover < N:
            raise ColouringError(
                f"vertex {v} gathers weight {Fraction(cover, N)} < 1"
            )
        excess = cover - N
        i = 0
        while excess:
            if v in sets[i]:
                sets[i] = sets[i] - {v}
                excess -= 1
            i += 1
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


def _relabel(cert: MultisetCertificate, n: int, vmap) -> MultisetCertificate:
    """Push a child certificate through child-vertex -> parent-vertex map."""
    return MultisetCertificate(n, cert.N, tuple(
        frozenset(vmap[v] for v in s) for s in cert.sets))


def _restrict(cert: MultisetCertificate, n: int) -> MultisetCertificate:
    """Keep only the vertices below n (the first copy of a doubled graph)."""
    return MultisetCertificate(n, cert.N, tuple(
        frozenset(v for v in s if v < n) for s in cert.sets))


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
    sets = []
    for s, t in zip(a_sets, b_sets):
        if x1 in s:
            t = next(rest)
        elif x2 not in t:
            # a moving set holds x2, so it is never the empty (false) set
            t = next(moving, None) or next(rest)
        sets.append(s | t)
    return MultisetCertificate(n, N, tuple(sets))


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
    return TwoFactor(leaf, matching)


def _support_colouring(g: Graph, dist) -> FractionalColouring:
    """A basic optimal solution of the covering LP whose columns are the
    support of the law ``dist``, by column generation.

    The first pool holds, for each vertex, the most probable support set
    that contains it (on a tie, the smaller mask).  Each round solves the
    LP over the pool, passed in ascending mask order so that Bland's rule
    pivots the same way on every run, and adds the support sets whose dual
    weight exceeds 1: at most n of them, the heaviest first (on a tie, the
    smaller mask).  When none is left, the pool's optimum is the support's.
    """
    support = sorted((vertex_mask(s), p, s) for s, p in dist.pmf.items())
    best = {}
    for mask, p, s in support:
        for v in s:
            if v not in best or p > best[v][0]:
                best[v] = (p, mask)
    pool = {mask for _, mask in best.values()}
    while True:
        cols = [s for mask, _, s in support if mask in pool]
        _, y, x = _solve_covering_lp(g.n, cols)
        # the dual over one common denominator d: a set is priced in if its
        # weight exceeds d
        d = math.lcm(*(q.denominator for q in y))
        weight = [int(q * d) for q in y]
        priced = sorted((-sum(weight[v] for v in s), mask)
                        for mask, _, s in support if mask not in pool)
        new = [mask for w, mask in priced[:g.n] if -w > d]
        if not new:
            return FractionalColouring(g, {s: q for s, q in zip(cols, x) if q > 0})
        pool.update(new)


def _leaf_certificate(step, **enum_kw) -> MultisetCertificate:
    g = step.graph
    leaf = step.detail["leaf"]
    if leaf == "trivial":
        return _two_colour_certificate(g)
    check_orientations(g, enum_kw.get("max_orientations"))
    if leaf == "cubic-bridgeless":
        tf = select_two_factor(g)
    elif leaf == "one-bridge":
        tf = _one_bridge_leaf_two_factor(g, step.detail["bridge"][0])
    else:  # pragma: no cover - reduce_subcubic emits no other kinds
        raise GraphError(f"unknown leaf kind {leaf!r}")
    _, result = exact_phase5_distribution(g, tf, **enum_kw)
    return weighting_to_multiset(_support_colouring(g, result.distribution))


def _certificate_for(step, leaves, **enum_kw) -> MultisetCertificate:
    """The certificate of ``step``'s graph.  ``leaves`` maps each leaf
    already certified, keyed by all that ``_leaf_certificate`` reads, to
    its certificate, so equal leaves of one tree are certified once."""
    if step.is_leaf:
        g = step.graph
        key = (step.detail["leaf"], step.detail.get("bridge"), g.n, g.edges)
        cert = leaves.get(key)
        if cert is None:
            cert = leaves[key] = _leaf_certificate(step, **enum_kw)
        return cert
    if step.kind == "bridge-split":
        # the parts in g's labels, merged from the rest back to the first
        n = step.graph.n
        *parts, cert = [_relabel(_certificate_for(child, leaves, **enum_kw), n, vmap)
                        for child, vmap in zip(step.children, step.child_maps)]
        for a, bridge in zip(reversed(parts), reversed(step.detail["bridges"])):
            cert = _merge_on_bridge(n, a, cert, *bridge)
        return cert
    if step.kind in ("degree2-double", "degree2-single"):
        return _restrict(_certificate_for(step.children[0], leaves, **enum_kw),
                         step.graph.n)
    raise GraphError(f"unknown reduction kind {step.kind!r}")  # pragma: no cover


def chi_f_upper_subcubic(g: Graph, **enum_kw):
    """A verified multiset certificate of size at most 32/11.

    Accepts any connected triangle-free subcubic graph whose reduction
    leaves fit the exact enumeration; returns ``(32/11, certificate)``.
    The guard limits in ``enum_kw`` are checked first, whatever the
    leaves.
    """
    guard_limits(**enum_kw)
    report = analyze(g)
    if not report.is_subcubic:
        raise GraphError("certificate pipeline requires a subcubic graph")
    if not report.is_triangle_free:
        raise GraphError(
            f"triangle {report.triangle_witness} present: the 32/11 bound does not apply"
        )
    if not report.is_connected:
        raise GraphError("certificate pipeline requires a connected graph")
    cert = _certificate_for(reduce_subcubic(g), {}, **enum_kw)
    if cert.k > TARGET_BOUND:
        raise RuntimeError(f"assembled certificate has size {cert.k} > 32/11")
    verdict = verify_certificate(g, cert)
    if not verdict:
        raise RuntimeError(
            "assembled certificate fails verification: " + "; ".join(verdict.problems)
        )
    return TARGET_BOUND, cert
