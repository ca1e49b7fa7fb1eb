"""Exact fractional chromatic numbers and multiset certificates.

The fractional chromatic number is the optimum of the covering LP over
independent sets.  This module enumerates the maximal independent sets
(the only columns an optimal solution needs) and solves the LP exactly
by the simplex method on a condensed tableau whose rows are ints, each
over its own positive denominator: a pivot leaves the rows with 0 in its
column untouched and reduces each row it rewrites by a gcd.  Every pivot
is checked to keep the denominators positive, the basis feasible and the
objective nondecreasing, and every answer is cross-examined for
optimality before it is returned.  It also turns a weighting of
independent sets into a multiset of kN independent sets covering every
vertex exactly N times, and verifies such a multiset.

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
so the bridge endpoints never share a set; each index's sets are united
once, after the last merge.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .augment import exact_phase5_distribution
from .graph_core import Graph, GraphError, GuardExceeded, analyze, mask_vertices, reduce_subcubic, suppress_vertex
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
# the LP's columns: 3.6 times the most measured, GP(16,3)'s 4,534
DEFAULT_MAX_COLUMNS = 1 << 14
# 250 times the largest certificate (40 sets) met on the corpus, the GP
# ladder, the certify goldens and two 300-graph random sweeps
DEFAULT_MAX_MULTISET = 10**4


class ColouringError(ValueError):
    """Raised when a conversion's input is not a fractional colouring."""


class MergeFailure(RuntimeError):
    """No re-indexing can separate the bridge endpoints (needs k < 2)."""


# -- column enumeration ----------------------------------------------------------


def maximal_independent_sets(g: Graph) -> list[int]:
    """The vertex masks of all maximal independent sets, ascending, by
    Bron–Kerbosch with pivoting over the complement.  Refuses, with
    ``GuardExceeded``, a graph of more than ``DEFAULT_MAX_N`` vertices and
    stops once it has found more than ``DEFAULT_MAX_COLUMNS`` sets."""
    n = g.n
    if n > DEFAULT_MAX_N:
        raise GuardExceeded(f"maximal_independent_sets guard: n = {n} > {DEFAULT_MAX_N}")
    if n == 0:
        return [0]
    full = (1 << n) - 1
    # non-neighbour masks: BK cliques over the complement give our sets
    nonadj = [full & ~(g.adj_mask[v] | (1 << v)) for v in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            if len(out) > DEFAULT_MAX_COLUMNS:
                raise GuardExceeded("maximal_independent_sets guard: more than "
                                    f"{DEFAULT_MAX_COLUMNS} sets")
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


# -- the covering LP --------------------------------------------------------------


@dataclass(frozen=True)
class FractionalColouring:
    """A weighting of independent sets.

    ``weights`` maps vertex masks to nonnegative rationals.  It is a
    fractional colouring when every vertex gathers weight at least 1;
    its size is then an upper bound on the fractional chromatic number.
    """

    graph: Graph
    weights: dict

    @property
    def size(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def vertex_weight(self, v: int) -> Fraction:
        return sum((w for s, w in self.weights.items() if s >> v & 1), Fraction(0))

    def is_valid(self) -> bool:
        return (all(w >= 0 for w in self.weights.values())
                and all(is_independent(self.graph, s) for s in self.weights)
                and all(self.vertex_weight(v) >= 1 for v in range(self.graph.n)))

    def to_json_dict(self) -> dict:
        return {
            "size": str(self.size),
            "weights": [
                {"set": mask_vertices(s), "weight": str(w)}
                for s, w in sorted(self.weights.items(),
                                   key=lambda kv: mask_vertices(kv[0]))
            ],
        }


def chi_f_exact(g: Graph):
    """Exact fractional chromatic number with both certificates.

    Returns ``(value, primal, dual)``: the optimum as a Fraction, an
    optimal ``FractionalColouring``, and the optimal dual vertex weights
    (a maximum fractional clique), both cross-examined by the solver.
    """
    if g.n == 0:
        return Fraction(0), FractionalColouring(g, {}), {}
    cols = maximal_independent_sets(g)
    value, y, x = _solve_covering_lp(g.n, cols)
    primal = FractionalColouring(
        g, {cols[i]: x[i] for i in range(len(cols)) if x[i] > 0})
    dual = {v: y[v] for v in range(g.n)}
    return value, primal, dual


def _solve_covering_lp(n: int, cols: list[int]):
    """Solve min Σx : Σ_{I∋v} x_I ≥ 1, x ≥ 0 through its dual, over the
    independent sets given as the vertex masks ``cols``.

    The dual — maximize Σy over Σ_{v∈I} y_v ≤ 1, y ≥ 0 — starts feasible
    at the slack basis, so a single-phase simplex with Bland's rule
    suffices; the primal optimum is read off the slack reduced costs.

    The tableau is condensed: one row per column set plus the objective
    row, one column per nonbasic variable plus the right-hand side, with
    labels naming the variable of each row and column (variable v < n is
    y_v, variable n + i the slack of set i).  Each row holds ints over
    its own positive denominator (``_pivot``), so every sign test reads
    as on the rational tableau, and the ratio test, scale-free within a
    row, compares rhs_i / a_i with rhs_r / a_r as rhs_i * a_r against
    rhs_r * a_i, both a positive, ties going to the smaller basic label.
    After every pivot each denominator must be positive, each basic
    row's rhs nonnegative and the objective no smaller than before; the
    pivot that breaks one raises ``RuntimeError``.  The answer is
    cross-examined (``_cross_examine``) before it is returned.
    """
    m = len(cols)
    rows = [[s >> v & 1 for v in range(n)] + [1] for s in cols] + [[1] * n + [0]]
    dens = [1] * (m + 1)
    basic, nonbasic = list(range(n, n + m)), list(range(n))
    objective = rows[m]
    while True:
        enter = min(((nonbasic[j], j) for j in range(n) if objective[j] > 0),
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
        # the objective is -objective[n] / dens[m]
        before = objective[n], dens[m]
        _pivot(rows, dens, r, c)
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
        objective = rows[m]
        if min(dens) <= 0:
            raise RuntimeError("pivot left a denominator that is not positive")
        if any(rows[i][n] < 0 for i in range(m)):
            raise RuntimeError("pivot left a basic variable negative")
        if objective[n] * before[1] > before[0] * dens[m]:
            raise RuntimeError("pivot decreased the objective")

    # basic variables sit at their rhs; nonbasic slacks give x as -cost
    at = {b: Fraction(rows[i][n], dens[i]) for i, b in enumerate(basic)}
    cost = {b: Fraction(-objective[j], dens[m]) for j, b in enumerate(nonbasic)}
    y = [at.get(v, Fraction(0)) for v in range(n)]
    x = [cost.get(n + i, Fraction(0)) for i in range(m)]
    value = Fraction(-objective[n], dens[m])
    _cross_examine(n, cols, value, y, x)
    return value, y, x


def _pivot(rows, dens, r, c):
    """Pivot the tableau ``rows`` over the denominators ``dens`` on the
    entry p of row ``r`` in column ``c``.  Row r keeps its ints and goes
    over p, with column c set to its old denominator d_r.  A row whose
    entry f in column c is 0 is left as it is.  Every other row i is
    rewritten as (a·p − f·b) over d_i·p, b the entries of row r, with
    column c set to −f·d_r, and divided by the gcd of its entries and its
    denominator."""
    pivot_row, p, d_r = rows[r], rows[r][c], dens[r]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            new = [a * p - f * b for a, b in zip(row, pivot_row)]
            new[c] = -f * d_r
            den = dens[i] * p
            g = math.gcd(den, *new)
            if g > 1:
                new = [e // g for e in new]
                den //= g
            rows[i], dens[i] = new, den
    pivot_row[c] = d_r
    dens[r] = p


def _cross_examine(n, cols, value, y, x):
    """Check that ``(value, y, x)`` is optimal for the covering LP over
    ``cols``, in integers over the common denominator D of x and y: x
    covers every vertex, both objectives equal ``value``, y is at most 1
    on every set, and complementary slackness holds on both sides.
    Raises ``RuntimeError``, an internal defect, when a check fails."""
    D = math.lcm(*(q.denominator for q in (*x, *y)))
    X = [q.numerator * (D // q.denominator) for q in x]
    Y = [q.numerator * (D // q.denominator) for q in y]
    weighted = [(s, w) for s, w in zip(cols, X) if w > 0]
    cover = [sum(w for s, w in weighted if s >> v & 1) for v in range(n)]
    if any(c < D for c in cover):
        raise RuntimeError("optimal weighting fails the covering constraints")
    if sum(w for _, w in weighted) != value * D or sum(Y) != value * D:
        raise RuntimeError("primal and dual objectives disagree")
    for s in cols:
        if sum(Y[v] for v in range(n) if s >> v & 1) > D:
            raise RuntimeError("dual exceeds 1 on an independent set")
    for s, _ in weighted:
        if sum(Y[v] for v in range(n) if s >> v & 1) != D:
            raise RuntimeError("slack set carries weight")
    for v in range(n):
        if Y[v] > 0 and cover[v] != D:
            raise RuntimeError("overcovered vertex carries dual weight")


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
    copies are listed in the order of each set's sorted vertices, and
    each is turned from its vertex mask into a vertex set here, once.
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
    for s in sorted(w.weights, key=mask_vertices):
        sets += [s] * int(w.weights[s] * N)
    for v in range(g.n):
        cover = sum(s >> v & 1 for s in sets)
        if cover < N:
            raise ColouringError(
                f"vertex {v} gathers weight {Fraction(cover, N)} < 1"
            )
        excess = cover - N
        i = 0
        while excess:
            if sets[i] >> v & 1:
                sets[i] ^= 1 << v
                excess -= 1
            i += 1
    frozen = {s: frozenset(mask_vertices(s)) for s in set(sets)}
    return MultisetCertificate(g.n, N, tuple(map(frozen.__getitem__, sets)))


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


def _merge_on_bridges(n: int, parts: list, bridges: list) -> MultisetCertificate:
    """Combine the certificates ``parts`` of a graph cut at ``bridges``,
    bridge i = (x1, x2) joining x1 in part i to x2 in a later part.

    The parts merge from the last back to the first.  Each merge repeats
    both sides up to N = lcm of their N and pads them with empty sets to a
    common count.  Then one pass deals the merged side's sets to the
    indices so that no set holding x2 lands where the part's set holds
    x1: a set holding x2 stays where the part's set lacks x1; the sets
    holding x2 at indices whose part's set holds x1 move, in order, to the
    first indices whose part's set lacks x1 and whose set lacks x2; every
    other index takes the next set that lacks x2.  Each index keeps its
    parts' sets apart, with the bridge ends they hold, and unites them
    once, at the end; the unions are independent.
    """
    ends = {x2 for _, x2 in bridges}
    *parts, last = parts
    N = last.N
    merged = [([s], set(s & ends)) for s in last.sets]
    for a, (x1, x2) in zip(reversed(parts), reversed(bridges)):
        ab_N = math.lcm(a.N, N)
        count = max(len(a.sets) * (ab_N // a.N), len(merged) * (ab_N // N), 2 * ab_N)
        if count > DEFAULT_MAX_MULTISET:
            raise GuardExceeded(
                f"bridge merge would hold {count} sets (> {DEFAULT_MAX_MULTISET})"
            )
        a_sets = (a.sets * (ab_N // a.N) + (frozenset(),) * count)[:count]
        b_sets = merged + [(list(sets), set(held))
                           for _ in range(ab_N // N - 1) for sets, held in merged]
        b_sets += [([], set()) for _ in range(count - len(b_sets))]
        movers = sum(x2 in held for _, held in b_sets)
        free = sum(x1 not in s for s in a_sets)
        if movers > free:
            raise MergeFailure(
                f"cannot separate bridge ({x1}, {x2}): {movers} sets to "
                f"place, {free} indices available"
            )
        moving = iter([t for s, t in zip(a_sets, b_sets) if x1 in s and x2 in t[1]])
        rest = (t for t in b_sets if x2 not in t[1])
        merged = []
        for s, t in zip(a_sets, b_sets):
            if x1 in s:
                t = next(rest)
            elif x2 not in t[1]:
                t = next(moving, None) or next(rest)
            if s:
                t[0].append(s)
                t[1].update(s & ends)
            merged.append(t)
        N = ab_N
    return MultisetCertificate(n, N, tuple(frozenset().union(*sets) for sets, _ in merged))


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
    support = sorted(dist.pmf.items())
    best = {}
    for mask, p in support:
        for v in mask_vertices(mask):
            if v not in best or p > best[v][0]:
                best[v] = (p, mask)
    pool = {mask for _, mask in best.values()}
    while True:
        cols = [mask for mask, _ in support if mask in pool]
        _, y, x = _solve_covering_lp(g.n, cols)
        # the dual over one common denominator d: a set is priced in if its
        # weight exceeds d
        d = math.lcm(*(q.denominator for q in y))
        weight = [int(q * d) for q in y]
        priced = sorted((-sum(weight[v] for v in mask_vertices(mask)), mask)
                        for mask, _ in support if mask not in pool)
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
        parts = [_relabel(_certificate_for(child, leaves, **enum_kw), n, vmap)
                 for child, vmap in zip(step.children, step.child_maps)]
        return _merge_on_bridges(n, parts, step.detail["bridges"])
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
