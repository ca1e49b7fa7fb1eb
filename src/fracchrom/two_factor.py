"""Two-factor selection, certification and cycle navigation.

A two-factor F is a spanning collection of disjoint cycles; its complement M
(in a cubic graph) is a perfect matching.  The selection rule implemented by
`select_two_factor` keeps only two-factors whose edges meet every
inclusionwise minimal edge-cut of size 3 or 4 (the cut condition of Kaiser
and Škrekovski), and among those maximizes the number of cycles (ties broken
by lexicographically smallest matching).  F meets a cut exactly when the cut
does not lie wholly inside M; `_meets_cuts` is the one place that tests it.
The cuts of a graph are searched once and kept in its ``derived`` slot.

The cut search follows Pritchard & Thulasiraman ("Fast computation of small
cuts via cycle space sampling", ACM Trans. Algorithms 7(4), 2011).  Every
edge gets a 64-bit label whose bits, read across the edges, are random
elements of the cycle space, drawn from a spanning tree with a fixed seed.
A cycle crosses an edge cut an even number of times, so the labels of every
edge cut XOR to 0; the 3- and 4-sets that XOR to 0 are found from label
lookups and pair-XOR collisions in O(m^2) expected time, and a set that is
not a cut (probability 2^-64 per set) is dropped by the bond test below.

Minimality of a cut is decided by the bond test: a disconnecting edge set C
of a connected graph is inclusionwise minimal iff every edge of C has exactly
one endpoint in S, the component of vertex 0 in G - C, and V - S is connected
in G - C.  Then G - C has exactly two components and every edge of C joins
them, so putting back any one edge reconnects the graph.  Every candidate is
confirmed this way, so the cut list does not depend on the labels.

Everything downstream navigates cycles through `TwoFactor`: mates (matching
partners), signed steps along a cycle, forward distances and subpaths.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph_core import Graph, GraphError, GuardExceeded, analyze, reach


_LABEL_SEED = 0x6672616363687230  # fixes the labels; the cuts do not depend on it


class TwoFactorError(ValueError):
    """Structurally invalid two-factor data."""


class NoQualifyingTwoFactor(RuntimeError):
    """No enumerated two-factor meets the cut condition (bad input class)."""


class TwoFactor:
    """Immutable two-factor of a cubic graph, given by its complementary
    perfect matching.

    The matching is the one input: its edges must be edges of the graph,
    pairwise disjoint and cover every vertex, and the cycles are derived
    as what the matching leaves of the graph, which must be 2-regular.
    Cycles are stored in canonical orientation: each cycle starts at its
    minimum vertex and proceeds toward the larger-id of that vertex's two
    cycle neighbours; cycles are sorted by their starting vertex.
    ``derived`` keeps results computed from the two-factor (its exact law
    and trial tables in `sampler`); it takes no part in equality or
    hashing.
    """

    __slots__ = (
        "graph",
        "cycles",
        "mate",
        "cycle_of",
        "pos",
        "f_edges",
        "m_edges",
        "derived",
    )

    def __init__(self, g: Graph, matching: Iterable[tuple[int, int]]):
        self.graph = g
        n = g.n

        mate = [-1] * n
        m_edges = set()
        for u, v in matching:
            if not g.has_edge(u, v):
                raise TwoFactorError(f"matching edge ({u}, {v}) not in graph")
            if mate[u] != -1 or mate[v] != -1:
                raise TwoFactorError(f"matching is not a matching at ({u}, {v})")
            mate[u], mate[v] = v, u
            m_edges.add((min(u, v), max(u, v)))
        if any(x == -1 for x in mate):
            missing = mate.index(-1)
            raise TwoFactorError(f"matching is not perfect (vertex {missing})")

        # _complement_cycles starts each cycle at its least vertex and lists
        # the cycles in that order, so they come out sorted
        self.cycles = tuple(
            self._canonicalize(c) for c in _complement_cycles(g, m_edges))
        self.mate = tuple(mate)
        cycle_of = [-1] * n
        pos = [-1] * n
        for ci, cyc in enumerate(self.cycles):
            for i, u in enumerate(cyc):
                cycle_of[u] = ci
                pos[u] = i
        self.cycle_of = tuple(cycle_of)
        self.pos = tuple(pos)
        self.m_edges = frozenset(m_edges)
        self.f_edges = frozenset(g.edges) - self.m_edges
        self.derived = {}

    @staticmethod
    def _canonicalize(cyc: list[int]) -> tuple[int, ...]:
        k = cyc.index(min(cyc))
        rot = cyc[k:] + cyc[:k]
        # orient toward the larger of the start's two cycle neighbours
        if rot[1] < rot[-1]:
            rot = [rot[0]] + rot[:0:-1]
        return tuple(rot)

    # -- navigation helpers --------------------------------------------------

    def step(self, u: int, k: int) -> int:
        """Vertex reached from u by k signed steps along its cycle."""
        cyc = self.cycles[self.cycle_of[u]]
        return cyc[(self.pos[u] + k) % len(cyc)]

    def forward_dist(self, x: int, y: int) -> int:
        """Number of cycle edges from x forward to y (same cycle required)."""
        if self.cycle_of[x] != self.cycle_of[y]:
            raise TwoFactorError(f"{x} and {y} lie on different cycles")
        L = len(self.cycles[self.cycle_of[x]])
        return (self.pos[y] - self.pos[x]) % L

    def forward_path(self, x: int, y: int) -> tuple[int, ...]:
        """Vertices from x forward to y inclusive (whole cycle when x == y
        is *not* implied: x == y yields the single vertex)."""
        d = self.forward_dist(x, y)
        cyc = self.cycles[self.cycle_of[x]]
        L = len(cyc)
        p = self.pos[x]
        return tuple(cyc[(p + i) % L] for i in range(d + 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwoFactor)
            and self.graph == other.graph
            and self.cycles == other.cycles
            and self.mate == other.mate
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.cycles, self.mate))

    def __repr__(self) -> str:
        return f"TwoFactor(cycles={[len(c) for c in self.cycles]})"


def _complement_cycles(g: Graph, m_set) -> list[list[int]]:
    """Trace the cycles of g minus the matching edges ``m_set`` (sorted
    pairs); the complement must be 2-regular."""
    f_adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        if (u, v) not in m_set:
            f_adj[u].append(v)
            f_adj[v].append(u)
    if any(len(a) != 2 for a in f_adj):
        bad = next(v for v in range(g.n) if len(f_adj[v]) != 2)
        raise TwoFactorError(
            f"complement of matching is not 2-regular at vertex {bad}"
        )
    cycles = []
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        prev, cur = -1, start
        while True:
            nxt = f_adj[cur][0] if f_adj[cur][0] != prev else f_adj[cur][1]
            if nxt == start:
                break
            cyc.append(nxt)
            seen[nxt] = True
            prev, cur = cur, nxt
        cycles.append(cyc)
    return cycles


# ---------------------------------------------------------------------------
# Matching enumeration


def enumerate_perfect_matchings(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings as sorted edge tuples, by backtracking on the
    lowest unmatched vertex."""
    n = g.n
    if n % 2:
        return []
    out: list[tuple[tuple[int, int], ...]] = []
    matched = [False] * n
    cur: list[tuple[int, int]] = []

    def rec() -> None:
        u = next((v for v in range(n) if not matched[v]), None)
        if u is None:
            out.append(tuple(sorted(cur)))
            return
        matched[u] = True
        for w in g.adj[u]:
            if matched[w]:
                continue
            matched[w] = True
            cur.append((min(u, w), max(u, w)))
            rec()
            cur.pop()
            matched[w] = False
        matched[u] = False

    rec()
    return out


# ---------------------------------------------------------------------------
# Small minimal cuts


@dataclass(frozen=True)
class EdgeCut:
    edges: tuple[tuple[int, int], ...]
    side: tuple[int, ...]  # component of vertex 0 after removal


def _cycle_space_labels(g: Graph) -> Optional[list[int]]:
    """A 64-bit label per edge index whose every bit, read across the edges,
    is a random element of the cycle space of the connected graph g; None
    when g is disconnected.

    Each non-tree edge of a BFS tree from vertex 0 draws a random label
    (bit b says whether its fundamental cycle is in the b-th sample); a
    tree edge carries the XOR of the labels of the non-tree edges with
    exactly one endpoint in the subtree below it, i.e. of the fundamental
    cycles through it.
    """
    n = g.n
    index = {e: i for i, e in enumerate(g.edges)}
    parent = [-1] * n
    parent_edge = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for u in order:
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                parent_edge[w] = index[(min(u, w), max(u, w))]
                order.append(w)
    if len(order) != n:
        return None
    tree = set(parent_edge[1:])
    rng = random.Random(_LABEL_SEED)
    labels = [0] * g.m
    below = [0] * n  # XOR of the labels leaving the subtree of each vertex
    for i, (u, v) in enumerate(g.edges):
        if i not in tree:
            labels[i] = rng.getrandbits(64)
            below[u] ^= labels[i]
            below[v] ^= labels[i]
    for v in reversed(order[1:]):
        labels[parent_edge[v]] = below[v]
        below[parent[v]] ^= below[v]
    return labels


def _zero_xor_sets(labels: list[int], keep: list[int]) -> list[tuple[int, ...]]:
    """Every 3- and 4-set of the edge indices in ``keep`` (increasing) whose
    labels XOR to 0, each as an increasing tuple, sorted by (size, tuple)."""
    by_label: dict[int, list[int]] = {}
    for i in keep:
        by_label.setdefault(labels[i], []).append(i)
    by_pair: dict[int, list[tuple[int, int]]] = {}
    found = []
    for a, i in enumerate(keep):
        for j in keep[a + 1:]:
            x = labels[i] ^ labels[j]
            found.extend((i, j, k) for k in by_label.get(x, ()) if k > j)
            by_pair.setdefault(x, []).append((i, j))
    # pairs are listed in increasing order, so {a,b,c,d} with a<b<c<d is
    # found once, as the split (a,b) | (c,d)
    for pairs in by_pair.values():
        found.extend((a, b, c, d)
                     for (a, b), (c, d) in itertools.combinations(pairs, 2)
                     if b < c)
    found.sort(key=lambda t: (len(t), t))
    return found


def _disconnects(g: Graph, removed: frozenset) -> bool:
    return len(reach(g, 0, removed)) < g.n


def minimal_small_cuts(g: Graph) -> list[EdgeCut]:
    """All inclusionwise minimal edge-cuts of size 3 or 4, in the order of
    ``itertools.combinations(g.edges, size)`` for size 3, then 4.

    Candidates are the 3- and 4-sets whose cycle-space labels XOR to 0
    (Pritchard & Thulasiraman, ACM Trans. Algorithms 7(4), 2011): every
    edge cut does, so none is missed, and each candidate is confirmed by
    the bond test (see the module docstring), so the list never depends
    on the labels.  A minimal cut holds no bridge and not both edges of a
    2-edge-cut, as that smaller set already disconnects the graph.  Every
    bridge has label 0, and an edge of label 0 is confirmed as a bridge
    against the bridge list of ``analyze`` (so a graph with no such edge
    is not searched for bridges); both edges of a 2-edge-cut have equal
    labels, so each such pair is confirmed once.  Those edges are left
    out before the bond test.  O(m^2) expected.
    """
    if g.n > 64:
        raise GuardExceeded("minimal_small_cuts guard: n <= 64")
    if g.n <= 1:
        return []
    labels = _cycle_space_labels(g)
    if labels is None:
        raise GraphError("minimal_small_cuts requires a connected graph")
    bridges = {i for i, x in enumerate(labels)
               if x == 0 and g.edges[i] in analyze(g).bridge_list}
    by_label: dict[int, list[int]] = {}
    for i, x in enumerate(labels):
        if x != 0:
            by_label.setdefault(x, []).append(i)
    two_cuts = {pair for same in by_label.values()
                for pair in itertools.combinations(same, 2)
                if _disconnects(g, frozenset(g.edges[i] for i in pair))}
    keep = [i for i in range(g.m) if i not in bridges]
    cuts: list[EdgeCut] = []
    for idx in _zero_xor_sets(labels, keep):
        if any(pair in two_cuts for pair in itertools.combinations(idx, 2)):
            continue
        combo = tuple(g.edges[i] for i in idx)
        removed = frozenset(combo)
        side = reach(g, 0, removed)
        if len(side) == g.n:
            continue
        if any((u in side) == (v in side) for u, v in combo):
            continue
        other = next(v for v in range(g.n) if v not in side)
        if len(side) + len(reach(g, other, removed)) == g.n:
            cuts.append(EdgeCut(edges=combo, side=tuple(sorted(side))))
    return cuts


def _cut_sets(g: Graph) -> tuple[frozenset, ...]:
    """The edge sets of the cuts of ``minimal_small_cuts(g)`` that a
    matching could lie wholly inside, searched once per graph and kept on
    it.  A cut whose side or other side has at most two vertices is left
    out: that side is one vertex (its star) or an edge, so at least two cut
    edges share a vertex and no matching holds them both."""
    cuts = g.derived.get("cuts")
    if cuts is None:
        cuts = g.derived["cuts"] = tuple(
            frozenset(c.edges) for c in minimal_small_cuts(g)
            if 2 < len(c.side) < g.n - 2)
    return cuts


def _meets_cuts(m_edges, cuts) -> bool:
    """The cut test: True iff no cut lies wholly inside the matching
    ``m_edges``, i.e. the complementary cycles meet every cut."""
    return not any(cut <= m_edges for cut in cuts)


def satisfies_ks_condition(g: Graph, tf: TwoFactor) -> bool:
    """True iff the cycle edges meet every minimal edge-cut of size 3 or 4."""
    return _meets_cuts(tf.m_edges, _cut_sets(g))


# ---------------------------------------------------------------------------
# Selection


def select_two_factor(
    g: Graph, cycle_edge: Optional[tuple[int, int]] = None
) -> TwoFactor:
    """Exhaustively pick a qualifying two-factor with the maximum number of
    cycles; ties go to the lexicographically smallest matching edge set.

    With ``cycle_edge`` only two-factors whose cycles contain that edge
    compete, i.e. matchings holding it are skipped.
    """
    if not (g.n and all(d == 3 for d in g.degrees())):
        raise GraphError("select_two_factor requires a cubic graph")
    if g.n > 64:
        raise GuardExceeded("select_two_factor guard: n <= 64")
    cuts = _cut_sets(g)
    kept = None if cycle_edge is None else (min(cycle_edge), max(cycle_edge))
    best: Optional[tuple[int, tuple]] = None
    for matching in enumerate_perfect_matchings(g):
        m_set = frozenset(matching)
        if kept in m_set or not _meets_cuts(m_set, cuts):
            continue
        key = (-len(_complement_cycles(g, m_set)), matching)
        if best is None or key < best:
            best = key
    if best is None:
        if kept is not None:
            raise NoQualifyingTwoFactor(
                f"no qualifying two-factor keeps edge {kept} on its cycles"
            )
        raise NoQualifyingTwoFactor(
            "no two-factor meets the minimal-cut condition"
        )
    return TwoFactor(g, best[1])


# ---------------------------------------------------------------------------
# JSON round trip


def two_factor_to_json_dict(tf: TwoFactor) -> dict:
    return {
        "cycles": [list(c) for c in tf.cycles],
        "matching": sorted([min(u, v), max(u, v)] for u, v in enumerate(tf.mate) if u < v),
    }


def two_factor_from_json_dict(g: Graph, data: dict) -> TwoFactor:
    """Read back the shape `two_factor_to_json_dict` writes.

    The matching is the input: the two-factor is built from it alone, and
    the file's ``cycles`` must then be the cycles it leaves, each in any
    rotation or direction and the list in any order.  The input comes
    from outside, so every vertex id must be an int naming a vertex of
    ``g``; a float, string or bool is refused, not converted.
    """
    try:
        cycles = [list(c) for c in data["cycles"]]
        matching = [(u, v) for u, v in data["matching"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TwoFactorError(f"malformed two-factor JSON: {exc}") from None
    for x in itertools.chain(*cycles, *matching):
        if type(x) is not int or not 0 <= x < g.n:
            raise TwoFactorError(
                f"malformed two-factor JSON: {x!r} is not a vertex of the graph")
    tf = TwoFactor(g, matching)
    # a cycle shorter than 3 has no canonical form
    if (any(len(c) < 3 for c in cycles)
            or sorted(map(TwoFactor._canonicalize, cycles)) != list(tf.cycles)):
        raise TwoFactorError(
            "malformed two-factor JSON: cycles are not the ones the matching leaves")
    return tf
