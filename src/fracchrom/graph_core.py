"""Graph representation, structure analysis and subcubic reductions.

Vertices are dense integers 0..n-1.  Adjacency is kept both as sorted
neighbour tuples and as per-vertex bitmasks, which is what the exact
enumeration engines operate on.  A vertex set as a mask has bit v set for
each member v; `vertex_mask` and `mask_vertices` convert between the two,
and `reach` is the one search for the component of a vertex after removing
edges.  A `Graph` is immutable after construction and safe to share across
threads, except for ``derived``: results computed from the graph (its
structure report and small cuts), kept as long as the graph lives.
Threads asking at once may each compute one; they are equal.

The reduction machinery (`reduce_subcubic`) turns a connected subcubic graph
into a tree of constructions whose leaves are cubic graphs, recording vertex
maps so that colourings of the leaves can be pulled back mechanically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Malformed graph input or violated structural precondition."""


class GuardExceeded(RuntimeError):
    """A configured size guard was exceeded (desk-scale limits)."""


# the most vertices an edge-list header may declare; the graph is built
# at the declared size, so this bounds the memory a small file can claim
MAX_EDGE_LIST_VERTICES = 1 << 16


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``derived`` keeps results computed from the graph; it takes no part in
    equality or hashing.
    """

    __slots__ = ("n", "edges", "adj", "adj_mask", "derived", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        seen = set()
        canon = []
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex index out of range in edge {e!r}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        self.edges = tuple(canon)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in canon:
            lists[u].append(v)
            lists[v].append(u)
        self.adj = tuple(tuple(sorted(l)) for l in lists)
        masks = [0] * n
        for u, v in canon:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adj_mask = tuple(masks)
        self.derived = {}
        self._hash = hash((n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def is_vertex_id(x) -> bool:
    """True iff ``x`` can name a vertex: an int, not a bool, not negative."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def check_vertex(g: Graph, u) -> None:
    """Refuse ``u`` with `GraphError` unless it is a vertex of ``g``."""
    if not (is_vertex_id(u) and u < g.n):
        raise GraphError(f"vertex {u!r} out of range: not an int in [0, {g.n})")


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask with bit v set for each v in ``vertices``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_vertices(mask: int) -> list[int]:
    """The vertices of ``mask`` in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reach(g: Graph, start: int, removed: frozenset = frozenset()) -> set[int]:
    """Vertex set of the component of ``start`` in g minus the edges
    ``removed`` (sorted pairs)."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen and (min(u, w), max(u, w)) not in removed:
                seen.add(w)
                stack.append(w)
    return seen


# ---------------------------------------------------------------------------
# Text formats


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first line ``n m``, then m lines ``u v``.

    Blank lines and lines starting with ``#`` are ignored.  Errors carry the
    1-based line number of the offending input line.  A header declaring
    more than ``MAX_EDGE_LIST_VERTICES`` vertices raises `GuardExceeded`.
    """
    lines = text.splitlines()
    header = None
    header_no = 0
    rows: list[tuple[int, str]] = []
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if header is None:
            header = s
            header_no = i
        else:
            rows.append((i, s))
    if header is None:
        raise GraphError("empty edge-list text")
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"line {header_no}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {header_no}: header must be two integers") from None
    if n < 0 or m < 0:
        raise GraphError(f"line {header_no}: negative count in header")
    if n > MAX_EDGE_LIST_VERTICES:
        raise GuardExceeded(
            f"line {header_no}: header declares {n} vertices (> {MAX_EDGE_LIST_VERTICES})")
    if len(rows) != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows)}")
    edges = []
    seen = set()
    for lineno, s in rows:
        toks = s.split()
        if len(toks) != 2:
            raise GraphError(f"line {lineno}: expected two integers")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphError(f"line {lineno}: expected two integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: vertex index out of range")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def to_edge_list_text(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def parse_graph6(text: str) -> Graph:
    """Decode one graph in graph6 format (short form, n <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphError("empty graph6 text")
    try:
        data = s.encode("ascii") if isinstance(s, str) else s
    except UnicodeEncodeError:
        raise GraphError("graph6 text is not ASCII") from None
    first = data[0] - 63
    if data[0] == 0x7E:  # '~' introduces the long form
        raise GraphError("graph6 long form (n > 62) not supported")
    if not (0 <= first <= 62):
        raise GraphError(f"bad graph6 header byte {data[0]!r}")
    n = first
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise GraphError("truncated graph6 bit field")
    if len(body) > nbytes:
        raise GraphError("trailing data after graph6 bit field")
    bits = []
    for b in body:
        x = b - 63
        if not (0 <= x <= 63):
            raise GraphError(f"bad graph6 data byte {b!r}")
        for k in range(5, -1, -1):
            bits.append((x >> k) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode in graph6 short form (requires n <= 62)."""
    if g.n > 62:
        raise GraphError("graph6 short form supports n <= 62 only")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        x = 0
        for b in bits[k : k + 6]:
            x = (x << 1) | b
        out.append(chr(x + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# Structure analysis


@dataclass(frozen=True)
class StructureReport:
    """Validation flags plus witnesses, JSON-serializable."""

    n: int
    m: int
    is_connected: bool
    is_subcubic: bool
    is_cubic: bool
    is_triangle_free: bool
    is_bridgeless: bool
    triangle_witness: Optional[tuple[int, int, int]]
    bridge_list: tuple[tuple[int, int], ...]
    block_decomposition: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "is_connected": self.is_connected,
            "is_subcubic": self.is_subcubic,
            "is_cubic": self.is_cubic,
            "is_triangle_free": self.is_triangle_free,
            "is_bridgeless": self.is_bridgeless,
            "triangle_witness": list(self.triangle_witness)
            if self.triangle_witness
            else None,
            "bridge_list": [list(e) for e in self.bridge_list],
            "block_decomposition": [list(b) for b in self.block_decomposition],
        }


def _find_triangle(g: Graph) -> Optional[tuple[int, int, int]]:
    for u, v in g.edges:
        nu = set(g.adj[u])
        for w in g.adj[v]:
            if w != u and w in nu:
                return tuple(sorted((u, v, w)))  # type: ignore[return-value]
    return None


def _blocks_and_bridges(
    g: Graph,
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Iterative biconnected-component decomposition (Hopcroft–Tarjan)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    blocks: list[tuple[int, ...]] = []
    bridges: list[tuple[int, int]] = []

    for root in range(n):
        if disc[root] != -1:
            continue
        if not g.adj[root]:  # isolated vertex: a trivial block of its own
            disc[root] = timer
            timer += 1
            blocks.append((root,))
            continue
        # Frame: [vertex, parent, next-neighbour index, parent edge skipped?]
        stack: list[list] = [[root, -1, 0, False]]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            frame = stack[-1]
            u = frame[0]
            if frame[2] < len(g.adj[u]):
                w = g.adj[u][frame[2]]
                frame[2] += 1
                if w == frame[1] and not frame[3]:
                    frame[3] = True  # skip the single tree edge to the parent
                    continue
                if disc[w] == -1:
                    edge_stack.append((u, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, u, 0, False])
                elif disc[w] < disc[u]:
                    edge_stack.append((u, w))
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    # p closes a block: pop up to and including tree edge (p,u).
                    verts: set[int] = set()
                    nedges = 0
                    while True:
                        a, b = edge_stack.pop()
                        nedges += 1
                        verts.add(a)
                        verts.add(b)
                        if (a, b) == (p, u):
                            break
                    blocks.append(tuple(sorted(verts)))
                    if nedges == 1:
                        bridges.append((min(p, u), max(p, u)))
    blocks.sort()
    bridges.sort()
    return blocks, bridges


def analyze(g: Graph) -> StructureReport:
    """All class flags, bridges and blocks for ``g``, computed once and
    kept in ``g.derived`` (the report is frozen)."""
    report = g.derived.get("report")
    if report is not None:
        return report
    degs = g.degrees()
    is_subcubic = all(d <= 3 for d in degs)
    is_cubic = g.n > 0 and all(d == 3 for d in degs)
    witness = _find_triangle(g)
    blocks, bridges = _blocks_and_bridges(g)
    report = g.derived["report"] = StructureReport(
        n=g.n,
        m=g.m,
        is_connected=g.n == 0 or len(reach(g, 0)) == g.n,
        is_subcubic=is_subcubic,
        is_cubic=is_cubic,
        is_triangle_free=witness is None,
        is_bridgeless=not bridges,
        triangle_witness=witness,
        bridge_list=tuple(bridges),
        block_decomposition=tuple(blocks),
    )
    return report


# ---------------------------------------------------------------------------
# Subcubic reductions


@dataclass(frozen=True)
class ReductionStep:
    """One node of the reduction tree.

    kind:
      - ``none``: leaf; ``detail['leaf']`` is one of ``cubic-bridgeless``,
        ``one-bridge`` (the doubled single-degree-2 construction, which keeps
        its connecting edge) or ``trivial`` (n <= 3).
      - ``bridge-split``: the graph cut at its bridges; the children are
        its bridge-free parts in the order they were split off, then the
        rest (which keeps its bridges if it has at most 3 vertices), each
        mapped straight into this graph.
        ``detail['bridges'][i]`` is the bridge that split off child i, as
        (end in child i, other end), in this graph's labels.
      - ``degree2-double``: one child, two copies joined at degree-2 copies.
      - ``degree2-single``: one child, two copies joined at the unique
        degree-2 vertex.

    ``child_maps[i][v]`` is the parent vertex that child vertex ``v``
    projects to.
    """

    kind: str
    graph: Graph
    children: tuple["ReductionStep", ...] = ()
    child_maps: tuple[tuple[int, ...], ...] = ()
    detail: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.kind == "none"

    def leaves(self) -> Iterator["ReductionStep"]:
        if self.is_leaf:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()


def _double_graph(g: Graph, link_vertices: Sequence[int]) -> Graph:
    """Two disjoint copies of g plus an edge between the copies of each
    vertex in ``link_vertices`` (copy ids: v and n+v)."""
    n = g.n
    edges = list(g.edges)
    edges += [(u + n, v + n) for u, v in g.edges]
    edges += [(v, v + n) for v in link_vertices]
    return Graph(2 * n, edges)


def suppress_vertex(g: Graph, v0: int) -> tuple[Graph, tuple[int, ...]]:
    """Remove a degree-2 vertex and join its two neighbours by an edge.

    Returns the smaller graph and a map new-id -> old-id.  Requires the
    neighbours to be non-adjacent (guaranteed for triangle-free input).
    """
    if g.degree(v0) != 2:
        raise GraphError(f"vertex {v0} does not have degree 2")
    a, b = g.adj[v0]
    if g.has_edge(a, b):
        raise GraphError("suppression would create a multi-edge")
    old_ids = [v for v in range(g.n) if v != v0]
    new_of = {old: new for new, old in enumerate(old_ids)}
    edges = [
        (new_of[u], new_of[v]) for u, v in g.edges if v0 not in (u, v)
    ]
    edges.append((new_of[a], new_of[b]))
    return Graph(g.n - 1, edges), tuple(old_ids)


def _induced(g: Graph, verts: list[int]) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph on the sorted vertices ``verts``, relabelled in order,
    and its map back to g; walks only the adjacency of ``verts``."""
    new_of = {old: new for new, old in enumerate(verts)}
    edges = [(new_of[u], new_of[w]) for u in verts for w in g.adj[u]
             if u < w and w in new_of]
    return Graph(len(verts), edges), tuple(verts)


def _bridge_splits(g: Graph, bridges: Sequence[tuple[int, int]]):
    """Split g at its sorted ``bridges``, a leaf of the bridge tree at a time.

    A part is a component of g minus its bridges.  While more than 3
    vertices and some bridge are left, the least bridge whose smaller end
    lies in a leaf part of what is left splits that part off, else the
    least whose larger end does.  Returns the vertex lists of the split
    parts in order, then of the rest, and each split bridge as (end in
    its part, other end).
    """
    part, members, removed = [-1] * g.n, [], frozenset(bridges)
    for v in range(g.n):
        if part[v] == -1:
            members.append(sorted(reach(g, v, removed)))
            for u in members[-1]:
                part[u] = len(members) - 1
    # per part, its bridge count and the xor of their indices: the index
    # of its one bridge once it is a leaf
    degree, link = [0] * len(members), [0] * len(members)
    for i, ends in enumerate(bridges):
        for x in ends:
            degree[part[x]] += 1
            link[part[x]] ^= i
    # (leaf part at the larger end?, bridge); the rest stays a tree, so a
    # bridge is queued from both ends only when it is the last one
    leaves = []

    def queue(p):
        heapq.heappush(leaves, (part[bridges[link[p]][0]] != p, link[p]))

    for p in range(len(members)):
        if degree[p] == 1:
            queue(p)
    order, split, left = [], [], g.n
    while left > 3 and len(split) < len(bridges):
        larger, i = heapq.heappop(leaves)
        x1, x2 = bridges[i][::-1] if larger else bridges[i]
        order.append(part[x1])
        split.append((x1, x2))
        left -= len(members[part[x1]])
        degree[part[x2]] -= 1
        link[part[x2]] ^= i
        if degree[part[x2]] == 1:
            queue(part[x2])
    done = set(order)
    rest = [v for v in range(g.n) if part[v] not in done]
    return [members[p] for p in order] + [rest], split


def reduce_subcubic(g: Graph) -> ReductionStep:
    """Reduction tree for a connected subcubic graph.

    Applies, in order: (a) split at the bridges, a bridge-free part at a
    time (`_bridge_splits`), into one ``bridge-split`` node; (b) if at
    least two degree-2 vertices exist, join two copies at all of them;
    (c) if exactly one degree-2 vertex exists, join two copies at it (the
    resulting leaf keeps that single connecting edge and is flagged
    ``one-bridge``).  Graphs on at most 3 vertices are trivial leaves.
    Each part's graph is built once, from the bridges `analyze` finds, so
    the graphs of the tree hold at most 4n vertices in all.
    """
    report = analyze(g)
    if not report.is_connected:
        raise GraphError("reduce_subcubic requires a connected graph")
    if not report.is_subcubic:
        raise GraphError("reduce_subcubic requires a subcubic graph")
    parts, split = _bridge_splits(g, report.bridge_list)
    if not split:
        return _reduce_bridgeless(g)
    graphs, maps = zip(*(_induced(g, verts) for verts in parts))
    return ReductionStep("bridge-split", g, children=tuple(map(_reduce_bridgeless, graphs)),
                         child_maps=maps, detail={"bridges": tuple(split)})


def _reduce_bridgeless(g: Graph) -> ReductionStep:
    """`reduce_subcubic` of a graph with no bridge or at most 3 vertices."""
    if g.n <= 3:
        return ReductionStep("none", g, detail={"leaf": "trivial"})
    deg2 = [v for v in range(g.n) if g.degree(v) == 2]
    if not deg2:
        # no bridge, no degree-2 vertex, connected, n >= 4: cubic
        return ReductionStep("none", g, detail={"leaf": "cubic-bridgeless"})
    double, cmap = _double_graph(g, deg2), (tuple(range(g.n)) * 2,)
    if len(deg2) >= 2:
        # joined at two or more vertices, two copies of a bridgeless graph
        # stay bridgeless: the double is a cubic bridgeless leaf
        return ReductionStep("degree2-double", g, children=(_reduce_bridgeless(double),),
                             child_maps=cmap)
    # The child keeps its connecting edge; it is terminal by construction
    # (its two-factor is supplied by the pipeline, not re-selected).
    child = ReductionStep("none", double,
                          detail={"leaf": "one-bridge", "bridge": (deg2[0], deg2[0] + g.n)})
    return ReductionStep("degree2-single", g, children=(child,), child_maps=cmap)
