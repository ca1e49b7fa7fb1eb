"""Shared graph builders for the test suite (hand-written edge lists)."""

from fracchrom.graph_core import Graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def k33():
    return complete_bipartite(3, 3)


def generalized_petersen(n, k):
    """Outer cycle 0..n-1, inner vertices n..2n-1, spokes i -- n+i,
    inner edges n+i -- n+((i+k) mod n)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, edges)


def petersen():
    return generalized_petersen(5, 2)


def gp72():
    return generalized_petersen(7, 2)


def circular_ladder(n):
    """Prism over an n-cycle: two n-cycles joined by rungs (2n vertices)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def moebius_ladder(n):
    """Cycle of length 2n plus n antipodal chords (cubic, girth 4 for n >= 3)."""
    edges = [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
    edges += [(i, i + n) for i in range(n)]
    return Graph(2 * n, edges)


def subdivide_edge(g, u, v):
    """Replace edge uv by a path u - w - v through a new vertex w = n."""
    assert g.has_edge(u, v)
    edges = [e for e in g.edges if e != (min(u, v), max(u, v))]
    w = g.n
    edges += [(u, w), (v, w)]
    return Graph(g.n + 1, edges)


def disjoint_union(g, h):
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, edges)


def k33_minus_edge():
    g = k33()
    edges = [e for e in g.edges if e != (0, 3)]
    return Graph(6, edges)


def bridged_composite():
    """Two copies of K33-minus-an-edge joined by a single bridge:
    connected, subcubic, triangle-free, exactly one bridge."""
    a = k33_minus_edge()
    both = disjoint_union(a, a)
    edges = list(both.edges) + [(0, 6)]
    return Graph(12, edges)


def block_chain(b):
    """b copies of K33-minus-an-edge in a row, vertex 3 of each copy joined
    by a bridge to vertex 0 of the next (6b vertices, b - 1 bridges)."""
    a = k33_minus_edge()
    edges = [(6 * t + u, 6 * t + v) for t in range(b) for u, v in a.edges]
    edges += [(6 * t + 3, 6 * t + 6) for t in range(b - 1)]
    return Graph(6 * b, edges)
