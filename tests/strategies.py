"""Hypothesis strategies for graphs, shared by the test suite."""

from hypothesis import strategies as st

from fracchrom.graph_core import Graph


@st.composite
def connected_subcubic_graphs(draw, max_n=12, triangle_free=False):
    """A random tree of maximum degree 3 on n <= max_n vertices plus random
    extra edges that keep the degrees <= 3, and with ``triangle_free``
    close no triangle: bridges and 2-edge-cuts are common."""
    n = draw(st.integers(2, max_n))
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = draw(st.sampled_from([w for w in range(v) if len(adj[w]) < 3]))
        adj[u].add(v)
        adj[v].add(u)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pairs, max_size=2 * n)):
        if (u != v and v not in adj[u] and len(adj[u]) < 3 and len(adj[v]) < 3
                and not (triangle_free and adj[u] & adj[v])):
            adj[u].add(v)
            adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


@st.composite
def with_pendant_tails(draw, graphs, max_tails=3):
    """A graph of ``graphs`` with up to ``max_tails`` paths of 1 to 3 new
    vertices hung at vertices of degree < 3.  The new vertices take the
    largest labels, so each tail's first bridge has its larger end in the
    tail."""
    g = draw(graphs)
    n, edges, deg = g.n, list(g.edges), list(g.degrees())
    for _ in range(draw(st.integers(0, max_tails))):
        open_ = [v for v in range(g.n) if deg[v] < 3]
        if not open_:
            break
        prev = draw(st.sampled_from(open_))
        deg[prev] += 1
        for _ in range(draw(st.integers(1, 3))):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)
