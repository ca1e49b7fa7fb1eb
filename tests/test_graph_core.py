"""graph_core: parsers, analysis, reductions, and the boundary oracle.

The graph6 codec is checked against networkx as an independent oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from fracchrom.graph_core import (
    MAX_EDGE_LIST_VERTICES,
    Graph,
    GraphError,
    GuardExceeded,
    analyze,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    reduce_subcubic,
    suppress_vertex,
    to_edge_list_text,
)

from oracles import boundary
from util_graphs import (
    block_chain,
    bridged_composite,
    circular_ladder,
    complete,
    cycle,
    gp72,
    k33,
    k33_minus_edge,
    path_graph,
    petersen,
    subdivide_edge,
)


# ---------------------------------------------------------------------------
# Graph construction


def test_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])


@pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, "1", None])
@pytest.mark.parametrize("where", ["count", "first", "second"])
def test_graph_refuses_a_non_int_id_or_count(bad, where):
    args = {"count": (bad, []),
            "first": (3, [(bad, 2)]),
            "second": (3, [(2, bad)])}[where]
    with pytest.raises(GraphError):
        Graph(*args)


def test_adjacency_is_sorted_and_symmetric():
    g = petersen()
    for u in range(g.n):
        assert list(g.adj[u]) == sorted(g.adj[u])
        for w in g.adj[u]:
            assert u in g.adj[w]


def test_adj_mask_matches_adj():
    for g in (gp72(), circular_ladder(33)):
        for u in range(g.n):
            mask = g.adj_mask[u]
            assert {w for w in range(g.n) if mask >> w & 1} == set(g.adj[u])


# ---------------------------------------------------------------------------
# Edge list format


def test_parse_edge_list_k2():
    g = parse_edge_list("2 1\n0 1")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_edge_list_gp72_is_cubic():
    g = parse_edge_list(to_edge_list_text(gp72()))
    assert g == gp72()
    assert all(g.degree(v) == 3 for v in range(14))


def test_parse_edge_list_triangle_parses():
    # Parsing succeeds; the triangle is caught by analyze(), not the parser.
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert g.m == 3
    assert not analyze(g).is_triangle_free


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("2", "header"),
        ("2 1\n0 x", "line 2"),
        ("2 1\n0 5", "line 2"),
        ("2 2\n0 1\n1 0", "line 3"),
        ("2 1\n1 1", "line 2"),
        ("2 2\n0 1", "expected 2 edge lines"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(GraphError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


def test_parse_edge_list_vertex_guard():
    assert parse_edge_list(f"{MAX_EDGE_LIST_VERTICES} 1\n0 1").n == MAX_EDGE_LIST_VERTICES
    with pytest.raises(GuardExceeded, match="header declares 65537 vertices"):
        parse_edge_list(f"{MAX_EDGE_LIST_VERTICES + 1} 0")


# ---------------------------------------------------------------------------
# graph6 codec, oracled by networkx


def test_parse_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_graph6_empty_is_error():
    with pytest.raises(GraphError):
        parse_graph6("")


def test_parse_graph6_truncated():
    pet = encode_graph6(petersen())
    with pytest.raises(GraphError):
        parse_graph6(pet[:-1])


def test_graph6_petersen_against_networkx():
    data = nx.to_graph6_bytes(nx.petersen_graph(), header=False).decode().strip()
    g = parse_graph6(data)
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # our encoding decodes back to the same graph
    assert parse_graph6(encode_graph6(g)) == g


@settings(max_examples=60)
@given(st.integers(0, 16), st.data())
def test_graph6_round_trip_matches_networkx(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, sorted(chosen))
    enc = encode_graph6(g)
    # independent oracle: networkx produces the identical encoding
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges)
    assert enc == nx.to_graph6_bytes(h, header=False).decode().strip()
    assert parse_graph6(enc) == g


# ---------------------------------------------------------------------------
# analyze


def test_analyze_gp72():
    rep = analyze(gp72())
    assert rep.is_cubic and rep.is_subcubic
    assert rep.is_triangle_free and rep.is_bridgeless and rep.is_connected
    assert rep.triangle_witness is None
    assert rep.block_decomposition == (tuple(range(14)),)


def test_analyze_k4_triangle():
    rep = analyze(complete(4))
    assert rep.is_cubic and not rep.is_triangle_free
    assert rep.triangle_witness == (0, 1, 2)


def test_analyze_two_triangles_bridge():
    # two triangles joined by one edge
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    rep = analyze(g)
    assert rep.bridge_list == ((2, 3),)
    assert not rep.is_bridgeless
    assert (0, 1, 2) in rep.block_decomposition
    assert (2, 3) in rep.block_decomposition
    assert (3, 4, 5) in rep.block_decomposition


def test_analyze_path_all_bridges():
    g = path_graph(5)
    rep = analyze(g)
    assert rep.bridge_list == tuple(g.edges)
    assert len(rep.block_decomposition) == 4


def test_analyze_disconnected():
    g = Graph(4, [(0, 1)])
    rep = analyze(g)
    assert not rep.is_connected
    # isolated vertices become trivial blocks
    assert (2,) in rep.block_decomposition
    assert (3,) in rep.block_decomposition


# ---------------------------------------------------------------------------
# boundary


def test_boundary_whole_vertex_set():
    g = petersen()
    assert boundary(g, range(10)) == ()


def test_boundary_single_vertex_cubic():
    g = petersen()
    assert len(boundary(g, [0])) == 3


def test_boundary_petersen_outer_cycle():
    g = petersen()
    spokes = boundary(g, range(5))
    assert spokes == tuple((i, 5 + i) for i in range(5))


@given(st.sets(st.integers(0, 13)))
def test_boundary_symmetric_in_complement(X):
    g = gp72()
    Y = set(range(14)) - X
    assert len(boundary(g, X)) == len(boundary(g, Y))


# ---------------------------------------------------------------------------
# reductions


def test_reduce_cubic_bridgeless_is_leaf():
    step = reduce_subcubic(petersen())
    assert step.is_leaf and step.detail["leaf"] == "cubic-bridgeless"


def test_reduce_c5_doubles_to_circular_ladder():
    step = reduce_subcubic(cycle(5))
    assert step.kind == "degree2-double"
    (child,) = step.children
    assert child.is_leaf
    rep = analyze(child.graph)
    assert rep.is_cubic and rep.is_bridgeless
    assert child.graph == circular_ladder(5)
    # vertex map: both copies project to the original vertex
    cmap = step.child_maps[0]
    assert cmap[3] == 3 and cmap[5 + 3] == 3


def test_reduce_bridge_split():
    g = bridged_composite()
    step = reduce_subcubic(g)
    assert step.kind == "bridge-split"
    assert step.detail["bridges"] == ((0, 6),)
    assert step.child_maps == (tuple(range(6)), tuple(range(6, 12)))
    # each side is K33 minus an edge: two degree-2 vertices -> doubled
    for side in step.children:
        assert side.kind == "degree2-double"
        assert analyze(side.graph).is_connected
        assert side.graph.n == 6


def test_reduce_bridge_whose_leaf_side_holds_the_larger_end():
    # C4 with pendant vertices 4 and 5 at 0 and 2: the side of each
    # bridge's smaller end holds the other bridge, so 4 goes first; the
    # C4 is then the leaf side of (2, 5), and 5 is the rest
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
    step = reduce_subcubic(g)
    assert step.kind == "bridge-split"
    assert step.detail["bridges"] == ((4, 0), (2, 5))
    assert step.child_maps == ((4,), (0, 1, 2, 3), (5,))
    assert [leaf.graph.n for leaf in step.leaves()] == [1, 8, 1]


def _tree_vertices(step):
    return step.graph.n + sum(_tree_vertices(c) for c in step.children)


@pytest.mark.parametrize("g", [path_graph(2000), block_chain(300)],
                         ids=["path", "chain"])
def test_reduction_tree_is_linear_in_the_graph(g):
    # one node for g, each part's graph once, and a double per part:
    # splitting one bridge at a time and keeping the rest grew as n^2
    assert _tree_vertices(reduce_subcubic(g)) <= 4 * g.n


def test_reduce_single_degree2():
    g = subdivide_edge(k33(), 0, 3)
    step = reduce_subcubic(g)
    assert step.kind == "degree2-single"
    (child,) = step.children
    assert child.is_leaf and child.detail["leaf"] == "one-bridge"
    rep = analyze(child.graph)
    assert rep.is_cubic
    assert rep.bridge_list == (child.detail["bridge"],)


def test_reduce_trivial_base():
    step = reduce_subcubic(path_graph(2))
    assert step.is_leaf and step.detail["leaf"] == "trivial"


def test_reduce_requires_connected():
    with pytest.raises(GraphError):
        reduce_subcubic(Graph(4, [(0, 1), (2, 3)]))


def test_all_leaves_cubic_or_trivial():
    for g in [cycle(5), cycle(6), bridged_composite(), subdivide_edge(k33(), 0, 3)]:
        for leaf in reduce_subcubic(g).leaves():
            if leaf.detail["leaf"] == "trivial":
                assert leaf.graph.n <= 3
            else:
                assert analyze(leaf.graph).is_cubic


def test_suppress_vertex_inverts_subdivision():
    g = subdivide_edge(k33(), 0, 3)
    g0, old_ids = suppress_vertex(g, 6)
    assert g0 == k33()
    assert old_ids == tuple(range(6))


def test_suppress_vertex_requires_degree2():
    with pytest.raises(GraphError):
        suppress_vertex(k33(), 0)
