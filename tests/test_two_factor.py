"""two_factor: matchings, cuts, selection, navigation, split-cycle check."""

import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fracchrom.two_factor as TF
from fracchrom import cli
from fracchrom.graph_core import Graph, GraphError, GuardExceeded, encode_graph6, parse_graph6
from fracchrom.two_factor import (
    EdgeCut,
    NoQualifyingTwoFactor,
    TwoFactor,
    TwoFactorError,
    enumerate_perfect_matchings,
    minimal_small_cuts,
    satisfies_ks_condition,
    select_two_factor,
    two_factor_from_json_dict,
    two_factor_to_json_dict,
)

from oracles import (
    count_perfect_matchings_bruteforce,
    minimal_small_cuts_bruteforce,
    minimal_small_cuts_subset_scan,
)
from strategies import connected_subcubic_graphs
from util_graphs import (
    bridged_composite,
    circular_ladder,
    complete,
    cycle,
    disjoint_union,
    generalized_petersen,
    gp72,
    k33,
    k33_minus_edge,
    petersen,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_N10 = [parse_graph6(line)
              for line in (CORPUS / "cubic_tf_bridgeless_n10.g6").read_text().split()]
CORPUS_UP_TO_12 = [
    parse_graph6(line)
    for n in (6, 8, 10, 12)
    for line in (CORPUS / f"cubic_tf_bridgeless_n{n}.g6").read_text().split()
]

SPOKES = [(i, 5 + i) for i in range(5)]


def bad_ks_gadget():
    """Cubic graph: two 5-cycles with one chord each, joined by three edges.
    The three joining edges form a minimal 3-cut; the two-factor made of the
    two 5-cycles avoids it entirely."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(1, 3), (6, 8)]
    edges += [(0, 5), (2, 7), (4, 9)]
    return Graph(10, edges)


BAD_GADGET_MATCHING = [(1, 3), (6, 8), (0, 5), (2, 7), (4, 9)]


def two_cut_graph():
    """Two copies of K4 minus an edge joined by two edges: a cubic graph
    with the 2-edge-cut {(2, 6), (3, 7)}, whose edges get equal labels."""
    half = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    return Graph(8, half + [(u + 4, v + 4) for u, v in half] + [(2, 6), (3, 7)])


# ---------------------------------------------------------------------------
# Perfect matching enumeration


@pytest.mark.parametrize(
    "g, expected",
    [(complete(4), 3), (k33(), 6), (petersen(), 6)],
)
def test_matching_counts_known(g, expected):
    assert len(enumerate_perfect_matchings(g)) == expected


@pytest.mark.parametrize(
    "g",
    [complete(4), k33(), petersen(), circular_ladder(4), circular_ladder(5), gp72()],
)
def test_matching_counts_against_bruteforce(g):
    got = enumerate_perfect_matchings(g)
    assert len(set(got)) == len(got)  # no duplicates
    assert len(got) == count_perfect_matchings_bruteforce(g)


def test_matching_odd_order_empty():
    assert enumerate_perfect_matchings(Graph(3, [(0, 1), (1, 2), (0, 2)])) == []


# ---------------------------------------------------------------------------
# TwoFactor structure


def test_two_factor_from_spokes():
    tf = TwoFactor(petersen(), SPOKES)
    # canonical form: cycle starts at its min vertex, successor is the larger
    # of the two cycle neighbours
    assert tf.cycles == ((0, 4, 3, 2, 1), (5, 8, 6, 9, 7))
    assert tf.mate[0] == 5 and tf.mate[5] == 0
    for v in range(10):
        assert tf.mate[tf.mate[v]] == v and tf.mate[v] != v
        assert tf.cycles[tf.cycle_of[v]][tf.pos[v]] == v


def test_two_factor_rejects_bad_matching():
    with pytest.raises(TwoFactorError):
        TwoFactor(petersen(), SPOKES[:4])  # not perfect
    with pytest.raises(TwoFactorError):
        TwoFactor(petersen(), SPOKES[:4])


def test_two_factor_rejects_non_spanning_cycles():
    # the matching is right, the cycles miss the inner 5-cycle
    data = {"cycles": [[0, 1, 2, 3, 4]], "matching": SPOKES}
    with pytest.raises(TwoFactorError):
        two_factor_from_json_dict(petersen(), data)


def test_two_factor_canonical_orientation():
    # the reader takes the same cycles in assorted rotations/directions
    for cycles in ([(0, 1, 2, 3, 4), (5, 8, 6, 9, 7)],
                   [(6, 8, 5, 7, 9), (3, 2, 1, 0, 4)]):
        tf = two_factor_from_json_dict(
            petersen(), {"cycles": cycles, "matching": SPOKES})
        assert tf.cycles == ((0, 4, 3, 2, 1), (5, 8, 6, 9, 7))


# ---------------------------------------------------------------------------
# TwoFactor.step


def test_navigate_identity_and_wrap():
    tf = TwoFactor(petersen(), SPOKES)
    assert tf.step(3, 0) == 3
    assert tf.step(0, 7) == 3  # cycle (0,4,3,2,1) plus seven steps


@given(st.integers(0, 9), st.integers(-20, 20))
def test_navigate_inverse(u, k):
    tf = TwoFactor(petersen(), SPOKES)
    assert tf.step(tf.step(u, k), -k) == u


def test_forward_path_and_dist():
    tf = TwoFactor(petersen(), SPOKES)
    assert tf.forward_dist(1, 4) == 2
    assert tf.forward_path(1, 4) == (1, 0, 4)
    assert tf.forward_path(4, 1) == (4, 3, 2, 1)
    assert tf.forward_path(2, 2) == (2,)


# ---------------------------------------------------------------------------
# minimal cuts


@pytest.mark.parametrize(
    "g",
    [petersen(), k33(), complete(4), circular_ladder(4), gp72(), bad_ks_gadget(),
     *CORPUS_N10[:2], generalized_petersen(8, 3)],
)
def test_minimal_cuts_match_boundary_oracle(g):
    got = {frozenset(c.edges) for c in minimal_small_cuts(g)}
    assert got == minimal_small_cuts_bruteforce(g)


def _cut_list(g):
    return [(c.edges, c.side) for c in minimal_small_cuts(g)]


@pytest.mark.parametrize(
    "g",
    [*CORPUS_UP_TO_12, petersen(), gp72(), generalized_petersen(8, 3),
     bridged_composite(), bad_ks_gadget(), two_cut_graph()],
)
def test_minimal_cuts_equal_subset_scan(g):
    assert _cut_list(g) == minimal_small_cuts_subset_scan(g)


@settings(max_examples=60, deadline=None)
@given(connected_subcubic_graphs())
def test_minimal_cuts_equal_subset_scan_on_random_subcubic(g):
    assert _cut_list(g) == minimal_small_cuts_subset_scan(g)


def test_minimal_cuts_edge_cases_and_guards(monkeypatch):
    for g in (Graph(0, []), Graph(1, []), complete(2)):
        assert minimal_small_cuts(g) == []
    with pytest.raises(GraphError, match="^minimal_small_cuts requires a connected graph$"):
        minimal_small_cuts(disjoint_union(complete(4), complete(4)))
    with pytest.raises(GuardExceeded, match="^minimal_small_cuts guard: n <= 64$"):
        minimal_small_cuts(cycle(65))
    # the labels only pick the candidates; the bond test decides
    graphs = [gp72(), bridged_composite(), two_cut_graph()]
    expected = [_cut_list(g) for g in graphs]
    for seed in (0, 2**64 - 1):
        monkeypatch.setattr(TF, "_LABEL_SEED", seed)
        assert [_cut_list(g) for g in graphs] == expected


def test_cut_search_tests_only_candidates(monkeypatch):
    # the subset scan made one or two searches per 3- and 4-subset
    # (about 212,000 on this graph)
    calls = []
    search = TF.reach

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(TF, "reach", counted)
    cuts = minimal_small_cuts(generalized_petersen(16, 3))
    assert cuts and len(calls) <= 1 + 2 * len(cuts)


def test_cut_search_confirms_each_bridge_once(monkeypatch):
    # every edge of a tree is a bridge with label 0, so every 3- and
    # 4-subset is a candidate (133,423 searches when each one went
    # through the bond test); none is a minimal cut
    g = Graph(40, [((i - 1) // 2, i) for i in range(1, 40)])
    calls = []
    search = TF.reach

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(TF, "reach", counted)
    cuts = minimal_small_cuts(g)
    assert cuts == [] and len(calls) <= g.m + 1 + 2 * len(cuts)


def test_trivial_cuts_never_decide_the_cut_test():
    # a vertex star or the four edges around an edge has two edges at one
    # vertex, so no matching holds it; _cut_sets leaves such cuts out
    for g in (*CORPUS_UP_TO_12, gp72()):
        full = tuple(frozenset(c.edges) for c in minimal_small_cuts(g))
        kept = TF._cut_sets(g)
        assert set(kept) < set(full)
        for matching in enumerate_perfect_matchings(g):
            m = frozenset(matching)
            assert TF._meets_cuts(m, full) == TF._meets_cuts(m, kept)


def test_minimal_cuts_petersen_stars():
    cuts = minimal_small_cuts(petersen())
    three = {frozenset(c.edges) for c in cuts if len(c.edges) == 3}
    stars = {
        frozenset((min(v, w), max(v, w)) for w in petersen().adj[v])
        for v in range(10)
    }
    assert stars <= three
    assert len(three) == 10  # nothing else of size 3


def test_minimal_cuts_sides_are_components():
    for cut in minimal_small_cuts(k33()):
        assert 0 in cut.side


def test_bridge_not_inside_minimal_small_cut():
    # bridge between two triangles: every 3-subset containing the bridge has
    # the bridge alone as a disconnecting proper subset
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    for cut in minimal_small_cuts(g):
        assert (2, 3) not in cut.edges


# ---------------------------------------------------------------------------
# cut condition + selection


def test_ks_condition_petersen_k33():
    assert satisfies_ks_condition(petersen(), TwoFactor(petersen(), SPOKES))
    tf = select_two_factor(k33())
    assert satisfies_ks_condition(k33(), tf)


def test_ks_condition_fails_on_gadget():
    g = bad_ks_gadget()
    tf = TwoFactor(g, BAD_GADGET_MATCHING)
    assert len(tf.cycles) == 2
    assert not satisfies_ks_condition(g, tf)


def test_ks_condition_fails_on_cube_double_square():
    g = circular_ladder(4)
    rungs = [(i, 4 + i) for i in range(4)]
    tf = TwoFactor(g, rungs)
    assert len(tf.cycles) == 2
    assert not satisfies_ks_condition(g, tf)  # four parallel rungs are a 4-cut... in M


def test_select_petersen():
    tf = select_two_factor(petersen())
    assert len(tf.cycles) == 2
    m = sorted((min(u, v), max(u, v)) for u, v in enumerate(tf.mate) if u < v)
    assert m == [(0, 1), (2, 3), (4, 9), (5, 7), (6, 8)]


def test_select_k33_single_cycle():
    tf = select_two_factor(k33())
    assert tf.cycles == ((0, 5, 1, 3, 2, 4),)


def test_select_cube_hamiltonian():
    tf = select_two_factor(circular_ladder(4))
    assert len(tf.cycles) == 1  # the double-square two-factors all fail the cut test
    assert satisfies_ks_condition(circular_ladder(4), tf)


def test_select_gadget_avoids_bad_two_factor():
    g = bad_ks_gadget()
    tf = select_two_factor(g)
    assert satisfies_ks_condition(g, tf)
    got = sorted((min(u, v), max(u, v)) for u, v in enumerate(tf.mate) if u < v)
    assert got != sorted(BAD_GADGET_MATCHING)


def test_select_is_max_cycle_count_among_qualifying():
    for g in (circular_ladder(4), gp72()):
        qualifying = []  # (-cycle count, matching) of every qualifying two-factor
        for matching in enumerate_perfect_matchings(g):
            cand = TwoFactor(g, matching)
            if satisfies_ks_condition(g, cand):
                qualifying.append((-len(cand.cycles), matching))
        tf = select_two_factor(g)
        assert satisfies_ks_condition(g, tf)
        assert len(tf.cycles) == -min(qualifying)[0]
        # keeping an edge on the cycles: best among the matchings without it
        for u, v in g.edges:
            best = min((k for k in qualifying if (u, v) not in k[1]), default=None)
            if best is None:
                with pytest.raises(NoQualifyingTwoFactor, match="keeps edge"):
                    select_two_factor(g, cycle_edge=(v, u))
                continue
            tf = select_two_factor(g, cycle_edge=(v, u))
            assert (u, v) in tf.f_edges
            assert (-len(tf.cycles), tuple(sorted(tf.m_edges))) == best


def test_select_cannot_keep_a_bridge_on_the_cycles():
    # two K4s with one edge subdivided, joined at the new vertices: every
    # perfect matching holds the bridge (4, 9)
    half = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    g = Graph(10, half + [(u + 5, v + 5) for u, v in half] + [(4, 9)])
    with pytest.raises(NoQualifyingTwoFactor, match=r"keeps edge \(4, 9\)"):
        select_two_factor(g, cycle_edge=(9, 4))


def test_cut_search_runs_once_per_graph(monkeypatch):
    import fracchrom.two_factor as TF
    calls = []

    def counted(g):
        calls.append(g)
        return minimal_small_cuts(g)

    monkeypatch.setattr(TF, "minimal_small_cuts", counted)
    g = generalized_petersen(6, 1)  # the hexagonal prism
    tf = select_two_factor(g)
    assert satisfies_ks_condition(g, tf)
    assert len(calls) == 1
    # the cuts belong to the graph object: an equal graph searches anew
    twin = generalized_petersen(6, 1)
    assert twin == g and satisfies_ks_condition(twin, tf)
    assert len(calls) == 2


def test_select_guard_fires_before_listing_matchings(monkeypatch):
    def refuse(g):
        raise AssertionError("enumerate_perfect_matchings ran")

    monkeypatch.setattr(TF, "enumerate_perfect_matchings", refuse)
    g = generalized_petersen(33, 5)
    assert g.n == 66
    with pytest.raises(GuardExceeded, match="^select_two_factor guard: n <= 64$"):
        select_two_factor(g)


def test_select_requires_cubic():
    with pytest.raises(GraphError):
        select_two_factor(k33_minus_edge())


# ---------------------------------------------------------------------------
# split-cycle check


@dataclass(frozen=True)
class SplitCycleVerdict:
    crossing: int
    bounds_ok: bool  # 2 <= crossing <= 4
    five_ok: bool  # crossing <= 3 whenever either part has length 5
    ok: bool


def check_split_cycle(g, tf, C, D1, D2):
    """Report the crossing-edge count between two vertex-disjoint cycles
    covering V(C) and whether both split-cycle bounds hold.

    If ``tf`` is given, C must be one of its cycles.  D1 and D2 are vertex
    sequences that must each form a cycle of g and partition V(C).
    """
    cset = set(C)
    if tf is not None and tuple(TwoFactor._canonicalize(list(C))) not in tf.cycles:
        raise TwoFactorError("C is not a cycle of the given two-factor")
    s1, s2 = set(D1), set(D2)
    if s1 & s2 or (s1 | s2) != cset or not s1 or not s2:
        raise TwoFactorError("D1, D2 do not partition V(C)")
    for D in (D1, D2):
        if len(D) < 3:
            raise TwoFactorError("split parts must be cycles (length >= 3)")
        for i, u in enumerate(D):
            if not g.has_edge(u, D[(i + 1) % len(D)]):
                raise TwoFactorError("split part is not a cycle of g")
    crossing = sum(1 for u, v in g.edges if (u in s1) != (v in s1) and u in cset and v in cset)
    bounds_ok = 2 <= crossing <= 4
    five_ok = not (
        (len(D1) == 5 or len(D2) == 5) and crossing > 3
    )
    return SplitCycleVerdict(
        crossing=crossing, bounds_ok=bounds_ok, five_ok=five_ok, ok=bounds_ok and five_ok
    )


def test_split_cycle_pass_on_cube():
    g = circular_ladder(4)
    tf = select_two_factor(g)
    C = tf.cycles[0]
    v = check_split_cycle(g, tf, C, [0, 1, 2, 3], [4, 5, 6, 7])
    assert v.crossing == 4 and v.ok


def test_split_cycle_five_crossings_violation():
    g = circular_ladder(5)
    ham = [0, 1, 2, 3, 4, 9, 8, 7, 6, 5]
    matching = [(0, 4), (1, 6), (2, 7), (3, 8), (5, 9)]
    tf = TwoFactor(g, matching)
    v = check_split_cycle(g, tf, ham, list(range(5)), list(range(5, 10)))
    assert v.crossing == 5
    assert not v.bounds_ok and not v.ok
    assert not v.five_ok  # a five-cycle part with more than 3 crossings


def test_split_cycle_four_crossings_with_five_cycle_part():
    # synthetic (non-cubic) witness: C5 + C5 joined by four edges
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(0, 5), (1, 6), (2, 7), (3, 8)]
    g = Graph(10, edges)
    C = [0, 4, 3, 8, 9, 5, 6, 7, 2, 1]
    v = check_split_cycle(g, None, C, list(range(5)), list(range(5, 10)))
    assert v.crossing == 4
    assert v.bounds_ok and not v.five_ok and not v.ok


def test_split_cycle_two_crossings_pass():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    edges += [(0, 4), (2, 6)]
    g = Graph(8, edges)
    C = [0, 1, 2, 6, 5, 4]  # any cycle covering D1 and D2? validation off (tf None)
    v = check_split_cycle(g, None, [0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3], [4, 5, 6, 7])
    assert v.crossing == 2 and v.ok


def test_split_cycle_partition_errors():
    g = circular_ladder(4)
    tf = select_two_factor(g)
    C = tf.cycles[0]
    with pytest.raises(TwoFactorError):
        check_split_cycle(g, tf, C, [0, 1, 2], [2, 3, 4, 5, 6, 7])
    with pytest.raises(TwoFactorError):
        check_split_cycle(g, tf, C, [0, 1, 2, 3], [4, 5, 6])


def test_split_cycle_wrong_cycle_for_tf():
    g = circular_ladder(4)
    tf = select_two_factor(g)
    with pytest.raises(TwoFactorError):
        check_split_cycle(g, tf, [0, 1, 2, 3], [0, 1, 2], [3])


def test_lemma2_invariant_on_selected_cube_two_factor():
    """Every way of splitting a selected cycle into two cycles obeys the
    crossing bounds (searched exhaustively on the cube)."""
    g = circular_ladder(4)
    tf = select_two_factor(g)

    def has_ham_cycle(verts):
        verts = list(verts)
        if len(verts) < 3:
            return None
        vset = set(verts)
        start = verts[0]

        def rec(path, used):
            if len(path) == len(verts):
                return path if g.has_edge(path[-1], start) else None
            for w in g.adj[path[-1]]:
                if w in vset and w not in used:
                    used.add(w)
                    path.append(w)
                    got = rec(path, used)
                    if got:
                        return got
                    path.pop()
                    used.remove(w)
            return None

        return rec([start], {start})

    checked = 0
    for C in tf.cycles:
        cl = list(C)
        for r in range(3, len(cl) - 2):
            for D1 in itertools.combinations(cl[1:], r - 1):
                d1 = [cl[0], *D1]
                d2 = [v for v in cl if v not in set(d1)]
                c1, c2 = has_ham_cycle(d1), has_ham_cycle(d2)
                if c1 and c2:
                    assert check_split_cycle(g, tf, C, c1, c2).ok
                    checked += 1
    assert checked > 0  # the cube's Hamiltonian cycle does split


# ---------------------------------------------------------------------------
# JSON round trip


def test_two_factor_json_round_trip():
    g = petersen()
    tf = select_two_factor(g)
    data = two_factor_to_json_dict(tf)
    assert two_factor_from_json_dict(g, data) == tf


def test_two_factor_json_rejects_garbage():
    with pytest.raises(TwoFactorError):
        two_factor_from_json_dict(petersen(), {"cycles": [[0, 1]], "matching": []})
    with pytest.raises(TwoFactorError):
        two_factor_from_json_dict(petersen(), {"cycles": "zzz"})


@pytest.mark.parametrize("kind", ["float", "string", "bool", "out-of-range"])
def test_two_factor_json_rejects_non_integer_ids(kind):
    # shifting every cycle id by 0.5, or writing matching ids as strings
    # or true, once read back as the same two-factor
    g = petersen()
    data = two_factor_to_json_dict(select_two_factor(g))
    if kind == "float":
        data["cycles"] = [[v + 0.5 for v in c] for c in data["cycles"]]
    elif kind == "string":
        data["matching"] = [[str(u), str(v)] for u, v in data["matching"]]
    elif kind == "bool":
        data["matching"] = [[u, True if v == 1 else v] for u, v in data["matching"]]
        assert any(v is True for _, v in data["matching"])
    else:
        data["matching"][0][0] += g.n
    with pytest.raises(TwoFactorError, match="is not a vertex of the graph"):
        two_factor_from_json_dict(g, data)


def _other_cycles():
    """The cycles of a Petersen two-factor whose matching is not SPOKES."""
    g = petersen()
    other = next(m for m in enumerate_perfect_matchings(g) if set(m) != set(SPOKES))
    return [list(c) for c in TwoFactor(g, other).cycles]


SPOKE_CYCLES = [[0, 4, 3, 2, 1], [5, 8, 6, 9, 7]]
READER_REFUSALS = {
    "wrong-cycles": {"cycles": _other_cycles(), "matching": SPOKES},
    "one-vertex-cycle": {"cycles": [[0]], "matching": SPOKES},
    "empty-cycle": {"cycles": SPOKE_CYCLES + [[]], "matching": SPOKES},
    "cycle-twice": {"cycles": SPOKE_CYCLES + SPOKE_CYCLES[:1], "matching": SPOKES},
    "edge-not-in-graph": {"cycles": SPOKE_CYCLES,
                          "matching": [(0, 2)] + SPOKES[1:]},
    "repeated-first-end": {"cycles": SPOKE_CYCLES,
                           "matching": SPOKES + [(0, 1)]},
    "repeated-second-end": {"cycles": SPOKE_CYCLES,
                            "matching": [(1, 0)] + SPOKES},
}


@pytest.mark.parametrize("case", sorted(READER_REFUSALS))
def test_two_factor_json_refuses_what_the_matching_does_not_give(case, tmp_path):
    # the reader is the one place that checks the given cycles; through
    # the CLI a refusal is invalid input (exit 2), never an internal error
    g, data = petersen(), READER_REFUSALS[case]
    with pytest.raises(TwoFactorError) as refused:
        two_factor_from_json_dict(g, data)
    graph, pin = tmp_path / "p.g6", tmp_path / "tf.json"
    graph.write_text(encode_graph6(g) + "\n")
    pin.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["prob", str(graph), "--two-factor", str(pin)], out, err)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {refused.value}\n"


def test_two_factor_json_takes_any_rotation_direction_and_order():
    for g in CORPUS_N10:
        tf = select_two_factor(g)
        data = two_factor_to_json_dict(tf)
        data["cycles"] = [c[2:] + c[:2] for c in reversed(data["cycles"])]
        data["cycles"][0].reverse()
        assert two_factor_from_json_dict(g, data) == tf
