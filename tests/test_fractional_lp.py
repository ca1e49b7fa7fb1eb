"""Exact LP values, certificate conversions, and the 32/11 pipeline."""

import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fracchrom import fractional_lp, graph_core
from fracchrom.fractional_lp import (
    DEFAULT_MAX_MULTISET,
    ColouringError,
    FractionalColouring,
    MergeFailure,
    MultisetCertificate,
    TARGET_BOUND,
    certificate_from_json_dict,
    chi_f_exact,
    chi_f_upper_subcubic,
    distribution_to_weighting,
    maximal_independent_sets,
    verify_certificate,
    weighting_to_multiset,
)
from fracchrom.augment import exact_phase5_distribution
from fracchrom.graph_core import Graph, GraphError, GuardExceeded, parse_graph6, reduce_subcubic
from fracchrom.sampler import enumerate_distribution, is_independent
from fracchrom.two_factor import select_two_factor

import oracles
from strategies import connected_subcubic_graphs, with_pendant_tails
from util_graphs import (
    bridged_composite,
    complete,
    cycle,
    generalized_petersen,
    gp72,
    k33,
    path_graph,
    petersen,
    subdivide_edge,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

GOLDENS = [
    ("K2", complete(2), F(2)),
    ("C5", cycle(5), F(5, 2)),
    ("C7", cycle(7), F(7, 3)),
    ("K33", k33(), F(2)),
    ("Petersen", petersen(), F(5, 2)),
    ("GP72", gp72(), F(14, 5)),
]


def random_graph(rng, n, p=0.4):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


class TestMaximalIndependentSets:
    def test_counts(self):
        assert len(maximal_independent_sets(complete(2))) == 2
        assert len(maximal_independent_sets(cycle(5))) == 5
        assert len(maximal_independent_sets(k33())) == 2

    def test_petersen_census(self):
        # 5 maximum sets of size 4 and 10 maximal ones of size 3
        sets_ = maximal_independent_sets(petersen())
        assert len(sets_) == 15
        by_size = {}
        for s in sets_:
            by_size[len(s)] = by_size.get(len(s), 0) + 1
        assert by_size == {3: 10, 4: 5}

    def test_sets_are_maximal_independent(self):
        g = gp72()
        for s in maximal_independent_sets(g):
            assert is_independent(g, s)
            for v in range(g.n):
                if v not in s:
                    assert any(w in s for w in g.adj[v]), (s, v)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9))
            want = {
                frozenset(v for v in range(g.n) if mask >> v & 1)
                for mask in oracles.independent_sets_bruteforce(g)
            }
            got = maximal_independent_sets(g)
            assert set(got) == want
            assert len(got) == len(want)

    def test_output_is_sorted_by_bitmask(self):
        masks = [
            sum(1 << v for v in s)
            for s in maximal_independent_sets(petersen())
        ]
        assert masks == sorted(masks)

    def test_guard(self):
        assert len(maximal_independent_sets(Graph(40, []))) == 1
        with pytest.raises(GuardExceeded, match=r"guard: n = 41 > 40$"):
            maximal_independent_sets(Graph(41, []))
        with pytest.raises(GuardExceeded, match=r"guard: n = 41 > 40$"):
            chi_f_exact(Graph(41, []))


class TestChiFExact:
    @pytest.mark.parametrize("name,g,want", GOLDENS, ids=[t[0] for t in GOLDENS])
    def test_golden_values(self, name, g, want):
        value, primal, dual = chi_f_exact(g)
        assert value == want

    def test_against_basis_enumeration_oracle(self):
        # small enough for the basis-enumeration oracle
        for g in (complete(2), cycle(5), cycle(7), k33()):
            assert chi_f_exact(g)[0] == oracles.chi_f_basis_enumeration(g)

    def test_petersen_against_transitive_oracle(self):
        assert chi_f_exact(petersen())[0] == oracles.chi_f_transitive_oracle(
            petersen())

    def test_primal_is_a_fractional_colouring(self):
        value, primal, dual = chi_f_exact(gp72())
        assert primal.is_valid()
        assert primal.size == value

    def test_dual_is_a_fractional_clique(self):
        g = petersen()
        value, primal, dual = chi_f_exact(g)
        assert sum(dual.values()) == value
        for s in maximal_independent_sets(g):
            assert sum(dual[v] for v in s) <= 1

    def test_empty_and_singleton(self):
        assert chi_f_exact(Graph(0, []))[0] == 0
        assert chi_f_exact(Graph(1, []))[0] == 1
        assert chi_f_exact(Graph(3, []))[0] == 1

    def test_at_least_n_over_alpha(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9))
            value = chi_f_exact(g)[0]
            assert value >= F(g.n, oracles.alpha_bruteforce(g))

    def test_monotone_under_subgraphs(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 12 if rng.random() < 0.3 else 8))
            keep = [e for e in g.edges if rng.random() < 0.6]
            sub = Graph(g.n, keep)
            assert chi_f_exact(sub)[0] <= chi_f_exact(g)[0]

    def test_shipped_corpus_between_n_over_alpha_and_14_5(self):
        # 14/5 bounds chi_f of every subcubic triangle-free graph
        # (Dvořák, Sereni & Volec); GP(7,2) attains it
        graphs = [parse_graph6(line) for path in sorted(CORPUS.glob("*.g6"))
                  for line in path.read_text().split()]
        assert len(graphs) == 140
        tight = []
        for g in graphs:
            value = chi_f_exact(g)[0]
            alpha = max(len(s) for s in maximal_independent_sets(g))
            assert F(g.n, alpha) <= value <= F(14, 5)
            if value == F(14, 5):
                tight.append(nx.Graph(g.edges))
        assert len(tight) == 2
        assert any(nx.is_isomorphic(h, nx.Graph(gp72().edges)) for h in tight)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 9), st.randoms(use_true_random=False))
    def test_odd_cycles_and_their_complement_bound(self, n, rng):
        # chi_f(C_n) is 2 for even n and n/((n-1)/2) for odd n
        value = chi_f_exact(cycle(n))[0]
        assert value == (F(2) if n % 2 == 0 else F(n, (n - 1) // 2))


class TestConversions:
    def petersen_law(self):
        g = petersen()
        tf = select_two_factor(g)
        return g, enumerate_distribution(g, tf).distribution

    def test_weighting_from_distribution(self):
        g, dist = self.petersen_law()
        w = distribution_to_weighting(g, dist, TARGET_BOUND)
        assert w.size == TARGET_BOUND
        assert w.is_valid()
        # scaling by k keeps relative proportions
        total = sum(dist.pmf.values())
        assert total == 1
        assert min(w.vertex_weight(v) for v in range(g.n)) >= 1

    def test_rejects_marginal_below_one_over_k(self):
        g, dist = self.petersen_law()
        lo = min(dist.marginal(v) for v in range(g.n))  # 117/320
        with pytest.raises(ColouringError, match="vertex"):
            distribution_to_weighting(g, dist, 1 / lo - F(1, 1000))
        # the boundary itself is accepted
        distribution_to_weighting(g, dist, 1 / lo)

    def test_multiset_has_exact_coverage(self):
        g, dist = self.petersen_law()
        w = distribution_to_weighting(g, dist, TARGET_BOUND)
        cert = weighting_to_multiset(w)
        assert cert.k == w.size == TARGET_BOUND
        assert len(cert.sets) == cert.N * 32 // 11
        assert verify_certificate(g, cert).ok

    def test_trim_really_happens(self):
        # Petersen marginals exceed 11/32, so coverage must be cut down
        g, dist = self.petersen_law()
        w = distribution_to_weighting(g, dist, TARGET_BOUND)
        cert = weighting_to_multiset(w)
        untrimmed = sum(
            int(q * cert.N) * len(s) for s, q in w.weights.items())
        assert sum(len(s) for s in cert.sets) == 10 * cert.N < untrimmed

    def test_trimmed_sets_stay_independent(self):
        g, dist = self.petersen_law()
        cert = weighting_to_multiset(
            distribution_to_weighting(g, dist, TARGET_BOUND))
        assert all(is_independent(g, s) for s in cert.sets)

    def test_round_trip_small(self):
        # a hand weighting of C5: all five edges-of-the-complement, weight 1/2
        g = cycle(5)
        sets_ = [frozenset({i, (i + 2) % 5}) for i in range(5)]
        w = FractionalColouring(g, {s: F(1, 2) for s in sets_})
        assert w.size == F(5, 2)
        cert = weighting_to_multiset(w)
        assert cert.N == 2 and len(cert.sets) == 5
        assert verify_certificate(g, cert).ok

    def test_undercovered_weighting_is_rejected(self):
        g = cycle(5)
        w = FractionalColouring(g, {frozenset({0, 2}): F(2)})
        with pytest.raises(ColouringError, match="vertex 1"):
            weighting_to_multiset(w)

    def test_multiset_guard(self):
        g = Graph(1, [])
        w = FractionalColouring(g, {frozenset({0}): F(10**7)})
        with pytest.raises(GuardExceeded):
            weighting_to_multiset(w)

    def test_trim_splits_a_run(self):
        # vertex 0 is covered 3 times with N = 1: the first two copies of
        # {0, 2} lose it, the third keeps it
        g = cycle(4)
        w = FractionalColouring(g, {frozenset({0, 2}): F(3), frozenset({1, 3}): F(1)})
        cert = weighting_to_multiset(w)
        assert cert.sets == (frozenset(), frozenset(), frozenset({0, 2}),
                             frozenset({1, 3}))
        assert cert.sets == oracles.multiset_oracle(w).sets

    def test_to_json_dict_entries_are_independent_lists(self):
        s = frozenset({0, 2})
        data = MultisetCertificate(5, 4, (s, frozenset({2, 0}), s)).to_json_dict()
        assert data["sets"] == [[0, 2]] * 3
        assert len({id(entry) for entry in data["sets"]}) == 3
        data["sets"][0].append(4)
        assert data["sets"][1:] == [[0, 2], [0, 2]]


def _law_weighting(g):
    """The size-32/11 weighting the pipeline draws from the repaired law
    of a cubic bridgeless graph."""
    _, result = exact_phase5_distribution(g, select_two_factor(g))
    return distribution_to_weighting(g, result.distribution, TARGET_BOUND)


class TestAgainstCopyOracle:
    """The certificate of a cubic bridgeless graph is its law weighting's
    multiset: built per run it must equal the copy-by-copy oracle's, set
    for set and in order, and the verifiers must agree on it.  A weighting
    of more than ``DEFAULT_MAX_MULTISET`` sets is refused instead."""

    @staticmethod
    def check(g):
        w = _law_weighting(g)
        N = math.lcm(*(q.denominator for q in w.weights.values()))
        if sum(q * N for q in w.weights.values()) > DEFAULT_MAX_MULTISET:
            with pytest.raises(GuardExceeded):
                chi_f_upper_subcubic(g)
            return False
        _, cert = chi_f_upper_subcubic(g)
        want = oracles.multiset_oracle(w)
        assert (cert.n_vertices, cert.N) == (want.n_vertices, want.N)
        assert cert.sets == want.sets
        assert verify_certificate(g, cert).problems == oracles.verify_oracle(g, cert) == ()
        return True

    def test_corpus(self):
        graphs = [parse_graph6(line) for path in sorted(CORPUS.glob("*.g6"))
                  for line in path.read_text().split()]
        assert len(graphs) == 140
        # two n = 14 graphs need 2,549,760 and 4,974,592 sets
        assert sum(self.check(g) for g in graphs) == 138

    @pytest.mark.parametrize("nk", [(5, 2), (7, 2), (8, 3), (9, 2), (10, 3)], ids=str)
    def test_ladder(self, nk):
        assert self.check(generalized_petersen(*nk))


class TestVerifyCertificate:
    def good(self):
        g = cycle(5)
        sets_ = tuple(frozenset({i, (i + 2) % 5}) for i in range(5)) * 2
        return g, MultisetCertificate(5, 4, sets_)

    def test_good_certificate(self):
        g, cert = self.good()
        verdict = verify_certificate(g, cert)
        assert verdict.ok and bool(verdict) and verdict.problems == ()

    def test_coverage_failure_names_vertex(self):
        g, cert = self.good()
        broken = MultisetCertificate(
            5, 4, cert.sets[:-1] + (frozenset({2}),))
        verdict = verify_certificate(g, broken)
        assert not verdict
        assert any("vertex 4 is covered 3 times" in p for p in verdict.problems)
        assert any("vertex 2 is covered 5 times" in p for p in verdict.problems)

    def test_edge_inside_a_set_is_reported(self):
        g, cert = self.good()
        broken = MultisetCertificate(
            5, 4, cert.sets[:-1] + (frozenset({3, 4}),))
        verdict = verify_certificate(g, broken)
        assert any("contains edge (3, 4)" in p for p in verdict.problems)

    def test_foreign_vertex_is_reported(self):
        g, cert = self.good()
        broken = MultisetCertificate(5, 4, cert.sets[:-1] + (frozenset({0, 7}),))
        verdict = verify_certificate(g, broken)
        assert any("foreign vertex 7" in p for p in verdict.problems)

    def test_wrong_vertex_count_is_reported(self):
        g, cert = self.good()
        assert not verify_certificate(Graph(6, list(g.edges)), cert)

    def parsed(self, changes=()):
        """``good()`` read back from JSON, so equal sets are distinct
        objects, with the sets at the indices of ``changes`` replaced."""
        g, cert = self.good()
        data = cert.to_json_dict()
        for i, s in changes:
            data["sets"][i] = s
        data["k"] = str(F(len(data["sets"]), data["N"]))
        back = certificate_from_json_dict(data, g.n)
        assert len({id(s) for s in back.sets}) == len(back.sets)
        return g, back

    def test_altered_copy_of_a_repeated_set_is_reported(self):
        # the second copy of {0, 3} gains vertex 2, and with it edge (2, 3)
        g, cert = self.parsed([(8, [0, 2, 3])])
        assert verify_certificate(g, cert).problems == (
            "set 8 contains edge (2, 3)",
            "vertex 2 is covered 5 times, not N = 4",
        )

    def test_set_with_two_edges_reports_both_in_order(self):
        # the second copy of {0, 3} becomes {0, 1, 2}, a path of two edges
        g, cert = self.parsed([(8, [2, 1, 0])])
        assert verify_certificate(g, cert).problems == (
            "set 8 contains edge (0, 1)",
            "set 8 contains edge (1, 2)",
            "vertex 1 is covered 5 times, not N = 4",
            "vertex 2 is covered 5 times, not N = 4",
            "vertex 3 is covered 3 times, not N = 4",
        )

    def test_repeated_foreign_set_is_reported_at_its_first_copy(self):
        g, cert = self.parsed([(3, [0, 3, 7]), (8, [0, 3, 7])])
        assert verify_certificate(g, cert).problems == (
            "set 3 mentions foreign vertex 7",)

    def test_foreign_vertices_are_not_tested_for_edges(self):
        # ids past n would index past the adjacency lists, and a negative
        # id would index them from the end
        g, cert = self.parsed([(3, [5, 6])])
        assert verify_certificate(g, cert).problems == (
            "set 3 mentions foreign vertex 5",
            "set 3 mentions foreign vertex 6",
            "vertex 0 is covered 3 times, not N = 4",
            "vertex 3 is covered 3 times, not N = 4",
        )
        g, cert = self.parsed([(3, [-1, 3])])
        assert verify_certificate(g, cert).problems == (
            "set 3 mentions foreign vertex -1",
            "vertex 0 is covered 3 times, not N = 4",
        )

    def test_multiplicities_count_toward_coverage(self):
        # {1, 3} three times, {0, 3} once: vertex 1 gains a cover, 0 loses one
        g, cert = self.parsed([(8, [1, 3])])
        assert Counter(cert.sets)[frozenset({1, 3})] == 3
        assert verify_certificate(g, cert).problems == (
            "vertex 0 is covered 3 times, not N = 4",
            "vertex 1 is covered 5 times, not N = 4",
        )

    def test_json_round_trip(self):
        g, cert = self.good()
        blob = json.dumps(cert.to_json_dict(), sort_keys=True)
        back = certificate_from_json_dict(json.loads(blob), g.n)
        assert back.N == cert.N
        assert sorted(map(sorted, back.sets)) == sorted(map(sorted, cert.sets))
        assert verify_certificate(g, back).ok

    def test_json_k_mismatch(self):
        g, cert = self.good()
        data = cert.to_json_dict()
        data["k"] = "3"
        with pytest.raises(ColouringError, match="claims k = 3"):
            certificate_from_json_dict(data, g.n)

    @pytest.mark.parametrize("N", [0, -1, None, "4", 4.0, True],
                             ids=["zero", "negative", "missing", "string",
                                  "float", "bool"])
    def test_json_N_must_be_a_positive_int(self, N):
        g, cert = self.good()
        data = cert.to_json_dict()
        if N is None:
            del data["N"]
        else:
            data["N"] = N
        with pytest.raises(ColouringError, match="positive integer"):
            certificate_from_json_dict(data, g.n)

    @pytest.mark.parametrize("sets", [["01"], [[0, "1"]], [(0, 2)], None, "02"],
                             ids=["string-set", "string-vertex", "tuple",
                                  "missing", "string"])
    def test_json_sets_must_be_lists_of_ints(self, sets):
        g, cert = self.good()
        data = cert.to_json_dict()
        if sets is None:
            del data["sets"]
        else:
            data["sets"] = sets
        with pytest.raises(ColouringError, match="list of lists"):
            certificate_from_json_dict(data, g.n)

    def test_json_set_must_not_repeat_a_vertex(self):
        # read as {0, 1}, it would cover the edgeless pair once each
        data = {"N": 1, "k": "1", "sets": [[0, 0, 1]]}
        with pytest.raises(ColouringError, match=r"set \[0, 0, 1\] repeats"):
            certificate_from_json_dict(data, 2)

    def test_json_must_be_an_object(self):
        g, cert = self.good()
        with pytest.raises(ColouringError, match="JSON object"):
            certificate_from_json_dict([cert.to_json_dict()], g.n)


class TestUpperSubcubic:
    FIXTURES = [
        ("Petersen", petersen),
        ("K33", k33),
        ("GP72", gp72),
        ("C5", lambda: cycle(5)),
        ("bridged-composite", bridged_composite),
    ]

    @pytest.mark.parametrize("name,build", FIXTURES, ids=[t[0] for t in FIXTURES])
    def test_certificates(self, name, build):
        g = build()
        bound, cert = chi_f_upper_subcubic(g)
        assert bound == TARGET_BOUND
        assert cert.k <= TARGET_BOUND
        assert len(cert.sets) <= math.ceil(F(32, 11) * cert.N)
        verdict = verify_certificate(g, cert)
        assert verdict.ok, verdict.problems

    @pytest.mark.parametrize("name,build", FIXTURES, ids=[t[0] for t in FIXTURES])
    def test_certificate_beats_or_meets_exact_value(self, name, build):
        g = build()
        _, cert = chi_f_upper_subcubic(g)
        assert cert.k >= chi_f_exact(g)[0]

    def test_c5_certificate_lives_on_five_vertices(self):
        g = cycle(5)
        _, cert = chi_f_upper_subcubic(g)
        assert cert.n_vertices == 5
        assert all(max(s, default=0) < 5 for s in cert.sets)

    def test_one_bridge_reduction_path(self):
        # one degree-2 vertex, bridgeless: forces the doubled construction
        # that keeps its connecting edge
        host = subdivide_edge(k33(), 0, 3)
        step = reduce_subcubic(host)
        assert step.kind == "degree2-single"
        assert step.children[0].detail["leaf"] == "one-bridge"
        _, cert = chi_f_upper_subcubic(host)
        assert cert.k == TARGET_BOUND
        assert verify_certificate(host, cert).ok

    def test_one_bridge_leaf_two_factor_equals_the_splice_oracle(self):
        # every n <= 12 corpus graph with each edge subdivided in turn
        # reduces to one one-bridge leaf; its two-factor, built from the
        # matching alone, has the cycles the splice construction gives
        leaves = 0
        for n in (6, 8, 10, 12):
            for line in (CORPUS / f"cubic_tf_bridgeless_n{n}.g6").read_text().split():
                g = parse_graph6(line)
                for u, v in g.edges:
                    step = reduce_subcubic(subdivide_edge(g, u, v)).children[0]
                    assert step.detail["leaf"] == "one-bridge"
                    leaf, v0 = step.graph, step.detail["bridge"][0]
                    tf = fractional_lp._one_bridge_leaf_two_factor(leaf, v0)
                    assert (tf.cycles, tf.mate) == oracles.one_bridge_leaf_by_splice(leaf, v0)
                    leaves += 1
        assert leaves == 519

    def test_bridge_endpoints_never_share_a_set(self):
        g = bridged_composite()
        _, cert = chi_f_upper_subcubic(g)
        assert all(not ({0, 6} <= s) for s in cert.sets)

    def test_path_input_uses_trivial_leaves(self):
        g = path_graph(6)
        _, cert = chi_f_upper_subcubic(g)
        assert cert.k <= 2
        assert verify_certificate(g, cert).ok

    def test_even_cycle(self):
        g = cycle(6)
        _, cert = chi_f_upper_subcubic(g)
        assert verify_certificate(g, cert).ok

    @pytest.mark.parametrize("build", [lambda: path_graph(200), bridged_composite],
                             ids=["path-200", "bridged-composite"])
    def test_one_structure_analysis_per_call(self, build, monkeypatch):
        # the checks and the reduction share one report of the input, and
        # a double of a bridgeless part needs no search for bridges
        calls = []
        blocks_and_bridges = graph_core._blocks_and_bridges
        monkeypatch.setattr(graph_core, "_blocks_and_bridges",
                            lambda g: calls.append(g.n) or blocks_and_bridges(g))
        for _ in range(2):
            g = build()
            chi_f_upper_subcubic(g)
        assert calls == [g.n, g.n]

    def test_rejects_triangles(self):
        with pytest.raises(GraphError, match="triangle"):
            chi_f_upper_subcubic(complete(4))

    def test_rejects_disconnected(self):
        g = Graph(8, list(cycle(4).edges) + [(u + 4, v + 4) for u, v in cycle(4).edges])
        with pytest.raises(GraphError, match="connected"):
            chi_f_upper_subcubic(g)

    def test_rejects_high_degree(self):
        with pytest.raises(GraphError, match="subcubic"):
            chi_f_upper_subcubic(Graph(5, [(0, v) for v in range(1, 5)]))


@st.composite
def bridge_sides(draw):
    """Two small certificates with their sets on the vertex ranges 0..3
    and 4..7 of an 8-vertex graph, drawn from a few sets per side so that
    copies repeat, and a bridge end in each range."""
    def side(lo):
        N = draw(st.integers(1, 4))
        pool = draw(st.lists(st.frozensets(st.integers(lo, lo + 3)), min_size=1, max_size=3))
        sets = draw(st.lists(st.sampled_from(pool), max_size=3 * N))
        return MultisetCertificate(8, N, tuple(sets))

    return side(0), side(4), draw(st.integers(0, 3)), draw(st.integers(4, 7))


def _merge_or_refusal(merge, sides):
    try:
        return merge(8, *sides)
    except (MergeFailure, GuardExceeded) as exc:
        return type(exc)


class TestMergeOnBridge:
    """The one-pass bridge merge deals b's sets to the indices as the
    permutation of ``oracles.merge_by_permutation`` does, set for set,
    and refuses the same inputs with the same error."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bridge_sides(), st.sampled_from([None, 6, 24]))
    def test_merge_equals_the_permutation_oracle(self, sides, limit):
        with pytest.MonkeyPatch.context() as mp:
            if limit is not None:
                mp.setattr(fractional_lp, "DEFAULT_MAX_MULTISET", limit)
            want = _merge_or_refusal(oracles.merge_by_permutation, sides)
            got = _merge_or_refusal(fractional_lp._merge_on_bridge, sides)
        if isinstance(want, type):
            event(want.__name__)
            assert got is want
        else:
            assert (got.n_vertices, got.N, got.sets) == (want.n_vertices, want.N, want.sets)


def _check_splits_and_certificate(g):
    """The reduction splits g as the scan per split does, and g's
    certificate is verified and at least chi_f, or a guard refuses it."""
    step = reduce_subcubic(g)
    if step.kind == "bridge-split":
        got = list(step.child_maps), list(step.detail["bridges"])
    else:
        got = [tuple(range(g.n))], []
    sides, split = oracles.bridge_splits_by_scan(g)
    assert got == ([tuple(s) for s in sides], split)
    try:
        _, cert = chi_f_upper_subcubic(g)
    except GuardExceeded:
        event("refused by a guard")
        return
    assert verify_certificate(g, cert).ok
    assert chi_f_exact(g)[0] <= cert.k


class TestBridgeSplitOrder:
    """The parts of the bridge tree are split off in the order of the scan
    per split in ``oracles.bridge_splits_by_scan``, which the certificate
    bytes depend on."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(connected_subcubic_graphs(triangle_free=True))
    def test_random_subcubic_graphs(self, g):
        _check_splits_and_certificate(g)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(with_pendant_tails(connected_subcubic_graphs(max_n=8, triangle_free=True)))
    def test_random_graphs_with_pendant_tails(self, g):
        _check_splits_and_certificate(g)

    @pytest.mark.parametrize("edges,n", [
        # pendant vertices at the larger ends of C4 and C5
        ([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)], 6),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (2, 6)], 7),
        # C4 with tails of 1, 2 and 3 vertices, and a 4-vertex path
        ([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6)], 7),
        ([(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5), (2, 6)], 7),
        ([(0, 1), (1, 2), (2, 3)], 4),
        # a pendant vertex at the smaller end, the tail at the larger
        ([(1, 2), (2, 3), (3, 4), (1, 4), (0, 1), (3, 5), (5, 6)], 7),
    ])
    def test_pendants_and_short_tails(self, edges, n):
        _check_splits_and_certificate(Graph(n, edges))
