"""Tests for the four-phase construction: exact law, events, Monte Carlo."""

import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracchrom.augment import exact_phase5_distribution
from fracchrom.fractional_lp import chi_f_upper_subcubic
from fracchrom.graph_core import Graph, GraphError, mask_vertices, parse_graph6, vertex_mask
from fracchrom.two_factor import (
    TwoFactor, TwoFactorError, select_two_factor)
from fracchrom import sampler as S
from fracchrom import templates as T

from oracles import (active_runs, law_oracle, phi_outcomes,
                     recorded_monte_carlo, scanning_monte_carlo,
                     scanning_trial)
from strategies import connected_subcubic_graphs
from sweeps import check_lemma4_rows, collect_candidates, lemma4_sweep
from util_graphs import (circular_ladder, generalized_petersen, gp72, k33,
                         moebius_ladder, petersen)


def petersen_tf():
    g = petersen()
    return g, TwoFactor(g, [(i, 5 + i) for i in range(5)])


def k33_tf():
    g = k33()
    return g, TwoFactor(g, [(0, 3), (1, 4), (2, 5)])


def gp72_tf():
    g = gp72()
    return g, TwoFactor(g, [(i, 7 + i) for i in range(7)])


def cl_tf(k):
    g = circular_ladder(k)
    return g, TwoFactor(g, [(i, k + i) for i in range(k)])


def deficient_n10_tf():
    g = parse_graph6("IlDGHCH_g")  # the one n=10 graph with deficient vertices
    return g, select_two_factor(g)


def tri2sq_tf():
    # two triangles and a square; the square hosts the mates of 1 and 2 at
    # distance two from each other, which lets the whole triangle (0,1,2)
    # stay feasible with positive probability
    g = Graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                   (6, 7), (7, 8), (8, 9), (9, 6),
                   (0, 3), (1, 6), (2, 8), (4, 7), (5, 9)])
    return g, TwoFactor(
        g, [(0, 3), (1, 6), (2, 8), (4, 7), (5, 9)])


def is_maximal_independent(g, mask):
    if not S.is_independent(g, mask):
        return False
    for v in range(g.n):
        if not mask >> v & 1 and not g.adj_mask[v] & mask:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_independent_equals_an_edge_scan(data):
    g = data.draw(connected_subcubic_graphs())
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    assert S.is_independent(g, 0)
    assert S.is_independent(g, mask) == (
        not any(mask >> u & 1 and mask >> v & 1 for u, v in g.edges))


# ---------------------------------------------------------------------------
# bit source


class TestSplitMix64:
    def test_reference_vectors(self):
        # published outputs of the standard splitmix64 for seed 0
        rng = S.SplitMix64(0)
        assert [rng.getrandbits(64) for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_getrandbits_takes_low_bits_first(self):
        first, second = S.SplitMix64(12345), S.SplitMix64(12345)
        full = [first.getrandbits(64) for _ in range(3)]
        # draws that fit share one output, low bits first
        assert second.getrandbits(7) == full[0] & 0x7F
        assert second.getrandbits(50) == (full[0] >> 7) & ((1 << 50) - 1)
        # 7 bits are left, so a draw of 8 discards them for a fresh output
        assert second.getrandbits(8) == full[1] & 0xFF
        assert second.getrandbits(56) == full[1] >> 8
        assert second.getrandbits(1) == full[2] & 1
        # a draw out of 1..64 raises whether or not bits are left, and
        # takes none of them
        for k in (0, 65, -1):
            with pytest.raises(ValueError):
                second.getrandbits(k)
        assert second.getrandbits(63) == full[2] >> 1
        # one bit at a time gives the bits of one wide draw
        third = S.SplitMix64(12345)
        assert sum(third.getrandbits(1) << i for i in range(64)) == full[0]

    def test_select_draws_as_getrandbits_would(self):
        # one-bit runs and wider runs that reject some indices, from every
        # buffer fill: the selection and stream position of one
        # getrandbits draw per index, drawn again while rejected
        program = ((1, (1, 2)), (2, (4, 8, 16)), (1, (0, 32)),
                   (3, (64, 128, 256, 512, 1024)))
        for seed in range(20):
            for skip in range(0, 64, 3):
                rng, ref = S.SplitMix64(seed), S.SplitMix64(seed)
                if skip:
                    rng.getrandbits(skip)
                    ref.getrandbits(skip)
                want = 0
                for k, outcomes in program:
                    idx = ref.getrandbits(k)
                    while idx >= len(outcomes):
                        idx = ref.getrandbits(k)
                    want |= outcomes[idx]
                assert rng.select(program) == want, (seed, skip)
                assert ((rng.state, rng.buffer, rng.left)
                        == (ref.state, ref.buffer, ref.left)), (seed, skip)

    def test_getrandbits_range(self):
        rng = S.SplitMix64(1)
        with pytest.raises(ValueError):
            rng.getrandbits(0)
        with pytest.raises(ValueError):
            rng.getrandbits(65)
        assert 0 <= rng.getrandbits(1) <= 1


# ---------------------------------------------------------------------------
# the run-selection law


class TestPhiOutcomes:
    def test_singleton(self):
        g, tf = petersen_tf()
        law = dict(phi_outcomes({0}, tf))
        assert law == {frozenset({0}): Fraction(1, 2),
                       frozenset(): Fraction(1, 2)}

    def test_three_path(self):
        g, tf = petersen_tf()
        # outer cycle is (0, 4, 3, 2, 1); {0,4,3} is a path run
        law = dict(phi_outcomes({0, 4, 3}, tf))
        assert law == {frozenset({0, 3}): Fraction(1, 2),
                       frozenset({4}): Fraction(1, 2)}

    def test_even_path_canonical_branch_holds_smaller_position(self):
        g, tf = petersen_tf()
        # run (0, 4): positions 0 and 1 -> canonical branch is {0}
        out = phi_outcomes({0, 4}, tf)
        assert out[0] == (frozenset({0}), Fraction(1, 2))
        assert out[1] == (frozenset({4}), Fraction(1, 2))
        # run (1, 0) wraps: positions 4 and 0 -> canonical branch is {0}
        out = phi_outcomes({1, 0}, tf)
        assert out[0] == (frozenset({0}), Fraction(1, 2))
        assert out[1] == (frozenset({1}), Fraction(1, 2))

    def test_full_odd_cycle_uniform_over_maximum_sets(self):
        g, tf = petersen_tf()
        law = dict(phi_outcomes({0, 1, 2, 3, 4}, tf))
        assert len(law) == 5
        for members, p in law.items():
            assert p == Fraction(1, 5)
            assert len(members) == 2
            assert S.is_independent(g, vertex_mask(members))

    def test_full_even_cycle_two_alternating_sets(self):
        g, tf = k33_tf()
        # the whole two-factor is the 6-cycle (0, 5, 1, 3, 2, 4)
        law = dict(phi_outcomes(range(6), tf))
        assert law == {frozenset({0, 1, 2}): Fraction(1, 2),
                       frozenset({5, 3, 4}): Fraction(1, 2)}

    def test_disconnected_parts_multiply(self):
        g, tf = petersen_tf()
        law = dict(phi_outcomes({0, 3, 5}, tf))  # two runs: {0,3} apart? ...
        # 0 and 3 are non-adjacent on the outer cycle, 5 is inner: three
        # singleton runs -> eight outcomes collapsing to 2^3 products
        assert sum(law.values()) == 1
        assert max(len(s) for s in law) == 3
        assert law[frozenset({0, 3, 5})] == Fraction(1, 8)
        assert law[frozenset()] == Fraction(1, 8)

    def test_out_of_range_vertex(self):
        g, tf = petersen_tf()
        with pytest.raises(GraphError):
            phi_outcomes({0, 99}, tf)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=9)))
    def test_law_properties(self, xs):
        g, tf = petersen_tf()
        law = phi_outcomes(xs, tf)
        assert sum(p for _, p in law) == 1
        for members, p in law:
            assert members <= xs
            assert p > 0
            # no two chosen vertices adjacent along the two-factor
            for v in members:
                assert tf.step(v, 1) not in members
                assert tf.step(v, -1) not in members


class TestActiveRuns:
    def test_all_outward(self):
        g, tf = petersen_tf()
        assert active_runs(range(5), tf) == [frozenset(range(5))]

    def test_mixed(self):
        g, tf = petersen_tf()
        assert active_runs([0, 6, 7, 8, 9], tf) == [frozenset({0}),
                                                    frozenset({6, 7, 8, 9})]

    def test_foreign_orientation(self):
        g, tf = petersen_tf()
        for heads in ([0],                   # four spokes unset
                      [0, 5, 1, 2, 3, 4],    # both ends of a spoke
                      [0, 1, 2, 3, 4, 99]):  # a vertex of no spoke
            with pytest.raises(GraphError):
                active_runs(heads, tf)


# ---------------------------------------------------------------------------
# single runs of the construction


class TestRunPhases:
    def test_deterministic_per_stream(self):
        g, tf = petersen_tf()
        a = S.run_phases_1_4(g, tf, S.SplitMix64(7))
        b = S.run_phases_1_4(g, tf, S.SplitMix64(7))
        assert a == b

    def test_situation_invariants(self):
        g, tf = petersen_tf()
        rng = S.SplitMix64(11)
        for _ in range(200):
            sit = S.run_phases_1_4(g, tf, rng)
            assert 0 < sit.prob <= 1
            assert sit.s1 & ~sit.heads == 0
            assert not sit.s3 & sit.heads  # feasible = inactive
            assert sit.s3 & ~sit.feasible == 0
            assert (sit.s1 | sit.s3) & ~sit.out == 0
            assert is_maximal_independent(g, sit.out)

    def test_phase2_rule(self):
        g, tf = petersen_tf()
        rng = S.SplitMix64(13)
        for _ in range(200):
            sit = S.run_phases_1_4(g, tf, rng)
            heads = set(mask_vertices(sit.heads))
            for v in heads:
                if not heads.intersection(g.adj[v]):
                    assert sit.out >> v & 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63))
    def test_output_always_maximal_independent(self, seed):
        g, tf = cl_tf(5)
        sit = S.run_phases_1_4(g, tf, S.SplitMix64(seed))
        assert is_maximal_independent(g, sit.out)

    def test_rejects_foreign_two_factor(self):
        g, tf = petersen_tf()
        h = k33()
        with pytest.raises(TwoFactorError):
            S.run_phases_1_4(h, tf, S.SplitMix64(0))

    @pytest.mark.parametrize("make", [petersen_tf, gp72_tf, deficient_n10_tf],
                             ids=["petersen", "gp72", "deficient-n10"])
    @pytest.mark.parametrize("phase4", ["start", "recompute"])
    def test_every_draw_is_an_enumerated_situation(self, make, phase4):
        # the oracle enumerates under either reading of phase 4
        g, tf = make()
        law = {(rec[0], rec[1], rec[3]): rec
               for rec in law_oracle(g, tf, phase4)[0]}
        for seed in range(200):
            sit = S.run_phases_1_4(g, tf, S.SplitMix64(seed))
            # all six fields, feasible, out and d included
            assert law[(sit.heads, sit.s1, sit.s3)] == (
                sit.heads, sit.s1, sit.feasible, sit.s3, sit.out, sit.d)

    def test_situation_value_semantics(self):
        a = S.Situation(0b11, 0b01, 0b100, 0b100, 0b101, 8)
        b = S.Situation(0b11, 0b01, 0b100, 0b100, 0b101, 8)
        assert a == b and hash(a) == hash(b)
        assert a.prob == Fraction(1, 8)
        for i in range(6):
            fields = [0b11, 0b01, 0b100, 0b100, 0b101, 8]
            fields[i] += 16
            assert S.Situation(*fields) != a


# ---------------------------------------------------------------------------
# exact enumeration


class TestEnumerate:
    def test_petersen_law(self):
        g, tf = petersen_tf()
        res = S.enumerate_distribution(g, tf)
        assert len(res.distribution) == 15
        assert set(res.marginals.values()) == {Fraction(117, 320)}
        for iset, p in res.distribution.items():
            assert p > 0
            assert is_maximal_independent(g, iset)

    def test_k33_law_is_the_two_sides(self):
        # hand-derived: every orientation of the three matching edges ends
        # in one of the two sides.  E.g. heads {0,1,2} are three singleton
        # runs on the 6-cycle (0,5,1,3,2,4), phase 2 adds all of them and
        # blocks everything else; heads {0,5,1} form one run (0,5,1) whose
        # two branches {0,1} / {5} are completed to a full side by phases
        # 3 and 4.  Symmetry gives sides with probability 1/2 each.
        g, tf = k33_tf()
        res = S.enumerate_distribution(g, tf)
        law = dict(res.distribution.items())
        assert law == {vertex_mask({0, 1, 2}): Fraction(1, 2),
                       vertex_mask({3, 4, 5}): Fraction(1, 2)}
        assert set(res.marginals.values()) == {Fraction(1, 2)}

    def test_prism_uniform(self):
        g, tf = cl_tf(3)
        res = S.enumerate_distribution(g, tf)
        assert set(res.marginals.values()) == {Fraction(1, 3)}

    def test_cl5_uniform(self):
        g, tf = cl_tf(5)
        res = S.enumerate_distribution(g, tf)
        assert set(res.marginals.values()) == {Fraction(2, 5)}

    def test_gp72_minimum_marginal(self):
        g, tf = gp72_tf()
        res = S.enumerate_distribution(g, tf)
        assert min(res.marginals.values()) == Fraction(1259, 3584)

    def test_marginals_match_distribution(self):
        g, tf = petersen_tf()
        res = S.enumerate_distribution(g, tf)
        for v in range(g.n):
            assert res.marginals[v] == res.distribution.marginal(v)

    def test_phase4_readings_coincide_per_situation(self):
        # working the feasible set out before or after phase 3 selects the
        # same vertices in phase 4 (the one-vertex runs phase 3 left out);
        # the law keeps the first reading
        for g, tf in (petersen_tf(), cl_tf(5), tri2sq_tf()):
            recs = sorted((r.heads, r.s1, r.feasible, r.s3, r.out, r.d)
                          for r in S.enumerate_situations(g, tf))
            assert law_oracle(g, tf, "start")[0] == recs
            assert law_oracle(g, tf, "recompute")[0] == recs

    def test_cache_returns_same_object(self):
        g, tf = petersen_tf()
        r1 = S.enumerate_distribution(g, tf)
        r2 = S.enumerate_distribution(g, tf)
        assert r1 is r2

    def test_law_is_computed_once_per_two_factor(self, monkeypatch):
        calls = []
        compute = S._compute_law

        def counted(*args):
            calls.append(args[1])
            return compute(*args)

        monkeypatch.setattr(S, "_compute_law", counted)
        g, tf = petersen_tf()
        S.enumerate_distribution(g, tf)
        # the template events, the situations and phase 5 read the same law
        t = T.builtin("E0", tf, 0)
        S.event_probability(t, g, tf)
        S.forces(t, 0, g, tf)
        S.admissible(t, g, tf)
        S.exact_q(t, g, tf)
        S.enumerate_situations(g, tf)
        exact_phase5_distribution(g, tf)
        assert calls == [tf]
        # an equal but distinct two-factor owns (and computes) its own law
        _, twin = petersen_tf()
        assert twin == tf and twin is not tf
        S.enumerate_distribution(g, twin)
        assert len(calls) == 2 and calls[1] is twin

    def test_pmf_path_and_events_build_no_situations(self, monkeypatch,
                                                      tmp_path):
        from fracchrom import cli
        from fracchrom.graph_core import encode_graph6

        def refuse(*args):
            raise AssertionError("Situation built")

        monkeypatch.setattr(S, "Situation", refuse)
        graphs = {"petersen": petersen(),
                  "deficient": parse_graph6("KlSHGC@@GAoD")}
        for name, g in graphs.items():
            tf = select_two_factor(g)
            S.enumerate_distribution(g, tf)
            exact_phase5_distribution(g, tf)
            for t in (T.builtin("E0", tf, 0), T.builtin("B", tf, 0)):
                S.event_probability(t, g, tf)
                S.forces(t, 0, g, tf)
                S.admissible(t, g, tf)
                S.exact_q(t, g, tf)
            (tmp_path / (name + ".g6")).write_text(encode_graph6(g) + "\n")
        for name in graphs:
            path = str(tmp_path / (name + ".g6"))
            for argv in (["certify", path], ["prob", path, "--exact"]):
                assert cli.run(argv, io.StringIO(), io.StringIO()) == 0, argv
        assert cli.run(["corpus", str(tmp_path)],
                       io.StringIO(), io.StringIO()) == 0

    def test_event_query_keeps_nothing(self):
        # the law's trial table and phase-3 memo hold all a query reads, so
        # a query on a built law walks them and keeps nothing
        g = generalized_petersen(8, 3)
        tf = select_two_factor(g)
        S.enumerate_distribution(g, tf)
        t = T.builtin("E0", tf, 0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            p = S.event_probability(t, g, tf)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < p < 1
        assert after - before < 4_000
        assert peak - before < 200_000

    def test_situations_consistent(self):
        g, tf = petersen_tf()
        sits = S.enumerate_situations(g, tf)
        assert sum(s.prob for s in sits) == 1
        for sit in sits:
            assert sit.s1 & ~sit.heads == 0
            assert not sit.s3 & sit.heads
            assert (sit.s1 | sit.s3) & ~sit.out == 0

    def test_each_situation_list_is_new(self):
        g, tf = petersen_tf()
        sits = S.enumerate_situations(g, tf)
        again = S.enumerate_situations(g, tf)
        assert sits is not again and sits == again
        assert all(a is not b for a, b in zip(sits, again))
        # the list is the caller's: emptying it leaves the law whole
        sits.clear()
        assert S.enumerate_situations(g, tf) == again

    def test_default_orientation_guard(self):
        g, tf = cl_tf(17)  # 2^17 orientations
        with pytest.raises(S.ExplosionGuard):
            S.enumerate_distribution(g, tf)

    def test_explicit_guards(self):
        g = moebius_ladder(5)
        tf = TwoFactor(g, [(i, 5 + i) for i in range(5)])
        with pytest.raises(S.ExplosionGuard):
            S.enumerate_distribution(g, tf, max_orientations=4)
        with pytest.raises(S.ExplosionGuard):
            S.enumerate_distribution(g, tf, max_branches=10)

    def test_guards_hold_on_cached_law(self):
        g = petersen()
        tf = select_two_factor(g)
        assert len(S.enumerate_distribution(g, tf).distribution) == 15
        with pytest.raises(S.ExplosionGuard):
            S.enumerate_distribution(g, tf, max_branches=10)
        with pytest.raises(S.ExplosionGuard):
            S.enumerate_situations(g, tf, max_orientations=4)
        assert len(S.enumerate_distribution(g, tf).distribution) == 15

    def test_guard_is_a_guard_exceeded(self):
        from fracchrom.graph_core import GuardExceeded
        assert issubclass(S.ExplosionGuard, GuardExceeded)
        # the events take no guards: a law kept under a raised limit
        # answers them only if it meets the defaults
        g = generalized_petersen(12, 5)
        tf = select_two_factor(g)
        S.enumerate_distribution(g, tf, max_branches=2**26)
        with pytest.raises(S.ExplosionGuard, match="limit of %d branches"
                           % S.DEFAULT_MAX_BRANCHES):
            S.event_probability(T.builtin("E0", tf, 0), g, tf)

    @pytest.mark.parametrize("entry", [
        lambda g, tf, **kw: S.enumerate_distribution(g, tf, **kw),
        lambda g, tf, **kw: exact_phase5_distribution(g, tf, **kw),
        lambda g, tf, **kw: chi_f_upper_subcubic(g, **kw),
    ], ids=["enumerate_distribution", "exact_phase5_distribution",
            "chi_f_upper_subcubic"])
    @pytest.mark.parametrize("key", ["max_orientations", "max_branches"])
    @pytest.mark.parametrize("value", [1.5, True, False, -1, 0, "9"],
                             ids=repr)
    def test_guard_limit_must_be_a_positive_int(self, entry, key, value):
        # refused before any guard is weighed, on a new and on a kept law
        g = parse_graph6("IheA@GUAo")
        tf = select_two_factor(g)
        message = f"{key} must be a positive integer"
        with pytest.raises(GraphError, match=message):
            entry(g, tf, **{key: value})
        entry(g, tf, **{key: None})  # None is the default
        with pytest.raises(GraphError, match=message):
            entry(g, tf, **{key: value})

    def test_law_memory_is_bounded(self):
        # the walk keeps tallies only: keeping each orientation's list of
        # covered masks peaks above 4.6 MB here
        g = generalized_petersen(10, 3)
        tf = select_two_factor(g)
        tracemalloc.start()
        try:
            law = S._compute_law(g, tf, None, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(law.result.distribution) == 187
        assert peak < 4_000_000

    def test_distribution_validates(self):
        one = vertex_mask({0})
        with pytest.raises(GraphError):
            S.Distribution({one: Fraction(1, 2)})
        with pytest.raises(GraphError):
            S.Distribution({one: Fraction(0)})


# sha256 of the law and of the situation list, recorded from the
# Fraction-per-situation enumerator; the two phase-4 readings agree on
# every graph here, so each graph has one pair of digests
_GOLDEN_LAW = {
    "GP(7,2)": (
        2512,
        "197c339f586df0c22ffd33c47a2fec13183c712a0ecba92888bc1e152c2f094e",
        "3621028e008a89d1ef678e4b83f737cfa159283faaada793a3270a0abae96c7b"),
    "GP(9,2)": (
        25545,
        "6e6b422edbee9f368d8ca0d881ce93a79921ea0a10cd0360978b38e81f164197",
        "b38d932657753f93cf4492dff61a1914460a011a69f3be3e232a04b95ffc4ebc"),
    "GP(10,3)": (
        125650,
        "928b0d7a690e02e51d58a67e0f934227c81e9b17bc03e9dc88f25ae3d46069ba",
        "1822809e1193e38d1ea63107cc7a93b2899bbca78b031f0c0dfc11874b1fae80"),
    "DEFICIENT_N10": (
        336,
        "fc5c591ef455effb9800c8d9bef378878552a1513db3219d2d17e5b83eb1a7d9",
        "63ee756a1852ae3865281ebefc1e16c98fa6be111c543f8c43e26655040ad2a7"),
}


def _golden_graph(name):
    if name == "DEFICIENT_N10":
        return parse_graph6("IlDGHCH_g")
    n, k = (int(x) for x in name[3:-1].split(","))
    return generalized_petersen(n, k)


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestGoldenLaw:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_LAW))
    def test_law_and_situations_digests(self, name):
        branches, law_digest, sit_digest = _GOLDEN_LAW[name]
        g = _golden_graph(name)
        tf = select_two_factor(g)
        res = S.enumerate_distribution(g, tf)
        assert _sha256(res.to_json_dict()) == law_digest
        rows = sorted(
            (mask_vertices(sit.heads), mask_vertices(sit.s1),
             mask_vertices(sit.s3), str(sit.prob), mask_vertices(sit.out))
            for sit in S.enumerate_situations(g, tf))
        assert len(rows) == branches
        assert _sha256(rows) == sit_digest

    def test_gp125_law_with_a_raised_guard(self):
        g = generalized_petersen(12, 5)
        tf = select_two_factor(g)
        with pytest.raises(S.ExplosionGuard) as err:
            S.enumerate_distribution(g, tf)
        assert str(err.value) == (
            "situation count passed the limit of %d branches"
            % S.DEFAULT_MAX_BRANCHES)
        res = S.enumerate_distribution(g, tf, max_branches=2**26)
        assert tf.derived["law"].branches == 1_241_124
        assert len(res.distribution) == 588
        assert min(res.marginals.values()) == Fraction(12339, 32768)

    def test_branch_guard_boundary(self):
        g = _golden_graph("GP(7,2)")
        branches = _GOLDEN_LAW["GP(7,2)"][0]
        S.enumerate_distribution(g, select_two_factor(g), max_branches=branches)
        with pytest.raises(S.ExplosionGuard) as err:
            S.enumerate_distribution(g, select_two_factor(g),
                                     max_branches=branches - 1)
        assert str(err.value) == (
            "situation count passed the limit of %d branches" % (branches - 1))


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class TestLawOracle:
    @pytest.mark.parametrize("phase4", ["start", "recompute"])
    def test_law_matches_oracle_on_corpus(self, phase4):
        # the law sums over the masks covered after phase 2, and
        # enumerate_situations walks its orientations and phase-1
        # selections again; the oracle derives the runs and their
        # branches on its own, one situation at a time, under either
        # reading of phase 4
        graphs = [parse_graph6(line) for path in sorted(CORPUS.glob("*.g6"))
                  for line in path.read_text().split()]
        assert len(graphs) == 140
        graphs += [generalized_petersen(7, 2), generalized_petersen(8, 3)]
        for g in graphs:
            tf = select_two_factor(g)
            sits = S.enumerate_situations(g, tf)
            law = tf.derived["law"]
            records, pmf, marginals, branches = law_oracle(g, tf, phase4)
            assert sorted((r.heads, r.s1, r.feasible, r.s3, r.out, r.d)
                          for r in sits) == records
            assert law.result.distribution.pmf == {
                vertex_mask(s): p for s, p in pmf.items()}
            assert law.result.marginals == marginals
            assert law.branches == branches
            assert law.denom == math.lcm(*(r[-1] for r in records))


# ---------------------------------------------------------------------------
# template events against the exact law


def vertex_sets(sit):
    """The heads, phase-1 and phase-3 selections of ``sit`` as sets."""
    return (set(mask_vertices(sit.heads)), set(mask_vertices(sit.s1)),
            set(mask_vertices(sit.s3)))


def conforms(sit, t, phase3=True):
    """Set-level conformance: orientation extends the template's arcs,
    phase-1 and (unless ``phase3`` is false) phase-3 requirements all
    hold."""
    heads, s1, s3 = vertex_sets(sit)
    return (t.heads <= heads and t.d1 <= s1 and not t.d1bar & s1
            and (not phase3 or (t.d3 <= s3 and not t.d3bar & s3)))


class TestEvents:
    def test_forcing_family_exact_probabilities(self):
        g, tf = petersen_tf()
        expected = {"E0": Fraction(1, 8), "E-": Fraction(1, 16),
                    "E+": Fraction(1, 16), "E+-": Fraction(19, 320)}
        for name, want in expected.items():
            t = T.builtin(name, tf, 0)
            assert S.event_probability(t, g, tf) == want

    def test_forcing_family_partitions_active_success(self):
        g, tf = petersen_tf()
        sits = S.enumerate_situations(g, tf)
        templates = [T.builtin(n, tf, 0) for n in T.FORCING_NAMES]
        direct = sum((sit.prob for sit in sits
                      if sit.heads & sit.out & 1), Fraction(0))
        total = sum((S.event_probability(t, g, tf) for t in templates),
                    Fraction(0))
        assert total == direct
        for sit in sits:
            assert sum(1 for t in templates if conforms(sit, t)) <= 1

    def test_event_probability_agrees_with_situation_filter(self):
        # all four event queries against a reference built from the public
        # situation list, for every template at every vertex
        def feasible_of(g, sit):
            heads, s1, _ = vertex_sets(sit)
            covered = s1 | {h for h in heads if not heads & set(g.adj[h])}
            return {v for v in range(g.n) if v not in covered
                    and not covered & set(g.adj[v])}

        def templates_at(tf, u):
            for name in T.BUILTIN_NAMES:
                try:
                    yield name, T.builtin(name, tf, u)
                except T.TemplateError:
                    pass
            for name, t in T.sigma_library(tf, u):
                if t is not T.INVALID:
                    yield name, t

        checked = 0
        for g, tf in (petersen_tf(), tri2sq_tf()):
            sits = [(sit, set(mask_vertices(sit.out)), feasible_of(g, sit))
                    for sit in S.enumerate_situations(g, tf)]
            for sit, _, feas in sits:
                assert set(mask_vertices(sit.feasible)) == feas
            for u in range(g.n):
                for name, t in templates_at(tf, u):
                    label = (name, u)
                    hits = [(sit.prob, out, feas)
                            for sit, out, feas in sits
                            if conforms(sit, t)]
                    assert S.event_probability(t, g, tf) == sum(
                        (p for p, _, _ in hits), Fraction(0)), label
                    for w in range(g.n):
                        assert S.forces(t, w, g, tf) == all(
                            w in out for _, out, _ in hits), (label, w)

                    constrained = t.d3 | t.d3bar
                    if not constrained:
                        adm = True
                    elif constrained != {t.focus}:
                        adm = False
                    else:
                        adm = all(
                            t.focus in feas for sit, _, feas in sits
                            if conforms(sit, t, phase3=False))
                    assert S.admissible(t, g, tf) == adm, label

                    cycle = set(tf.cycles[tf.cycle_of[t.focus]])
                    total = sum((p for p, _, _ in hits), Fraction(0))
                    if t.focus in t.d3 and len(cycle) % 2 and total:
                        q = sum((p for p, _, feas in hits
                                 if cycle <= feas), Fraction(0)) / total
                    else:
                        q = Fraction(0)
                    assert S.exact_q(t, g, tf) == q, label
                    checked += bool(q)
        assert checked  # tri2sq's odd cycles give some positive q

    def test_focus_only_template_is_the_sure_event(self):
        g, tf = petersen_tf()
        t = T.parse_template_dsl("focus 0", tf)
        assert S.event_probability(t, g, tf) == 1
        assert not S.forces(t, 0, g, tf)

    def test_forcing_family_forces(self):
        g, tf = petersen_tf()
        for name in T.FORCING_NAMES:
            assert S.forces(T.builtin(name, tf, 0), 0, g, tf)

    @pytest.mark.parametrize("u", [-1, 10, 11])
    def test_forces_rejects_out_of_range_vertex(self, u):
        g, tf = petersen_tf()
        with pytest.raises(GraphError, match="vertex %d out of range" % u):
            S.forces(T.builtin("E0", tf, 0), u, g, tf)

    # True once answered for vertex 1 and 1.0 raised a raw TypeError
    @pytest.mark.parametrize("u", [True, 1.0, "0", None], ids=repr)
    def test_forces_rejects_a_non_int_vertex(self, u):
        g, tf = petersen_tf()
        with pytest.raises(GraphError, match="out of range: not an int in"):
            S.forces(T.builtin("E0", tf, 0), u, g, tf)

    def test_phase3_requirement_forces_trivially(self):
        g, tf = petersen_tf()
        # any template demanding u in the phase-3 selection forces u
        assert S.forces(T.builtin("B", tf, 0), 0, g, tf)

    def test_admissibility(self):
        g, tf = petersen_tf()
        for name in T.FORCING_NAMES:
            assert S.admissible(T.builtin(name, tf, 0), g, tf)
        # standalone right-hand templates constrain the focus's phase-3
        # state without protecting it, so some weakly conforming
        # situation leaves the focus infeasible
        assert not S.admissible(T.builtin("B", tf, 0), g, tf)
        assert not S.admissible(T.builtin("C1", tf, 0), g, tf)

    def test_library_members_force_and_are_admissible(self):
        g, tf = petersen_tf()
        members = [(n, t) for n, t in T.sigma_library(tf, 0)
                   if t is not T.INVALID]
        assert members
        for name, t in members:
            assert S.admissible(t, g, tf), name
            assert S.forces(t, 0, g, tf), name

    def test_library_union_probability(self):
        g, tf = petersen_tf()
        members = [t for _, t in T.sigma_library(tf, 0) if t is not T.INVALID]
        sits = S.enumerate_situations(g, tf)
        union = sum((sit.prob for sit in sits
                     if any(conforms(sit, t) for t in members)), Fraction(0))
        assert union == Fraction(67, 1280)
        assert union >= Fraction(8, 256)

    def test_lemma4_sweep_petersen_and_k33(self):
        for g, tf in (petersen_tf(), k33_tf()):
            rows = lemma4_sweep(g, tf, 0)
            checked, bad = check_lemma4_rows(rows)
            assert not bad, bad
            assert checked >= 4  # at least the four forcing templates

    def test_exact_q_zero_on_two_cycle_factors(self):
        g, tf = petersen_tf()
        b = T.builtin("B", tf, 0)
        assert T.q_upper(b, g, tf) == Fraction(1, 8)
        assert S.exact_q(b, g, tf) == 0
        assert S.event_probability(b, g, tf) == Fraction(37, 1280)

    def test_exact_q_positive_fixture(self):
        g, tf = tri2sq_tf()
        b = T.builtin("B", tf, 0)
        q = S.exact_q(b, g, tf)
        assert q == Fraction(2, 9)
        assert q <= T.q_upper(b, g, tf) == Fraction(1, 2)

    def test_exact_q_needs_phase3_focus(self):
        g, tf = petersen_tf()
        assert S.exact_q(T.builtin("E0", tf, 0), g, tf) == 0
        assert S.exact_q(T.parse_template_dsl("focus 0", tf), g, tf) == 0

    def test_foreign_template_rejected(self):
        # each query checks the template first, before any early return
        g, tf = petersen_tf()
        _, tfk = k33_tf()
        queries = (S.event_probability, S.admissible, S.exact_q, T.q_upper,
                   T.sensitive_pairs, lambda t, g, tf: S.forces(t, 0, g, tf))
        for t in (T.builtin("B", tfk, 0), T.builtin("E0", tfk, 0),
                  T.Template([(99, 5)], d3=[99], focus=99),
                  T.Template([(5, 99), (0, 98)], d1=[99, 98], focus=0),
                  T.Template([], focus=99)):
            for query in queries:
                with pytest.raises(T.TemplateError):
                    query(t, g, tf)


# ---------------------------------------------------------------------------
# Monte Carlo


class TestMonteCarlo:
    def test_matches_exact_marginals_within_4_sigma(self):
        g, tf = petersen_tf()
        exact = S.enumerate_distribution(g, tf).marginals
        rep = S.monte_carlo(g, tf, 100_000, seed=2024)
        assert rep.violations == 0
        for v in range(g.n):
            freq = rep.counts[v] / rep.trials
            assert abs(freq - float(exact[v])) <= 4 * rep.stderr(v)

    def test_deterministic(self):
        g, tf = gp72_tf()
        a = S.monte_carlo(g, tf, 20_000, seed=5)
        b = S.monte_carlo(g, tf, 20_000, seed=5)
        assert a.counts == b.counts
        assert a.violations == b.violations == 0

    def test_seed_matters(self):
        g, tf = petersen_tf()
        a = S.monte_carlo(g, tf, 5_000, seed=1)
        b = S.monte_carlo(g, tf, 5_000, seed=2)
        assert a.counts != b.counts

    def test_report_fields(self):
        g, tf = petersen_tf()
        rep = S.monte_carlo(g, tf, 1_000, seed=0)
        assert rep.n == 10 and rep.trials == 1_000 and rep.seed == 0
        assert rep.backend == "pure-python"
        assert rep.frequency(0) == Fraction(rep.counts[0], 1_000)
        assert 0.0 <= rep.stderr(0) < 1.0

    def test_large_graph_uses_reference_path(self):
        k = 33  # 66 vertices, beyond one 64-bit word
        g = circular_ladder(k)
        tf = TwoFactor(g, [(i, k + i) for i in range(k)])
        rep = S.monte_carlo(g, tf, 60, seed=8)
        assert rep.backend == "pure-python"
        assert rep.violations == 0
        args = S._kernel_args(g, tf)
        counts = [0] * g.n
        rng = S.SplitMix64(8)
        for _ in range(60):
            out = scanning_trial(g.n, *args, False, rng.getrandbits)[4]
            for v in range(g.n):
                counts[v] += (out >> v) & 1
        assert rep.counts == tuple(counts)

    def test_input_validation(self):
        g, tf = petersen_tf()
        with pytest.raises(GraphError):
            S.monte_carlo(g, tf, 0, seed=1)
        h = k33()
        with pytest.raises(TwoFactorError):
            S.monte_carlo(h, tf, 10, seed=1)

    @pytest.mark.parametrize("trials,seed", [
        (True, 1), (10, -1), (10, 1 << 64), (10, 1.5), (10, True)],
        ids=["bool-trials", "negative-seed", "seed-2^64", "float-seed",
             "bool-seed"])
    def test_refuses_what_the_cli_refuses(self, trials, seed):
        g, tf = petersen_tf()
        with pytest.raises(GraphError):
            S.monte_carlo(g, tf, trials, seed)

    @pytest.mark.parametrize("with_plan", [False, True],
                             ids=["no-plan", "plan"])
    def test_trials_run_one_after_another_on_one_stream(self, with_plan):
        # every trial, phase 5 included, starts where the last one's
        # draws ended on SplitMix64(seed); the oracle runs so and must
        # give the histogram and the final stream position
        g, tf = deficient_n10_tf()
        plan = exact_phase5_distribution(g, tf)[0] if with_plan else None
        report, position = recorded_monte_carlo(g, tf, 3000, 41, plan=plan)
        assert (report.histogram, position) == scanning_monte_carlo(
            g, tf, 3000, 41, plan)

    def test_kernel_backend_reports(self):
        assert S.kernel_backend() == "pure-python"
