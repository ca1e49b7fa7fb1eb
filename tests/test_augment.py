"""Tests for deficiency classification and the probability-repair phase."""

import random
from fractions import Fraction

import pytest

from fracchrom.graph_core import GraphError, mask_vertices, parse_graph6
from fracchrom import augment as A
from fracchrom import sampler as S
from fracchrom import templates as T
from fracchrom.two_factor import (
    TwoFactorError, satisfies_ks_condition, select_two_factor,
    two_factor_from_matching)

from fixtures_deficiency import (
    PATTERN_FIXTURES,
    mixed_deficiency_fixture,
    random_fixture,
    type_0_fixture,
    type_I_fixture,
    type_Ia_fixture,
    type_Ib_fixture,
    type_II_fixture,
    type_IIa_fixture,
    type_III_fixture,
)
from oracles import law_oracle, scanning_trial
from util_graphs import circular_ladder, gp72, k33, petersen

F = Fraction


def _members(mask):
    return frozenset(mask_vertices(mask))

ALL_FIXTURES = [
    ("0", type_0_fixture),
    ("I", type_I_fixture),
    ("Ia", type_Ia_fixture),
    ("Ib", type_Ib_fixture),
    ("II", type_II_fixture),
    ("IIa", type_IIa_fixture),
    ("III", type_III_fixture),
    ("mixed", mixed_deficiency_fixture),
]


def petersen_tf():
    g = petersen()
    return g, two_factor_from_matching(g, [(i, 5 + i) for i in range(5)])


def k33_tf():
    g = k33()
    return g, two_factor_from_matching(g, [(0, 3), (1, 4), (2, 5)])


def gp72_tf():
    g = gp72()
    return g, two_factor_from_matching(g, [(i, 7 + i) for i in range(7)])


def cl_tf(k):
    g = circular_ladder(k)
    return g, two_factor_from_matching(g, [(i, k + i) for i in range(k)])


# ---------------------------------------------------------------------------
# the crossing-edge rule


class TestCrossingEdgeRule:
    def test_petersen_spokes_are_zero(self):
        # girth five: no 4-cycles anywhere
        g, tf = petersen_tf()
        for u in range(10):
            assert A.epsilon_nochord(g, tf, u) == 0

    def test_ladder_rungs_are_plus_one(self):
        # every rung of a circular ladder sits in a square face
        for k in (3, 5, 6):
            g, tf = cl_tf(k)
            for u in range(2 * k):
                assert A.epsilon_nochord(g, tf, u) == 1

    def test_deficient_crossing_edge(self):
        g, tf, focus = type_0_fixture()
        assert A.epsilon_nochord(g, tf, focus) == -1
        assert A.epsilon_nochord(g, tf, tf.mate[focus]) == -1

    def test_chord_is_rejected(self):
        g, tf, focus = type_Ia_fixture()
        with pytest.raises(A.DeficiencyError):
            A.epsilon_nochord(g, tf, focus)  # focus mate is on the same cycle


# ---------------------------------------------------------------------------
# the same-cycle pattern table


class TestChordClassification:
    @pytest.mark.parametrize("dtype", sorted(PATTERN_FIXTURES))
    def test_each_pattern_and_its_reflection(self, dtype):
        g, tf, focus = PATTERN_FIXTURES[dtype]()
        rec = A.classify_chord(g, tf, focus)
        assert rec.dtype == dtype
        assert rec.epsilon == A.EPSILON_BY_TYPE[dtype]
        assert rec.sponsor == tf.mate[focus]

        g, tf, focus = PATTERN_FIXTURES[dtype](mirror=True)
        rec = A.classify_chord(g, tf, focus)
        if dtype == "I":
            assert rec.dtype == "I"  # the broad pattern has no reflection
        else:
            assert rec.dtype == dtype + "*"
            assert rec.epsilon == A.EPSILON_BY_TYPE[dtype]

    def test_unmatched_chord_is_none(self):
        # the length-14 ring has chords at distances the table ignores
        g, tf, _ = type_I_fixture()
        rec = A.classify_chord(g, tf, 13)
        assert rec.dtype == "none"
        assert rec.epsilon == 0
        assert rec.sponsor is None

    def test_chord_inside_4cycle_rejected(self):
        g, tf = k33_tf()
        for u in range(6):
            with pytest.raises(A.DeficiencyError):
                A.classify_chord(g, tf, u)

    def test_crossing_edge_rejected(self):
        g, tf, focus = type_0_fixture()
        with pytest.raises(A.DeficiencyError):
            A.classify_chord(g, tf, focus)

    def test_base_and_reflection_can_cohabit_one_ring(self):
        g, tf, _ = mixed_deficiency_fixture()
        recs = A.deficiency_report(g, tf)
        assert recs[1].dtype == "Ia"
        assert recs[2].dtype == "Ia*"
        assert recs[0].dtype == "I"
        assert recs[3].dtype == "I"


# ---------------------------------------------------------------------------
# the full correction map


class TestEpsilonFull:
    def test_quiet_graphs(self):
        for g, tf in (petersen_tf(), gp72_tf()):
            eps = A.epsilon_full(g, tf)
            assert set(eps.values()) == {0}
            assert not any(r.deficient for r in A.deficiency_report(g, tf))

    def test_k33_all_chords_in_squares(self):
        g, tf = k33_tf()
        assert set(A.epsilon_full(g, tf).values()) == {0}

    def test_type_0_fixture_map(self):
        g, tf, _ = type_0_fixture()
        eps = A.epsilon_full(g, tf)
        assert eps == {0: F(-1), 1: F(1), 2: F(1), 3: F(1), 4: F(1),
                       5: F(-1), 6: F(0), 7: F(1), 8: F(1), 9: F(0),
                       10: F(1), 11: F(1)}

    def test_type_Ia_fixture_map(self):
        g, tf, _ = type_Ia_fixture()
        eps = A.epsilon_full(g, tf)
        assert eps == {0: F(-2), 1: F(0), 2: F(-1, 2), 3: F(1), 4: F(1),
                       5: F(0), 6: F(2), 7: F(1, 2), 8: F(0), 9: F(0),
                       10: F(-1), 11: F(1), 12: F(1), 13: F(-1)}

    @pytest.mark.parametrize("name,builder", ALL_FIXTURES)
    def test_mate_negation_and_mate_rule(self, name, builder):
        g, tf, _ = builder()
        recs = A.deficiency_report(g, tf)
        eps = A.epsilon_full(g, tf)
        for r in recs:
            v = tf.mate[r.vertex]
            if r.deficient and r.dtype != "0":
                assert not recs[v].deficient
                assert eps[v] == -r.epsilon
        # on a single two-cycle fixture the nonzero terms must cancel in
        # pairs only where the negation rule applies; spot-check totals
        assert all(e in [F(0), F(1), F(-1)] or abs(e) <= 2 for e in eps.values())

    def test_record_json(self):
        g, tf, focus = type_Ia_fixture()
        rec = A.deficiency_report(g, tf)[focus]
        d = rec.to_json_dict()
        assert d == {"vertex": 0, "type": "Ia", "epsilon": "-2", "sponsor": 6}


# ---------------------------------------------------------------------------
# sponsors


class TestSponsor:
    def test_chord_types_sponsor_their_mate(self):
        for dtype, builder in PATTERN_FIXTURES.items():
            g, tf, focus = builder()
            assert A.sponsor(g, tf, focus) == tf.mate[focus]

    def test_type_0_tiebreak_prefers_backward_neighbour(self):
        g, tf, focus = type_0_fixture()
        # both cycle neighbours of the focus carry term +1
        eps = A.epsilon_full(g, tf)
        back, fwd = tf.step(focus, -1), tf.step(focus, 1)
        assert eps[back] == 1 and eps[fwd] == 1
        assert A.sponsor(g, tf, focus) == back

    def test_type_0_unique_candidate(self):
        g, tf, _ = type_0_fixture()
        # the focus's mate (vertex 5) has exactly one qualifying neighbour
        assert A.sponsor(g, tf, 5) == 11

    def test_non_deficient_has_no_sponsor(self):
        g, tf = petersen_tf()
        with pytest.raises(A.DeficiencyError):
            A.sponsor(g, tf, 0)

    @pytest.mark.parametrize("name,builder", ALL_FIXTURES)
    def test_sponsor_injective_and_adjacent(self, name, builder):
        g, tf, _ = builder()
        recs = [r for r in A.deficiency_report(g, tf) if r.deficient]
        sponsors = [r.sponsor for r in recs]
        assert len(sponsors) == len(set(sponsors))
        for r in recs:
            assert g.has_edge(r.vertex, r.sponsor)

    def test_random_fixtures_exclusive_and_injective(self):
        # two hundred random cubic triangle-free fixtures: classification
        # never double-matches, the mate rule holds (both enforced inside
        # the analysis), and no vertex sponsors two others
        rng = random.Random(20260814)
        seen_deficient = 0
        for _ in range(200):
            g, tf = random_fixture(rng)
            recs = [r for r in A.deficiency_report(g, tf) if r.deficient]
            seen_deficient += len(recs)
            sponsors = [r.sponsor for r in recs]
            assert len(sponsors) == len(set(sponsors))
            for r in recs:
                assert g.has_edge(r.vertex, r.sponsor)
                assert r.epsilon == A.EPSILON_BY_TYPE[r.dtype]
        assert seen_deficient  # the sample is not vacuous


# ---------------------------------------------------------------------------
# per-vertex calls refuse what is not a vertex


@pytest.fixture(scope="module")
def deficient_n10():
    g = parse_graph6("IlDGHCH_g")  # deficient vertices 4 and 5
    tf = select_two_factor(g)
    assert [r.vertex for r in A.deficiency_report(g, tf) if r.deficient] == [4, 5]
    assert A.sponsor(g, tf, 4) == 8
    return g, tf, S.enumerate_distribution(g, tf).distribution


PER_VERTEX_CALLS = {
    "sponsor": lambda g, tf, u, dist: A.sponsor(g, tf, u),
    "favourable": lambda g, tf, u, dist: A.favourable(g, tf, u, frozenset()),
    "receptivity": lambda g, tf, u, dist: A.receptivity(g, tf, u, dist),
    "classify_chord": lambda g, tf, u, dist: A.classify_chord(g, tf, u),
    "epsilon_nochord": lambda g, tf, u, dist: A.epsilon_nochord(g, tf, u),
}


# -6 and -1 name vertices 4 and 9 as list indices; True names vertex 1
@pytest.mark.parametrize("u", [True, False, 1.0, 4.0, -1, -6, 10, "4", None],
                         ids=repr)
@pytest.mark.parametrize("call", sorted(PER_VERTEX_CALLS))
def test_per_vertex_call_refuses_a_non_vertex(deficient_n10, call, u):
    g, tf, dist = deficient_n10
    with pytest.raises(GraphError, match="out of range: not an int in"):
        PER_VERTEX_CALLS[call](g, tf, u, dist)


# ---------------------------------------------------------------------------
# favourable sets and receptivity


class TestReceptivity:
    def test_favourable_is_exactly_sponsor_only(self):
        g, tf, focus = type_0_fixture()
        s = A.sponsor(g, tf, focus)
        base = S.enumerate_distribution(g, tf)
        for J in base.distribution.pmf:
            expect = focus not in J and set(g.adj[focus]) & J == {s}
            assert A.favourable(g, tf, focus, J) == expect

    def test_records_are_computed_once_per_two_factor(self, monkeypatch):
        calls = []
        classify = A._classify_all

        def counted(g, tf):
            calls.append(tf)
            return classify(g, tf)

        monkeypatch.setattr(A, "_classify_all", counted)
        # a fresh build: the cached fixture's two-factor may hold records
        g, tf, focus = type_III_fixture.__wrapped__()
        assert g.n == 18
        dist = S.enumerate_distribution(g, tf).distribution
        assert len(dist) > 1
        for J in dist.pmf:
            A.favourable(g, tf, focus, J)
        A.sponsor(g, tf, focus)
        A.receptivity(g, tf, focus, dist)
        A.epsilon_full(g, tf)
        A.deficiency_report(g, tf)
        A.build_phase5_plan(g, tf, dist)
        assert calls == [tf]

    def test_receptivity_matches_support_sum(self):
        g, tf, focus = type_0_fixture()
        base = S.enumerate_distribution(g, tf)
        rho = A.receptivity(g, tf, focus, base.distribution)
        manual = sum((p for J, p in base.distribution.pmf.items()
                      if A.favourable(g, tf, focus, J)), F(0))
        assert rho == manual > 0

    @pytest.mark.parametrize("name,builder", ALL_FIXTURES)
    def test_receptivity_thresholds(self, name, builder):
        # deficient vertices are 1.9-receptive, crossing-edge ones
        # 3-receptive, and the Ia/Ib shapes 8-receptive
        g, tf, _ = builder()
        base = S.enumerate_distribution(g, tf)
        for r in A.deficiency_report(g, tf):
            if not r.deficient:
                continue
            rho = A.receptivity(g, tf, r.vertex, base.distribution)
            assert rho >= F(19, 2560), (name, r.vertex)
            if r.dtype == "0":
                assert rho >= F(3, 256), (name, r.vertex)
            if r.dtype in ("Ia", "Ib", "Ia*", "Ib*"):
                assert rho >= F(8, 256), (name, r.vertex)


# ---------------------------------------------------------------------------
# the repair plan


class TestPlan:
    def _plan(self, builder):
        g, tf, _ = builder()
        base = S.enumerate_distribution(g, tf)
        return g, tf, base, A.build_phase5_plan(g, tf, base.distribution)

    @pytest.mark.parametrize("name,builder", ALL_FIXTURES)
    def test_plan_identities(self, name, builder):
        g, tf, base, plan = self._plan(builder)
        sets, probs = plan.set_order, plan.set_probs

        # ordering disciplines
        keyed = [(abs(plan.epsilon[u]), u) for u in plan.deficient_order]
        assert keyed == sorted(keyed)
        assert list(sets) == sorted(sets)

        for u in plan.deficient_order:
            # (i) no mass outside favourable sets
            for j, J in enumerate(sets):
                if plan.p.get((u, j)):
                    assert A.favourable(g, tf, u, _members(J))
                    assert 0 < plan.p[(u, j)] <= 1
            # (ii) the row sums exactly to |epsilon|/256
            row = sum((plan.p.get((u, j), F(0)) * probs[j]
                       for j in range(len(sets))), F(0))
            assert row == abs(plan.epsilon[u]) / 256
            # eta never exceeds three times the own term
            assert plan.eta[u] <= 3 * abs(plan.epsilon[u])

        # (iii) columns over a vertex and its earlier neighbours stay <= 1
        for u in plan.deficient_order:
            group = plan.nbrxc(u)
            for j in range(len(sets)):
                assert sum((plan.p.get((w, j), F(0)) for w in group), F(0)) <= 1

    def test_quiet_graph_has_empty_plan(self):
        g, tf = petersen_tf()
        base = S.enumerate_distribution(g, tf)
        plan = A.build_phase5_plan(g, tf, base.distribution)
        assert plan.deficient_order == ()
        assert plan.p == {}

    def test_starved_distribution_fails_loudly(self):
        g, tf, focus = type_0_fixture()
        base = S.enumerate_distribution(g, tf)
        hostile = next(J for J in base.distribution.pmf
                       if not A.favourable(g, tf, focus, J))
        with pytest.raises(A.PreconditionFailure) as err:
            A.build_phase5_plan(g, tf, S.Distribution({hostile: F(1)}))
        assert "vertex" in str(err.value)


# ---------------------------------------------------------------------------
# executing the repair


class TestRunPhase5:
    def test_deterministic_and_safe(self):
        g, tf, _ = mixed_deficiency_fixture()
        base = S.enumerate_distribution(g, tf)
        plan = A.build_phase5_plan(g, tf, base.distribution)
        deficient = set(plan.deficient_order)
        sponsors = set(plan.sponsors.values())
        for trial in range(300):
            rng = S.SplitMix64(trial)
            J = S.run_phases_1_4(g, tf, rng).out
            out = A.run_phase5(J, plan, rng)
            again = _members(A.run_phase5(J, plan,
                                          S.SplitMix64(trial + 10**6)))
            # replaying phases 1-4 with the same stream reproduces J, so
            # the repair must be a function of (J, remaining stream)
            rng2 = S.SplitMix64(trial)
            assert S.run_phases_1_4(g, tf, rng2).out == J
            assert A.run_phase5(J, plan, rng2) == out
            out, J = _members(out), _members(J)
            assert S.is_independent(g, out)
            assert out - J <= deficient
            assert J - out <= sponsors
            assert again - J <= deficient

    def test_swaps_do_happen(self):
        g, tf, focus = type_0_fixture()
        base = S.enumerate_distribution(g, tf)
        plan = A.build_phase5_plan(g, tf, base.distribution)
        hits = 0
        rng = S.SplitMix64(7)
        for _ in range(4000):
            J = S.run_phases_1_4(g, tf, rng).out
            out = A.run_phase5(J, plan, rng)
            if (out & ~J) >> focus & 1:
                hits += 1
        # expected rate 1/256; in 4000 trials zero hits would be a miracle
        assert hits > 0

    def test_unknown_set_passes_through(self):
        g, tf, _ = type_0_fixture()
        base = S.enumerate_distribution(g, tf)
        plan = A.build_phase5_plan(g, tf, base.distribution)
        assert 0 not in plan.index
        assert A.run_phase5(0, plan, S.SplitMix64(0)) == 0

    def test_tampered_plan_detects_infeasible_bias(self):
        g, tf, _ = type_0_fixture()
        base = S.enumerate_distribution(g, tf)
        plan = A.build_phase5_plan(g, tf, base.distribution)
        j = next(j for j, J in enumerate(plan.set_order)
                 if A.favourable(g, tf, 0, _members(J)))
        with pytest.raises(A.BiasInfeasible):
            A.Phase5Plan(
                tf, plan.deficient_order, plan.set_order, plan.set_probs,
                {(0, j): F(2)},  # no coin can land twice as often as always
                plan.sponsors, plan.epsilon, plan.nbrx, plan.eta, plan.rho)

    def test_tampered_plan_detects_unfavourable_set(self):
        g, tf, _ = type_0_fixture()
        base = S.enumerate_distribution(g, tf)
        plan = A.build_phase5_plan(g, tf, base.distribution)
        j = next(j for j, J in enumerate(plan.set_order)
                 if not A.favourable(g, tf, 0, _members(J)))
        with pytest.raises(A.BiasInfeasible, match="not favourable"):
            A.Phase5Plan(
                tf, plan.deficient_order, plan.set_order, plan.set_probs,
                {(0, j): F(1, 2)},  # the swap is not allowed on this set
                plan.sponsors, plan.epsilon, plan.nbrx, plan.eta, plan.rho)

    def test_rand_below_is_exactly_uniform_on_the_bits_it_draws(self):
        class Scripted:
            """Hands out ``values`` in order, noting each width asked."""

            def __init__(self, *values):
                self.values, self.widths = list(values), []

            def getrandbits(self, k):
                self.widths.append(k)
                return self.values.pop(0)

        assert A._rand_below(Scripted(), 1) == 0  # draws nothing
        for bound in range(2, 10):
            k = (bound - 1).bit_length()
            assert 1 << k < 2 * bound  # a try is rejected less than half the time
            results = []
            for first in range(1 << k):
                rng = Scripted(first, 0)
                results.append(A._rand_below(rng, bound))
                assert rng.widths == ([k] if first < bound else [k, k])
            # each value below bound takes one first draw; the others retry
            assert results == list(range(bound)) + [0] * ((1 << k) - bound)
        for first, heads in ((0, True), (1, False)):
            rng = Scripted(first)
            assert A._bernoulli(rng, F(1, 2)) is heads
            assert rng.widths == [1]


# ---------------------------------------------------------------------------
# the exact repaired law


class TestExactPhase5:
    @pytest.mark.parametrize("name,builder", ALL_FIXTURES)
    def test_marginal_accounting(self, name, builder):
        g, tf, _ = builder()
        base = S.enumerate_distribution(g, tf)
        eps = A.epsilon_full(g, tf)
        plan, result = A.exact_phase5_distribution(g, tf)

        # the four-phase law already honours the per-vertex bound
        for v in range(g.n):
            assert base.marginals[v] >= F(88 + eps[v], 256), (name, v)

        # the repair lifts every vertex to at least 88/256 ...
        for v in range(g.n):
            assert result.marginals[v] >= F(88, 256), (name, v)

        # ... by the exact planned amounts
        sponsors = plan.sponsors
        touched = set(plan.deficient_order) | set(sponsors.values())
        for u in plan.deficient_order:
            gain = result.marginals[u] - base.marginals[u]
            assert gain == abs(plan.epsilon[u]) / 256
        for s in set(sponsors.values()):
            loss = sum((abs(plan.epsilon[u]) for u, sp in sponsors.items()
                        if sp == s), F(0)) / 256
            assert base.marginals[s] - result.marginals[s] == loss
        for v in range(g.n):
            if v not in touched:
                assert result.marginals[v] == base.marginals[v]

    def test_support_stays_independent_and_normalized(self):
        g, tf, _ = type_Ia_fixture()
        _, result = A.exact_phase5_distribution(g, tf)
        assert sum(result.distribution.pmf.values()) == 1
        for J in result.distribution.pmf:
            assert S.is_independent(g, J)

    def test_feasibility_reading_does_not_matter(self):
        # the plan is built from the four-phase law, which is the oracle's
        # law under either reading of phase 4
        g, tf, _ = type_0_fixture()
        base = S.enumerate_distribution(g, tf)
        for phase4 in ("start", "recompute"):
            assert law_oracle(g, tf, phase4)[1] == base.distribution.pmf

    def test_simulation_converges_to_exact_law(self):
        g, tf, focus = type_0_fixture()
        plan, result = A.exact_phase5_distribution(g, tf)
        trials = 20000
        hits = 0
        rng = S.SplitMix64(3)
        for _ in range(trials):
            J = S.run_phases_1_4(g, tf, rng).out
            if A.run_phase5(J, plan, rng) >> focus & 1:
                hits += 1
        p = float(result.marginals[focus])
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) < 4 * sigma

    @pytest.mark.parametrize("phase4", ["start", "recompute"])
    def test_monte_carlo_with_plan_runs_phase5_on_each_stream(self, phase4):
        # phases 1-4 replayed by the oracle under either reading of phase 4
        g, tf, _ = mixed_deficiency_fixture()
        plan, _ = A.exact_phase5_distribution(g, tf)
        args = S._kernel_args(g, tf)
        counts = [0] * g.n
        rng = S.SplitMix64(21)
        for _ in range(300):
            J = scanning_trial(g.n, *args, phase4 == "recompute",
                               rng.getrandbits)[4]
            for v in mask_vertices(A.run_phase5(J, plan, rng)):
                counts[v] += 1
        report = S.monte_carlo(g, tf, 300, 21, plan=plan)
        assert report.backend == "five-phase-reference"
        assert list(report.counts) == counts
        assert report.violations == 0

    def test_monte_carlo_converts_no_set_per_trial(self, monkeypatch):
        g, tf, _ = mixed_deficiency_fixture()
        plan, result = A.exact_phase5_distribution(g, tf)
        converted = []
        convert = S.mask_vertices

        def counted(mask):
            converted.append(mask)
            return convert(mask)

        monkeypatch.setattr(S, "mask_vertices", counted)
        report = S.monte_carlo(g, tf, 2000, 5, plan=plan)
        assert report.violations == 0
        # the tally turns each distinct output into vertices once
        assert len(converted) == len(set(converted)) <= len(result.distribution)

    def test_monte_carlo_rejects_plan_of_another_two_factor(self):
        g, tf, _ = type_0_fixture()
        plan, _ = A.exact_phase5_distribution(g, tf)
        h, tf_h, _ = mixed_deficiency_fixture()
        with pytest.raises(TwoFactorError):
            S.monte_carlo(h, tf_h, 10, 0, plan=plan)


# ---------------------------------------------------------------------------
# the union bound feeding the repair budget


def _union_probability(g, tf, members):
    """Probability that a situation conforms to some template of
    ``members``, summed over the situations' vertex sets."""
    union = F(0)
    for sit in S.enumerate_situations(g, tf):
        heads, s1, s3 = (_members(m) for m in (sit.heads, sit.s1, sit.s3))
        if any(t.heads <= heads and t.d1 <= s1 and not t.d1bar & s1
               and t.d3 <= s3 and not t.d3bar & s3 for t in members):
            union += sit.prob
    return union


class TestChordUnionBound:
    @pytest.mark.parametrize("name,builder", [
        ("I", type_I_fixture), ("Ia", type_Ia_fixture), ("mixed", mixed_deficiency_fixture)])
    def test_sigma_union_covers_deficit(self, name, builder):
        # for a chord vertex the combined probability of its event family
        # must cover (8 + epsilon)/256: that is where the repair budget
        # ultimately comes from
        g, tf, focus = builder()
        eps = A.epsilon_full(g, tf)
        members = [t for _, t in T.sigma_library(tf, focus) if t is not T.INVALID]
        assert members
        assert _union_probability(g, tf, members) >= F(8 + eps[focus], 256)

    def test_k33_union(self):
        g, tf = k33_tf()
        members = [t for _, t in T.sigma_library(tf, 0) if t is not T.INVALID]
        assert _union_probability(g, tf, members) == F(3, 16) >= F(8, 256)
