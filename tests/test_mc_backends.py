"""One trial procedure: the Monte Carlo loop and the reference single-run
API, run one trial after another on one stream, must consume random bits
identically and produce identical counts, and the memoized trial table
must draw exactly what a scan of every cycle vertex draws, under either
reading of phase 4 (the feasible set worked out before or after phase 3)."""

from pathlib import Path

import pytest

from fracchrom.augment import exact_phase5_distribution
from fracchrom.graph_core import Graph, mask_vertices, parse_graph6
from fracchrom.two_factor import TwoFactor, select_two_factor
from fracchrom import _mcphases_py as K, sampler as S, templates as T

from oracles import recorded_monte_carlo, scanning_trial, stream_position
from util_graphs import circular_ladder, gp72, petersen

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DEFICIENT_N10 = "IlDGHCH_g"


def fixtures():
    out = []
    g = petersen()
    out.append(("petersen", g, TwoFactor(
        g, [(i, 5 + i) for i in range(5)])))
    g = gp72()
    out.append(("gp72", g, TwoFactor(
        g, [(i, 7 + i) for i in range(7)])))
    g = circular_ladder(3)  # odd cycles of length 3
    out.append(("prism", g, TwoFactor(
        g, [(i, 3 + i) for i in range(3)])))
    g = circular_ladder(6)  # even cycles
    out.append(("cl6", g, TwoFactor(
        g, [(i, 6 + i) for i in range(6)])))
    g = Graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                   (6, 7), (7, 8), (8, 9), (9, 6),
                   (0, 3), (1, 6), (2, 8), (4, 7), (5, 9)])
    out.append(("tri2sq", g, TwoFactor(
        g, [(0, 3), (1, 6), (2, 8), (4, 7), (5, 9)])))
    return out


def sampled(g, tf, trials, seed):
    """``monte_carlo``'s report, and its counts and final stream position
    in the form the two helpers below return."""
    report, position = recorded_monte_carlo(g, tf, trials, seed)
    return report, (list(report.counts), position)


def reference_counts(g, tf, trials, seed):
    """The counts of ``run_phases_1_4`` run ``trials`` times on the one
    stream ``SplitMix64(seed)``, and the stream's final position."""
    rng = S.SplitMix64(seed)
    counts = [0] * g.n
    for _ in range(trials):
        for v in mask_vertices(S.run_phases_1_4(g, tf, rng).out):
            counts[v] += 1
    return counts, stream_position(rng)


def oracle_counts(g, tf, trials, seed, phase4):
    """The counts of ``scanning_trial`` under one reading of phase 4, run
    like ``reference_counts``, and the stream's final position."""
    args = S._kernel_args(g, tf)
    rng = S.SplitMix64(seed)
    counts = [0] * g.n
    for _ in range(trials):
        out = scanning_trial(g.n, *args, phase4 == "recompute",
                             rng.getrandbits)[4]
        for v in mask_vertices(out):
            counts[v] += 1
    return counts, stream_position(rng)


@pytest.mark.parametrize("name,g,tf", fixtures(),
                         ids=[f[0] for f in fixtures()])
@pytest.mark.parametrize("phase4", ["start", "recompute"])
def test_pure_kernel_matches_reference(name, g, tf, phase4):
    report, got = sampled(g, tf, 400, 17)
    assert report.backend == "pure-python"
    assert report.violations == 0
    assert got == reference_counts(g, tf, 400, 17)
    assert got == oracle_counts(g, tf, 400, 17, phase4)


def test_monte_carlo_matches_reference_on_64_vertices():
    # bit 63 in use: every vertex of a full 64-bit word
    k = 32
    g = circular_ladder(k)
    tf = TwoFactor(g, [(i, k + i) for i in range(k)])
    report, got = sampled(g, tf, 300, 5)
    assert len(report.counts) == 64
    assert report.violations == 0
    assert got == reference_counts(g, tf, 300, 5)


def test_one_trial_table_per_two_factor(monkeypatch):
    built = []

    class Counted(K.TrialTable):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(K, "TrialTable", Counted)
    g = petersen()
    tf = select_two_factor(g)
    S.run_phases_1_4(g, tf, S.SplitMix64(3))
    S.run_phases_1_4(g, tf, S.SplitMix64(4))
    S.monte_carlo(g, tf, 50, 3)
    S.enumerate_distribution(g, tf)
    S.event_probability(T.builtin("E0", tf, 0), g, tf)
    assert len(built) == 1


def test_each_cycle_part_is_worked_out_once(monkeypatch):
    parts = []
    cycle_runs = K._cycle_runs

    def counted(cycle, part):
        parts.append(part)
        return cycle_runs(cycle, part)

    monkeypatch.setattr(K, "_cycle_runs", counted)
    g = gp72()
    tf = select_two_factor(g)
    S.enumerate_distribution(g, tf)
    S.monte_carlo(g, tf, 500, 2)
    assert parts and len(parts) == len(set(parts))


def test_backend_names():
    assert S.kernel_backend() == "pure-python"


def _assert_table_matches_scan(g, tf, phase4, trials, seed):
    """The table's trial against the oracle's under one reading of phase
    4, each running its trials one after another on its own copy of the
    stream ``SplitMix64(seed)``."""
    args = S._kernel_args(g, tf)
    table = K.TrialTable(g.n, *args)
    fast, slow = S.SplitMix64(seed), S.SplitMix64(seed)
    for t in range(trials):
        got = table.trial(fast)
        want = scanning_trial(g.n, *args, phase4 == "recompute",
                              slow.getrandbits)
        assert got == want, (t, got, want)
        assert stream_position(fast) == stream_position(slow), t


@pytest.mark.parametrize("phase4", ["start", "recompute"])
def test_trial_table_matches_scanning_oracle_on_corpus(phase4):
    graphs = [parse_graph6(line) for path in sorted(CORPUS.glob("*.g6"))
              for line in path.read_text().split()]
    assert len(graphs) == 140
    for g in graphs:
        _assert_table_matches_scan(g, select_two_factor(g), phase4, 100, 3)


@pytest.mark.parametrize("phase4", ["start", "recompute"])
def test_trial_table_matches_scanning_oracle_on_66_vertices(phase4):
    k = 33
    g = circular_ladder(k)
    tf = TwoFactor(g, [(i, k + i) for i in range(k)])
    _assert_table_matches_scan(g, tf, phase4, 300, 8)


def test_trial_table_matches_scanning_oracle_beyond_64_matching_edges():
    # 70 matching edges: the orientation takes a 64-bit and a 6-bit draw
    k = 70
    g = circular_ladder(k)
    tf = TwoFactor(g, [(i, k + i) for i in range(k)])
    assert K.TrialTable(g.n, *S._kernel_args(g, tf)).draws == ((0, 64), (64, 6))
    _assert_table_matches_scan(g, tf, "start", 100, 9)


def _spy_on_runs(monkeypatch):
    """Record ``(width, buffered bits)`` for each run program replayed
    one run at a time rather than looked up in its table."""
    replays = []
    run = K._run

    def spy(program, bits):
        replays.append((sum(k for k, _ in program), bits.__self__.left))
        return run(program, bits)

    monkeypatch.setattr(K, "_run", spy)
    return replays


@pytest.mark.parametrize("name,g,tf", fixtures(),
                         ids=[f[0] for f in fixtures()])
def test_table_lookup_falls_back_at_every_buffer_offset(monkeypatch, name, g, tf):
    # advancing a fresh stream by j bits leaves 64 - j in its buffer, so
    # a trial starts at every buffer offset, the orientation draw reading
    # the buffer or discarding it for a fresh output, and the selection
    # passes meet every buffer they can meet
    replays = _spy_on_runs(monkeypatch)
    args = S._kernel_args(g, tf)
    table = K.TrialTable(g.n, *args)
    for j in range(65):
        for t in range(40):
            fast, slow = S.SplitMix64(j << 8 | t), S.SplitMix64(j << 8 | t)
            if j:
                assert fast.getrandbits(j) == slow.getrandbits(j)
            got = table.trial(fast)
            want = scanning_trial(g.n, *args, False, slow.getrandbits)
            assert got == want, (j, t, got, want)
            assert stream_position(fast) == stream_position(slow), (j, t)
    assert all(width <= K.TABLE_BITS for width, _ in replays)
    assert any(width > left for width, left in replays)  # too few bits
    if name != "cl6":  # only odd cycles reject indices
        assert any(width <= left for width, left in replays)  # a rejected cell


def test_programs_wider_than_a_table_replay_run_by_run(monkeypatch):
    replays = _spy_on_runs(monkeypatch)
    k = 33  # 66 vertices: phase-1 programs of about 16 one-bit runs
    g = circular_ladder(k)
    tf = TwoFactor(g, [(i, k + i) for i in range(k)])
    assert sampled(g, tf, 300, 6)[1] == oracle_counts(g, tf, 300, 6, "start")
    assert any(width > K.TABLE_BITS for width, _ in replays)
    compiled = _compiled_programs(tf.derived["table"])
    assert all((cells is None) == (width > K.TABLE_BITS)
               for _, width, cells in compiled)
    assert any(cells is None for _, _, cells in compiled)


def _compiled_programs(table):
    return [entry[1] for memo in (table.by_heads, table.by_covered)
            for entry in memo.values()]


def test_tables_hold_at_most_their_bound_per_entry():
    graphs = [parse_graph6(line) for line in
              (CORPUS / "cubic_tf_bridgeless_n14.g6").read_text().split()[:10]]
    ladder = circular_ladder(33)
    runs = [(g, select_two_factor(g)) for g in graphs + [petersen()]]
    runs.append((ladder, TwoFactor(
        ladder, [(i, 33 + i) for i in range(33)])))
    for g, tf in runs:
        S.monte_carlo(g, tf, 500, 7)
        compiled = _compiled_programs(tf.derived["table"])
        cells = sum(len(c) for _, _, c in compiled if c is not None)
        assert cells <= len(compiled) << K.TABLE_BITS


def test_capacity_of_one_changes_no_count(monkeypatch):
    # fresh two-factors for the capped run, as in the test below
    def runs():
        deficient = parse_graph6(DEFICIENT_N10)
        tf = select_two_factor(deficient)
        plan = exact_phase5_distribution(deficient, tf)[0]
        return [(deficient, tf, plan),
                (petersen(), select_two_factor(petersen()), None)]

    uncapped = [S.monte_carlo(g, tf, 2000, 4, plan=plan)
                for g, tf, plan in runs()]
    monkeypatch.setattr(K, "CAPACITY", 1)
    fresh = runs()
    capped = [S.monte_carlo(g, tf, 2000, 4, plan=plan)
              for g, tf, plan in fresh]
    assert capped == uncapped
    memos = ("by_heads", "by_covered", "by_part")
    assert all(len(getattr(tf.derived["table"], memo)) <= 1
               for _, tf, _ in fresh for memo in memos)


@pytest.mark.parametrize("with_plan", [False, True], ids=["no-plan", "plan"])
def test_emptying_full_memos_changes_no_draw(monkeypatch, with_plan):
    # fresh two-factors on both sides: a table built at the default
    # capacity would answer every capped trial from its memos
    def run():
        g = parse_graph6(DEFICIENT_N10)
        tf = select_two_factor(g)
        plan = exact_phase5_distribution(g, tf)[0] if with_plan else None
        return recorded_monte_carlo(g, tf, 2000, 4, plan=plan), tf.derived["table"]

    default, table = run()
    monkeypatch.setattr(K, "CAPACITY", 2)
    capped, small = run()
    assert capped == default
    memos = ("by_heads", "by_covered", "by_part")
    assert all(len(getattr(table, memo)) > 2 for memo in memos)
    assert all(len(getattr(small, memo)) <= 2 for memo in memos)


def test_violations_count_trials_not_distinct_sets(monkeypatch):
    g = petersen()
    tf = select_two_factor(g)
    everything = (1 << g.n) - 1
    monkeypatch.setattr(K, "_isolated", lambda adj_mask, mask: everything)
    report = S.monte_carlo(g, tf, 250, 1)
    assert report.violations == 250
    assert report.counts == (250,) * g.n


@pytest.mark.parametrize("g", [petersen(), parse_graph6("KlSgGC@?gAoD")],
                         ids=["petersen", "n12"])
def test_a_trial_draws_a_fraction_of_an_output(monkeypatch, g):
    # the trials share one stream and a trial leaves its unused bits to
    # the next, so a trial reads only the few bits it uses; its first
    # draw is the orientation, all m matching-edge bits at once
    tf = select_two_factor(g)
    m, trials, seed = len(tf.m_edges), 2_000, 17
    streams, widths, starts = [], [], []

    class Counted(S.SplitMix64):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

        def getrandbits(self, k):
            widths.append(k)
            return super().getrandbits(k)

    trial = K.TrialTable.trial

    def marked(table, rng):
        starts.append(len(widths))
        return trial(table, rng)

    monkeypatch.setattr(S, "SplitMix64", Counted)
    monkeypatch.setattr(K.TrialTable, "trial", marked)
    S.monte_carlo(g, tf, trials, seed)
    [rng] = streams
    # each output steps the state by gamma once
    outputs = (rng.state - seed) * pow(S._GAMMA, -1, 1 << 64) % (1 << 64)
    assert outputs / trials <= 0.25
    assert [widths[i] for i in starts] == [m] * trials
