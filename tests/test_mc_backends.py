"""One trial procedure: the Monte Carlo loop and the reference single-run
API, run one trial after another on one stream, must consume random bits
identically and produce identical counts, and the memoized trial table
must draw exactly what a scan of every cycle vertex draws, under either
reading of phase 4 (the feasible set worked out before or after phase 3),
whether a trial runs or is answered from the table's trial code."""

import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from fracchrom.augment import exact_phase5_distribution
from fracchrom.graph_core import Graph, mask_vertices, parse_graph6
from fracchrom.two_factor import TwoFactor, select_two_factor
from fracchrom import _mcphases_py as K, sampler as S, templates as T

from oracles import (recorded_monte_carlo, scanning_monte_carlo, scanning_trial,
                     stream_position)
from util_graphs import circular_ladder, generalized_petersen, gp72, petersen

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


@pytest.mark.parametrize("name,g,tf", fixtures(),
                         ids=[f[0] for f in fixtures()])
def test_table_lookup_falls_back_at_every_buffer_offset(monkeypatch, name, g, tf):
    # a stream advanced by j bits holds 64 - j in its buffer, so the loop
    # starts at every buffer offset, and its first trial refills the
    # buffer when fewer bits are left than the first draw takes; a trial
    # hits a cell, or meets an empty cell or one that reads more bits than
    # are buffered and runs through TrialTable.step, and the histogram and
    # final stream position must be the scanning oracle's
    offset = 0
    kinds = Counter()

    class Offset(S.SplitMix64):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            if offset:
                self.getrandbits(offset)

    step = K.TrialTable.step

    def observed(table, rng):
        # the loop refills as the trial's first draw would before it runs
        assert rng.left >= table.first
        cell = table.cells[rng.buffer & (len(table.cells) - 1)]
        kinds["empty" if cell == K.MISS else "short"] += 1
        assert cell == K.MISS or cell & 127 > rng.left
        return step(table, rng)

    def check(trials):
        runs = sum(kinds.values())
        report, position = recorded_monte_carlo(g, tf, trials, offset)
        assert report.histogram is not None
        assert (report.histogram, position) == scanning_monte_carlo(
            g, tf, trials, offset), (offset, trials)
        return trials - (sum(kinds.values()) - runs)

    monkeypatch.setattr(S, "SplitMix64", Offset)
    monkeypatch.setattr(K.TrialTable, "step", observed)
    refills = Counter()
    first = min(64, len(tf.m_edges))
    for warm in (False, True):
        if warm:
            S.monte_carlo(g, tf, 3000, 5)
        # one trial from 0 < bits left < first: refilled, then run or
        # answered
        for offset in range(65 - first, 64):
            refills["hit" if check(1) else "run"] += 1
    hits = 0
    for offset in range(65):
        hits += check(60)
    assert hits and kinds["empty"] and kinds["short"]
    assert refills["hit"] and refills["run"]


@pytest.mark.parametrize("with_plan", [False, True], ids=["no-plan", "plan"])
@pytest.mark.parametrize("capacity", [4, 64])
def test_blocks_of_answered_trials_change_no_count(monkeypatch, with_plan,
                                                   capacity):
    # the trials that the code answers are counted a block at a time, so
    # runs that end on a block boundary or one trial either side of it
    # must count every trial, keep the histogram exactly when fewer than
    # CAPACITY outputs are distinct and leave the stream where the
    # scanning oracle does
    g = parse_graph6(DEFICIENT_N10)
    tf = select_two_factor(g)
    plan = exact_phase5_distribution(g, tf)[0] if with_plan else None
    S.monte_carlo(g, tf, 3000, 5, plan=plan)  # most trials are answered
    monkeypatch.setattr(K, "CAPACITY", capacity)
    for trials in (3 * capacity - 1, 3 * capacity, 3 * capacity + 1):
        report, position = recorded_monte_carlo(g, tf, trials, 7, plan=plan)
        histogram, want = scanning_monte_carlo(g, tf, trials, 7, plan=plan)
        counts = [0] * g.n
        for out, times in histogram:
            for v in mask_vertices(out):
                counts[v] += times
        assert (report.counts, report.violations, position) == (
            tuple(counts), 0, want), trials
        kept = None if len(histogram) >= capacity else histogram
        assert report.histogram == kept, trials


def test_one_cell_code_when_trials_read_more_than_its_bits():
    # with m >= CODE_BITS matching edges a trial reads more than CODE_BITS
    # bits, so the code is one empty cell and every trial runs
    ladder = circular_ladder(32)
    runs = [(generalized_petersen(16, 3), None),
            (ladder, TwoFactor(ladder, [(i, 32 + i) for i in range(32)]))]
    for g, tf in runs:
        tf = tf or select_two_factor(g)
        report, position = recorded_monte_carlo(g, tf, 300, 11)
        table = tf.derived["table"]
        assert table.m >= K.CODE_BITS
        assert table.cells == [K.MISS]
        assert (report.histogram, position) == scanning_monte_carlo(
            g, tf, 300, 11)


@pytest.mark.parametrize("name,g,tf", fixtures(),
                         ids=[f[0] for f in fixtures()])
def test_a_filled_cell_is_the_trial_on_its_bits(name, g, tf):
    # a run from a stream whose buffer starts with a filled cell's L bits,
    # whatever follows them and however few more are buffered, gives the
    # cell's output, reads exactly those L bits and draws no output
    S.monte_carlo(g, tf, 3000, 5)
    table = tf.derived["table"]
    filled = {}
    for i, cell in enumerate(table.code()):
        if cell != K.MISS:
            taken = cell & 127
            filled[i & ((1 << taken) - 1), taken] = cell >> 7
    assert filled and all(taken <= K.CODE_BITS for _, taken in filled)
    args = S._kernel_args(g, tf)
    for (bits, taken), out in filled.items():
        for left, rest in ((taken, 0), (64, -1), (64, 0x5DEECE66D)):
            buffer = (bits | rest << taken) & ((1 << left) - 1)
            for run in (table.step, lambda rng: scanning_trial(
                    g.n, *args, False, rng.getrandbits)[4]):
                rng = S.SplitMix64(99)
                rng.buffer, rng.left = buffer, left
                assert run(rng) == out, (bits, taken)
                assert stream_position(rng) == (99, buffer >> taken,
                                                left - taken)


def test_trial_code_memory_is_bounded():
    # one call adds to the trial memos it has already filled only the
    # code: its cells (one for the ladder, whose trials read >= 32 bits)
    # and one int per filled group of cells (a group is the cells that
    # share one trial's bits)
    ladder = circular_ladder(32)
    runs = [(parse_graph6("KlSgGC@?gAoD"), None, 20_000),
            (ladder, TwoFactor(ladder, [(i, 32 + i) for i in range(32)]), 500)]
    for g, tf, trials in runs:
        tf = tf or select_two_factor(g)
        S.monte_carlo(g, tf, trials, 3)  # the memos see every mask
        table = tf.derived["table"]
        table.cells = None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            S.monte_carlo(g, tf, trials, 3)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        code = table.cells
        groups = {(cell & 127, i & ((1 << (cell & 127)) - 1)): cell
                  for i, cell in enumerate(code) if cell != K.MISS}
        # the allocator hands out 16-byte blocks
        bound = sys.getsizeof(code) + sum(
            -(-sys.getsizeof(cell) // 16) * 16 for cell in groups.values())
        assert after - before <= bound, (g.n, after - before, bound)
        # the tally and the slices of a fill come and go
        assert peak - before <= bound + (64 << 10), (g.n, peak - before)


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
def test_a_trial_draws_a_fraction_of_an_output(g):
    # the trials share one stream and a trial, looked up or run, leaves
    # its unused bits to the next, so it reads only the few bits it uses
    tf = select_two_factor(g)
    trials, seed = 2_000, 17
    state = recorded_monte_carlo(g, tf, trials, seed)[1][0]
    # each output steps the state by gamma once
    outputs = (state - seed) * pow(S._GAMMA, -1, 1 << 64) % (1 << 64)
    assert outputs / trials <= 0.25
