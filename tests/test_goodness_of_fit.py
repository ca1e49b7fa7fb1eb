"""Monte Carlo against the whole exact law: Pearson's chi-squared test of
the output-set histogram, on clean and deficient corpus graphs."""

import math
from fractions import Fraction

import pytest

from fracchrom import augment as A
from fracchrom import sampler as S
from fracchrom.graph_core import parse_graph6
from fracchrom.two_factor import select_two_factor

from chi2 import chi2_sf, pearson

# the first three n = 12 corpus graphs of each kind, in file order
CLEAN_N12 = ("KlSgGC@?gAoD", "KlSGHC@?gGoD", "KlDGGS@GGCoD")
DEFICIENT_N12 = ("KlSHGC@@GAoD", "KlSGHC@@GCoD", "KlDGHC@AGCoD")
TRIALS = 40_000
SEED = 1203
P_FLOOR = 1e-6


class TestChi2:
    @pytest.mark.parametrize("x,df,tail", [
        (3.841, 1, 0.05), (6.635, 1, 0.01), (16.919, 9, 0.05),
        (21.666, 9, 0.01), (59.703, 30, 0.001), (4.575, 11, 0.95),
    ])
    def test_tabulated_quantiles(self, x, df, tail):
        assert chi2_sf(x, df) == pytest.approx(tail, rel=2e-3)

    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 2.9, 3.1, 10.0, 50.0])
    def test_closed_forms(self, x):
        # one degree of freedom: erfc(sqrt(x/2)); two: exp(-x/2)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)),
                                              rel=1e-10)
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-10)

    def test_far_tail_and_origin(self):
        assert chi2_sf(0, 5) == 1.0
        assert 0 < chi2_sf(200, 9) < 1e-30
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    def test_pearson_pools_sparse_bins(self):
        probs = {"a": Fraction(1, 100), "b": Fraction(2, 100),
                 "c": Fraction(47, 100), "d": Fraction(1, 2)}
        # a and b expect 1 and 2 of 100 draws, so they pool with c
        stat, df = pearson({"a": 1, "b": 2, "c": 47, "d": 50}, probs, 100)
        assert (stat, df) == (0.0, 1)
        stat, df = pearson({"c": 40, "d": 60}, probs, 100)
        assert df == 1 and stat == pytest.approx(10 ** 2 / 50 * 2)

    def test_pearson_rejects_outcomes_outside_the_support(self):
        with pytest.raises(ValueError):
            pearson({"x": 1}, {"a": Fraction(1)}, 1)


def _law(line):
    g = parse_graph6(line)
    tf = select_two_factor(g)
    if any(r.deficient for r in A.deficiency_report(g, tf)):
        plan, result = A.exact_phase5_distribution(g, tf)
    else:
        plan, result = None, S.enumerate_distribution(g, tf)
    return g, tf, plan, result.distribution.pmf


@pytest.mark.parametrize("line", CLEAN_N12 + DEFICIENT_N12)
def test_output_histogram_fits_the_exact_law(line):
    g, tf, plan, pmf = _law(line)
    assert (plan is None) == (line in CLEAN_N12)
    report = S.monte_carlo(g, tf, TRIALS, SEED, plan=plan)
    assert report.histogram is not None
    observed = dict(report.histogram)
    assert sum(observed.values()) == TRIALS
    stat, df = pearson(observed, pmf, TRIALS)
    assert chi2_sf(stat, df) >= P_FLOOR, (stat, df)


def test_histogram_agrees_with_counts():
    g, tf, plan, _ = _law(DEFICIENT_N12[0])
    report = S.monte_carlo(g, tf, 2_000, 5, plan=plan)
    counts = [0] * g.n
    for out, times in report.histogram:
        for v in range(g.n):
            counts[v] += times * (out >> v & 1)
    assert tuple(counts) == report.counts
    assert [out for out, _ in report.histogram] == sorted(
        out for out, _ in report.histogram)


def test_histogram_is_dropped_when_the_tally_is_flushed(monkeypatch):
    g, tf, plan, _ = _law(CLEAN_N12[0])
    kept = S.monte_carlo(g, tf, 500, 5)
    monkeypatch.setattr(S._mcphases_py, "CAPACITY", 2)
    flushed = S.monte_carlo(g, tf, 500, 5)
    assert flushed.histogram is None
    assert flushed.counts == kept.counts
