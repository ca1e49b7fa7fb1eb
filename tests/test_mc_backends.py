"""One trial procedure: the Monte Carlo loop and the reference single-run
API must consume random bits identically and produce identical counts."""

import pytest

from fracchrom.graph_core import Graph
from fracchrom.two_factor import two_factor_from_matching
from fracchrom import sampler as S

from util_graphs import circular_ladder, gp72, petersen


def fixtures():
    out = []
    g = petersen()
    out.append(("petersen", g, two_factor_from_matching(
        g, [(i, 5 + i) for i in range(5)])))
    g = gp72()
    out.append(("gp72", g, two_factor_from_matching(
        g, [(i, 7 + i) for i in range(7)])))
    g = circular_ladder(3)  # odd cycles of length 3
    out.append(("prism", g, two_factor_from_matching(
        g, [(i, 3 + i) for i in range(3)])))
    g = circular_ladder(6)  # even cycles
    out.append(("cl6", g, two_factor_from_matching(
        g, [(i, 6 + i) for i in range(6)])))
    g = Graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                   (6, 7), (7, 8), (8, 9), (9, 6),
                   (0, 3), (1, 6), (2, 8), (4, 7), (5, 9)])
    out.append(("tri2sq", g, two_factor_from_matching(
        g, [(0, 3), (1, 6), (2, 8), (4, 7), (5, 9)])))
    return out


def reference_counts(g, tf, trials, seed, phase4):
    counts = [0] * g.n
    for t in range(trials):
        _, iset = S.run_phases_1_4(g, tf, S.trial_stream(seed, t), phase4)
        for v in iset:
            counts[v] += 1
    return counts


@pytest.mark.parametrize("name,g,tf", fixtures(),
                         ids=[f[0] for f in fixtures()])
@pytest.mark.parametrize("phase4", ["start", "recompute"])
def test_pure_kernel_matches_reference(name, g, tf, phase4):
    report = S.monte_carlo(g, tf, 400, 17, phase4=phase4)
    assert report.backend == "pure-python"
    assert report.violations == 0
    assert list(report.counts) == reference_counts(g, tf, 400, 17, phase4)


def test_monte_carlo_matches_reference_on_64_vertices():
    # bit 63 in use: every vertex of a full 64-bit word
    k = 32
    g = circular_ladder(k)
    tf = two_factor_from_matching(g, [(i, k + i) for i in range(k)])
    report = S.monte_carlo(g, tf, 300, 5)
    assert len(report.counts) == 64
    assert report.violations == 0
    assert list(report.counts) == reference_counts(g, tf, 300, 5, "start")


def test_backend_names():
    assert S.kernel_backend() == "pure-python"
