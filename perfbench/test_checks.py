"""Each checker accepts the program's real output and rejects a corrupted
copy of it.  Run with ``python3 -m pytest perfbench``."""

import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from fracchrom import cli  # noqa: E402
from workloads import generalized_petersen, load_corpus, write_edge_list  # noqa: E402

PETERSEN = generalized_petersen(5, 2)


def _cli(argv):
    out = io.StringIO()
    assert cli.run(argv, out=out) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def petersen_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("certify") / "petersen.txt"
    write_edge_list(str(path), *PETERSEN)
    return _cli(["certify", str(path)])["certificate"]


@pytest.fixture(scope="module")
def corpus_row(tmp_path_factory):
    n, line, deficient = next(g for g in load_corpus() if g[0] == 10 and g[2] > 0)
    folder = tmp_path_factory.mktemp("corpus")
    (folder / "g.g6").write_text(line + "\n")
    return _cli(["corpus", str(folder)])["rows"][0], deficient


def test_certificate_checker_accepts_real_output(petersen_certificate):
    assert checks.certificate(petersen_certificate, *PETERSEN) == []


def test_certificate_checker_rejects_a_set_with_an_edge(petersen_certificate):
    cert = copy.deepcopy(petersen_certificate)
    n, edges = PETERSEN
    # move v from a set T into a set S holding its neighbour u: coverage
    # stays exact, but S now contains the edge (u, v)
    for u, v in edges:
        s = next((i for i, st in enumerate(cert["sets"]) if u in st and v not in st), None)
        t = next((i for i, st in enumerate(cert["sets"]) if v in st and u not in st), None)
        if s is not None and t is not None:
            break
    cert["sets"][t].remove(v)
    cert["sets"][s].append(v)
    problems = checks.certificate(cert, n, edges)
    assert any(f"contains edge ({min(u, v)}, {max(u, v)})" in p for p in problems)
    assert not any("covered" in p for p in problems)


def test_certificate_checker_rejects_a_vertex_covered_n_minus_1_times(petersen_certificate):
    cert = copy.deepcopy(petersen_certificate)
    victim = next(st for st in cert["sets"] if st)
    v = victim.pop()
    problems = checks.certificate(cert, *PETERSEN)
    assert problems == [f"vertex {v} is covered {cert['N'] - 1} times, not N = {cert['N']}"]


def test_corpus_checker_accepts_real_output(corpus_row):
    row, deficient = corpus_row
    assert checks.corpus_row(row, deficient) == []


def test_corpus_checker_rejects_a_marginal_below_the_floor(corpus_row):
    row, deficient = corpus_row
    row = dict(row, min_marginal="87/256")
    assert checks.corpus_row(row, deficient) == ["min_marginal 87/256 is below 88/256"]


def test_monte_carlo_checker_rejects_a_frequency_off_by_5_sigma():
    exact = {"0": "1/2", "1": "1/2"}
    doc = {"violations": 0, "trials": 10_000, "counts": [5_000, 5_260]}
    assert checks.monte_carlo(doc, exact) == [
        "vertex 1: frequency 5260/10000 is more than 5 sigma from the exact 1/2"]
    doc["counts"][1] = 5_240
    assert checks.monte_carlo(doc, exact) == []
