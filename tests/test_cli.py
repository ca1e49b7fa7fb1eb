"""Command behaviour, output determinism, and exit-code mapping."""

import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracchrom import augment, cli, fractional_lp, sampler
from fracchrom.augment import BiasInfeasible
from fracchrom.graph_core import Graph, GuardExceeded, encode_graph6, to_edge_list_text
from fracchrom.two_factor import NoQualifyingTwoFactor

from util_graphs import (
    bridged_composite,
    circular_ladder,
    complete,
    cycle,
    disjoint_union,
    generalized_petersen,
    gp72,
    k33,
    path_graph,
    petersen,
    subdivide_edge,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"
# the certify goldens below are sha256 digests of outputs whose leaf
# certificates are basic optimal solutions of the LP over the law's support
CERTIFY_GOLDEN = "045f938d2ead0c354a949953ef73cb2d8b24e739abf28965f175a0d93932577a"
# sha256 of `certify g.g6` for GP(n, k)
CERTIFY_LADDER_GOLDEN = {
    (5, 2): "e18e9babfbd5b0e11eb43bd149d7df276efc90fe0b23ad50d2445c30584b89ba",
    (7, 2): "cc8556f661c39b834a24460b0c2d83ff981c575e30af9602e8983a2d10fee270",
    (8, 3): "bee0b19829d97e5ddf869e0fa17ffaba5dd037f4daeb5f93c18652b4d85d0c20",
    (9, 2): "63a2aa43bd18f6c6b27d2db557ea3410f903fde08effeb299032a6c7ca40981e",
    (10, 3): "cdfe1aa8aef4feed7ee43ef96ad7a5a68240086dc5852986ce98592d105b3d1c",
}
# the same for `certify composite.g6` on K3,3 and the 3-cube, each with
# the given edge subdivided and the two new vertices joined by a bridge
CERTIFY_BRIDGED_GOLDEN = {
    ((0, 4), (0, 4)): "2befdc11d3abdd0b980b2e17dbf7db7911ea0398c86acc126f061b2a56d98a38",
    ((1, 5), (4, 5)): "fa5b90724a72b487f0ffe1084b31d186d5ad586628dac1522fabaf9176330e5b",
    ((2, 3), (1, 2)): "45c66dd0701fe95d1de6595c4a86df12517bcc423edc68cf63ef752d9e7a48b3",
}
# sha256 of `certify` on the edge lists of bridge chains; the path's
# digest dates from when the reduction and the certificate recursed once
# per bridge split
CERTIFY_CHAIN_GOLDEN = {
    "chain": "f008d15aba7747d0012fe21f40fa1546d0b4c9b039f4ad43a086294ae9735e79",
    "path": "974b861f1324979f56943714a101d39c43dade5f36e8f8296065a2f0167480bc",
}
# sha256 of `certify --format text` on GP(7, 2) and on the (1, 5), (4, 5)
# composite of CERTIFY_BRIDGED_GOLDEN
CERTIFY_TEXT_GOLDEN = {
    "gp7_2": "3d811d7ef6d47dd12ed39d1ca9bac3f836960be30d6091e49bdf3254a923b58d",
    "bridged": "a24b0466eec29d22538ebc023245246fa97f6223de2c3150dd7cf964b6063633",
}
# sha256 of `chif g.g6` for GP(n, k) before the LP moved to an integer tableau;
# they pin the weighting and the dual clique, and with them the pivot path
CHIF_GOLDEN = {
    (5, 2): "f0ce1b8f91bb22b478f5999219c7c8126390bb52908d1ee5ede3ff0354587c13",
    (4, 1): "084faac79234206a8d99a1bfdd39641240415feb1dc83f4531d015d25d2333cb",
    (7, 2): "8d71997cf9623a32f79f4a2b5c3856bbfa6d77011b464d1392959152904d906e",
    (10, 2): "0f30f8844a37c51ae3250aa39c3bb156b6f1eb05d15b79980ad9799980f045ed",
    (10, 3): "8c208bc886b0b88d72bfb182f94b18ea418a4038f68905b257c65072bcb4228e",
    (12, 5): "d9c8a2db06dc562fc8273961db8bfa287c37ab93b945a7ae9dd5352866f22d49",
}
DEFICIENT_N10 = "IlDGHCH_g"  # the one n=10 graph with deficient vertices
# corpus graphs whose deficient vertices are of type 0, I, Ia and Ib*
DEFICIENT_BY_TYPE = {
    "0": DEFICIENT_N10,
    "I": "KlSHGC@@GAoD",
    "Ia": "MlSgGC@?GC_D?D_O_",
    "Ib*": "MlSHGC@@G?_H?H_A_",
}
# sha256 of `prob g.g6 --exact` before the phase-5 plan kept only its
# coins; they pin the plan and the repaired law
PROB_EXACT_GOLDEN = {
    "0": "28180af36a7f256fb6e0d17ee5d8388fd382bc2396160dbcbe7e79f05cc746d3",
    "I": "9826b8ed8edfe1995827a4d97c1d693b92561c2f93ec90c39557b8d37e4f5e52",
    "Ia": "9eda59f5c257ec4b71cfe2076fa0a03a7971648e1ddf5ab0ddf44b39a2f2e4cd",
    "Ib*": "40251f190bb312a8bc457421b8cf084bdaebfdfd049ad9faeb8d0faf2d12c2c1",
}


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def files(tmp_path):
    def write(name, g, fmt="g6"):
        p = tmp_path / name
        if fmt == "g6":
            p.write_text(encode_graph6(g) + "\n")
        else:
            p.write_text(to_edge_list_text(g))
        return str(p)

    return write


class TestValidate:
    def test_petersen_passes(self, files):
        payload = invoke_json("validate", files("p.g6", petersen()))
        assert payload["is_cubic"] and payload["is_triangle_free"]
        assert payload["verdict"] == "pass"

    def test_edge_list_input(self, files):
        payload = invoke_json("validate", files("k33.edges", k33(), "edges"))
        assert payload["n"] == 6 and payload["is_bridgeless"]

    def test_class_requirement_failure(self, files):
        code, out, err = invoke(
            "validate", files("k4.g6", complete(4)),
            "--require-cubic-triangle-free")
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["triangle_witness"] is not None

    def test_huge_edge_list_header_is_a_guard(self, tmp_path):
        # the graph would be built at the declared size before any edge is read
        p = tmp_path / "big.txt"
        p.write_text("100000000 0\n")
        code, out, err = invoke("validate", str(p))
        assert (code, out) == (3, "")
        assert err.startswith("guard exceeded: line 1: header declares 100000000")

    def test_missing_file(self, tmp_path):
        code, out, err = invoke("validate", str(tmp_path / "nope.g6"))
        assert code == 2 and "error" in err

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "bad.g6"
        p.write_text("\x01\x02 not a graph\n")
        code, out, err = invoke("validate", str(p))
        assert code == 2

    def test_multiple_graphs_rejected(self, tmp_path):
        p = tmp_path / "two.g6"
        p.write_text(encode_graph6(k33()) + "\n" + encode_graph6(petersen()) + "\n")
        code, out, err = invoke("validate", str(p))
        assert code == 2 and "expected exactly one" in err


class TestTwoFactor:
    def test_petersen_two_five_cycles(self, files):
        payload = invoke_json("two-factor", files("p.g6", petersen()))
        assert payload["cycle_lengths"] == [5, 5]
        assert payload["meets_cut_condition"] is True

    def test_k33_single_six_cycle(self, files):
        payload = invoke_json("two-factor", files("k.g6", k33()))
        assert payload["cycle_lengths"] == [6]
        assert payload["origin"] == "selected"

    def test_non_cubic_rejected(self, files):
        code, out, err = invoke("two-factor", files("c5.g6", cycle(5)))
        assert code == 2

    def test_pinned_two_factor(self, files, tmp_path):
        path = files("p.g6", petersen())
        first = invoke_json("two-factor", path)
        pin = tmp_path / "tf.json"
        pin.write_text(json.dumps(
            {"cycles": first["cycles"], "matching": first["matching"]}))
        second = invoke_json("two-factor", path, "--two-factor", str(pin))
        assert second["origin"] == "pinned"
        assert second["cycles"] == first["cycles"]

    def test_malformed_pinned_json(self, files, tmp_path):
        pin = tmp_path / "tf.json"
        pin.write_text("{not json")
        code, out, err = invoke(
            "two-factor", files("p.g6", petersen()), "--two-factor", str(pin))
        assert code == 2

    def test_deeply_nested_pinned_json(self, files, tmp_path):
        # the decoder recurses once per bracket
        pin = tmp_path / "tf.json"
        pin.write_text("[" * 100000)
        code, out, err = invoke(
            "two-factor", files("p.g6", petersen()), "--two-factor", str(pin))
        assert (code, out) == (2, "")
        assert err.endswith("JSON nested too deeply\n")


class TestProb:
    def test_exact_petersen(self, files):
        payload = invoke_json("prob", files("p.g6", petersen()), "--exact")
        assert payload["mode"] == "exact"
        assert set(payload["marginals"].values()) == {"117/320"}
        assert payload["min_marginal"] == "117/320"
        assert payload["meets_threshold"] is True
        assert payload["deficiency_report"] == []
        assert set(payload["epsilon"].values()) == {"0"}

    def test_exact_on_deficient_graph(self, tmp_path):
        p = tmp_path / "d.g6"
        p.write_text(DEFICIENT_N10 + "\n")
        payload = invoke_json("prob", str(p), "--exact")
        assert payload["meets_threshold"] is True
        assert len(payload["deficiency_report"]) == 2
        assert {r["type"] for r in payload["deficiency_report"]} == {"0"}

    def test_monte_carlo_reproducible_bytes(self, files):
        path = files("p.g6", petersen())
        runs = [
            invoke("prob", path, "--seed", "5", "--trials", "3000")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_monte_carlo_workers_do_not_change_output(self, files, tmp_path):
        deficient = tmp_path / "d.g6"
        deficient.write_text(DEFICIENT_N10 + "\n")
        for path in (files("p.g6", petersen()), str(deficient)):
            one = invoke("prob", path, "--seed", "5", "--trials", "3000",
                         "--workers", "1")
            two = invoke("prob", path, "--seed", "5", "--trials", "3000",
                         "--workers", "3")
            assert one == two
            assert one[0] == 0

    def test_monte_carlo_golden_counts(self, files, tmp_path):
        # literal counts: any change in how trials consume their bit
        # streams, in either the kernel or the five-phase path, shows here
        deficient = tmp_path / "d.g6"
        deficient.write_text(DEFICIENT_N10 + "\n")
        payload = invoke_json(
            "prob", str(deficient), "--seed", "11", "--trials", "500")
        assert payload["backend"] == "five-phase-reference"
        assert payload["counts"] == [200, 182, 200, 176, 184, 167, 186, 196,
                                     178, 196]
        assert payload["min_frequency"] == "167/500"
        payload = invoke_json(
            "prob", files("p.g6", petersen()), "--seed", "5", "--trials", "3000")
        assert payload["backend"] == "pure-python"
        assert payload["counts"] == [1129, 1083, 1069, 1128, 1071, 1080, 1111,
                                     1112, 1075, 1105]
        assert payload["min_frequency"] == "1069/3000"

    @pytest.mark.parametrize("dtype", sorted(PROB_EXACT_GOLDEN))
    def test_exact_repaired_law_golden(self, dtype, tmp_path, monkeypatch):
        (tmp_path / "g.g6").write_text(DEFICIENT_BY_TYPE[dtype] + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("prob", "g.g6", "--exact")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == PROB_EXACT_GOLDEN[dtype]

    @pytest.mark.parametrize("dtype,counts", [
        # at 2000 trials the plan swaps 8 times on the type-I graph and
        # 9 times on the type-Ia graph
        ("I", [823, 882, 826, 882, 784, 675, 676, 793, 853, 848, 853, 851]),
        ("Ia", [807, 917, 931, 917, 931, 776, 744, 708, 681, 932, 812, 932,
                820, 739]),
    ])
    def test_monte_carlo_with_swaps_golden_counts(self, dtype, counts,
                                                  tmp_path):
        p = tmp_path / "d.g6"
        p.write_text(DEFICIENT_BY_TYPE[dtype] + "\n")
        payload = invoke_json("prob", str(p), "--seed", "7", "--trials", "2000")
        assert payload["backend"] == "five-phase-reference"
        assert payload["violations"] == 0
        assert payload["counts"] == counts

    @pytest.mark.parametrize("dtype,digest", [
        ("I", "225f060928053d5eab701b71fdd5669892a0a322adb2cc3428bedc4a12775f7e"),
        ("Ia", "c9e180b6f7c347c1956c33348025a3f2be8dc35287d272203461e12f92605220"),
    ], ids=["I", "Ia"])
    def test_monte_carlo_builds_only_the_plan(self, dtype, digest, tmp_path,
                                              monkeypatch):
        # the sampled mode needs the phase-5 plan, never the repaired law;
        # the digests are of the output when it summed that law too
        def refuse(*args, **kwargs):
            raise AssertionError("the repaired law was summed")

        (tmp_path / "g.g6").write_text(DEFICIENT_BY_TYPE[dtype] + "\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "exact_phase5_distribution", refuse)
        code, out, err = invoke("prob", "g.g6", "--seed", "7", "--trials", "2000")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_dependent_repaired_set_is_an_invariant_failure(self, tmp_path,
                                                           monkeypatch):
        # a repair that may swap on any set reaches dependent sets: a broken
        # invariant (exit 4), not an input that failed validation (exit 2)
        p = tmp_path / "d.g6"
        p.write_text(DEFICIENT_N10 + "\n")
        monkeypatch.setattr(augment, "_favourable", lambda g, u, s, J: True)
        for mode in (["--exact"], ["--seed", "1", "--trials", "10"]):
            code, out, err = invoke("prob", str(p), *mode)
            assert code == 4, err
            assert "RuntimeError" in err and "dependent set" in err

    def test_empty_graph_has_minimum_one_in_both_modes(self, tmp_path):
        graph = tmp_path / "empty.edges"
        graph.write_text("0 0\n")
        pin = tmp_path / "tf.json"
        pin.write_text(json.dumps({"cycles": [], "matching": []}))
        common = ("prob", str(graph), "--two-factor", str(pin))
        exact = invoke_json(*common, "--exact")
        assert exact["min_marginal"] == "1"
        sampled = invoke_json(*common, "--seed", "3", "--trials", "10")
        assert sampled["counts"] == [] and sampled["frequencies"] == []
        assert sampled["min_frequency"] == "1"
        assert sampled["meets_threshold"] is True

    def test_monte_carlo_emits_seed(self, files):
        payload = invoke_json(
            "prob", files("p.g6", petersen()), "--trials", "64")
        assert isinstance(payload["seed"], int)
        assert payload["violations"] == 0

    def test_monte_carlo_on_deficient_graph_replays_all_phases(self, tmp_path):
        p = tmp_path / "d.g6"
        p.write_text(DEFICIENT_N10 + "\n")
        payload = invoke_json(
            "prob", str(p), "--seed", "11", "--trials", "500")
        assert payload["backend"] == "five-phase-reference"
        assert payload["violations"] == 0
        again = invoke_json("prob", str(p), "--seed", "11", "--trials", "500")
        assert again == payload

    def test_guard_exit_code(self, files):
        code, out, err = invoke(
            "prob", files("big.edges", circular_ladder(33), "edges"), "--exact")
        assert code == 3 and "guard" in err.lower()

    def test_orientation_guard_fires_before_the_two_factor_search(self, files, monkeypatch):
        # selecting GP(28,5)'s two-factor took seconds before the law
        # refused its 2^28 orientations
        def refuse(*args, **kwargs):
            raise AssertionError("select_two_factor ran")

        monkeypatch.setattr(cli, "select_two_factor", refuse)
        cases = [(circular_ladder(17), (), "2^17", 65536),
                 (petersen(), ("--max-orient", "16"), "2^5", 16)]
        for g, option, count, limit in cases:
            code, out, err = invoke("prob", files("g.g6", g), "--exact", *option)
            assert (code, out) == (3, "")
            assert f"{count} matching orientations exceed the limit of {limit}" in err
        monkeypatch.undo()
        # non-cubic input is still refused by the two-factor search
        code, out, err = invoke("prob", files("c.g6", cycle(40)), "--exact")
        assert (code, out) == (2, "")
        assert "requires a cubic graph" in err


class TestChif:
    @pytest.mark.parametrize(
        "g,want",
        [(cycle(5), "5/2"), (cycle(7), "7/3"), (complete(2), "2"),
         (gp72(), "14/5")],
        ids=["C5", "C7", "K2", "GP72"],
    )
    def test_values(self, files, g, want):
        payload = invoke_json("chif", files("g.g6", g))
        assert payload["chi_f"] == want

    def test_weighting_is_attached(self, files):
        payload = invoke_json("chif", files("c5.g6", cycle(5)))
        assert payload["weighting"]["size"] == "5/2"
        assert payload["dual_clique"]

    @pytest.mark.parametrize("nk", sorted(CHIF_GOLDEN), ids=str)
    def test_generalized_petersen_golden(self, nk, tmp_path, monkeypatch):
        (tmp_path / "g.g6").write_text(
            encode_graph6(generalized_petersen(*nk)) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("chif", "g.g6")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == CHIF_GOLDEN[nk]


class TestCertify:
    def test_k33(self, files):
        payload = invoke_json("certify", files("k.g6", k33()))
        cert = payload["certificate"]
        assert payload["bound"] == "32/11"
        assert payload["verified"] is True
        # K3,3 is bipartite: the support LP finds its 2-colouring
        assert cert["k"] == "2"
        assert cert["N"] == 1
        assert sorted(cert["sets"]) == [[0, 1, 2], [3, 4, 5]]

    def test_bridged_composite(self, files):
        payload = invoke_json("certify", files("b.g6", bridged_composite()))
        assert payload["verified"] is True

    def test_triangle_refused(self, files):
        code, out, err = invoke("certify", files("k4.g6", complete(4)))
        assert code == 2 and "triangle" in err

    def test_deterministic_bytes(self, files):
        path = files("p.g6", petersen())
        assert invoke("certify", path) == invoke("certify", path)

    def test_certificate_is_verified_once(self, files, monkeypatch):
        calls = []
        original = fractional_lp.verify_certificate

        def counted(g, cert):
            calls.append(cert)
            return original(g, cert)

        for module in (cli, fractional_lp):
            if getattr(module, "verify_certificate", None) is original:
                monkeypatch.setattr(module, "verify_certificate", counted)
        payload = invoke_json("certify", files("k.g6", k33()))
        assert payload["verified"] is True
        assert len(calls) == 1

    def test_bridged_cube_golden(self, tmp_path, monkeypatch):
        # subdivided K3,3 and subdivided 3-cube joined at the new vertices:
        # both sides reduce to one-bridge leaves
        a = subdivide_edge(k33(), 0, 3)
        b = subdivide_edge(circular_ladder(4), 0, 1)
        both = disjoint_union(a, b)
        g = Graph(both.n, list(both.edges) + [(a.n - 1, both.n - 1)])
        (tmp_path / "composite.g6").write_text(encode_graph6(g) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("certify", "composite.g6")
        assert code == 0, err
        # sha256 of the output when the one-bridge leaf had its own selection loop
        assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_GOLDEN

    @pytest.mark.parametrize("nk", sorted(CERTIFY_LADDER_GOLDEN), ids=str)
    def test_generalized_petersen_golden(self, nk, tmp_path, monkeypatch):
        (tmp_path / "g.g6").write_text(
            encode_graph6(generalized_petersen(*nk)) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("certify", "g.g6")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_LADDER_GOLDEN[nk]

    @pytest.mark.parametrize("edges", sorted(CERTIFY_BRIDGED_GOLDEN), ids=str)
    def test_bridged_six_cube_golden(self, edges, tmp_path, monkeypatch):
        a = subdivide_edge(k33(), *edges[0])
        b = subdivide_edge(circular_ladder(4), *edges[1])
        both = disjoint_union(a, b)
        g = Graph(both.n, list(both.edges) + [(a.n - 1, both.n - 1)])
        (tmp_path / "composite.g6").write_text(encode_graph6(g) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("certify", "composite.g6")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_BRIDGED_GOLDEN[edges]

    @pytest.mark.parametrize("name", sorted(CERTIFY_CHAIN_GOLDEN))
    def test_bridge_chain_golden(self, name, tmp_path, monkeypatch):
        if name == "chain":
            # C5, K3,3 and the 3-cube, the last two with two edges
            # subdivided, joined in a row by bridges, then a 3-vertex tail
            a, b = cycle(5), subdivide_edge(subdivide_edge(k33(), 0, 3), 1, 4)
            c = subdivide_edge(subdivide_edge(circular_ladder(4), 0, 1), 2, 3)
            both = disjoint_union(disjoint_union(a, b), c)
            n = both.n
            g = Graph(n + 3, list(both.edges) + [
                (2, 11), (12, 21), (22, n), (n, n + 1), (n + 1, n + 2)])
        else:
            g = path_graph(40)
        (tmp_path / f"{name}.txt").write_text(to_edge_list_text(g))
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("certify", f"{name}.txt")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_CHAIN_GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CERTIFY_TEXT_GOLDEN))
    def test_text_format_golden(self, name, tmp_path, monkeypatch):
        if name == "gp7_2":
            g, path = generalized_petersen(7, 2), "g.g6"
        else:
            a = subdivide_edge(k33(), 1, 5)
            b = subdivide_edge(circular_ladder(4), 4, 5)
            both = disjoint_union(a, b)
            g, path = Graph(both.n, list(both.edges) + [(a.n - 1, both.n - 1)]), "composite.g6"
        (tmp_path / path).write_text(encode_graph6(g) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("certify", path, "--format", "text")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_TEXT_GOLDEN[name]

    def test_long_path_certifies_below_the_recursion_limit(self, files):
        # a path nests one bridge split in the next, one per vertex
        path = files("path.txt", path_graph(300), fmt="edges")
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        assert depth + 150 < 300
        sys.setrecursionlimit(depth + 150)
        try:
            code, out, err = invoke("certify", path)
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, err
        assert json.loads(out)["verified"] is True

    def test_pendant_bridges_at_the_larger_ends(self, files):
        # C5 with pendant vertices 5 and 6 at 0 and 2: the side of each
        # bridge's smaller end holds the other bridge
        g = Graph(7, list(cycle(5).edges) + [(0, 5), (2, 6)])
        payload = invoke_json("certify", files("p.g6", g))
        assert payload["verified"] is True

    def test_orientation_guard_fires_before_the_two_factor_search(self, files, monkeypatch):
        # C32 doubles to a 64-vertex leaf whose matchings have 2^32
        # orientations; selecting its two-factor first took minutes
        def refuse(*args, **kwargs):
            raise AssertionError("select_two_factor ran")

        monkeypatch.setattr(fractional_lp, "select_two_factor", refuse)
        code, out, err = invoke("certify", files("c.g6", cycle(32)))
        assert (code, out) == (3, "")
        assert "2^32 matching orientations exceed the limit of 65536" in err

    def test_bridge_merge_guard(self, files, monkeypatch):
        # C5 (5 sets, N = 2) bridged to C7 (7 sets, N = 3): both leaves
        # fit under 14 sets, the merge on N = 6 needs 15
        a, b = cycle(5), cycle(7)
        both = disjoint_union(a, b)
        g = Graph(both.n, list(both.edges) + [(0, a.n + b.n - 1)])
        path = files("b.g6", g)
        assert invoke_json("certify", path)["certificate"]["N"] == 6
        monkeypatch.setattr(fractional_lp, "DEFAULT_MAX_MULTISET", 14)
        code, out, err = invoke("certify", path)
        assert (code, out) == (3, "")
        assert "bridge merge would hold 15 sets (> 14)" in err


class TestJsonWriter:
    """``_render(p, "json")`` must print ``json.dumps(p, indent=2,
    sort_keys=True)`` and a newline, byte for byte."""

    COMMANDS = {
        "validate": (["validate", "{p}"], 0),
        "validate-failure": (["validate", "{path}", "--require-cubic-triangle-free"], 2),
        "two-factor": (["two-factor", "{p}"], 0),
        "chif": (["chif", "{p}"], 0),
        "prob-exact": (["prob", "{d}", "--exact"], 0),
        "prob-trials": (["prob", "{d}", "--trials", "500", "--seed", "5"], 0),
        "certify": (["certify", "{b}"], 0),
        "corpus": (["corpus", "{corpus}"], 0),
        "corpus-search": (["corpus", "{corpus}", "--search"], 0),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_payload(self, command, files, tmp_path, monkeypatch):
        (tmp_path / "d.g6").write_text(DEFICIENT_BY_TYPE["I"] + "\n")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "cubic_tf_bridgeless_n10.g6", corpus)
        paths = {"p": files("p.g6", petersen()), "path": files("q.g6", path_graph(4)),
                 "b": files("b.g6", bridged_composite()), "d": str(tmp_path / "d.g6"),
                 "corpus": str(corpus)}
        argv, want_code = self.COMMANDS[command]
        seen = []
        render = cli._render

        def spy(payload, fmt):
            seen.append(payload)
            return render(payload, fmt)

        monkeypatch.setattr(cli, "_render", spy)
        code, out, err = invoke(*(a.format(**paths) for a in argv))
        assert code == want_code, err
        [payload] = seen
        assert out == render(payload, "json") == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_repeated_lists_at_several_depths(self):
        payload = {"b": [[1, 2], [1, 2], [], {}], "a": {"c": [1, 2], "d": [[1, 2]]},
                   "e": [1, True], "f": [0, False, None, "1"], "g": [[1], [True], [1.0]],
                   "h": [0.0, -0.0], "i": ["x", "x\u00e9\n\"\\"]}
        assert cli._render(payload, "json") == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats(allow_nan=True, allow_infinity=True),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20))
    def test_matches_json_dumps(self, value):
        payload = {"value": value, "again": value, "nested": {"value": value}}
        assert cli._render(payload, "json") == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("payload", [
        {"sets": [[0, 2], [0, 2], [0, 2], [1, 3], [0, 2], [1, 3], [1, 3]]},
        {"sets": [[1], [True], [1.0], [0], [False]]},
        {"sets": [[1, 2], [1, True]]},
        {"sets": [[], [], [4], [], ["a"], []]},
        {"sets": [["\"", "\\"], ["tab\t", "\u00e9\n"], ["\"", "\\"], [None, "\u2028"]]},
        {"a": [[1, 2], [1, 2], [3]], "b": {"c": [[5], [5]], "d": [{"e": [[6]]}, [[7], [7]]]}},
    ], ids=["adjacent-equal", "equal-other-types", "bool-inside", "empty-inner",
            "escapes", "beside-a-dict"])
    def test_lists_of_lists(self, payload):
        assert cli._render(payload, "json") == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def test_text_lists_of_lists(self):
        payload = {"a": [[1], [1], [True], [1.0], [], ["x\n"], [1]], "b": []}
        assert cli._render(payload, "text") == (
            'a: [1] [1] [true] [1.0] [] ["x\\n"] [1]\nb: \n')

    # the standard encoder's indenting path builds closures that refer to
    # one another, so only the text walk is held to this
    @pytest.mark.parametrize("fmt", ["text"])
    def test_render_leaves_no_reference_cycle(self, fmt):
        payload = {"certificate": {"sets": [[0, 2], [0, 2], [1, 3]], "N": 1},
                   "rows": [{"a": [1, True]}], "verified": True}
        gc.collect()
        gc.disable()
        try:
            cli._render(payload, fmt)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCorpus:
    def small_dir(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        shutil.copy(CORPUS / "cubic_tf_bridgeless_n6.g6", d)
        shutil.copy(CORPUS / "cubic_tf_bridgeless_n8.g6", d)
        return d

    def test_rows_per_graph(self, tmp_path):
        d = self.small_dir(tmp_path)
        payload = invoke_json("corpus", str(d))
        assert payload["count"] == 3
        names = [r["graph"] for r in payload["rows"]]
        assert names[0] == "cubic_tf_bridgeless_n6.g6"    # single-line file
        assert names[1].endswith(":1") and names[2].endswith(":2")
        k33_row = payload["rows"][0]
        assert k33_row["chi_f"] == "2"
        assert k33_row["deficient_count"] == 0
        assert k33_row["min_marginal"] == "1/2"

    def test_search_filters_to_deficient(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        shutil.copy(CORPUS / "cubic_tf_bridgeless_n10.g6", d)
        payload = invoke_json("corpus", str(d), "--search")
        assert payload["count"] == 1
        row = payload["rows"][0]
        assert row["deficient_count"] == 2
        assert all(e["epsilon"] == "-1" for e in row["deficient"])

    def test_guards_reach_the_exact_law(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "p.g6").write_text(encode_graph6(petersen()) + "\n")
        assert invoke_json("corpus", str(d))["rows"][0]["min_marginal"] == "117/320"
        for flag in ("--max-branches", "--max-orient"):
            row = invoke_json("corpus", str(d), flag, "1")["rows"][0]
            assert row["min_marginal"] is None
            assert row["chi_f"] == "5/2" and row["deficient_count"] == 0

    def test_no_qualifying_two_factor_row(self, tmp_path, monkeypatch):
        def none_qualifies(g):
            raise NoQualifyingTwoFactor("planted")

        monkeypatch.setattr(cli, "select_two_factor", none_qualifies)
        d = tmp_path / "c"
        d.mkdir()
        (d / "p.g6").write_text(encode_graph6(petersen()) + "\n")
        row = invoke_json("corpus", str(d))["rows"][0]
        assert row["deficient_count"] == "no-qualifying-two-factor"
        assert row["chi_f"] == "5/2" and row["min_marginal"] is None

    def test_laws_do_not_outlive_the_run(self, tmp_path):
        # relabelled copies, so no other test has built these graphs
        d = tmp_path / "c"
        d.mkdir()
        for i, g in enumerate((k33(), circular_ladder(4), petersen())):
            shifted = Graph(g.n, [((u + 1) % g.n, (v + 1) % g.n) for u, v in g.edges])
            (d / f"g{i}.g6").write_text(encode_graph6(shifted) + "\n")

        def live_laws():
            gc.collect()
            return sum(1 for o in gc.get_objects() if isinstance(o, sampler._Law))

        before = live_laws()
        payload = invoke_json("corpus", str(d))
        assert [r["min_marginal"] is not None for r in payload["rows"]] == [True] * 3
        assert live_laws() == before

    def test_empty_dir(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        payload = invoke_json("corpus", str(d))
        assert payload["count"] == 0 and payload["rows"] == []

    def test_not_a_directory(self, tmp_path):
        code, out, err = invoke("corpus", str(tmp_path / "nope"))
        assert code == 2

    def test_csv_rendering(self, tmp_path):
        d = self.small_dir(tmp_path)
        code, out, err = invoke("corpus", str(d), "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("graph,n,m,")
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "6"


class TestPlumbing:
    @pytest.mark.parametrize("data", [b"I\xc3\xa9\xc3\xa9\n", b"\xff\n"],
                             ids=["non-ascii", "not-utf8"])
    @pytest.mark.parametrize("command", ["validate", "corpus"])
    def test_undecodable_input_is_a_validation_error(self, tmp_path, command, data):
        (tmp_path / "bad.g6").write_bytes(data)
        target = tmp_path / "bad.g6" if command == "validate" else tmp_path
        code, out, err = invoke(command, str(target))
        assert code == 2 and err.startswith("error:")

    def test_python_dash_m_package(self, files):
        path = files("p.g6", petersen())
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def stdout(module):
            return subprocess.run(
                [sys.executable, "-m", module, "validate", path], env=env,
                capture_output=True, text=True, check=True, timeout=60).stdout

        assert stdout("fracchrom") == stdout("fracchrom.cli")

    def test_text_format(self, files):
        code, out, err = invoke(
            "chif", files("c5.g6", cycle(5)), "--format", "text")
        assert code == 0
        assert "chi_f: 5/2" in out

    def test_invariant_exit_code(self, files, monkeypatch):
        def boom(cfg):
            raise BiasInfeasible("planted")

        monkeypatch.setitem(cli._COMMANDS, "validate", boom)
        code, out, err = invoke("validate", files("p.g6", petersen()))
        assert code == 4 and "BiasInfeasible" in err

    def test_guard_exit_code_mapping(self, files, monkeypatch):
        def boom(cfg):
            raise GuardExceeded("planted")

        monkeypatch.setitem(cli._COMMANDS, "validate", boom)
        assert invoke("validate", files("p.g6", petersen()))[0] == 3

    def test_bad_seed_rejected(self, files):
        code, out, err = invoke(
            "prob", files("p.g6", petersen()), "--seed", str(1 << 64))
        assert code == 2 and "seed must fit in 64 bits" in err

    @pytest.mark.parametrize("command, option", [
        ("certify", ["--two-factor", "tf.json"]),
        ("chif", ["--max-orient", "1"]),
        ("validate", ["--seed", "5"]),
        ("corpus", ["--trials", "10"]),
        ("prob", ["--phase4-feasibility", "start"]),
        ("certify", ["--phase4-feasibility", "start"]),
        ("corpus", ["--phase4-feasibility", "start"]),
    ])
    def test_option_a_command_does_not_read_is_refused(self, files, command, option):
        with pytest.raises(SystemExit) as exc:
            invoke(command, files("p.g6", petersen()), *option)
        assert exc.value.code == 2

    def test_bad_trials_rejected(self, files):
        code, out, err = invoke(
            "prob", files("p.g6", petersen()), "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("option, message", [
        (["--seed", "-1"], "seed must fit in 64 bits"),
        (["--max-orient", "0"], "max_orientations must be positive"),
        (["--max-branches", "0"], "max_branches must be positive"),
    ], ids=["seed", "max-orient", "max-branches"])
    def test_out_of_range_option_rejected(self, files, option, message):
        code, out, err = invoke("prob", files("p.g6", petersen()), *option)
        assert (code, out, err) == (2, "", f"error: {message}\n")
