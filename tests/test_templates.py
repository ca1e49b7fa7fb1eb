"""Tests for the template calculus: DSL, bounds, builtins, composition."""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from fracchrom.templates import (
    BUILTIN_NAMES,
    INVALID,
    LEFT_NAMES,
    SensitivePair,
    Template,
    TemplateError,
    UPPER_NAMES,
    builtin,
    compose_pqr,
    lemma4_lower_bound,
    parse_template_dsl,
    q_upper,
    sensitive_pairs,
    sigma_library,
    validate_in,
)
from fracchrom.graph_core import parse_graph6
from fracchrom.two_factor import TwoFactor, select_two_factor

from util_graphs import (circular_ladder, complete, generalized_petersen, gp72,
                         k33, petersen)


def print_template(t):
    """Render a template in the canonical form accepted by the parser."""
    lines = []
    if t.focus is not None:
        lines.append("focus %d" % t.focus)
    for tail, head in sorted(t.arcs):
        lines.append("arc %d->%d" % (tail, head))
    for name, group in (("star", t.d1), ("xstar", t.d1bar),
                        ("tri", t.d3), ("xtri", t.d3bar)):
        for v in sorted(group):
            lines.append("%s %d" % (name, v))
    return "\n".join(lines)


def template_to_json_dict(t):
    return {
        "focus": t.focus,
        "arcs": [list(a) for a in sorted(t.arcs)],
        "d1": sorted(t.d1),
        "d1bar": sorted(t.d1bar),
        "d3": sorted(t.d3),
        "d3bar": sorted(t.d3bar),
    }


SPOKES = [(i, 5 + i) for i in range(5)]


def spokes_tf():
    return TwoFactor(petersen(), SPOKES)


def ladder_tf():
    return TwoFactor(circular_ladder(5), SPOKES)


def k33_tf():
    g = k33()
    return TwoFactor(g, [(0, 3), (1, 4), (2, 5)])


def gp72_tf():
    return TwoFactor(gp72(), [(i, 7 + i) for i in range(7)])


def gadget_tf():
    # two 5-cycles tied by chords (1,3), (6,8) and three cross edges;
    # the matching makes 1-3 a chord of the first cycle
    from util_graphs import cycle, disjoint_union
    from fracchrom.graph_core import Graph

    base = disjoint_union(cycle(5), cycle(5))
    edges = list(base.edges) + [(1, 3), (6, 8), (0, 5), (2, 7), (4, 9)]
    g = Graph(10, edges)
    return g, TwoFactor(g, [(1, 3), (6, 8), (0, 5), (2, 7), (4, 9)])


# ---------------------------------------------------------------------------
# Template construction


def test_template_rejects_double_orientation():
    with pytest.raises(TemplateError):
        Template([(0, 5), (5, 0)])


def test_template_rejects_star_on_non_head():
    with pytest.raises(TemplateError):
        Template([(0, 5)], d1=[0])
    with pytest.raises(TemplateError):
        Template([(0, 5)], d3=[5])


def test_template_rejects_overlapping_marks():
    with pytest.raises(TemplateError):
        Template([(0, 5), (1, 6)], d1=[5], d1bar=[5])
    with pytest.raises(TemplateError):
        Template([(0, 5)], d3=[0], d3bar=[0])


def test_template_value_semantics():
    a = Template([(0, 5), (1, 6)], d1=[5], focus=0)
    b = Template([(1, 6), (0, 5)], d1=[5], focus=0)
    c = Template([(1, 6), (0, 5)], d1=[6], focus=0)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a.heads == frozenset({5, 6}) and a.tails == frozenset({0, 1})


def test_weight_counts_arcs_and_marks():
    t = Template([(0, 5), (1, 6)], d1=[5], d3bar=[1], focus=0)
    assert t.weight == 4
    assert Template([], focus=3).weight == 0


# ---------------------------------------------------------------------------
# DSL


def test_parse_focus_only_weight_zero():
    t = parse_template_dsl("focus 3", spokes_tf())
    assert t.focus == 3 and t.weight == 0 and not t.arcs


def test_parse_matches_builtin_b():
    tf = spokes_tf()
    text = "focus 0\narc u->u'\narc u- -> (u-)'\ntri u"
    assert parse_template_dsl(text, tf) == builtin("B", tf, 0)


def test_parse_slash_separated():
    tf = spokes_tf()
    a = parse_template_dsl("focus 0 / arc u->u' / tri u", tf)
    b = parse_template_dsl("focus 0\narc 0->5\ntri 0", tf)
    assert a == b


def test_parse_offsets_and_mates():
    tf = spokes_tf()  # outer cycle (0,4,3,2,1)
    t = parse_template_dsl("focus 0\narc (u-)'->u-", tf)
    assert t.arcs == frozenset({(6, 1)})
    t = parse_template_dsl("focus 0\narc (u+2)'->u+2", tf)
    assert t.arcs == frozenset({(8, 3)})
    t = parse_template_dsl("focus 0\narc v-1 -> (v-1)'", tf)
    # v = 5, inner cycle (5,8,6,9,7): one step back is 7
    assert t.arcs == frozenset({(7, 2)})


def test_parse_double_orientation_error():
    tf = spokes_tf()
    with pytest.raises(TemplateError):
        parse_template_dsl("arc 0->5\narc 5->0", tf)


def test_parse_error_catalogue():
    tf = spokes_tf()
    cases = [
        # symbolic vertex before focus
        ("arc u->u'", "cannot resolve 'u': no focus declared yet"),
        # focus cannot reference itself
        ("focus u", "cannot resolve 'u': no focus declared yet"),
        # out of range
        ("focus 99", "cannot resolve '99': vertex 99 out of range"),
        ("focus 0\nfocus 1", "focus declared twice"),
        # malformed arrow
        ("focus 0\narc 0->5->6", "arc needs the form A->B, got 'arc 0->5->6'"),
        ("focus 0\nblah 3", "unknown directive 'blah'"),
        # missing argument
        ("focus 0\nstar", "directive 'star' needs an argument"),
        ("focus 0\narc 0->4", r"arc \(0, 4\) does not orient a matching edge"),
        # mark on a tail
        ("focus 0\narc 0->5\nstar 0", r"phase-1 constraint on non-head vertices \[0\]"),
        # phase-3 mark on a head
        ("focus 0\narc 0->5\ntri 5", r"phase-3 constraint on non-tail vertices \[5\]"),
        # unbalanced parenthesis
        ("focus 0\narc (0->5", r"cannot resolve '\(0': missing '\)'"),
    ]
    for text, message in cases:
        with pytest.raises(TemplateError, match="^%s$" % message):
            parse_template_dsl(text, tf)


@pytest.mark.parametrize("text", [
    "focus 99'", "focus 99+1", "focus 0\narc 99'->99", "focus 0\nstar (99-2)'"],
    ids=["mate", "step", "arc", "star"])
def test_parse_out_of_range_vertex_before_a_step(text):
    # ' and +-k look the vertex up in the two-factor
    with pytest.raises(TemplateError, match="vertex 99 out of range"):
        parse_template_dsl(text, spokes_tf())


def test_parse_ignores_comments_and_blanks():
    tf = spokes_tf()
    t = parse_template_dsl("# header\n\nfocus 0\n# note\narc u->u'", tf)
    assert t.arcs == frozenset({(0, 5)})


def test_print_parse_round_trip_on_builtins():
    tf = spokes_tf()
    for name in BUILTIN_NAMES:
        t = builtin(name, tf, 0)
        text = print_template(t)
        again = parse_template_dsl(text, tf)
        assert again == t
        assert print_template(again) == text


# ---------------------------------------------------------------------------
# sensitive pairs


def test_plus_minus_template_has_one_circular_pair():
    tf = spokes_tf()
    t = builtin("E+-", tf, 0)
    pairs = sensitive_pairs(t, petersen(), tf)
    assert pairs == [SensitivePair(0, 0, "circular-c", 2)]


def test_plus_minus_regular_when_partner_shares_cycle():
    g, tf = gadget_tf()
    # 1 and its partner 3 lie on the same 5-cycle, so that cycle carries
    # a tail and the circular pair dissolves
    t = builtin("E+-", tf, 1)
    assert sensitive_pairs(t, g, tf) == []


def test_circular_pair_needs_odd_cycle():
    tf = k33_tf()
    t = builtin("E+-", tf, 0)
    assert sensitive_pairs(t, k33(), tf) == []


def test_linear_pair_same_set_odd_path():
    tf = spokes_tf()
    t = parse_template_dsl("focus 0\narc 5->0\narc 8->3\nstar 0\nstar 3", tf)
    pairs = sensitive_pairs(t, petersen(), tf)
    # forward path 3,2,1,0 has odd length and two non-heads
    assert pairs == [SensitivePair(3, 0, "linear-a", 2)]


def test_linear_pair_cross_sets_even_path():
    tf = spokes_tf()
    t = parse_template_dsl("focus 0\narc 5->0\narc 8->3\nstar 0\nxstar 3", tf)
    pairs = sensitive_pairs(t, petersen(), tf)
    # forward path 0,4,3 has even length and one non-head
    assert pairs == [SensitivePair(0, 3, "linear-b", 1)]


def test_tail_on_path_suppresses_pair():
    tf = spokes_tf()
    t = parse_template_dsl(
        "focus 0\narc 5->0\narc 8->3\narc 2->7\nstar 0\nstar 3", tf)
    assert sensitive_pairs(t, petersen(), tf) == []


def test_marked_internal_vertex_suppresses_pair():
    tf = spokes_tf()
    t = parse_template_dsl(
        "focus 0\narc 5->0\narc 8->3\narc 7->2\nstar 0\nstar 3\nstar 2", tf)
    pairs = sensitive_pairs(t, petersen(), tf)
    # only 3,2 survives: adjacent heads, zero slack
    assert pairs == [SensitivePair(3, 2, "linear-a", 0)]


# ---------------------------------------------------------------------------
# q bound


def test_q_upper_zero_without_phase3_requirement():
    tf = spokes_tf()
    assert q_upper(builtin("E+-", tf, 0), petersen(), tf) == 0


def test_q_upper_zero_on_even_cycle():
    tf = k33_tf()
    assert q_upper(builtin("B", tf, 0), k33(), tf) == 0


def test_q_upper_counts_non_tails():
    tf = spokes_tf()
    t = builtin("B", tf, 0)
    # cycle (0,4,3,2,1); tails 0 and 1 leave three free vertices
    assert q_upper(t, petersen(), tf) == Fraction(1, 8)


def test_q_upper_zero_when_head_lands_on_cycle():
    g, tf = gadget_tf()
    t = builtin("B", tf, 1)  # partner 3 is a head on the same cycle
    assert q_upper(t, g, tf) == 0


def test_q_upper_quarter_on_seven_cycle():
    tf = gp72_tf()
    t = compose_pqr(builtin("B", tf, 0), builtin("B*", tf, 0),
                    builtin("D0", tf, 0))
    assert t is not INVALID
    assert q_upper(t, gp72(), tf) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# probability lower bound


def test_bound_regular_weight_three():
    t = Template([(5, 0), (1, 6), (4, 9)], focus=0)
    assert lemma4_lower_bound(t, [], Fraction(0)) == Fraction(1, 8)


def test_bound_plus_minus_value():
    tf = spokes_tf()
    t = builtin("E+-", tf, 0)
    pairs = sensitive_pairs(t, petersen(), tf)
    got = lemma4_lower_bound(t, pairs, q_upper(t, petersen(), tf))
    assert got == Fraction(19, 320)  # 15.2/256


def test_bound_with_mixed_pairs():
    t = Template([(5, 0), (8, 3)], d1=[0, 3], focus=0)
    pairs = [SensitivePair(0, 3, "linear-a", 2),
             SensitivePair(3, 3, "circular-c", 4)]
    expected = (Fraction(1) - Fraction(1, 4) - Fraction(1, 80)) / 2 ** 4
    assert lemma4_lower_bound(t, pairs, Fraction(0)) == expected


def test_bound_discounts_q():
    t = Template([(5, 0)], focus=0)
    got = lemma4_lower_bound(t, [], Fraction(1, 4))
    assert got == Fraction(19, 20) / 2


def test_bound_clamped_at_zero():
    t = Template([(5, 0)], d1=[0], focus=0)
    pairs = [SensitivePair(0, 0, "circular-c", 0),
             SensitivePair(0, 1, "linear-a", 0)]
    assert lemma4_lower_bound(t, pairs, Fraction(1)) == 0


# ---------------------------------------------------------------------------
# builtins


def test_builtin_weights_match_expected():
    tf = spokes_tf()
    expected = {"E0": 3, "E-": 4, "E+": 4, "E+-": 4,
                "A": 4, "B": 3, "C1": 4, "C2": 6, "C3": 7,
                "D-": 4, "D0": 4, "D+": 4}
    for name, w in expected.items():
        assert builtin(name, tf, 0).weight == w, name
        validate_in(builtin(name, tf, 0), tf)


def test_builtin_b_structure():
    tf = spokes_tf()
    t = builtin("B", tf, 0)
    assert t.arcs == frozenset({(0, 5), (1, 6)})
    assert t.d3 == frozenset({0}) and not t.d1 and not t.d1bar
    assert t.focus == 0


def test_builtin_c2_structure():
    tf = spokes_tf()
    t = builtin("C2", tf, 0)
    assert t.arcs == frozenset({(0, 5), (1, 6), (7, 2)})
    assert t.d1 == frozenset({2})
    assert t.d1bar == frozenset({6})
    assert t.d3bar == frozenset({0})


def test_builtin_star_swaps_direction():
    tf = spokes_tf()
    t = builtin("A*", tf, 0)
    # forward neighbours of 0 on (0,4,3,2,1) are 4 and 3
    assert t.arcs == frozenset({(0, 5), (9, 4), (8, 3)})
    assert t.d1 == frozenset({3})


def test_builtin_upper_family():
    tf = spokes_tf()  # partner cycle (5,8,6,9,7)
    d_minus = builtin("D-", tf, 0)
    assert d_minus.arcs == frozenset({(0, 5), (2, 7), (8, 3)})
    assert d_minus.d1 == frozenset({7})
    d_zero = builtin("D0", tf, 0)
    assert d_zero.arcs == frozenset({(0, 5), (2, 7), (3, 8)})
    assert d_zero.d1bar == frozenset({5})
    d_plus = builtin("D+", tf, 0)
    assert d_plus.arcs == frozenset({(0, 5), (7, 2), (3, 8)})
    assert d_plus.d1 == frozenset({8})


def test_builtin_e0_forces_shape():
    tf = spokes_tf()
    t = builtin("E0", tf, 0)
    assert t.arcs == frozenset({(5, 0), (1, 6), (4, 9)})
    assert t.weight == 3 and not t.marked


def test_builtin_unicode_aliases():
    tf = spokes_tf()
    assert builtin("E±", tf, 0) == builtin("E+-", tf, 0)
    assert builtin("D−", tf, 0) == builtin("D-", tf, 0)
    assert builtin("C₁*", tf, 0) == builtin("C1*", tf, 0)


def test_builtin_unknown_name():
    tf = spokes_tf()
    with pytest.raises(TemplateError):
        builtin("Q", tf, 0)


def test_builtin_invalid_in_triangle_graph():
    g = complete(4)
    tf = TwoFactor(g, [(0, 2), (1, 3)])
    with pytest.raises(TemplateError):
        builtin("E0", tf, 0)


@pytest.mark.parametrize("x", [0.7, 2.9, 5.0, True, False, -1, "0"], ids=repr)
def test_template_refuses_a_non_vertex_id(x):
    # arcs and focus refuse what d1, d1bar, d3 and d3bar refuse, never
    # converting: ([(0.7, 5)], focus=2.9) once became arc (0, 5), focus 2
    for kwargs in ({"arcs": [(x, 6)]}, {"arcs": [(6, x)]},
                   {"arcs": [(0, 6)], "focus": x}, {"arcs": [(0, 6)], "d1": [x]}):
        with pytest.raises(TemplateError, match="is not a vertex id"):
            Template(**kwargs)


@pytest.mark.parametrize("build,message", [
    (lambda tf: builtin(None, tf, 0), "unknown template name None"),
    (lambda tf: Template([(0, 1, 2)]), r"arc \(0, 1, 2\) is not a pair"),
    # a tab separates like a space: the fault is the mark on u+1 = 4
    (lambda tf: parse_template_dsl("focus 0\nstar u\t+1", tf),
     r"phase-1 constraint on non-head vertices \[4\]"),
], ids=["name", "arc", "tab"])
def test_template_input_errors_are_template_errors(build, message):
    with pytest.raises(TemplateError, match=message):
        build(spokes_tf())


@pytest.mark.parametrize("u", [-1, 10, True, 1.0, "0", None])
def test_placement_refuses_a_non_vertex(u):
    tf = spokes_tf()
    assert tf.graph.n == 10
    with pytest.raises(TemplateError, match="not a vertex"):
        builtin("E0", tf, u)
    with pytest.raises(TemplateError, match="not a vertex"):
        sigma_library(tf, u)


# ---------------------------------------------------------------------------
# composition


def test_compose_bc1d_plus_invalid():
    tf = spokes_tf()
    got = compose_pqr(builtin("B", tf, 0), builtin("C1*", tf, 0),
                      builtin("D+", tf, 0))
    assert got is INVALID
    assert not INVALID


def test_compose_requires_common_focus():
    tf = spokes_tf()
    with pytest.raises(TemplateError):
        compose_pqr(builtin("A", tf, 0), builtin("B*", tf, 2),
                    builtin("D0", tf, 0))


def test_compose_bbd0_collapses_on_double_square():
    tf = ladder_tf()
    t = compose_pqr(builtin("B", tf, 0), builtin("B*", tf, 0),
                    builtin("D0", tf, 0))
    assert t is not INVALID
    assert t.weight == 5
    assert t.arcs == frozenset({(0, 5), (1, 6), (4, 9)})
    assert t.d3 == frozenset({0}) and t.d1bar == frozenset({5})


def test_compose_abd_chirality_on_double_square():
    tf = ladder_tf()
    plus = compose_pqr(builtin("A", tf, 0), builtin("B*", tf, 0),
                       builtin("D+", tf, 0))
    minus = compose_pqr(builtin("A", tf, 0), builtin("B*", tf, 0),
                        builtin("D-", tf, 0))
    assert minus is INVALID
    assert plus is not INVALID and plus.weight == 7


def test_bbd0_weight_seven_without_collapse():
    tf = spokes_tf()
    t = compose_pqr(builtin("B", tf, 0), builtin("B*", tf, 0),
                    builtin("D0", tf, 0))
    assert t is not INVALID and t.weight == 7


def test_sigma_library_shape():
    tf = spokes_tf()
    lib = sigma_library(tf, 0)
    assert len(lib) == 75
    names = [name for name, _ in lib]
    assert len(set(names)) == 75
    as_map = dict(lib)
    assert as_map["BC1D+"] is INVALID
    for name, t in lib:
        assert len(name) >= 4
        if t is INVALID:
            continue
        assert t.focus == 0
        assert (0, 5) in t.arcs
        validate_in(t, tf)


def test_sigma_library_valid_members_parse_round_trip():
    tf = spokes_tf()
    for name, t in sigma_library(tf, 0):
        if t is INVALID:
            continue
        assert parse_template_dsl(print_template(t), tf) == t


# ---------------------------------------------------------------------------
# serialization


def test_template_json_dict():
    tf = spokes_tf()
    t = builtin("C2", tf, 0)
    d = template_to_json_dict(t)
    assert d == {
        "focus": 0,
        "arcs": [[0, 5], [1, 6], [7, 2]],
        "d1": [2],
        "d1bar": [6],
        "d3": [],
        "d3bar": [0],
    }
    assert SensitivePair(0, 0, "circular-c", 2).to_json_dict() == {
        "x": 0, "y": 0, "kind": "circular-c", "freeness": 2}


# ---------------------------------------------------------------------------
# every placement, pinned


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# one spelling of each alias character of the builtin names
ALIAS_NAMES = ("E⁰", "E−", "E⁺", "E±", "C₁", "C₂*", "C₃*",
               "D⁻", "D⁰", "D⁺", "D−")
# sha256, per graph, of every builtin name and alias placed at every
# vertex of the graph's selected two-factor (the template's repr, or the
# message of the TemplateError that refused it) and of every
# sigma_library entry there (INVALID ones included), taken when each
# builtin was still written out with its own step arithmetic
PLACEMENT_GOLDEN = {
    "GP(5,2)": "6df0571a86f071adc1b0794c1055f4dd61c988a427132684e06550657e25e9f4",
    "GP(7,2)": "5c1b6717a0dc2531d0641e8719d575d66b8dcccf8903ae3d2772f24408b83450",
    "GP(8,3)": "75bd3a1e746a9538c17c93e839c90e060c8e76f38d4b3c663435e8bffd45b671",
    "GP(9,2)": "d8772dbeafb70b4082fd8800aa1c8905ac1a7a07c10310c0e6752f15c7015a5f",
    "GP(10,2)": "caa7b7a8e43a6c6f1e45d9cd8d074c4082675767ebb5f2de229a864e499a55da",
    "GP(10,3)": "bcab717cac24cffb5e5e9c4eef268e2337aab2d259cb193169b20baa06099e13",
    "IlSGHCD_g": "64b28ff0232ff3adf791bf9d4476d3f80f0302cae6fc56e2e0aa89e52da0d99e",
    "IlDGHCH_g": "67de9b5c1dddb7dde36511516c8bf02dda70a5369ba1f3e31927bb1d04b29e2e",
    "IlDGGS`_g": "51aefdc8e9c61da1a1a95921cdb1531ee46bebae4314d8dd34c13c372b8c84b7",
    "IlCIHCDaG": "476835b73aa7f18fbe72f1570fbfb38a99f630e983b59bdc3c676779ca3bbca3",
    "IlCHICDaG": "d654452ee196b7df0b4032075f6eebd4de4e998cededdd0a648055416035a8f7",
    "Ihe?iCHHG": "8bcff89791cbebfec376dcc74402805cb452e36b7069b83d0cd0c67dfe4ad699",
    "KlSgGC@?gAoD": "7e5b71c3fd552f212279e156d998e7e2a137ebd07786551f31866eabc52bd8e8",
    "KlSHGC@@GAoD": "dddad91adde58d3aec8cb9296165e781948ad52d9ec28667f469ba1e67b1239f",
    "KlSGHC@@GCoD": "48625e53b5da52517105dca19228bf4d2cb8ccc2a6e4fea98439d29ddaabe424",
    "KlSGHC@?gGoD": "6c0687dce005e67f334d2e0e1ea85eb7001ce58b241e6e3d6e67beab9b23428a",
    "KlDGHC@AGCoD": "ff8904ed10e1b48d9bfe01c9898a2edb2be0740c220f4448d8e4ff9f1473c03f",
    "KlDGHC@?gOoD": "04a3fb419a35b0c43ec89658ec7f089eb669f9502063ae7cbe4015068d23d4d0",
    "KlDGGC`AGAoP": "58e86f9386e9cf47d1d394a8259c0439c366216da52458b3582590c7e0c0ce15",
    "KlDGGS@GGCoD": "0310954c6adf5a512bc87f285d86336fab8521a58582703e9707b46275457fc3",
    "KlDGGS@?h?oD": "5ab57cf69ddb48b996809d53b96544acd6c40039b0f6ffb027817217aecf5198",
    "KlDGGCH?h?oH": "f9022130c54b72363e32861c4d8c4827fed44d66c124536031ceb53a0e1de3b5",
    "KlCIHC@AGGoD": "5a178311775352999b1371bda8afdfb874472530e5aa20dc687ea8591394ab3e",
    "KlCIHC@@GOoD": "4b7daa6b6efdfa754298a165f618871f5b23e97ff3a3ee7984183c51115ef277",
    "KlCIGC`AGGoH": "4bef4c0991c12165545be8c4b29060e8e461e2d477745449dbd4158944c7356a",
    "KlCIGC`AGAo`": "314573ef600b8d1ef7da5942af91eacd79e1a187aa51f7db826323766ff6fbb9",
    "KlCIGS@GGGoD": "40ba3012c018553360f53894b6ab161de7811262027e579022cb29a273a05da3",
    "KlCIGCHGGGoH": "6a68837e02dbdc7e5801808fea7f4673d94f4984191782bf02205a359d50d48a",
    "KlCgIC@?gOoD": "7e1ab8eaea7ca2456479f14f357c26a7456083316f072bdc9a6accc8e2155611",
    "KlCGIC`?gGp@": "22ee876eb8e5e71362c3c4b173bc1ad210e8aae2ad659e40fff9bc4632089652",
    "KlCGHD@?gGp@": "b2d34e86a0022036843a32afcbf3fdb046222874aa45723119173122c0b61793",
    "KhcIGC`CGGoH": "73ecda70fe1e369b0b7bd79dd2448ba646142ca2d5c3b7aab9bd0931a248adf5",
    "KhcIGC`@G_oH": "66af5016265558f9306b918249041a6e759a0c5edad5acdc2df62fa747cbac12",
    "KhcIGCP@H?oH": "704e604d7e6d0f1a2a96a50667698a05a40230c2735054dd17ad14417f8df4cf",
    "MlSgGC@?g?_H?H_A_": "d996a5fe77fe6496efb85783a96a2e18e94bfc1c82f155aacebe71186cf18214",
    "MlSgGC@?g?_D?P_A_": "5eb04af3276d906d8f1301fa88ea635859ec0a7fbd4e1ecff10288dc8bb3cee3",
    "MlSgGC@?GC_D?P_C_": "e1514de5db49ec4d026981600283ea0e26f835086dfe3e37e2c7c30f01567370",
    "MlSgGC@?GC_D?D_O_": "c627d99cbe236daa197b02f44cd5ed6ea702bdd1885bef408062b9fe7dcd75c4",
    "MlSgGC@?GA_D?D___": "c04d8c4a3d86e9eaef480818f7422dbb7ed1d77db728edc692db54e364488094",
    "MlSHGCD?G?_H?D_A_": "7b63460afca5e37250370c43df7f7ed4ca1e2b95aa3335864bc476a4ab0b4528",
    "MlSHGC@@G?_H?H_A_": "752403438b393867941e2864c75a59aff0fb4e3ce3fa50453a418b88bed94baf",
    "MlSHGC@@G?_D?P_A_": "a55df800230496bbca52a1f03bcd9b3aca522411bb7eeb9b2992a9fbfe27805c",
    "MlSHGC@?GG_D?P_C_": "4e03be7bea00b75ebc767177c8710a7f9844ca6576c66956786d0db038450b08",
    "MlSHGC@?GG_D?D_O_": "2a8e8120931d313e0de56bcea8ef9559e047c99a125775b56d4523b9225fb701",
    "MlSGHCD?G?_P?D_A_": "8f793eada85e19425eb7e9d053391a7a597dd952d2d24633c1e7ef6afc08e29e",
    "MlSGHC@@G?_P?H_A_": "0a724c257c370c6ff40b086c8097b8df7fdd79ccbcca757a0f4ad4ff63108be7",
    "MlSGHC@@G?_D?`_A_": "a00b331fdc82ce994bfaf322a76c2df1d0e6ced5b5f67a2b9fd0c9dabba27793",
    "MlSGHC@?GG_P?H_C_": "8339992408b11849d5aada3de0ebe1e33edcd18bf4c2ad10b64d56256801557b",
    "MlSGHC@?GG_P?D_G_": "ee906391a130330dd37ec227b570675fb14ec4ddf0facb71bf721fd9de07425b",
    "MlSGHC@?GG_D?`_C_": "0c5ff3da3004923bd076e47edf71245f34d2b797e434202494f05c9b441a5ac6",
    "MlSGHC@?GG_D?D___": "47b05aee7b569b2eaad3d636bd99219ec79c8a3e8c3ffe655329fa4623db8cc9",
    "MlSGHC@?GC_`?D_G_": "b1bb55d70dafa8381530b740987419b866e6bb8d5947c052a7ae77a58173dc13",
    "MlSGHC@?GC_D@@_C_": "19e01195524080c84e5424c82cd8187cfe97e6ad422de555fa8cf14e9862b582",
    "MlSGGC`?g?_`?P_A_": "e4c7a20d343471720c616596a2c4e2a6be552b2ba613f5295d2c2df126ea67fe",
    "MlDHGC@AG?_H?H_A_": "e062f4215b94ba2a3e070c4da0406d6a885338366f45aa9152c21e672d0e204e",
    "MlDHGC@AG?_D?P_A_": "d21621e4d5d827d63ecfd4bf39b5857d0d369c37d5cfcfb1c560642d81a447d1",
    "MlDHGC@?GO_H?D_G_": "0a549dfe7bbce5b7393934caa8bcd115ffa08a2198e397374f3dac16860f6d67",
    "MlDGHC@AG?_P?H_A_": "f32c180b6404db8844728501bcac626318d42104579027096dc469cf645ff918",
    "MlDGHC@AG?_D?`_A_": "e2e69a2fd17fd1386b8b2edcee582bef3f8b1ebca8bcde517a1acdd4cfa30cf9",
    "MlDGHC@?GO_P?H_C_": "225cea1a3de0dd1e097e8aa8e05aab6cf6d23cbb2459a1c75d9d88c0009ceea1",
    "MlDGHC@?GO_P?D_G_": "31b787bc2d17d3026bce741fe030466646cd95a01f98b31e35f959182e7db79f",
    "MlDGHC@?GO_D?`_C_": "31831fa0f36f277b2335ffed68106a2fcd1b87939f1bfe7cd69ef44479a650ad",
    "MlDGHC@?g?`@?H_A_": "b02f0c08e27202a5aaa33d89f3e733edecb51ef8201742461475a069402ffb01",
    "MlDGHC@?GC`@?D_G_": "aba90235f74779ca1daf5df65c3c5fe42d9894dd33288297097ed41420421a6b",
    "MlDGHC@?g?_DA@_A_": "da3089bad453e82df8c9d1a6a29f920daf860f907d87436d9abf3bbebed0f616",
    "MlDGHC@?GC_DA@_C_": "a53f4e5e9c4bd8d63751bf826fc9d07e8ad26cff9b5b9b3e0d6cb9cdb9521da8",
    "MlDGGC`AG?_P?P_A_": "7e0093454645aae7d7f3f53441345c8664c19be3505c081ab5d36b9c8866e82c",
    "MlDGGC`?GO_P?P_C_": "6f15d275f433b4de09811a85e3448c00dbab8aa0c6484cfdd178db951782ba09",
    "MlDGGC`?GO_H?`_C_": "cda757cbc7d858a7759219ac689e43ece2c61d5f92b3eda460c9b33eddf13cce",
    "MlDGGC`?g?`@?P_A_": "03e07c488577d3bddb26cf3cf3896867916cd0c8f3edb547f30b5d436c20e5b2",
    "MlDGGC`?GC`@?P_C_": "5086f4dee3320fa90e98c4b61f72ad35f2a180cdd53ffd4bbabef0646efa1fc6",
    "MlDGGC`?GA`@?`_C_": "83d07029a0c3cace216f59408418c21f229d56d11ad236052455f5585673f675",
    "MlDGGC`?GC_HA@_C_": "a71f909fe7b048ce4dd414f5910e232d7e1b9779e06aac03cc6fbf093db37e32",
    "MlDGGS@GG?_D?`_A_": "43720ac03cb47ea79cb53ac71bbb91948a05110617e3ceb412259436b0e89e03",
    "MlDGGC@GGC`@?H_O_": "e508cc5f70103028c43c04a6020abe4fc9f1adc522100cf77d39e8848eae3f24",
    "MlDGGS@?H?_P?D_G_": "37cb847199512f56398b69ae164f36e42da1ff93596f9ba93aee7d0d9877448b",
    "MlDGGC@AH?_D?P___": "54d7a21fc5434f22840673f4785fefb2c4c8212f62e1dd6066aeb5f6bc40744b",
    "MlDGGS@?g?c@?H_A_": "fe2e4de11cf4f0dda156349ae8b1c54ad7823df4faa1855f914eacbfbc8e2ba2",
    "MlDGGCH?g?c@?P_A_": "1511074f9566b9724eed7092b8ba236e7fe742cea69a1ff70ad86010a648b414",
    "MlDGGS@?g?_DG@_A_": "8a220255fbd431ae0770fbc0ce73d93eed6e1ca5ebbc0a5b161dcd56ebcabef6",
    "MlDGGS@?GC_DG@_C_": "c975693cf652c4b1f87a1705b108058aed9ce71426060c9d8c3f3a6fd0ec54fd",
    "MlDGGCH?GA_PG@_C_": "367f6e9425c33db96e859c263fde1617d0228fb3b3121def7d377755ec7c11eb",
    "MlDGGC@AGA_PG@_G_": "919a1e446f867a6daf53be422a15dd4be53e71af94546c551a043c879b926c71",
    "MlCiGC@AG?_D?P_A_": "c33e5bff1641750ca586e07be28b2767a7fd88757238805129023b074c7d4331",
    "MlCIHC@AG?_D@@_A_": "5fdbda3cf0e1aead5f450b94c1c4187f6ac37d281297ddc22c941ffe176ff848",
    "MlCIHC@?GO_`?D_G_": "dc247896da07a1144570c181a7a947a713ce70f5dc262fe6930ee9139031280e",
    "MlCIHC@?GG`@?D_G_": "598b2d347d0c83a00960c162b932cb090e5430c33d9240937ef7b70946afd5ca",
    "MlCIHC@@G?_DA@_A_": "b4f7011f67d564042662074aacea6438f457ecd0c50f5d1f20a66b97ced72741",
    "MlCIGC`AG?_`?P_A_": "3fd7606298d6d84e0f75fdc224f53b2b60d782d45548e34d82f0c1db0fffd08e",
    "MlCIGC`AG?_H@@_A_": "cf248c6835ba56acf9f27b60ee85a8404184f9c123e3381dce1fed72533ffd4d",
    "MlCIGC`?GO_`?P_C_": "5ef8e6784d8de6622566f0ca72be8f2089b35a520993d19d558cedebc6a3007a",
    "MlCIGC`?GO_`?D_O_": "860dfb78aa16daeab722b000d0471d8ad15e22c7663e5b8e850ff180c38ec2fa",
    "MlCIGC`?GO_H@@_C_": "16dcd34f804563b50f5a9a38b82ffc7a5b634864f3cae9b5c32d4a917e888a82",
    "MlCIGC`@G?`@?P_A_": "2df81b75092eb5b8514b5ce569910ab2b770f9f4d0176d2f39930a4d12d59798",
    "MlCIGC`?GA`@@@_C_": "2613bd68c0286cc96a52a6050f018121dfc0842371f8c907c84306e208e45a36",
    "MlCIGC`?GA`@?D`?_": "6bdd15806702a9bc602006c361f09e4b35625bdf9141f328f52e7e5e24ed01f9",
    "MlCIGC`@G?_HA@_A_": "2789939a6484163dd1c2ccfc34b791dec88564d6e818cb12a5afbd0776cc02f9",
    "MlCIGC`?GG_HA@_C_": "4099162005a090d4d702954065296bd70dad0f1f3693a08312e4608414c737ab",
    "MlCIGC`?GA_`A@_C_": "9b42cc52f0c19acd1addf01d09ce9cd471061fa981d490e56ee4439963a41947",
    "MlCIGC`?GA_`?Da?_": "c1a00d533a806929a6f9d77986fdbe714be700a94b0a6bed0ff82bf1b13bee9d",
    "MlCIGS@GG?_D@@_A_": "3572a3ecc3622c69ec95004b8472c92e514691cd3a30384d7273253b38627f96",
    "MlCIGC@GGO_`?H_O_": "f6af58c2d733e59e863e0a3009f2fe3df39e0f9570f001c0d05963d441bb20f6",
    "MlCIGC@GGO_D@@_O_": "1ee0541f7b687f6d43a08f1cfb6917e39603446c23d39192e69f92230e402de8",
    "MlCIGC@GGO_D?P`?_": "00ff992a44970fbd6b97549053f131ddd80ebfe19800eb260d87fc5a3e5500a3",
    "MlCIGCDGG?`@?P_A_": "9f4129ac235d85adcd9bd853bf6c406416818abf104be59abc8852862628b474",
    "MlCIGC@GGG`@?H_O_": "34bde5e0be4e7aafb92a2b256a01a6b5c493722ee3723d38cbabddacf6f04fca",
    "MlCIGS@?H?_`?D_G_": "92425836be2f76ac8429380be231956079ca3bd4d8eeae41afa75ab36af6faa3",
    "MlCIGCH?H?_`?P_C_": "80d3839af6bba310269f1a42b9cd5872464bab742dc8b80c7e46d8c550d1efdb",
    "MlCIGCH?H?_`?D_O_": "72906b846aaef871ed74cf02a7eebc74a8427d1b59f2c6bc9f7f403fdc62f35b",
    "MlCIGC@AH?_H@@_G_": "5bfc0800a7579f839cbab7383fb8d9fecaabddc951ae4b655fe69dfba05bf16b",
    "MlCIGC@@H?_D?Pa?_": "18de8b8fe80cccb30d0e656c015f1feae5cc30c9d835b952d4bf8774fd4e7ded",
    "MlCIGCH?GAc@@@_C_": "080efb31553cfcddf065027c2f3dab11735d8e7bb2abe2699ab64e889ea8d99f",
    "MlCIGC@AGAc@@@_G_": "cdb27f4f8923743ae5bafad0605a0db5c34fdd65649ea52b61698e5eeffea4e5",
    "MlCgIC@AG?_D?`_A_": "1c48950c43e17044df5d27adcace16f4ec85e8237c926e2f5138aa0b99dc8e96",
    "MlCgIC@?GC`@?D_G_": "6b8dcf92e9f8c500e032051e41d428710a6bdb8182f347d50414f5221f34bed5",
    "MlCgIC@?g?_DA@_A_": "90383262bd6971d39c7cbe97730e2c52b82ccbb9888d298a8a2404ee0be95ee6",
    "MlCHIC@?GG`@?D_G_": "d14fc90c06c16155463834df98c90acec31a7c43be840829917d8f7ced96bb8b",
    "MlCGIC@GGO_`?H___": "5b99cfded932c34277370cfe480b6cd86d7864629e8f712f68dd62549927ee89",
    "MlCGIC@GGO_P?H`?_": "fbcb2463adb5ece3485c987f56f06eb5be7cf2e1d5c9fab95233fffb1b867c78",
    "MlCGIC@GGC`@?H`?_": "2d61c0bea7a8075ea18300dd3fd851c3fa4df210efe08511d64df69001e12c9c",
    "MlCGIC@AH?_`?`_G_": "0b5f44a2a066486e99d0d24320011e6c0a41e0e8676d302b668e8951ebb91283",
    "MlCGIC@AH?_`?H___": "4f17e5a443b4eb6e9eba4e91a0f72127c4019ce2b013903e74596de0df66cae7",
    "MlCGIC@AH?_P?H`?_": "aabb0cea0afb738d58a49b49904960fd8d9d4e955ca5836e5f18a1e3208275d8",
    "MlCGIC@@H?_P?Ha?_": "619a993c73fa4d5398f6f4e84c01778f50189de77dc2aa916ca8eb9bdf572160",
    "MlCgGD@?GC`@?P_C_": "bcfa752795574732573ae77dd91162bbeb0c8b282eac9a59bde8f8e66a330f3e",
    "MlCHGD@?GG_HA@_C_": "9ecae8cc61baf3c7694ebd70d5de9879ba766aaaced7c1cc1d5e1e16affba078",
    "MlCHGD@?GA_`A@_C_": "7f862e75c7b1a46d27f1940fce28bf272ae73c8563b55294e48a8200e0ec8c3e",
    "MlCGGD@GGA_P@@a?_": "ca791a2d1d5396de1b9a88ac2b44cb5e9a0b09294b9547b64e960f4c80c8908a",
    "MlCHGC@OGO_H@@_G_": "40d692b6c3bf3476d4e766e091635fb6d66e2a1b55dc9fc338c33bec12ad9abd",
    "MlCGGC`OGC`@?P`?_": "2c0c1177685f99a7219633378a1e669658796755cdb5503e0e6a52aa847cc8d9",
    "MlCGGC`OGA_P@@a?_": "c54aad9da6fd78fc193a4f4585935d0fd378512d8f73de35a3eef7771cc0ae3b",
    "MlCGHCH?I?_P@@_C_": "0cdf17e94d424a34bb1a23c9526c90fde684eb1f887b455f04fc3afb4ce80816",
    "MhdGGC`?GCa@?P_C_": "dcbd0ebb47da5bf865d9a6c991fd9ac998ea6f22d4c31bc0ffaabcf9a821719f",
    "MhcIGC`?G__`?P_C_": "1748151bbf9d939e49fc0177c4ff6c69cc81bcd43f7255534021825e89701a68",
    "MhcIGC`?G__H@@_C_": "4c6b6982076cf06b2ff9e7eb8fee26a2c00a0a009619122fe7c87662c8e867f4",
    "MhcIGC`?GGa@?P_C_": "96514cd9bdae24e6866526e7d095ec3c6cc46acddb77769904f60d933e6fcd1f",
    "MhcIGC`?GG_HC@_C_": "e39f4455818315e9bb55b044c7d4060aea92393b2b261fef72bcbe9ad6dbe3bf",
    "MhcIGC@GGG_HC@_G_": "d38b44d30afb9bbabd7c618470066ece9e3110f68e1ad537389354d0159c5431",
    "MhcIGCP?GGc@?P_C_": "6c383b854982a97a9dad1f3dfec596a00de549044fb33090abc61a6c802c16df",
    "MhcGIC@CGCc@@@_G_": "915f95255856367a1705cbd073735d603c6b5d59416b02adcbab0eef3c03b2e6",
    "MhcGGc@OGCc@@@_G_": "81cab1b07ddf1febea30f294cdae6bf97f4097a6b05a026a4b3c90df57a73c94",
    "MhEGHC@AI?_PC@_G_": "93665ea0360ab3725406ed021622e9220d1b1b871ae8d0e59718b8317670eb33",
    "MlSGGE@G?A_`?H?c_": "cc909217e9e29870d71c6da2f00ffb91dfb487aa5d47288f60550144edd67454",
    "ElUg": "1cdd90546c096a3ec303007d3f17bccc63144fade2882a24e7b4ad2381b2f90c",
    "GlDHKS": "9c05c8f4de6d2dc685607d9f71e1ee691de62f00d90c4dca22f77f51375dba01",
    "GlCiKS": "f9a9ce3dfd4622cfb48336592d1c5fdaf115b92e2f2d66166245bc2cc2a27e4a",
}


def golden_graph(key):
    if key.startswith("GP("):
        return generalized_petersen(*map(int, key[3:-1].split(",")))
    return parse_graph6(key)


def test_placement_golden_covers_the_corpus():
    corpus = {line for path in CORPUS.glob("*.g6") for line in path.read_text().split()}
    assert len(corpus) == 140
    assert set(PLACEMENT_GOLDEN) == corpus | {
        "GP(5,2)", "GP(7,2)", "GP(8,3)", "GP(9,2)", "GP(10,2)", "GP(10,3)"}


@pytest.mark.parametrize("key", sorted(PLACEMENT_GOLDEN))
def test_placement_golden(key):
    g = golden_graph(key)
    tf = select_two_factor(g)
    h = hashlib.sha256()
    for u in range(g.n):
        for name in BUILTIN_NAMES + ALIAS_NAMES:
            try:
                placed = repr(builtin(name, tf, u))
            except TemplateError as exc:
                placed = str(exc)
            h.update(f"{u} {name} {placed}\n".encode())
        for name, t in sigma_library(tf, u):
            h.update(f"{u} {name} {t!r}\n".encode())
    assert h.hexdigest() == PLACEMENT_GOLDEN[key]
