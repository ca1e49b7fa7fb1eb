"""Tests for the template calculus: DSL, bounds, builtins, composition."""

from fractions import Fraction

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
from fracchrom.two_factor import two_factor_from_matching

from util_graphs import circular_ladder, complete, gp72, k33, petersen


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
    return two_factor_from_matching(petersen(), SPOKES)


def ladder_tf():
    return two_factor_from_matching(circular_ladder(5), SPOKES)


def k33_tf():
    g = k33()
    return two_factor_from_matching(g, [(0, 3), (1, 4), (2, 5)])


def gp72_tf():
    return two_factor_from_matching(gp72(), [(i, 7 + i) for i in range(7)])


def gadget_tf():
    # two 5-cycles tied by chords (1,3), (6,8) and three cross edges;
    # the matching makes 1-3 a chord of the first cycle
    from util_graphs import cycle, disjoint_union
    from fracchrom.graph_core import Graph

    base = disjoint_union(cycle(5), cycle(5))
    edges = list(base.edges) + [(1, 3), (6, 8), (0, 5), (2, 7), (4, 9)]
    g = Graph(10, edges)
    return g, two_factor_from_matching(g, [(1, 3), (6, 8), (0, 5), (2, 7), (4, 9)])


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
        "arc u->u'",             # symbolic vertex before focus
        "focus u",               # focus cannot reference itself
        "focus 99",              # out of range
        "focus 0\nfocus 1",      # duplicate focus
        "focus 0\narc 0->5->6",  # malformed arrow
        "focus 0\nblah 3",       # unknown directive
        "focus 0\nstar",         # missing argument
        "focus 0\narc 0->4",     # not a matching edge
        "focus 0\narc 0->5\nstar 0",   # mark on a tail
        "focus 0\narc 0->5\ntri 5",    # phase-3 mark on a head
        "focus 0\narc (0->5",    # unbalanced parenthesis
    ]
    for text in cases:
        with pytest.raises(TemplateError):
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
    tf = two_factor_from_matching(g, [(0, 2), (1, 3)])
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
