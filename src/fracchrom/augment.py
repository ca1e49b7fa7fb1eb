"""Deficiency accounting and the probability-repair phase.

The four-phase construction gives every vertex inclusion probability at
least 88/256 except at a handful of structural trouble spots: vertices
whose matching edge sits inside (or just next to) short cycles in a few
precise patterns.  This module classifies those vertices, assigns each a
rational correction term epsilon and a *sponsor* neighbour, and realizes
the repair: a greedily-planned fifth phase that occasionally swaps a
troubled vertex for its sponsor in the sampled independent set, raising
the troubled vertex's inclusion probability by exactly |epsilon|/256
while costing the sponsor the same amount and leaving everyone else
untouched.

``classify_chord`` matches the eleven same-cycle patterns (five plus
their reflections, and the catch-all type I); ``epsilon_nochord``
handles matching edges that cross between cycles; ``epsilon_full`` glues
both together with the mate-negation rule for the remaining vertices.
``build_phase5_plan`` runs the greedy water-filling that decides, for
every (deficient vertex, support set) pair, the probability of the swap.
When it is built, the plan turns each support set's positive
probabilities into coins and walks the set through the swap cascade;
``run_phase5`` flips a set's coins on one sampled set and
``exact_phase5_distribution`` sums the whole exact law through the
cascades.  The repair works on vertex masks, from support to output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph_core import Graph, GraphError, check_vertex, mask_vertices, vertex_mask
from .sampler import (
    Distribution,
    EnumerationResult,
    SplitMix64,
    enumerate_distribution,
    is_independent,
)
from .two_factor import TwoFactor, TwoFactorError

__all__ = [
    "DeficiencyError", "PreconditionFailure", "BiasInfeasible",
    "DeficiencyRecord", "Phase5Plan",
    "DEFICIENCY_TYPES", "EPSILON_BY_TYPE",
    "epsilon_nochord", "classify_chord", "epsilon_full",
    "deficiency_report", "sponsor", "favourable", "receptivity",
    "build_phase5_plan", "run_phase5", "exact_phase5_distribution",
]


class DeficiencyError(ValueError):
    """Raised when a classification routine is applied out of scope."""


class PreconditionFailure(RuntimeError):
    """A deficient vertex is not receptive enough for the repair plan.

    Signals either a non-qualifying two-factor or a bug; the offending
    vertex is named in the message.
    """


class BiasInfeasible(RuntimeError):
    """The planned swap probability cannot be realized by any coin."""


# Correction terms of the base patterns.  Reflected patterns ("starred")
# carry the same value; crossing matching edges are handled separately.
EPSILON_BY_TYPE = {
    "0": Fraction(-1),
    "I": Fraction(-1, 2),
    "Ia": Fraction(-2),
    "Ib": Fraction(-3, 2),
    "II": Fraction(-1, 8),
    "IIa": Fraction(-1, 2),
    "III": Fraction(-1, 8),
}
EPSILON_BY_TYPE.update({k + "*": v for k, v in EPSILON_BY_TYPE.items() if k != "0" and k != "I"})

DEFICIENCY_TYPES = ("none", "0", "I", "Ia", "Ib", "II", "IIa", "III",
                    "Ia*", "Ib*", "II*", "IIa*", "III*")


@dataclass(frozen=True)
class DeficiencyRecord:
    """Classification outcome for one vertex.

    ``dtype`` is "none" for vertices that need no repair; ``epsilon`` is
    the vertex's correction term (which is nonzero for some
    non-deficient vertices too, via the mate-negation rule); ``sponsor``
    is set exactly when the vertex is deficient.
    """

    vertex: int
    dtype: str
    epsilon: Fraction
    sponsor: Optional[int] = None

    @property
    def deficient(self) -> bool:
        return self.dtype != "none"

    def to_json_dict(self) -> dict:
        out = {
            "vertex": self.vertex,
            "type": self.dtype,
            "epsilon": str(self.epsilon),
        }
        if self.sponsor is not None:
            out["sponsor"] = self.sponsor
        return out


# -- small 4-cycle geometry helpers ------------------------------------------


def _edge_in_4cycle(g: Graph, a: int, b: int) -> bool:
    """Is the edge ab contained in some 4-cycle of g?"""
    for x in g.adj[a]:
        if x == b:
            continue
        for y in g.adj[b]:
            if y == a or y == x:
                continue
            if g.has_edge(x, y):
                return True
    return False


def _path_in_4cycle(g: Graph, a: int, b: int, c: int) -> bool:
    """Is the two-edge path a-b-c contained in some 4-cycle of g?"""
    for x in g.adj[a]:
        if x != b and x != c and g.has_edge(x, c):
            return True
    return False


def _four_cycles_through(g: Graph, w: int):
    """Yield the vertex sets of all 4-cycles containing w."""
    nbrs = g.adj[w]
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            x, y = nbrs[i], nbrs[j]
            if g.has_edge(x, y):
                continue  # that would be a triangle's worth of shortcut
            for t in g.adj[x]:
                if t != w and t != y and g.has_edge(t, y):
                    yield frozenset((w, x, t, y))


# -- the crossing-edge rule ----------------------------------------------------


def epsilon_nochord(g: Graph, tf: TwoFactor, u: int) -> Fraction:
    """Correction term for a vertex whose matching edge crosses cycles.

    +1 when the matching edge uv itself lies in a 4-cycle, 0 when no
    cycle-neighbour of u lies in a 4-cycle touching v's cycle, and -1
    otherwise (the genuinely deficient case).
    """
    check_vertex(g, u)
    v = tf.mate[u]
    if tf.cycle_of[u] == tf.cycle_of[v]:
        raise DeficiencyError(
            f"matching edge ({u}, {v}) stays inside one cycle; use classify_chord"
        )
    if _edge_in_4cycle(g, u, v):
        return Fraction(1)
    target = set(tf.cycles[tf.cycle_of[v]])
    for w in (tf.step(u, 1), tf.step(u, -1)):
        for cyc4 in _four_cycles_through(g, w):
            if cyc4 & target:
                return Fraction(-1)
    return Fraction(0)


# -- the same-cycle pattern table ---------------------------------------------


def _pattern_matches(tf: TwoFactor, u: int, v: int, sign: int, name: str) -> bool:
    """Evaluate one base pattern at u in the given cycle direction.

    ``sign`` +1 reads the cycle in its stored orientation, -1 reads it
    reversed; reflected ("starred") patterns are exactly the base
    patterns evaluated with sign -1.  Distances count cycle edges.
    """

    def st(x: int, k: int) -> int:
        return tf.step(x, sign * k)

    def in_m(a: int, b: int) -> bool:
        return tf.mate[a] == b

    d_fwd = tf.forward_dist(u, v) if sign > 0 else tf.forward_dist(v, u)
    d_bwd = tf.forward_dist(v, u) if sign > 0 else tf.forward_dist(u, v)

    if name == "Ia":
        return (d_fwd == 4
                and in_m(st(u, 2), st(v, 1))
                and in_m(st(u, -2), st(v, -1))
                and not in_m(st(u, 1), st(v, 2)))
    if name == "Ib":
        return (d_fwd == 4
                and in_m(st(u, 2), st(v, 1))
                and in_m(st(u, -2), st(v, -1))
                and in_m(st(u, 1), st(v, 2)))
    if name == "II":
        return (d_fwd == 4 and d_bwd >= 7
                and in_m(st(u, -1), st(v, 2))
                and in_m(st(u, -2), st(v, 1))
                and in_m(st(u, -3), st(u, 1))
                and not in_m(st(v, 3), st(v, -1)))
    if name == "IIa":
        return (d_fwd == 4 and d_bwd == 6
                and in_m(st(u, -2), st(v, 1))
                and in_m(st(u, -3), st(u, 1))
                and in_m(st(u, -1), st(u, -4)))
    if name == "III":
        return (d_fwd == 4 and d_bwd == 8
                and in_m(st(u, -2), st(v, 1))
                and in_m(st(u, -3), st(u, 1))
                and in_m(st(v, 3), st(v, -1))
                and in_m(st(u, -1), st(u, -4)))
    raise AssertionError(name)


def classify_chord(g: Graph, tf: TwoFactor, u: int) -> DeficiencyRecord:
    """Classify a vertex whose matching edge is a chord of its own cycle.

    Only defined when the chord lies in no 4-cycle (``DeficiencyError``
    otherwise).  Returns dtype "none" when no pattern matches; raises
    ``GraphError`` if two genuinely different patterns match, which the
    exclusivity of the pattern table rules out on valid inputs.
    """
    check_vertex(g, u)
    v = tf.mate[u]
    if tf.cycle_of[u] != tf.cycle_of[v]:
        raise DeficiencyError(
            f"matching edge ({u}, {v}) crosses cycles; use epsilon_nochord"
        )
    if _edge_in_4cycle(g, u, v):
        raise DeficiencyError(
            f"chord ({u}, {v}) lies in a 4-cycle; classification does not apply"
        )

    matches = []
    for name in ("Ia", "Ib", "II", "IIa", "III"):
        base = _pattern_matches(tf, u, v, 1, name)
        refl = _pattern_matches(tf, u, v, -1, name)
        if base:
            matches.append(name)
        elif refl:
            # a pattern and its reflection can coincide (e.g. on an
            # 8-cycle with the chord splitting it 4+4); prefer the base
            # label, so only a pure reflection match gets the star
            matches.append(name + "*")

    # the broad pattern explicitly cedes to Ia/Ib and their reflections,
    # but to nothing else; a simultaneous match with II/IIa/III would be
    # a genuine exclusivity violation and is reported as one below
    if not any(m.startswith("Ia") or m.startswith("Ib") for m in matches):
        if (_path_in_4cycle(g, tf.step(v, -1), v, tf.step(v, 1))
                and not _path_in_4cycle(g, tf.step(u, -1), u, tf.step(u, 1))):
            matches.append("I")

    if len(matches) > 1:
        raise GraphError(
            f"patterns {matches} all match at vertex {u}; "
            "the table is supposed to be exclusive"
        )
    if not matches:
        return DeficiencyRecord(u, "none", Fraction(0))
    dtype = matches[0]
    return DeficiencyRecord(u, dtype, EPSILON_BY_TYPE[dtype], sponsor=v)


# -- whole-graph analysis -------------------------------------------------------


def _analyze(g: Graph, tf: TwoFactor) -> tuple[DeficiencyRecord, ...]:
    """The deficiency records of every vertex, computed once per two-factor
    and kept in ``tf.derived`` (the records are frozen)."""
    if tf.graph != g:
        raise TwoFactorError("two-factor belongs to a different graph")
    recs = tf.derived.get("deficiency")
    if recs is None:
        recs = tf.derived["deficiency"] = _classify_all(g, tf)
    return recs


def _classify_all(g: Graph, tf: TwoFactor) -> tuple[DeficiencyRecord, ...]:
    recs: list[DeficiencyRecord] = []
    for u in range(g.n):
        v = tf.mate[u]
        if tf.cycle_of[u] != tf.cycle_of[v]:
            e = epsilon_nochord(g, tf, u)
            if e == -1:
                recs.append(DeficiencyRecord(u, "0", e))  # sponsor filled below
            else:
                recs.append(DeficiencyRecord(u, "none", e))
        elif _edge_in_4cycle(g, u, v):
            recs.append(DeficiencyRecord(u, "none", Fraction(0)))
        else:
            recs.append(classify_chord(g, tf, u))

    # a deficient vertex of a same-cycle pattern never has a deficient mate
    for u in range(g.n):
        if recs[u].dtype not in ("none", "0") and recs[tf.mate[u]].deficient:
            raise GraphError(
                f"both {u} (type {recs[u].dtype}) and its mate {tf.mate[u]} "
                f"(type {recs[tf.mate[u]].dtype}) are deficient"
            )

    # mate negation: a clean vertex inherits minus its same-cycle mate's term
    for u in range(g.n):
        v = tf.mate[u]
        if (recs[u].dtype == "none" and tf.cycle_of[u] == tf.cycle_of[v]
                and recs[v].deficient):
            recs[u] = DeficiencyRecord(u, "none", -recs[v].epsilon)

    # sponsors: mate for the same-cycle patterns (already set), and for the
    # crossing-edge pattern the cycle-neighbour whose own matching edge sits
    # in a 4-cycle (term +1), preferring the backward neighbour if both do
    for u in range(g.n):
        if recs[u].dtype != "0":
            continue
        back, fwd = tf.step(u, -1), tf.step(u, 1)
        chosen = None
        for w in (back, fwd):
            if recs[w].epsilon == 1:
                chosen = w if chosen is None else back
        if chosen is None:
            raise GraphError(
                f"vertex {u} is deficient with a crossing matching edge but "
                "has no cycle-neighbour able to sponsor it"
            )
        recs[u] = DeficiencyRecord(u, "0", recs[u].epsilon, sponsor=chosen)
    return tuple(recs)


def epsilon_full(g: Graph, tf: TwoFactor) -> dict[int, Fraction]:
    """The complete correction-term map, defined for every vertex."""
    return {r.vertex: r.epsilon for r in _analyze(g, tf)}


def deficiency_report(g: Graph, tf: TwoFactor) -> tuple[DeficiencyRecord, ...]:
    """Classification records for all vertices, sponsors included."""
    return _analyze(g, tf)


def sponsor(g: Graph, tf: TwoFactor, u: int) -> int:
    """The neighbour that may be traded away to repair u."""
    check_vertex(g, u)
    rec = _analyze(g, tf)[u]
    if not rec.deficient:
        raise DeficiencyError(f"vertex {u} is not deficient (no sponsor)")
    return rec.sponsor


def _favourable(g: Graph, u: int, s: int, J: int) -> bool:
    """u is not in the mask J and J meets N(u) in exactly the sponsor s."""
    return not (J >> u) & 1 and g.adj_mask[u] & J == 1 << s


def favourable(g: Graph, tf: TwoFactor, u: int, J: frozenset) -> bool:
    """Does J meet u's closed neighbourhood in exactly its sponsor?"""
    return _favourable(g, u, sponsor(g, tf, u), vertex_mask(J))


def receptivity(g: Graph, tf: TwoFactor, u: int, dist: Distribution) -> Fraction:
    """Probability that a sampled set is favourable for u."""
    s = sponsor(g, tf, u)
    return sum((p for J, p in dist.pmf.items()
                if _favourable(g, u, s, vertex_mask(J))), Fraction(0))


# -- the repair plan ------------------------------------------------------------


class Phase5Plan:
    """A complete schedule for the probability-repair phase.

    Holds the processing order of the deficient vertices, the support of
    the phase-4 law as ascending vertex masks (``index`` maps a mask to
    its position), and the planned swap probability for every (vertex,
    support set) pair, together with the bookkeeping (sponsors,
    correction terms, earlier-neighbour lists) that both the single-run
    executor and the exact enumerator need.  ``walks[j]`` is the exact
    swap cascade on support set ``j``: its coins and the law of the
    repaired mask.  Building it raises ``BiasInfeasible`` when a planned
    probability sits on a set that is not favourable for its vertex or no
    coin can realize it, and ``RuntimeError`` when a reachable repaired
    set is dependent, so every plan runs and yields independent sets.
    """

    __slots__ = ("tf", "deficient_order", "set_order", "set_probs",
                 "p", "sponsors", "epsilon", "nbrx", "eta", "rho",
                 "index", "walks")

    def __init__(self, tf, deficient_order, set_order, set_probs,
                 p, sponsors, epsilon, nbrx, eta, rho):
        self.tf = tf
        self.deficient_order = tuple(deficient_order)
        self.set_order = tuple(set_order)
        self.set_probs = tuple(set_probs)
        self.p = dict(p)
        self.sponsors = dict(sponsors)
        self.epsilon = dict(epsilon)
        self.nbrx = {u: tuple(ws) for u, ws in nbrx.items()}
        self.eta = dict(eta)
        self.rho = dict(rho)
        self.index = {J: j for j, J in enumerate(self.set_order)}
        self.walks = tuple(self._walk(j) for j in range(len(self.set_order)))

    def nbrxc(self, u: int) -> tuple:
        return self.nbrx[u] + (u,)

    def _walk(self, j: int):
        """Exact per-set simulation of the swap cascade.

        Returns (coins, law): one (bit, blockers, keep, bias) coin per
        positive planned probability on this set, in processing order,
        and the law of the repaired mask, each one checked independent.
        A state is (swapped-in mask, repaired mask).
        """
        g, J = self.tf.graph, self.set_order[j]
        states = {(0, J): Fraction(1)}
        coins = []
        for u in self.deficient_order:
            planned = self.p.get((u, j))
            if not planned:
                continue
            if not _favourable(g, u, self.sponsors[u], J):
                raise BiasInfeasible(
                    f"vertex {u} on set index {j}: swap probability "
                    f"{planned} is planned on a set that is not favourable"
                )
            blockers = vertex_mask(self.nbrx[u])
            clear = sum((pr for (added, _), pr in states.items()
                         if not added & blockers), Fraction(0))
            if clear < planned:
                raise BiasInfeasible(
                    f"vertex {u} on set index {j}: planned swap probability "
                    f"{planned} exceeds the clear probability {clear}"
                )
            bias = planned / clear
            bit, keep = 1 << u, ~(1 << self.sponsors[u])
            nxt: dict = {}
            for st, pr in states.items():
                added, out = st
                if added & blockers:
                    nxt[st] = nxt.get(st, Fraction(0)) + pr
                    continue
                took = (added | bit, out & keep | bit)
                nxt[took] = nxt.get(took, Fraction(0)) + pr * bias
                if bias != 1:
                    nxt[st] = nxt.get(st, Fraction(0)) + pr * (1 - bias)
            states = nxt
            coins.append((bit, blockers, keep, bias))
        law: dict = {}
        for (_, out), pr in states.items():
            if out not in law and not is_independent(g, mask_vertices(out)):
                raise RuntimeError("the repair phase produced the dependent "
                                   "set %r" % mask_vertices(out))
            law[out] = law.get(out, Fraction(0)) + pr
        return tuple(coins), law


def build_phase5_plan(g: Graph, tf: TwoFactor, dist: Distribution) -> Phase5Plan:
    """Greedy water-filling of the swap probabilities.

    Deficient vertices are processed by increasing |epsilon| (ties by
    vertex id) and support sets in ascending bitmask order.  Each vertex
    fills its row up to |epsilon|/256 of mass, never pushing any set's
    column (taken over the vertex and its earlier deficient neighbours)
    past 1.  Receptivity at least eta/256 guarantees the row always
    fills; if it does not, the two-factor was not qualifying and
    ``PreconditionFailure`` says so.
    """
    recs = _analyze(g, tf)
    deficient = [r for r in recs if r.deficient]
    order = [r.vertex for r in
             sorted(deficient, key=lambda r: (abs(r.epsilon), r.vertex))]
    epsilon = {r.vertex: r.epsilon for r in deficient}
    sponsors = {r.vertex: r.sponsor for r in deficient}

    by_mask = {vertex_mask(J): pJ for J, pJ in dist.pmf.items()}
    set_order = sorted(by_mask)
    set_probs = [by_mask[J] for J in set_order]

    nbrx: dict = {}
    eta: dict = {}
    for i, u in enumerate(order):
        earlier = set(order[:i])
        nbrx[u] = [w for w in g.adj[u] if w in earlier]
        eta[u] = sum((abs(epsilon[w]) for w in nbrx[u]), abs(epsilon[u]))

    fav = {u: [_favourable(g, u, sponsors[u], J) for J in set_order]
           for u in order}
    rho: dict = {}
    for u in order:
        total = sum((pj for f, pj in zip(fav[u], set_probs) if f), Fraction(0))
        rho[u] = total
        if total < Fraction(eta[u], 256):
            raise PreconditionFailure(
                f"vertex {u}: receptivity {total} is below eta/256 = "
                f"{Fraction(eta[u], 256)}"
            )

    p: dict = {}
    for u in order:
        target = Fraction(abs(epsilon[u]), 256)
        row = Fraction(0)
        for j, pj in enumerate(set_probs):
            if row == target:
                break
            if not fav[u][j]:
                continue
            room = 1 - sum((p.get((w, j), Fraction(0)) for w in nbrx[u]),
                           Fraction(0))
            take = min((target - row) / pj, room)
            if take <= 0:
                continue
            p[(u, j)] = take
            row += take * pj
        if row != target:
            raise PreconditionFailure(
                f"vertex {u}: swap mass {row} placed of the required {target}"
            )

    return Phase5Plan(tf, order, set_order, set_probs, p,
                      sponsors, epsilon, nbrx, eta, rho)


# -- executing a plan -----------------------------------------------------------


def _rand_below(rng: SplitMix64, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection, any bound >= 1: each
    try draws the bits of ``bound - 1``, none when ``bound`` is 1."""
    k = (bound - 1).bit_length()
    while True:
        x = 0
        left = k
        while left > 0:
            take = min(64, left)
            x = (x << take) | rng.getrandbits(take)
            left -= take
        if x < bound:
            return x


def _bernoulli(rng: SplitMix64, q: Fraction) -> bool:
    if q <= 0:
        return False
    if q >= 1:
        return True
    return _rand_below(rng, q.denominator) < q.numerator


def run_phase5(J: int, plan: Phase5Plan, rng: SplitMix64) -> int:
    """Apply the repair phase to one sampled set, given as a vertex mask.

    Masks outside the plan's support pass through unchanged.  Every mask
    the repair can return was checked independent when the plan was
    built, so none is checked here.
    """
    j = plan.index.get(J)
    if j is None:
        return J
    added = 0
    for bit, blockers, keep, bias in plan.walks[j][0]:
        if not added & blockers and _bernoulli(rng, bias):
            added |= bit
            J = J & keep | bit
    return J


def exact_phase5_distribution(
    g: Graph,
    tf: TwoFactor,
    *,
    max_orientations: int = None,
    max_branches: int = None,
) -> tuple[Phase5Plan, EnumerationResult]:
    """Exact law of the repaired set, with its plan.

    Enumerates the four-phase law, builds the plan, then sums every
    support set's probability times the law of its swap cascade.
    Inherits the two explosion guards of the base enumeration.
    """
    base = enumerate_distribution(
        g, tf, max_orientations=max_orientations, max_branches=max_branches)
    plan = build_phase5_plan(g, tf, base.distribution)
    pmf: dict = {}
    for pJ, (_, law) in zip(plan.set_probs, plan.walks):
        for out, pr in law.items():
            pmf[out] = pmf.get(out, Fraction(0)) + pJ * pr
    dist = Distribution({frozenset(mask_vertices(out)): p
                         for out, p in pmf.items() if p > 0})
    marginals = {v: Fraction(0) for v in range(g.n)}
    for J, p in dist.pmf.items():
        for v in J:
            marginals[v] += p
    return plan, EnumerationResult(dist, marginals)
