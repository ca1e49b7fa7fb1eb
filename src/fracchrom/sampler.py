"""The four-phase random independent-set construction and its two engines.

Given a cubic graph with a fixed two-factor, the construction orients the
complementary perfect matching uniformly at random, selects alternating
sets inside the runs of matching-heads (phase 1), promotes isolated heads
(phase 2), repeats the run selection on the still-eligible "feasible"
vertices (phase 3) and promotes isolated feasible vertices (phase 4).

Phase 4 reads "feasible" as the set worked out before phase 3: it adds
the vertices of that set with no neighbour in it.  Working the set out
again after phase 3 would give the same output.  After phase 2 every
head is covered or next to a covered vertex, so no head is feasible and
a feasible vertex has feasible neighbours only on its own cycle.  A
phase-3 run of two or more vertices leaves each of its unselected
vertices next to a selected one.  So the vertices isolated in the set
worked out again are exactly the isolated feasible vertices (the
one-vertex runs) that phase 3 left unselected.

A ``Situation`` holds one run's random choices (the heads of the
orientation and the phase-1 and phase-3 selections), the vertices still
feasible for phase 3, the output set and the integer ``d`` of its
probability ``1/d``, every set as a vertex mask; the exact law keys its
output sets by ``frozenset``.  Both engines take their runs from one
place: the run programs of ``_mcphases_py.TrialTable``, which works out
the runs of a vertex mask as a tuple of ``(k, outcomes)`` pairs.
``enumerate_distribution`` walks every orientation and expands the
product of the outcomes of every run, producing the exact rational law
of the output set (keyed by the frozensets) together with per-vertex
inclusion probabilities.  What follows phase 2 depends on the mask
covered after it alone, so the walk only counts the phase-1 selections
per covered mask, and each covered mask has its phase 3 expanded once,
from a memo keyed by the feasible mask.  The law and that memo are kept
on the two-factor (in ``tf.derived``, so they live exactly as long as
``tf``), and nothing per situation is kept.  An event query
(``event_probability``, ``forces``, ``admissible``, ``exact_q``) walks
the orientations and phase-1 selections again, skipping an orientation
that misses the template's heads before expanding its phase-1 program,
and reads the phase-3 branches of each selection it keeps from the
memo; ``enumerate_situations`` builds a new ``Situation`` for each
situation of the same walk, unfiltered.  The law is
computed in integers: ``d = 2^m * d1 * d3``, d1 and d3 the products of
``len(outcomes)`` over the runs of the phase-1 and phase-3 programs; the
masses are summed as integers over one common denominator (the lcm of
the distinct ``d``, kept with the law), and each ``Fraction`` is built
once, per support set, per vertex and per event query.  Its oracle, a
separate derivation of the runs, lives with the tests.
Sampling runs the table's trial, which replays the same programs with
the bits of a ``SplitMix64`` stream, from one table per two-factor kept
next to the law.  Each memo entry of the table also holds its program
compiled: the program's width ``W`` in bits and, for ``W`` up to
``_mcphases_py.TABLE_BITS``, the selection each value of ``W`` bits
makes.  When the stream's buffer holds ``W`` bits whose cell rejects no
index, the trial takes them and its selection in one lookup; otherwise
it replays the runs one at a time, so both ways draw the same bits.
``run_phases_1_4`` draws a single ``Situation``, and
``monte_carlo`` estimates the marginals in one reproducible loop whose
trials, each optionally followed by the phase-5 repair, all draw from
one stream seeded with the call's seed; it tallies the output masks and
checks each distinct one once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import _mcphases_py
from .graph_core import Graph, GraphError, GuardExceeded, check_vertex, mask_vertices, vertex_mask
from .templates import Template, validate_in
from .two_factor import TwoFactor, TwoFactorError

__all__ = [
    "ExplosionGuard", "SplitMix64",
    "Situation",
    "Distribution", "EnumerationResult", "MonteCarloReport",
    "is_independent", "run_phases_1_4",
    "enumerate_distribution", "enumerate_situations", "event_probability",
    "forces", "admissible", "exact_q", "monte_carlo", "kernel_backend",
    "DEFAULT_MAX_ORIENTATIONS", "DEFAULT_MAX_BRANCHES",
]

DEFAULT_MAX_ORIENTATIONS = 1 << 16
DEFAULT_MAX_BRANCHES = 1 << 20


class ExplosionGuard(GuardExceeded):
    """Raised when an exact enumeration would exceed its configured size."""


# ---------------------------------------------------------------------------
# deterministic bit source

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_LOW = tuple((1 << k) - 1 for k in range(65))  # the masks of k low bits


class SplitMix64:
    """Small deterministic 64-bit generator: SplitMix64 of Steele, Lea
    and Flood (OOPSLA 2014), its state stepping by a fixed gamma.

    ``getrandbits(k)`` hands out the bits of one 64-bit output ``k`` at a
    time, low bits first, and draws a fresh output only when fewer than
    ``k`` bits are left, discarding those.  So when at least ``k`` bits
    are left, or none, one ``getrandbits(k)`` draw gives the bits of
    ``k`` one-bit draws, the first in its lowest bit; and the first
    ``getrandbits(64)`` of a stream is its whole first output.
    """

    __slots__ = ("state", "buffer", "left")

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self.buffer = 0  # the unused bits of the last output
        self.left = 0    # how many there are

    def getrandbits(self, k: int) -> int:
        # the Monte Carlo loop draws every choice through here
        left = self.left - k
        if left >= 0 and k > 0:
            z = self.buffer
            self.buffer = z >> k
            self.left = left
            return z & _LOW[k]
        if not 1 <= k <= 64:
            raise ValueError("k must be in 1..64")
        self.state = (self.state + _GAMMA) & _MASK64
        z = _mix(self.state)
        self.buffer = z >> k
        self.left = 64 - k
        return z & _LOW[k]

    def lookup(self, cells, width: int) -> int:
        """``cells[v]``, for ``v`` the next ``width`` buffered bits, taking
        those bits unless the cell is negative; -1, taking nothing, when
        fewer than ``width`` bits are buffered.  The bits taken are those
        that ``getrandbits`` draws of widths summing to ``width`` would
        give, the first draw's in the lowest bits of ``v``."""
        left = self.left - width
        if left < 0:
            return -1
        z = self.buffer
        cell = cells[z & _LOW[width]]
        if cell >= 0:
            self.buffer = z >> width
            self.left = left
        return cell


def _mix(z: int) -> int:
    """The SplitMix64 output of the state ``z``."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# value types


class Situation:
    """One situation: the random choices of one run and its output set,
    as vertex masks.  ``heads`` holds the head of every matching edge (the
    orientation), ``s1`` and ``s3`` the phase-1 and phase-3 selections,
    ``feasible`` the vertices still eligible for phase 3 and ``out`` the
    output set; the situation has probability ``1/d``."""

    __slots__ = ("heads", "s1", "feasible", "s3", "out", "d")

    def __init__(self, heads, s1, feasible, s3, out, d):
        self.heads = heads
        self.s1 = s1
        self.feasible = feasible
        self.s3 = s3
        self.out = out
        self.d = d

    @property
    def prob(self) -> Fraction:
        return Fraction(1, self.d)

    def _fields(self):
        return (self.heads, self.s1, self.feasible, self.s3, self.out, self.d)

    def __eq__(self, other):
        if not isinstance(other, Situation):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class Distribution:
    """Exact probability law over output independent sets (frozensets)."""

    __slots__ = ("pmf",)

    def __init__(self, pmf):
        self.pmf = dict(pmf)
        total = Fraction(0)
        for iset, prob in self.pmf.items():
            if prob <= 0:
                raise GraphError("non-positive probability for %r" % (iset,))
            total += prob
        if total != 1:
            raise GraphError("distribution sums to %s, expected 1" % total)

    def __len__(self):
        return len(self.pmf)

    def __getitem__(self, iset):
        return self.pmf[iset]

    def items(self):
        return self.pmf.items()

    def marginal(self, v: int) -> Fraction:
        return sum((p for s, p in self.pmf.items() if v in s), Fraction(0))

    def to_json_dict(self):
        rows = sorted(
            (sorted(s), str(p)) for s, p in self.pmf.items())
        return {"outcomes": [{"set": s, "prob": p} for s, p in rows]}


class EnumerationResult:
    """Exact law plus per-vertex inclusion probabilities."""

    __slots__ = ("distribution", "marginals")

    def __init__(self, distribution, marginals):
        self.distribution = distribution
        self.marginals = dict(marginals)

    def to_json_dict(self):
        d = self.distribution.to_json_dict()
        d["marginals"] = {str(v): str(p)
                          for v, p in sorted(self.marginals.items())}
        return d


def is_independent(g: Graph, members) -> bool:
    members = set(members)
    for v in members:
        for w in g.adj[v]:
            if w in members:
                return False
    return True


# ---------------------------------------------------------------------------
# the four phases


def run_phases_1_4(g: Graph, tf: TwoFactor, rng) -> Situation:
    """Run the construction once, driving all choices from ``rng``.

    ``rng`` is a ``SplitMix64`` stream: the trial reads its buffered bits
    directly, and leaves it where the same choices drawn one
    ``getrandbits`` call at a time would.  Returns the ``Situation``
    drawn, its output mask included.  The choices are those of the
    mask-level trial that every sampler runs, and ``d`` is ``2^m`` times
    the product of the ``len(outcomes)`` over the runs of the two run
    programs the trial drew from, each run picking one of its
    ``outcomes`` uniformly.
    """
    if tf.graph != g:
        raise TwoFactorError("two-factor belongs to a different graph")
    table = _trial_table(g, tf)
    heads, s1, feasible, s3, out = table.trial(rng)
    adj_mask = g.adj_mask
    if any(adj_mask[v] & out for v in mask_vertices(out)):
        raise RuntimeError("phases 1-4 produced the dependent set %r"
                           % mask_vertices(out))
    program = table._program(heads) + table._program(feasible)
    d = math.prod(len(outcomes) for _, outcomes in program)
    return Situation(heads, s1, feasible, s3, out, d << len(tf.m_edges))


# ---------------------------------------------------------------------------
# exact enumeration


class _Law:
    """The law of one two-factor, with ``denom``: the lcm of the
    situations' ``d``, over which every mass is an integer.
    It keeps its trial table and phase-3 memo (the feasible mask to
    ``(d3, [(s3, s3 | phase-4 addition)])``), over which ``situations``
    walks the situations again for each query."""

    __slots__ = ("table", "phase3", "result", "orientations", "branches",
                 "denom")

    def __init__(self, table, phase3, result, orientations, branches, denom):
        self.table = table
        self.phase3 = phase3
        self.result = result
        self.orientations = orientations
        self.branches = branches
        self.denom = denom

    def situations(self, heads=0, d1=0, d1bar=0, d3=0, d3bar=0):
        """The situations, in the order of the walk, as tuples
        ``(heads, s1, feasible, s3, out, d)``: those whose heads include
        the mask ``heads``, whose phase-1 selection includes ``d1`` and
        misses ``d1bar`` and whose phase-3 selection includes ``d3`` and
        misses ``d3bar``."""
        table, phase3 = self.table, self.phase3
        for hs, lone, phase1, d01 in _phase1(table, heads):
            for s1 in phase1:
                if s1 & d1 != d1 or s1 & d1bar:
                    continue
                covered1 = s1 | lone
                feasible, d, branches = _after_phase2(table, phase3, covered1)
                d *= d01
                for s3, add in branches:
                    if s3 & d3 == d3 and not s3 & d3bar:
                        yield hs, s1, feasible, s3, covered1 | add, d


def _check_guards(orientations, branches, max_orientations, max_branches):
    """Refuse more orientations or branches than the limits allow (a limit
    of None is its default)."""
    if max_orientations is None:
        max_orientations = DEFAULT_MAX_ORIENTATIONS
    if max_branches is None:
        max_branches = DEFAULT_MAX_BRANCHES
    if orientations > max_orientations:
        raise ExplosionGuard(
            "2^%d matching orientations exceed the limit of %d"
            % (orientations.bit_length() - 1, max_orientations))
    if branches > max_branches:
        raise ExplosionGuard(
            "situation count passed the limit of %d branches" % max_branches)


def _expand(program):
    """Every selection a run program can make, one per combination of its
    runs' outcomes (the first run varies slowest).  They are equally
    likely, so each has probability ``1/len`` of the list."""
    selections = [0]
    for _, outcomes in program:
        selections = [acc | pick for acc in selections for pick in outcomes]
    return selections


def _phase1(table, required=0):
    """Phases 1 and 2 under every orientation whose heads include the
    mask ``required``, in the order of its bits: yields ``(heads,
    isolated heads, phase-1 selections, d01)``, the selections being
    equally likely and ``d01 = 2^m * d1`` with ``d1`` their number."""
    m = table.m
    for bits in range(1 << m):
        heads = table.heads(bits)
        if heads & required != required:
            continue
        phase1 = _expand(table._program(heads))
        yield (heads, _mcphases_py._isolated(table.adj_mask, heads), phase1,
               len(phase1) << m)


def _after_phase2(table, phase3, covered1):
    """What follows the mask ``covered1`` covered after phase 2: the
    feasible mask and its memo entry ``(d3, branches)`` in ``phase3``,
    each branch a pair ``(s3, what s3 and phase 4 add to covered1)``."""
    feasible = _mcphases_py._free(table.n, table.adj_mask, covered1)
    entry = phase3.get(feasible)
    if entry is None:
        # the phase-4 addition depends on feasible alone
        added = _mcphases_py._isolated(table.adj_mask, feasible)
        selections = _expand(table._program(feasible))
        entry = phase3[feasible] = (
            len(selections), [(s3, s3 | added) for s3 in selections])
    return (feasible, *entry)


def _compute_law(g, tf, max_orientations, max_branches):
    n = g.n
    m = len(tf.m_edges)
    _check_guards(1 << m, 0, max_orientations, max_branches)
    table = _trial_table(g, tf)
    # Every situation has probability 1/d with d = d01 * d3, and what
    # follows phase 2 depends on the covered mask alone, so the walk only
    # counts the phase-1 selections per covered1, in first-seen order,
    # and per (covered1, d01); each covered1 is expanded once.
    total = Counter()
    by_d01 = {}      # d01 -> Counter of covered1
    pairs = 0        # each has at least one phase-3 branch
    for _, lone, phase1, d01 in _phase1(table):
        pairs += len(phase1)
        _check_guards(0, pairs, max_orientations, max_branches)
        covered = [s1 | lone for s1 in phase1]
        total.update(covered)
        by_d01.setdefault(d01, Counter()).update(covered)
    phase3 = {}
    expanded = []    # (covered1, d3, outputs) in first-seen order
    ds = set()
    branch_count = 0
    for covered1, count in total.items():
        _, d3, branches = _after_phase2(table, phase3, covered1)
        branch_count += d3 * count
        _check_guards(0, branch_count, max_orientations, max_branches)
        ds.update(d01 * d3 for d01, c in by_d01.items() if covered1 in c)
        expanded.append((covered1, d3, branches))

    # integer masses over one common denominator, in first-seen order
    denom = math.lcm(*ds)
    mass = {}
    for covered1, d3, branches in expanded:
        w = sum(c[covered1] * (denom // (d01 * d3))
                for d01, c in by_d01.items() if covered1 in c)
        for _, add in branches:
            out = covered1 | add
            mass[out] = mass.get(out, 0) + w
    weight = [0] * n
    pmf = {}
    for out, w in mass.items():
        members = mask_vertices(out)
        if not is_independent(g, members):
            raise RuntimeError("the enumeration produced the dependent set %r"
                               % members)
        for v in members:
            weight[v] += w
        pmf[frozenset(members)] = Fraction(w, denom)
    marginals = {v: Fraction(weight[v], denom) for v in range(n)}
    result = EnumerationResult(Distribution(pmf), marginals)
    return _Law(table, phase3, result, 1 << m, branch_count, denom)


def _law(g, tf, max_orientations=None, max_branches=None):
    if tf.graph != g:
        raise TwoFactorError("two-factor belongs to a different graph")
    law = tf.derived.get("law")
    if law is None:
        law = tf.derived["law"] = _compute_law(
            g, tf, max_orientations, max_branches)
    # a kept law answers only callers whose guards it meets
    _check_guards(law.orientations, law.branches,
                  max_orientations, max_branches)
    return law


def enumerate_distribution(g: Graph, tf: TwoFactor, *,
                           max_orientations: int = None,
                           max_branches: int = None) -> EnumerationResult:
    """Exact law of the output set, plus per-vertex inclusion probabilities."""
    return _law(g, tf, max_orientations, max_branches).result


def enumerate_situations(g: Graph, tf: TwoFactor, *,
                         max_orientations: int = None,
                         max_branches: int = None) -> list:
    """Every situation with positive probability, in the order of the
    law's walk, each a new ``Situation``."""
    law = _law(g, tf, max_orientations, max_branches)
    return [Situation(*row) for row in law.situations()]


# ---------------------------------------------------------------------------
# template events against the exact law
#
# Each event walks the law under the default guards for the situations
# that conform to its template, one already checked against ``tf``.


def _masks(t):
    """The five masks of ``t`` that ``_Law.situations`` filters by."""
    return tuple(vertex_mask(s) for s in (t.heads, t.d1, t.d1bar, t.d3, t.d3bar))


def event_probability(t: Template, g: Graph, tf: TwoFactor) -> Fraction:
    """Exact probability that a random situation conforms to ``t``."""
    validate_in(t, tf)
    law = _law(g, tf)
    denom = law.denom
    return Fraction(sum(denom // d for *_, d in law.situations(*_masks(t))),
                    denom)


def forces(t: Template, u: int, g: Graph, tf: TwoFactor) -> bool:
    """True when every situation conforming to ``t`` outputs ``u``."""
    validate_in(t, tf)
    check_vertex(g, u)
    bit = 1 << u
    return all(row[4] & bit for row in _law(g, tf).situations(*_masks(t)))


def admissible(t: Template, g: Graph, tf: TwoFactor) -> bool:
    """Phase-3 constraints limited to the focus, and the focus is feasible
    whenever the orientation and phase-1 constraints are met."""
    validate_in(t, tf)
    constrained = t.d3 | t.d3bar
    if not constrained:
        return True
    if t.focus is None or constrained != {t.focus}:
        return False
    bit = 1 << t.focus
    # the orientation and phase-1 requirements only
    return all(row[2] & bit
               for row in _law(g, tf).situations(*_masks(t)[:3]))


def exact_q(t: Template, g: Graph, tf: TwoFactor) -> Fraction:
    """Exact conditional probability that the focus's whole cycle is
    feasible, given that the situation conforms to ``t``; zero when the
    template carries no phase-3 requirement on the focus or the cycle is
    even."""
    validate_in(t, tf)
    if t.focus is None or t.focus not in t.d3:
        return Fraction(0)
    cycle = tf.cycles[tf.cycle_of[t.focus]]
    if len(cycle) % 2 == 0:
        return Fraction(0)
    cycle_mask = vertex_mask(cycle)
    law = _law(g, tf)
    denom = law.denom
    hit = total = 0
    for _, _, feasible, _, _, d in law.situations(*_masks(t)):
        w = denom // d
        total += w
        if feasible & cycle_mask == cycle_mask:
            hit += w
    if total == 0:
        return Fraction(0)
    return Fraction(hit, total)


# ---------------------------------------------------------------------------
# Monte Carlo


def kernel_backend() -> str:
    """Name of the trial kernel: there is one, in pure Python."""
    return "pure-python"


@dataclass(frozen=True)
class MonteCarloReport:
    """Sampled inclusion counts with exact frequencies and standard errors.

    ``stderr`` is the binomial standard error, which holds because the
    trials are independent: they read disjoint consecutive stretches of
    one SplitMix64 sequence, each trial starting where the last one's
    draws ended.
    ``violations`` counts trials whose output failed the independence
    check.  It is zero unless the construction is broken, and it is
    reported rather than raised so that a broken run still shows its
    counts.  ``histogram`` holds the ``(output mask, trials)`` pairs in
    increasing mask order, or ``None`` when the trials gave
    ``_mcphases_py.CAPACITY`` or more distinct outputs, which the tally
    does not keep; two reports with the same counts compare equal whether
    or not they kept it.
    """

    n: int
    trials: int
    seed: int
    backend: str
    counts: tuple
    violations: int
    histogram: tuple | None = field(compare=False)

    def frequency(self, v: int) -> Fraction:
        return Fraction(self.counts[v], self.trials)

    def stderr(self, v: int) -> float:
        f = self.counts[v] / self.trials
        return math.sqrt(f * (1.0 - f) / self.trials)


def _kernel_args(g: Graph, tf: TwoFactor):
    m_edges = sorted(tf.m_edges)
    edges_a = [a for a, _ in m_edges]
    edges_b = [b for _, b in m_edges]
    cycle_starts = [0]
    cycle_verts = []
    for cycle in tf.cycles:
        cycle_verts.extend(cycle)
        cycle_starts.append(len(cycle_verts))
    return edges_a, edges_b, cycle_starts, cycle_verts, list(g.adj_mask)


def _trial_table(g: Graph, tf: TwoFactor):
    """The trial table of ``tf``, kept in ``tf.derived`` next to the law,
    so its memos serve every call."""
    table = tf.derived.get("table")
    if table is None:
        table = tf.derived["table"] = _mcphases_py.TrialTable(
            g.n, *_kernel_args(g, tf))
    return table


def _flush(tally, counts, adj_mask) -> int:
    """Add the tallied output masks into ``counts``, empty the tally and
    return the number of trials whose output was not independent."""
    violations = 0
    for out, times in tally.items():
        bad = False
        for v in mask_vertices(out):
            counts[v] += times
            if adj_mask[v] & out:
                bad = True
        if bad:
            violations += times
    tally.clear()
    return violations


def monte_carlo(g: Graph, tf: TwoFactor, trials: int, seed: int, *,
                plan=None) -> MonteCarloReport:
    """Estimate inclusion frequencies over ``trials`` independent runs.

    Fully deterministic for a given seed: the trials draw every choice,
    one after the other, from the one stream ``SplitMix64(seed)``, the
    bits a trial leaves in the buffer going to the next.  ``trials`` must
    be a positive int and ``seed`` an int in [0, 2^64).  With a phase-5
    ``plan`` (an ``augment.Phase5Plan`` for this two-factor) each trial
    runs phases 1-4 and then the repair phase, mask to mask, so no trial
    converts a set; the tally turns each distinct output mask
    into vertices once, when it is flushed, and becomes the report's
    histogram unless it was flushed before the last trial.
    """
    if tf.graph != g:
        raise TwoFactorError("two-factor belongs to a different graph")
    if plan is not None and plan.tf != tf:
        raise TwoFactorError("phase-5 plan belongs to a different two-factor")
    if type(trials) is not int or trials < 1:
        raise GraphError("trials must be a positive integer")
    if type(seed) is not int or not 0 <= seed <= _MASK64:
        raise GraphError("seed must be an integer in [0, 2^64)")
    from .augment import run_phase5  # augment imports this module

    trial = _trial_table(g, tf).trial
    adj_mask = g.adj_mask
    counts = [0] * g.n
    violations = 0
    tally = {}       # output mask -> number of trials that gave it
    flushed = False
    rng = SplitMix64(seed)
    for _ in range(trials):
        out = trial(rng)[4]
        if plan is not None:
            out = run_phase5(out, plan, rng)
        tally[out] = tally.get(out, 0) + 1
        if len(tally) >= _mcphases_py.CAPACITY:
            violations += _flush(tally, counts, adj_mask)
            flushed = True
    histogram = None if flushed else tuple(sorted(tally.items()))
    violations += _flush(tally, counts, adj_mask)
    backend = "pure-python" if plan is None else "five-phase-reference"
    return MonteCarloReport(g.n, trials, seed, backend, tuple(counts),
                            violations, histogram)
