"""Partial-situation templates and the event calculus built on them.

A template pins down a fragment of a random situation: it orients some
matching edges and constrains which vertices belong (or must not belong)
to the phase-1 and phase-3 selection sets.  The event of a template is
the set of situations compatible with those constraints.  This module
provides the template value type, a small textual language for writing
templates down, the combinatorics needed to lower-bound event
probabilities (sensitive pairs, freeness, the cycle-feasibility defect
``q``), a library of built-in single-vertex templates, and their
three-way composition.  Each base builtin is one row of the language,
placed with ``u`` as its focus, for example::

    B   arc u->v / arc u- -> u-' / tri u
    C2  arc u->v / arc u- -> u-' / arc u-2' -> u-2 / star u-2 / xstar u-' / xtri u
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph_core import is_vertex_id
from .two_factor import TwoFactor


class TemplateError(ValueError):
    """Raised for malformed templates or template DSL text."""


def _vertex_id(x, label):
    if not is_vertex_id(x):
        raise TemplateError("%s: %r is not a vertex id" % (label, x))
    return x


def _vertex_set(values, label):
    return frozenset(_vertex_id(x, label) for x in values)


class Template:
    """An orientation of some matching edges plus membership constraints.

    ``arcs`` is a set of directed matching edges (tail, head); a vertex is
    *active* under the template when some arc points at it.  ``d1`` lists
    heads required to be selected in phase 1, ``d1bar`` heads required to
    be skipped there; ``d3``/``d3bar`` do the same for phase 3 and may
    only contain tails.  ``focus`` is the vertex the template is meant to
    force (optional for hand-built templates).
    """

    __slots__ = ("arcs", "d1", "d1bar", "d3", "d3bar", "focus",
                 "heads", "tails", "_hash")

    def __init__(self, arcs, d1=(), d1bar=(), d3=(), d3bar=(), focus=None):
        arc_set = set()
        for arc in arcs:
            try:
                tail, head = arc
            except (TypeError, ValueError):
                raise TemplateError("arc %r is not a pair" % (arc,)) from None
            if tail == head:
                raise TemplateError("arc %r is a loop" % (arc,))
            arc_set.add((_vertex_id(tail, "arcs"), _vertex_id(head, "arcs")))
        for tail, head in arc_set:
            if (head, tail) in arc_set:
                raise TemplateError(
                    "edge %d-%d is oriented both ways" % (tail, head))
        self.arcs = frozenset(arc_set)
        self.heads = frozenset(h for _, h in arc_set)
        self.tails = frozenset(t for t, _ in arc_set)
        self.d1 = _vertex_set(d1, "d1")
        self.d1bar = _vertex_set(d1bar, "d1bar")
        self.d3 = _vertex_set(d3, "d3")
        self.d3bar = _vertex_set(d3bar, "d3bar")
        if self.d1 & self.d1bar:
            raise TemplateError("d1 and d1bar overlap: %r" % sorted(self.d1 & self.d1bar))
        if self.d3 & self.d3bar:
            raise TemplateError("d3 and d3bar overlap: %r" % sorted(self.d3 & self.d3bar))
        stray = (self.d1 | self.d1bar) - self.heads
        if stray:
            raise TemplateError(
                "phase-1 constraint on non-head vertices %r" % sorted(stray))
        stray = (self.d3 | self.d3bar) - self.tails
        if stray:
            raise TemplateError(
                "phase-3 constraint on non-tail vertices %r" % sorted(stray))
        if focus is not None:
            focus = _vertex_id(focus, "focus")
        self.focus = focus
        self._hash = hash((self.arcs, self.d1, self.d1bar,
                           self.d3, self.d3bar, self.focus))

    @property
    def marked(self):
        """All constrained vertices (union of the four membership sets)."""
        return self.d1 | self.d1bar | self.d3 | self.d3bar

    @property
    def weight(self):
        """Number of oriented edges plus number of membership constraints."""
        return len(self.arcs) + len(self.marked)

    def __eq__(self, other):
        if not isinstance(other, Template):
            return NotImplemented
        return (self.arcs == other.arcs and self.d1 == other.d1
                and self.d1bar == other.d1bar and self.d3 == other.d3
                and self.d3bar == other.d3bar and self.focus == other.focus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return ("Template(arcs=%r, d1=%r, d1bar=%r, d3=%r, d3bar=%r, focus=%r)"
                % (sorted(self.arcs), sorted(self.d1), sorted(self.d1bar),
                   sorted(self.d3), sorted(self.d3bar), self.focus))


def validate_in(t: Template, tf: TwoFactor) -> None:
    """Check that every arc of ``t`` orients a matching edge of ``tf`` and
    that its focus, if any, is a vertex of ``tf``'s graph."""
    n = tf.graph.n
    if t.focus is not None and not 0 <= t.focus < n:
        raise TemplateError("focus %d out of range" % t.focus)
    for tail, head in t.arcs:
        if not (0 <= tail < n and 0 <= head < n):
            raise TemplateError("arc (%d, %d) out of range" % (tail, head))
        if tf.mate[tail] != head:
            raise TemplateError(
                "arc (%d, %d) does not orient a matching edge" % (tail, head))


# the result of a template composition whose constraints clash
INVALID = None


# ---------------------------------------------------------------------------
# textual template language
#
# A text is compiled once, without a two-factor, into directives whose
# vertex expressions are a base and its postfix steps; placing the
# compiled form resolves them against a two-factor and a focus.

_MARKS = ("star", "xstar", "tri", "xtri")  # d1, d1bar, d3, d3bar


def _compile_vertex(expr: str, sign: int = 1) -> tuple:
    """Compile a vertex expression like ``7``, ``u+2``, ``(v-)'`` into
    ``(expr, base, steps)``.

    The base is ``"u"`` (the focus), ``"v"`` (its matching partner) or a
    numeral.  Each step is ``None`` for a trailing ``'``, which takes the
    partner, or the signed ``k`` of ``+k``/``-k`` times ``sign``, which
    steps along the vertex's own cycle (``k`` defaults to 1).
    Parentheses only group.
    """
    s = "".join(expr.split())
    pos = 0

    def fail(why):
        raise TemplateError("cannot resolve %r: %s" % (expr, why))

    def digits():
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdecimal():
            pos += 1
        return s[start:pos]

    def expression():
        nonlocal pos
        if pos >= len(s):
            fail("unexpected end")
        ch = s[pos]
        if ch == "(":
            pos += 1
            base, steps = expression()
            if pos >= len(s) or s[pos] != ")":
                fail("missing ')'")
            pos += 1
        elif ch.isdecimal():
            base, steps = int(digits()), []
        elif ch == "u" or ch == "v":
            pos += 1
            base, steps = ch, []
        else:
            fail("unexpected %r" % ch)
        while pos < len(s) and s[pos] in "'+-":
            ch = s[pos]
            pos += 1
            if ch == "'":
                steps.append(None)
            else:
                amount = int(digits() or 1)
                steps.append(sign * amount if ch == "+" else -sign * amount)
        return base, steps

    base, steps = expression()
    if pos != len(s):
        fail("trailing %r" % s[pos:])
    return expr, base, tuple(steps)


def _compile(text: str, sign: int = 1) -> tuple:
    """Compile template-language text into ``(directive, vertices)``
    pairs, one per line, each vertex compiled by ``_compile_vertex``."""
    program = []
    for raw in text.replace("/", "\n").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        directive = parts[0]
        body = parts[1].strip() if len(parts) > 1 else ""
        if not body:
            raise TemplateError("directive %r needs an argument" % directive)
        ends = [body]
        if directive == "focus":
            if any(d == "focus" for d, _ in program):
                raise TemplateError("focus declared twice")
        elif directive == "arc":
            ends = body.split("->")
            if len(ends) != 2 or not ends[0].strip() or not ends[1].strip():
                raise TemplateError("arc needs the form A->B, got %r" % line)
        elif directive not in _MARKS:
            raise TemplateError("unknown directive %r" % directive)
        program.append((directive, tuple(_compile_vertex(e, sign) for e in ends)))
    return tuple(program)


def _place(program: tuple, tf: TwoFactor, focus=None) -> Template:
    """The template of a compiled ``program`` in ``tf``: ``u`` resolves
    to ``focus`` (set by a ``focus`` directive when not given), ``v`` to
    its partner, and every vertex must lie in ``tf``'s graph."""
    n, mate, step = tf.graph.n, tf.mate, tf.step
    arcs, marks = [], ([], [], [], [])
    for directive, vertices in program:
        ends = []
        for expr, base, steps in vertices:
            if base == "u" or base == "v":
                if focus is None:
                    raise TemplateError(
                        "cannot resolve %r: no focus declared yet" % expr)
                x = focus if base == "u" else mate[focus]
            elif base < n:  # before ' or +-k looks it up in tf
                x = base
            else:
                raise TemplateError(
                    "cannot resolve %r: vertex %d out of range" % (expr, base))
            for k in steps:
                x = mate[x] if k is None else step(x, k)
            ends.append(x)
        if directive == "arc":
            arcs.append(tuple(ends))
        elif directive == "focus":
            focus = ends[0]
        else:
            marks[_MARKS.index(directive)].append(ends[0])
    t = Template(arcs, *marks, focus)
    validate_in(t, tf)
    return t


def parse_template_dsl(text: str, tf: TwoFactor) -> Template:
    """Parse the line-oriented template language against a two-factor.

    Directives: ``focus V``, ``arc A->B``, ``star V`` (require phase-1
    membership), ``xstar V`` (forbid it), ``tri V`` / ``xtri V`` (same
    for phase 3).  Lines may also be separated by ``/``.  Symbolic
    vertices (``u``, ``v``, offsets, ``'``) resolve against the focus,
    which must therefore be declared before they are used.  A syntax
    fault is reported before any vertex is resolved.
    """
    return _place(_compile(text), tf)


# ---------------------------------------------------------------------------
# sensitive pairs and probability bounds


@dataclass(frozen=True)
class SensitivePair:
    """An ordered pair of constrained heads whose selections interact.

    ``kind`` records which case produced the pair; ``freeness`` is the
    exact number of non-head vertices on the connecting path (the larger
    it is, the weaker the interaction).
    """

    x: int
    y: int
    kind: str  # "linear-a", "linear-b" or "circular-c"
    freeness: int

    @property
    def circular(self) -> bool:
        return self.x == self.y

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "kind": self.kind,
                "freeness": self.freeness}


def sensitive_pairs(t: Template, g, tf: TwoFactor) -> list:
    """All sensitive pairs of ``t``, with exact freeness.

    A pair of phase-1-constrained heads on the same cycle is sensitive
    when the forward path between them avoids all other constrained
    vertices and the parity/tail conditions below hold; such pairs are
    exactly the ones whose selection events are correlated.
    """
    validate_in(t, tf)
    marked = t.marked
    candidates = sorted(t.d1 | t.d1bar)
    pairs = []
    for x in candidates:
        for y in candidates:
            if tf.cycle_of[x] != tf.cycle_of[y]:
                continue
            cycle = tf.cycles[tf.cycle_of[x]]
            if x == y:
                # the connecting walk is the whole cycle
                if x not in t.d1:
                    continue
                if len(cycle) % 2 == 0:
                    continue
                if any(w in marked for w in cycle if w != x):
                    continue
                if any(w in t.tails for w in cycle):
                    continue
                freeness = sum(1 for w in cycle if w not in t.heads)
                pairs.append(SensitivePair(x, y, "circular-c", freeness))
                continue
            path = tf.forward_path(x, y)
            if any(w in marked for w in path[1:-1]):
                continue
            if any(w in t.tails for w in path):
                continue
            same_side = ((x in t.d1 and y in t.d1)
                         or (x in t.d1bar and y in t.d1bar))
            length = len(path) - 1
            if same_side and length % 2 == 1:
                kind = "linear-a"
            elif not same_side and length % 2 == 0:
                kind = "linear-b"
            else:
                continue
            freeness = sum(1 for w in path if w not in t.heads)
            pairs.append(SensitivePair(x, y, kind, freeness))
    return pairs


def q_upper(t: Template, g, tf: TwoFactor) -> Fraction:
    """Upper bound on the focus-cycle feasibility defect ``q``.

    ``q`` can only be positive when the focus carries a phase-3
    requirement and sits on an odd cycle none of whose vertices is a
    head; it is then at most ``1/2**k`` where ``k`` counts the cycle's
    non-tail vertices.
    """
    validate_in(t, tf)
    if t.focus is None or t.focus not in t.d3:
        return Fraction(0)
    cycle = tf.cycles[tf.cycle_of[t.focus]]
    if len(cycle) % 2 == 0:
        return Fraction(0)
    if any(w in t.heads for w in cycle):
        return Fraction(0)
    free = sum(1 for w in cycle if w not in t.tails)
    return Fraction(1, 2 ** free)


def lemma4_lower_bound(t: Template, pairs, q) -> Fraction:
    """Lower bound on the template's event probability.

    Starts from the independent-orientation value ``1/2**weight`` and
    discounts each linear pair by ``1/2**freeness``, each circular pair
    by ``1/(5*2**freeness)`` and the cycle-feasibility defect by ``q/5``;
    the result is clamped at zero, which is always a sound lower bound.
    """
    slack = Fraction(1) - Fraction(q, 5)
    for p in pairs:
        if p.circular:
            slack -= Fraction(1, 5 * 2 ** p.freeness)
        else:
            slack -= Fraction(1, 2 ** p.freeness)
    if slack < 0:
        slack = Fraction(0)
    return slack / 2 ** t.weight


# ---------------------------------------------------------------------------
# built-in templates

_NAME_ALIASES = {
    "−": "-",   # minus sign
    "±": "+-",  # plus-minus
    "⁺": "+",   # superscript plus
    "⁻": "-",   # superscript minus
    "⁰": "0",   # superscript zero
    "₁": "1",   # subscript digits
    "₂": "2",
    "₃": "3",
}

LEFT_NAMES = ("A", "B", "C1", "C2", "C3")
RIGHT_NAMES = ("A*", "B*", "C1*", "C2*", "C3*")
UPPER_NAMES = ("D-", "D0", "D+")
FORCING_NAMES = ("E0", "E-", "E+", "E+-")
BUILTIN_NAMES = FORCING_NAMES + LEFT_NAMES + RIGHT_NAMES + UPPER_NAMES


def _normalize_name(name: str) -> str:
    for src, dst in _NAME_ALIASES.items():
        name = name.replace(src, dst)
    return name


def _check_vertex(tf: TwoFactor, u) -> None:
    """Refuse a placement vertex ``u`` that is not a vertex of ``tf``'s
    graph: a bool, a non-int or an int out of range."""
    if not (is_vertex_id(u) and u < tf.graph.n):
        raise TemplateError("cannot place a template at %r: not a vertex of "
                            "the graph" % (u,))


# one row of the template language per base builtin, placed with u as
# its focus; A..C3 step only along u's cycle, behind u
_ROWS = (
    ("E0", "arc v->u / arc u- -> u-' / arc u+ -> u+'"),
    ("E-", "arc v->u / arc u-' -> u- / arc u+ -> u+' / star u"),
    ("E+", "arc v->u / arc u- -> u-' / arc u+' -> u+ / star u"),
    ("E+-", "arc v->u / arc u-' -> u- / arc u+' -> u+ / star u"),
    ("A", "arc u->v / arc u-' -> u- / arc u-2' -> u-2 / star u-2"),
    ("B", "arc u->v / arc u- -> u-' / tri u"),
    ("C1", "arc u->v / arc u- -> u-' / star u-' / xtri u"),
    ("C2", "arc u->v / arc u- -> u-' / arc u-2' -> u-2 / star u-2 / xstar u-'"
           " / xtri u"),
    ("C3", "arc u->v / arc u- -> u-' / arc u-2' -> u-2 / arc u-3 -> u-3'"
           " / xstar u-' / xstar u-2 / xtri u"),
    ("D-", "arc u->v / arc v-' -> v- / arc v+ -> v+' / star v-"),
    ("D0", "arc u->v / arc v-' -> v- / arc v+' -> v+ / xstar v"),
    ("D+", "arc u->v / arc v- -> v-' / arc v+' -> v+ / star v+"),
)


# the compiled rows in the order of BUILTIN_NAMES; a starred twin is its
# base row with every step negated, so it constrains the cycle ahead of u
_PROGRAMS = tuple(_compile(dict(_ROWS)[name.rstrip("*")], -1 if "*" in name else 1)
                  for name in BUILTIN_NAMES)


def builtin(name: str, tf: TwoFactor, u: int) -> Template:
    """Instantiate one of the named single-vertex templates at ``u``.

    The ``E`` family covers the ways an active ``u`` is forced; ``A``,
    ``B``, ``C1..C3`` constrain the cycle behind ``u`` (their starred
    twins the cycle ahead); ``D-``, ``D0``, ``D+`` constrain the
    neighbourhood of ``u``'s matching partner.  Raises
    :class:`TemplateError` when the instantiation is not legal in the
    host graph (short cycles can make required orientations clash) or
    ``u`` is not a vertex of it.
    """
    _check_vertex(tf, u)
    if name not in BUILTIN_NAMES and isinstance(name, str):
        name = _normalize_name(name)
    if name not in BUILTIN_NAMES:
        raise TemplateError("unknown template name %r" % (name,))
    try:
        return _place(_PROGRAMS[BUILTIN_NAMES.index(name)], tf, u)
    except TemplateError as exc:
        raise TemplateError(
            "template %s cannot be placed at vertex %d: %s" % (name, u, exc))


def compose_pqr(p: Template, q: Template, r: Template):
    """Union three templates sharing a focus; ``INVALID`` on any clash.

    A clash is an edge oriented both ways or a vertex both required in
    and excluded from the same phase set.
    """
    if not (p.focus == q.focus == r.focus) or p.focus is None:
        raise TemplateError("composition requires a common focus")
    arcs = set(p.arcs) | set(q.arcs) | set(r.arcs)
    for tail, head in arcs:
        if (head, tail) in arcs:
            return INVALID
    d1 = p.d1 | q.d1 | r.d1
    d1bar = p.d1bar | q.d1bar | r.d1bar
    d3 = p.d3 | q.d3 | r.d3
    d3bar = p.d3bar | q.d3bar | r.d3bar
    if (d1 & d1bar) or (d3 & d3bar):
        return INVALID
    return Template(arcs, d1, d1bar, d3, d3bar, focus=p.focus)


def sigma_library(tf: TwoFactor, u: int) -> list:
    """All 75 two-sided compositions at ``u``, tagged with their names.

    Each entry pairs a name like ``"BC1D+"`` with either the composed
    template or ``INVALID``.  Raises :class:`TemplateError` when ``u``
    is not a vertex of ``tf``'s graph.
    """
    _check_vertex(tf, u)

    def place(name):
        try:
            return builtin(name, tf, u)
        except TemplateError:
            return INVALID  # the graph's geometry rules this piece out

    out = []
    lefts = [(n, place(n)) for n in LEFT_NAMES]
    rights = [(n, place(n + "*")) for n in LEFT_NAMES]
    uppers = [(n, place(n)) for n in UPPER_NAMES]
    for pname, p in lefts:
        for qname, q in rights:
            for rname, r in uppers:
                if p is INVALID or q is INVALID or r is INVALID:
                    combined = INVALID
                else:
                    combined = compose_pqr(p, q, r)
                out.append((pname + qname + rname, combined))
    return out
