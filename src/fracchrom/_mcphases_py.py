"""Phases 1-4 of the construction on vertex bitmasks, as memoized run
programs.

``TrialTable`` is the one implementation of phases 1-4:
``sampler.run_phases_1_4`` draws one situation with it,
``sampler.monte_carlo`` runs it for each trial that its trial code
(below) does not answer, with or without the phase-5 repair, and
``sampler._compute_law`` expands its run programs for the exact law,
calling ``_isolated`` and ``_free`` once per orientation or per mask
covered after phase 2, not per situation.  The
phase-4 addition is the isolated vertices of the feasible set worked out
before phase 3; the ``sampler`` docstring shows why working it out again
after phase 3 would add nothing else.

Random bits are consumed in a fixed order: the orientation first, one
bit per matching edge in sorted edge order (bit set = larger endpoint
becomes the head), drawn as ``bits(k)`` over chunks of up to 64 edges
with edge ``lo + i`` in bit ``i`` of its chunk; then for each selection
pass one bit per path or even-cycle run and a rejection-sampled index
per odd-cycle run, runs taken cycle by cycle in order of their starting
position.  ``sampler.SplitMix64`` hands out its bits low first and
keeps what a draw leaves for the next one, so the trials of a sampling
call run on one stream, and a trial of a small graph reads a fraction
of a 64-bit output.  Vertex sets are Python-int bitmasks, so any number
of vertices works.

The runs of a selection pass depend only on the mask it selects from,
and a sampling call meets the same few masks over and over, so the table
works each mask out once: as a *run program*, a tuple of ``(k, outcomes)``
pairs, one per run.  A run draws ``k`` bits, draws again while the index
is not below ``len(outcomes)`` and selects ``outcomes[index]``; the trial
replays a program with ``sampler.SplitMix64.select``, which reads the
buffered bits directly.

A trial served from the stream's buffer alone, with no fresh 64-bit
output drawn, reads its bits low first and stops once its choices are
made, so its first ``L`` bits fix its output, rejected indices included:
the trials that read at most ``CODE_BITS`` bits form a prefix code.  The
table memoizes that code in one list of ``2^CODE_BITS`` cells, indexed
by the low ``CODE_BITS`` bits of the buffer, each ``out << 7 | L`` or
``MISS``.  ``step`` runs the trial and, when the trial drew no fresh
output and read ``L <= CODE_BITS`` bits, fills every cell whose low
``L`` bits are the ones it read, with one slice assignment; the bits of
one trial are never a prefix of another's, so no fill overwrites a
filled cell.  With ``m >= CODE_BITS`` matching edges a trial reads more
than ``CODE_BITS`` bits, so the code is a single ``MISS`` cell.
The loop of ``sampler.monte_carlo`` reads the cell at the buffer's low
bits (as many as index a cell) and takes its ``L`` bits when the buffer
holds that many; otherwise it takes nothing and runs ``step``.  So the
cells are a memo of the one trial, and a trial answered from the code
draws the same bits as one run.
"""

from .graph_core import vertex_mask

# entries per memo of a table, and distinct output masks that
# ``sampler.monte_carlo`` tallies before it flushes them into its counts
CAPACITY = 1 << 12
# the trial code has one cell per value of this many low buffer bits
CODE_BITS = 16
# a cell no trial has filled: it reads L = 127, more than a buffer holds
MISS = 127


class TrialTable:
    """The trial of one two-factor, with three memos: the orientation
    bits to the heads mask, its phase-1 program and isolated heads, the
    mask covered after phase 2 to its feasible set, phase-3 program and
    phase-4 addition, and the part of a selection mask on one cycle to
    that cycle's runs; and the trial code's cells, made by the first
    ``code`` call.  The memos and cells live as long as the table; a
    full memo is emptied before it takes a new entry, so it keeps at
    most ``CAPACITY`` entries.  ``first`` is the width of the trial's
    first draw.
    """

    __slots__ = ("n", "adj_mask", "m", "draws", "first", "tails", "flips",
                 "cycles", "cycle_masks", "by_heads", "by_covered", "by_part",
                 "cells")

    def __init__(self, n, edges_a, edges_b, cycle_starts, cycle_verts,
                 adj_mask):
        self.n = n
        self.adj_mask = adj_mask
        # bit i of the orientation makes the larger endpoint of matching
        # edge i its head; it is drawn in chunks of up to 64 bits, and
        # read 8 bits at a time, each byte indexing the XOR of the
        # endpoint pairs a^b of the edges its set bits name
        self.m = m = len(edges_a)
        self.draws = tuple((lo, min(64, m - lo)) for lo in range(0, m, 64))
        self.first = self.draws[0][1] if m else 0
        self.tails = vertex_mask(edges_a)
        pairs = [(1 << a) ^ (1 << b) for a, b in zip(edges_a, edges_b)]
        self.flips = tuple(_xor_table(pairs[lo:lo + 8])
                           for lo in range(0, m, 8))
        self.cycles = tuple(tuple(cycle_verts[lo:hi])
                            for lo, hi in zip(cycle_starts, cycle_starts[1:]))
        self.cycle_masks = tuple(vertex_mask(cycle) for cycle in self.cycles)
        self.by_heads = {}
        self.by_covered = {}
        self.by_part = {}  # the cycles are disjoint, so a part names its cycle
        self.cells = None

    def trial(self, rng):
        """One run of phases 1-4, every choice drawn from ``rng``, a
        ``sampler.SplitMix64`` stream.

        Returns the bitmasks ``(heads, s1, feasible, s3, out)``: the active
        vertices, the phase-1 selection, the vertices feasible for phase 3,
        the phase-3 selection and the output set.
        """
        x = 0
        for lo, k in self.draws:
            x |= rng.getrandbits(k) << lo
        entry = self.by_heads.get(x)
        if entry is None:
            heads = self.heads(x)
            entry = self._remember(self.by_heads, x, (
                heads, self._program(heads), _isolated(self.adj_mask, heads)))
        heads, program, isolated = entry
        s1 = rng.select(program)
        covered = s1 | isolated
        entry = self.by_covered.get(covered)
        if entry is None:
            feasible = _free(self.n, self.adj_mask, covered)
            entry = self._remember(self.by_covered, covered, (
                feasible, self._program(feasible),
                _isolated(self.adj_mask, feasible)))
        feasible, program, added = entry
        s3 = rng.select(program)
        return heads, s1, feasible, s3, covered | s3 | added

    def code(self):
        """The cells of the trial code, all ``MISS`` when made: one per
        value of ``CODE_BITS`` buffer bits, or a single one when there
        are ``m >= CODE_BITS`` matching edges, since a trial then reads
        the ``m`` orientation bits and at least one phase-1 bit, and no
        cell could be filled."""
        if self.cells is None:
            self.cells = [MISS] * (1 << CODE_BITS if self.m < CODE_BITS else 1)
        return self.cells

    def step(self, rng):
        """The output mask of one trial on ``rng``.  A trial that drew no
        fresh output and read ``L <= CODE_BITS`` bits fills the cells
        whose low ``L`` bits are the bits it read; with the one-cell code
        no trial reads so few."""
        state, buffer, left = rng.state, rng.buffer, rng.left
        out = self.trial(rng)[4]
        taken = left - rng.left
        if rng.state == state and taken <= CODE_BITS:
            self.code()[buffer & ((1 << taken) - 1)::1 << taken] = (
                [out << 7 | taken] * (1 << CODE_BITS - taken))
        return out

    def heads(self, x):
        """The heads mask of the orientation whose bits are ``x``."""
        heads = self.tails
        for table in self.flips:
            heads ^= table[x & 255]
            x >>= 8
        return heads

    @staticmethod
    def _remember(memo, key, entry):
        if len(memo) >= CAPACITY:
            memo.clear()
        memo[key] = entry
        return entry

    def _program(self, mask):
        """The run program of one selection pass over ``mask``: the trial
        replays it with random bits, and the exact law in ``sampler``
        expands the product of its runs' outcomes.  A cycle's runs depend
        only on the part of ``mask`` on it, which is worked out once."""
        program = []
        for cycle, cycle_mask in zip(self.cycles, self.cycle_masks):
            part = mask & cycle_mask
            if part:
                runs = self.by_part.get(part)
                if runs is None:
                    runs = self._remember(self.by_part, part, _cycle_runs(cycle, part))
                program += runs
        return tuple(program)


def _xor_table(pairs):
    """The XOR of the ``pairs`` that the set bits of each index name."""
    table = [0]
    for pair in pairs:
        table += [acc ^ pair for acc in table]
    return tuple(table)


def _cycle_runs(cycle, part):
    """The runs of a selection pass over the vertices ``part`` of
    ``cycle``, in order of their starting position."""
    length = len(cycle)
    hits = [(part >> v) & 1 for v in cycle]
    if all(hits):
        if length % 2 == 0:
            # bit set selects the vertices at even positions
            return ((1, (vertex_mask(cycle[1::2]), vertex_mask(cycle[0::2]))),)
        return ((length.bit_length(), tuple(
            vertex_mask((cycle[i:] + cycle[:i])[:-1:2])
            for i in range(length))),)
    runs = []
    for p in range(length):
        if not hits[p] or hits[p - 1]:
            continue
        run = [cycle[p]]
        q = (p + 1) % length
        while hits[q]:
            run.append(cycle[q])
            q = (q + 1) % length
        evens, odds = vertex_mask(run[0::2]), vertex_mask(run[1::2])
        # the canonical branch starts at the endpoint with the smaller
        # position, and a set bit selects it
        if len(run) % 2 == 1 or p < (p + len(run) - 1) % length:
            runs.append((1, (odds, evens)))
        else:
            runs.append((1, (evens, odds)))
    return tuple(runs)


def _isolated(adj_mask, mask):
    """The vertices of ``mask`` with no neighbour in ``mask``."""
    out = 0
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if not adj_mask[v] & mask:
            out |= 1 << v
    return out


def _free(n, adj_mask, covered):
    """The vertices outside ``covered`` with no neighbour in it."""
    blocked = covered
    rest = covered
    while rest:
        low = rest & -rest
        blocked |= adj_mask[low.bit_length() - 1]
        rest ^= low
    return ((1 << n) - 1) & ~blocked
