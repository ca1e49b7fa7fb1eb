"""Phases 1-4 of the construction on vertex bitmasks, as memoized run
programs.

``TrialTable`` is the one implementation of phases 1-4:
``sampler.run_phases_1_4`` draws one situation with it,
``sampler.monte_carlo`` runs it once per trial, with or without the
phase-5 repair, and ``sampler._compute_law`` expands its run programs
for the exact law, calling ``_isolated`` and ``_free`` once per
orientation or per mask covered after phase 2, not per situation.  The
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
pairs, one per run.  A run draws ``bits(k)``, redraws while the index is
not below ``len(outcomes)`` and selects ``outcomes[index]``.

The trial replays a program from a compiled form, built with the memo
entry and dropped with it: the program's width ``W``, the sum of its
runs' ``k``, and, when ``W`` is at most ``TABLE_BITS``, a table of the
selection made by each of the ``2^W`` values of ``W`` bits, read as the
runs' draws laid end to end, the first run's in the lowest bits, with
``-1`` where some run's index would be rejected.  Since the stream hands
out its buffered bits low first, a run-by-run replay that is served from
the buffer and rejects no index reads exactly the low ``W`` bits of the
buffer.  So the trial asks the stream to ``lookup`` the table: when the
buffer holds at least ``W`` bits, the stream reads their value without
taking them, and on a cell that is not ``-1`` it takes the ``W`` bits
and the cell is the selection.  Otherwise (a rejected index, too few
buffered bits, or a program too wide for a table) the trial replays the
runs one at a time.  Either way it draws the same bits and leaves the
stream in the same state.
"""

from .graph_core import vertex_mask

# entries per memo of a table, and distinct output masks that
# ``sampler.monte_carlo`` tallies before it flushes them into its counts
CAPACITY = 1 << 12
# the widest run program that gets a table of its selections: 2^8 cells
TABLE_BITS = 8


class TrialTable:
    """The trial of one two-factor, with three memos: the orientation
    bits to the heads mask, its compiled phase-1 program and isolated
    heads, the mask covered after phase 2 to its feasible set, compiled
    phase-3 program and phase-4 addition, and the part of a selection
    mask on one cycle to that cycle's runs.  The memos live as long as
    the table; a full memo is emptied before it takes a new entry, so at
    most ``CAPACITY`` tables of at most ``2^TABLE_BITS`` cells each are
    kept per memo.
    """

    __slots__ = ("n", "adj_mask", "m", "draws", "tails", "flips", "cycles",
                 "cycle_masks", "by_heads", "by_covered", "by_part")

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
                heads, _compile(self._program(heads)),
                _isolated(self.adj_mask, heads)))
        heads, (program, width, cells), isolated = entry
        s1 = -1 if cells is None else rng.lookup(cells, width)
        if s1 < 0:
            s1 = _run(program, rng.getrandbits)
        covered = s1 | isolated
        entry = self.by_covered.get(covered)
        if entry is None:
            feasible = _free(self.n, self.adj_mask, covered)
            entry = self._remember(self.by_covered, covered, (
                feasible, _compile(self._program(feasible)),
                _isolated(self.adj_mask, feasible)))
        feasible, (program, width, cells), added = entry
        s3 = -1 if cells is None else rng.lookup(cells, width)
        if s3 < 0:
            s3 = _run(program, rng.getrandbits)
        return heads, s1, feasible, s3, covered | s3 | added

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


def _compile(program):
    """The compiled form ``(program, W, cells)`` of a run program: ``W``
    is the sum of its runs' ``k``; ``cells`` is ``None`` when ``W`` exceeds
    ``TABLE_BITS`` and otherwise holds, at each value of ``W`` bits, the
    selection the runs make when each takes its ``k`` bits in turn from
    the low end, or ``-1`` when some run's index would be rejected."""
    width = sum(k for k, _ in program)
    if width > TABLE_BITS:
        return program, width, None
    cells = [0]
    for k, outcomes in program:
        # the run's bits sit above those of the runs before it
        cells = [-1 if acc < 0 or idx >= len(outcomes) else acc | outcomes[idx]
                 for idx in range(1 << k) for acc in cells]
    return program, width, tuple(cells)


def _run(program, bits):
    """The selection a run program makes with the bits of ``bits``."""
    selected = 0
    for k, outcomes in program:
        idx = bits(k)
        while idx >= len(outcomes):
            idx = bits(k)
        selected |= outcomes[idx]
    return selected


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
