"""Phases 1-4 of the construction on vertex bitmasks.

``trial_masks`` is the one implementation of phases 1-4 that sampling
runs: ``sampler.run_phases_1_4`` draws one situation with it, and
``sampler.monte_carlo`` runs it once per trial, with or without the
phase-5 repair.  Random bits are consumed in a fixed order: one bit per
matching edge in sorted edge order (bit set = larger endpoint becomes
the head), then for each selection pass one bit per path or even-cycle
run and a rejection-sampled index per odd-cycle run, runs taken cycle by
cycle in order of their starting position.  Vertex sets are Python-int
bitmasks, so any number of vertices works.
"""


def trial_masks(n, edges_a, edges_b, cycle_starts, cycle_verts, adj_mask,
                phase4_recompute, bits):
    """One run of phases 1-4, every choice drawn from ``bits(k)`` (an
    integer of ``k`` random bits).

    Returns the bitmasks ``(heads, s1, feasible, s3, out)``: the active
    vertices, the phase-1 selection, the vertices feasible for phase 3,
    the phase-3 selection and the output set.
    """
    heads = 0
    for a, b in zip(edges_a, edges_b):
        heads |= 1 << (b if bits(1) else a)
    s1 = _select(cycle_starts, cycle_verts, heads, bits)
    covered = s1 | _isolated(adj_mask, heads)
    feasible = _free(n, adj_mask, covered)
    s3 = _select(cycle_starts, cycle_verts, feasible, bits)
    covered |= s3
    pool = _free(n, adj_mask, covered) if phase4_recompute else feasible
    return heads, s1, feasible, s3, covered | _isolated(adj_mask, pool)


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
    out = 0
    rest = ((1 << n) - 1) & ~covered
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if not adj_mask[v] & covered:
            out |= 1 << v
    return out


def _select(cycle_starts, cycle_verts, mask, bits):
    """One selection pass over the runs of ``mask``, mirroring the exact
    branch order of the enumerator."""
    selected = 0
    for c in range(len(cycle_starts) - 1):
        lo, hi = cycle_starts[c], cycle_starts[c + 1]
        length = hi - lo
        covered_all = True
        any_hit = False
        for i in range(lo, hi):
            if (mask >> cycle_verts[i]) & 1:
                any_hit = True
            else:
                covered_all = False
        if not any_hit:
            continue
        if covered_all:
            if length % 2 == 0:
                start = 0 if bits(1) else 1
                for j in range(start, length, 2):
                    selected |= 1 << cycle_verts[lo + j]
            else:
                k = length.bit_length()
                while True:
                    idx = bits(k)
                    if idx < length:
                        break
                for j in range((length - 1) // 2):
                    selected |= 1 << cycle_verts[lo + (idx + 2 * j) % length]
            continue
        for p in range(length):
            if not (mask >> cycle_verts[lo + p]) & 1:
                continue
            if (mask >> cycle_verts[lo + (p - 1) % length]) & 1:
                continue
            run_len = 1
            q = (p + 1) % length
            while (mask >> cycle_verts[lo + q]) & 1:
                run_len += 1
                q = (q + 1) % length
            # canonical branch starts at the endpoint with smaller position
            if run_len % 2 == 1 or p < (p + run_len - 1) % length:
                start = 0 if bits(1) else 1
            else:
                start = 1 if bits(1) else 0
            for j in range(start, run_len, 2):
                selected |= 1 << cycle_verts[lo + (p + j) % length]
    return selected
