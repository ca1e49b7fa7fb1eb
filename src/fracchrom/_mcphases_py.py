"""Pure-python trial kernel; drop-in stand-in for the compiled one.

``trial_masks`` is the one Python implementation of phases 1-4: the
Monte Carlo kernel below, the reference sampler ``sampler.run_phases_1_4``
and the five-phase Monte Carlo path all run it.  It consumes random bits
in exactly the same order as the compiled kernel: one bit per matching
edge in sorted edge order (bit set = larger endpoint becomes the head),
then for each selection pass one bit per path or even-cycle run and a
rejection-sampled index per odd-cycle run, runs taken cycle by cycle in
order of their starting position.  Vertex sets are Python-int bitmasks,
so any number of vertices works.
"""

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def backend_name():
    return "pure-python"


def run_trials(n, edges_a, edges_b, cycle_starts, cycle_verts, adj_mask,
               trials, seed, first_trial, phase4_recompute):
    """Run ``trials`` independent trials; returns per-vertex hit counts
    plus the number of trials whose output set was not independent
    (always 0 unless the construction is broken).

    Trial number ``t`` (``first_trial <= t < first_trial + trials``) uses
    the stream seeded with ``seed + (t + 1) * GAMMA``, so disjoint chunks
    of trials can run concurrently and still sum to the same counts.
    """
    counts = [0] * n
    violations = 0

    for t in range(first_trial, first_trial + trials):
        state = (seed + (t + 1) * _GAMMA) & _MASK64

        def bits(k):
            nonlocal state
            state = (state + _GAMMA) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            return (z ^ (z >> 31)) >> (64 - k)

        out = trial_masks(n, edges_a, edges_b, cycle_starts, cycle_verts,
                          adj_mask, phase4_recompute, bits)[4]
        bad = False
        v = 0
        rest = out
        while rest:
            if rest & 1:
                counts[v] += 1
                if adj_mask[v] & out:
                    bad = True
            rest >>= 1
            v += 1
        if bad:
            violations += 1
    return counts, violations


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
