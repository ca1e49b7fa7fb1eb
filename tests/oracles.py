"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: different algorithms than the
package's, so agreement is meaningful.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from fracchrom import sampler as S
from fracchrom.augment import run_phase5
from fracchrom import fractional_lp
from fracchrom.fractional_lp import ColouringError, MergeFailure, MultisetCertificate
from fracchrom.graph_core import Graph, GraphError, GuardExceeded, suppress_vertex
from fracchrom.two_factor import select_two_factor


def count_perfect_matchings_bruteforce(g):
    """Count perfect matchings by scanning all edge subsets of size n/2."""
    n = g.n
    if n % 2:
        return 0
    count = 0
    for combo in itertools.combinations(g.edges, n // 2):
        seen = set()
        ok = True
        for u, v in combo:
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok:
            count += 1
    return count


def minimal_small_cuts_subset_scan(g):
    """Minimal 3-/4-edge-cuts by testing every 3- and 4-subset of E, in
    ``itertools.combinations`` order, as ``(edges, side)`` pairs: ``side``
    is the sorted component of vertex 0, and a subset counts when every
    edge joins that component to a connected rest."""

    def reach(start, removed):
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if (min(u, w), max(u, w)) not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    out = []
    for size in (3, 4):
        for combo in itertools.combinations(g.edges, size):
            side = reach(0, set(combo))
            rest = set(range(g.n)) - side
            if (rest and all((u in side) != (v in side) for u, v in combo)
                    and reach(min(rest), set(combo)) == rest):
                out.append((combo, tuple(sorted(side))))
    return out


def boundary(g, X):
    """Edges with exactly one endvertex in X, sorted canonically."""
    xs = set(X)
    for v in xs:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
    return tuple(e for e in g.edges if (e[0] in xs) != (e[1] in xs))


def minimal_small_cuts_bruteforce(g):
    """Minimal 3-/4-edge-cuts via the boundary form: a cut is minimal iff it
    equals the boundary of a vertex set X with both g[X] and g[V-X] connected.
    Returns a set of frozensets of edges."""

    def is_connected_sub(verts):
        verts = set(verts)
        if not verts:
            return False
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w in verts and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == verts

    out = set()
    rest = list(range(1, g.n))
    for r in range(0, g.n - 1):
        for extra in itertools.combinations(rest, r):
            X = {0, *extra}
            Y = set(range(g.n)) - X
            if not Y:
                continue
            bd = frozenset(boundary(g, X))
            if len(bd) in (3, 4) and is_connected_sub(X) and is_connected_sub(Y):
                out.add(bd)
    return out


def independent_sets_bruteforce(g, maximal_only=True):
    """All (maximal) independent sets by scanning all vertex subsets."""
    n = g.n
    sets_ = []
    for mask in range(1 << n):
        ok = True
        for u, v in g.edges:
            if mask >> u & 1 and mask >> v & 1:
                ok = False
                break
        if ok:
            sets_.append(mask)
    if not maximal_only:
        return sets_
    as_set = set(sets_)
    out = []
    for mask in sets_:
        is_max = True
        for v in range(n):
            if not mask >> v & 1 and (mask | 1 << v) in as_set:
                is_max = False
                break
        if is_max:
            out.append(mask)
    return out


def chi_f_basis_enumeration(g):
    """Exact fractional chromatic number by brute-force basis enumeration of
    the covering LP in standard form (min 1.x : A x - s = 1, x,s >= 0).

    Only feasible for small instances (columns + n choose n bases).
    """
    n = g.n
    if n == 0:
        return Fraction(0)
    cols = independent_sets_bruteforce(g, maximal_only=True)
    c = len(cols)
    nvar = c + n  # x variables then slack variables
    # A: n rows; x_I coefficient 1 if v in I; slack s_v coefficient -1
    best = None
    for basis in itertools.combinations(range(nvar), n):
        # solve A_B z = 1 exactly
        mat = []
        for v in range(n):
            row = []
            for j in basis:
                if j < c:
                    row.append(Fraction(1 if cols[j] >> v & 1 else 0))
                else:
                    row.append(Fraction(-1 if (j - c) == v else 0))
            row.append(Fraction(1))
            mat.append(row)
        sol = _solve_exact(mat, n)
        if sol is None:
            continue
        if any(z < 0 for z in sol):
            continue
        value = sum(z for j, z in zip(basis, sol) if j < c)
        if best is None or value < best:
            best = value
    return best


def _solve_exact(mat, n):
    """Gaussian elimination on an n x (n+1) Fraction matrix; None if singular."""
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = mat[col][col]
        mat[col] = [x / inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


def alpha_bruteforce(g):
    """Independence number by scanning all vertex subsets."""
    return max(
        mask.bit_count()
        for mask in independent_sets_bruteforce(g, maximal_only=False)
    )


def is_vertex_transitive_bruteforce(g):
    """For every vertex v, search exhaustively for an automorphism 0 -> v."""

    def extend(mapping, used):
        if len(mapping) == g.n:
            return True
        u = len(mapping)
        for w in range(g.n):
            if w in used:
                continue
            ok = all(
                g.has_edge(w, mapping[x]) == g.has_edge(u, x)
                for x in range(u)
            )
            if ok:
                mapping.append(w)
                used.add(w)
                if extend(mapping, used):
                    return True
                mapping.pop()
                used.remove(w)
        return False

    return all(extend([v], {v}) for v in range(g.n))


def chi_f_transitive_oracle(g):
    """n / alpha, valid only when the graph is vertex-transitive."""
    if not is_vertex_transitive_bruteforce(g):
        raise ValueError("graph is not vertex-transitive")
    return Fraction(g.n, alpha_bruteforce(g))


def scanning_trial(n, edges_a, edges_b, cycle_starts, cycle_verts, adj_mask,
                   phase4_recompute, bits):
    """One run of phases 1-4 that re-derives every run by scanning each
    cycle vertex, drawing from ``bits(k)`` in the package's bit order:
    the orientation as ``bits(min(64, m - lo))`` per chunk of up to 64
    matching edges, edge ``lo + i`` in bit ``i``, so that it reads the
    same bits as the package on a stream with any number of bits
    buffered.

    Takes the arguments of ``sampler._kernel_args`` and returns the
    bitmasks ``(heads, s1, feasible, s3, out)``, like
    ``_mcphases_py.TrialTable.trial``; it keeps no memo.  Phase 4 adds
    the isolated vertices of the feasible set, worked out after phase 3
    when ``phase4_recompute`` is true and before it (as the package
    does) otherwise; the two readings give the same output.
    """

    def isolated(mask):
        return sum(1 << v for v in range(n)
                   if (mask >> v) & 1 and not adj_mask[v] & mask)

    def free(covered):
        return sum(1 << v for v in range(n)
                   if not (covered >> v) & 1 and not adj_mask[v] & covered)

    m = len(edges_a)
    heads = 0
    for lo in range(0, m, 64):
        chunk = bits(min(64, m - lo))
        for i in range(lo, min(lo + 64, m)):
            head = edges_b[i] if (chunk >> (i - lo)) & 1 else edges_a[i]
            heads |= 1 << head
    s1 = _scanning_select(cycle_starts, cycle_verts, heads, bits)
    covered = s1 | isolated(heads)
    feasible = free(covered)
    s3 = _scanning_select(cycle_starts, cycle_verts, feasible, bits)
    covered |= s3
    pool = free(covered) if phase4_recompute else feasible
    return heads, s1, feasible, s3, covered | isolated(pool)


def _scanning_select(cycle_starts, cycle_verts, mask, bits):
    """One selection pass over the runs of ``mask``, cycle by cycle."""
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


def stream_position(rng):
    """What decides the next draws of a ``sampler.SplitMix64`` stream."""
    return rng.state, rng.buffer, rng.left


def scanning_monte_carlo(g, tf, trials, seed, plan=None):
    """``trials`` runs of ``scanning_trial``, each followed by
    ``augment.run_phase5`` when a ``plan`` is given, one after another on
    the one stream ``SplitMix64(seed)``: the histogram of their outputs,
    as sorted ``(output mask, trials)`` pairs, and the stream's final
    position."""
    args = S._kernel_args(g, tf)
    rng = S.SplitMix64(seed)
    tally = Counter()
    for _ in range(trials):
        out = scanning_trial(g.n, *args, False, rng.getrandbits)[4]
        if plan is not None:
            out = run_phase5(out, plan, rng)
        tally[out] += 1
    return tuple(sorted(tally.items())), stream_position(rng)


def recorded_monte_carlo(g, tf, trials, seed, plan=None):
    """``sampler.monte_carlo``'s report and the final position of the one
    stream it drew from; fails if the call made more than one."""
    made = []

    class Recorded(S.SplitMix64):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "SplitMix64", Recorded)
        report = S.monte_carlo(g, tf, trials, seed, plan=plan)
    assert len(made) == 1
    return report, stream_position(made[0])


# ---------------------------------------------------------------------------
# the run decomposition, derived a second way, and the exact law built on it


def _mask_runs(cycles, mask):
    """Maximal stretches of mask-vertices along each cycle, in fixed order,
    as ``(is_cycle, seq)`` pairs: ``seq`` is the stretch in forward cycle
    order, and a fully covered cycle is one cyclic run."""
    runs = []
    for cycle in cycles:
        length = len(cycle)
        hits = [(mask >> v) & 1 for v in cycle]
        if all(hits):
            runs.append((True, cycle))
            continue
        for p in range(length):
            if hits[p] and not hits[p - 1]:
                seq = [cycle[p]]
                q = (p + 1) % length
                while hits[q]:
                    seq.append(cycle[q])
                    q = (q + 1) % length
                runs.append((False, tuple(seq)))
    return runs


def _bits(vertices):
    return sum(1 << v for v in vertices)


def _run_branches(tf, is_cycle, seq):
    """The equally likely selections of one run, canonical branch first,
    as ``(mask, d)`` pairs: ``d`` is 2 on a path or an even cycle and the
    length on an odd cycle."""
    length = len(seq)
    evens, odds = _bits(seq[0::2]), _bits(seq[1::2])
    if not is_cycle:
        # the canonical branch starts at the endpoint with smaller position
        if length % 2 == 1 or tf.pos[seq[0]] < tf.pos[seq[-1]]:
            return [(evens, 2), (odds, 2)]
        return [(odds, 2), (evens, 2)]
    if length % 2 == 0:
        return [(evens, 2), (odds, 2)]
    picks = (length - 1) // 2
    return [(_bits(seq[(i + 2 * j) % length] for j in range(picks)), length)
            for i in range(length)]


def _branch_products(tf, mask):
    """Every selection on ``mask`` as ``(selection, d)``: the product of
    the per-run branches, each selection with probability ``1/d``."""
    outcomes = [(0, 1)]
    for is_cycle, seq in _mask_runs(tf.cycles, mask):
        branches = _run_branches(tf, is_cycle, seq)
        outcomes = [(acc | pick, ad * d)
                    for acc, ad in outcomes for pick, d in branches]
    return outcomes


def phi_outcomes(X, tf):
    """Full law of the run-selection operation applied to vertex set ``X``.

    Returns all (subset, probability) outcomes; per run, a path yields its
    canonical alternating set or the complement (half each), an even cycle
    its two alternating sets (half each) and an odd cycle each of its
    maximum independent sets uniformly.
    """
    for v in X:
        if not 0 <= v < tf.graph.n:
            raise GraphError("vertex %r out of range" % (v,))
    return [(frozenset(v for v in range(tf.graph.n) if (m >> v) & 1),
             Fraction(1, d))
            for m, d in _branch_products(tf, _bits(set(X)))]


def active_runs(heads, tf):
    """Maximal stretches of active vertices along the two-factor, for a
    head set holding exactly one endpoint of each matching edge."""
    heads = set(heads)
    if (len(heads) != len(tf.m_edges)
            or any((a in heads) == (b in heads) for a, b in tf.m_edges)):
        raise GraphError("heads do not orient this matching")
    return [frozenset(seq) for _, seq in _mask_runs(tf.cycles, _bits(heads))]


def law_oracle(g, tf, phase4):
    """The exact law of phases 1-4 from the runs derived above, with no
    guard and no memo: every orientation, every phase-1 branch and every
    phase-3 branch, each situation weighted by a ``Fraction``.  ``phase4``
    names the reading of phase 4, ``"start"`` (the package's: the
    feasible set worked out before phase 3) or ``"recompute"`` (worked
    out again after it); the two give the same situations.

    Returns ``(records, pmf, marginals, branches)``: the sorted
    ``(heads, s1, feasible, s3, out, d)`` tuples of the situations (all
    bitmasks but ``d``, the situation having probability ``1/d``), the
    law of the output set keyed by frozensets, the vertex marginals and
    the number of situations.
    """
    n, adj_mask = g.n, g.adj_mask

    def isolated(mask):
        return sum(1 << v for v in range(n)
                   if (mask >> v) & 1 and not adj_mask[v] & mask)

    def free(covered):
        return sum(1 << v for v in range(n)
                   if not (covered >> v) & 1 and not adj_mask[v] & covered)

    m_edges = sorted(tf.m_edges)
    m = len(m_edges)
    records = []
    for bits in range(1 << m):
        heads = sum(1 << (b if (bits >> i) & 1 else a)
                    for i, (a, b) in enumerate(m_edges))
        lone = isolated(heads)
        for s1, d1 in _branch_products(tf, heads):
            covered = s1 | lone
            feasible = free(covered)
            added = isolated(feasible)
            for s3, d3 in _branch_products(tf, feasible):
                if phase4 == "recompute":
                    added = isolated(free(covered | s3))
                out = covered | s3 | added
                records.append((heads, s1, feasible, s3, out, (d1 << m) * d3))
    tally = {}
    for *_, out, d in records:
        tally[out, d] = tally.get((out, d), 0) + 1
    pmf = {}
    for (out, d), count in tally.items():
        key = frozenset(v for v in range(n) if (out >> v) & 1)
        pmf[key] = pmf.get(key, 0) + Fraction(count, d)
    marginals = {v: sum((p for s, p in pmf.items() if v in s), Fraction(0))
                 for v in range(n)}
    return sorted(records), pmf, marginals, len(records)


def multiset_oracle(w):
    """The multiset certificate of a weighting, one copy at a time: every
    set enters as N·w(I) mutable copies, in the order of its sorted
    vertices, and each vertex covered more than N times is discarded from
    the first copies that hold it."""
    g = w.graph
    N = 1
    for q in w.weights.values():
        N = math.lcm(N, q.denominator)
    copies = []
    for s in sorted(w.weights, key=sorted):
        q = w.weights[s]
        if q > 0:
            copies.extend(set(s) for _ in range(int(q * N)))
    for v in range(g.n):
        cover = sum(1 for s in copies if v in s)
        if cover < N:
            raise ColouringError(f"vertex {v} gathers weight {Fraction(cover, N)} < 1")
        excess = cover - N
        for s in copies:
            if not excess:
                break
            if v in s:
                s.discard(v)
                excess -= 1
    return MultisetCertificate(g.n, N, tuple(frozenset(s) for s in copies))


def verify_oracle(g, cert):
    """The problems of a multiset certificate, one copy at a time: each
    copy's foreign vertices and edges under its own index, then every
    vertex whose cover is not N."""
    problems = []
    if cert.n_vertices != g.n:
        problems.append(f"certificate is for {cert.n_vertices} vertices, graph has {g.n}")
    for idx, s in enumerate(cert.sets):
        for u in s:
            if not (0 <= u < g.n):
                problems.append(f"set {idx} mentions foreign vertex {u}")
        for u in s:
            for v in s:
                if u < v and g.has_edge(u, v):
                    problems.append(f"set {idx} contains edge ({u}, {v})")
    count = [0] * g.n
    for s in cert.sets:
        for u in s:
            if 0 <= u < g.n:
                count[u] += 1
    for v in range(g.n):
        if count[v] != cert.N:
            problems.append(f"vertex {v} is covered {count[v]} times, not N = {cert.N}")
    return tuple(problems)


def merge_by_permutation(n, a, b, x1, x2):
    """The bridge merge of certificates ``a`` and ``b`` across the bridge
    (x1, x2) as a permutation of b's indices, one copy at a time.

    Each side is replicated to N = lcm(a.N, b.N) and padded with empty
    sets to a common count; the b-sets holding x2 keep their index where
    the a-set lacks x1 and are otherwise sent, in order, to the free
    indices (a-set without x1) whose b-set lacks x2; the remaining
    b-sets fill the unused indices in order.  Reads the multiset guard
    from ``fractional_lp`` at call time, so a test may lower it.
    """
    def replicate(cert, factor):
        return MultisetCertificate(cert.n_vertices, cert.N * factor, cert.sets * factor)

    def pad(cert, count):
        empty = (frozenset(),) * (count - len(cert.sets))
        return MultisetCertificate(cert.n_vertices, cert.N, cert.sets + empty)

    N = math.lcm(a.N, b.N)
    count = max(len(a.sets) * (N // a.N), len(b.sets) * (N // b.N), 2 * N)
    if count > fractional_lp.DEFAULT_MAX_MULTISET:
        raise GuardExceeded(f"bridge merge would hold {count} sets")
    a = pad(replicate(a, N // a.N), count)
    b = pad(replicate(b, N // b.N), count)
    blocked = {i for i, s in enumerate(a.sets) if x1 in s}
    movers = [i for i, s in enumerate(b.sets) if x2 in s]
    free = [i for i in range(count) if i not in blocked]
    if len(movers) > len(free):
        raise MergeFailure(f"cannot separate bridge ({x1}, {x2})")
    perm = [-1] * count
    for i in movers:
        if i not in blocked:
            perm[i] = i
    mover_set = set(movers)
    pool = iter(i for i in free if i not in mover_set)
    for i in movers:
        if perm[i] == -1:
            perm[i] = next(pool)
    used = {p for p in perm if p != -1}
    rest = iter(i for i in range(count) if i not in used)
    for i in range(count):
        if perm[i] == -1:
            perm[i] = next(rest)
    merged = [None] * count
    for i in range(count):
        merged[perm[i]] = b.sets[i]
    return MultisetCertificate(n, N, tuple(s | t for s, t in zip(a.sets, merged)))


def bridge_splits_by_scan(g):
    """The bridge splits of a connected graph, one scan per split, in g's
    labels.  A bridge is an edge whose removal separates its ends.  While
    more than 3 vertices and some bridge are left, every bridge is tried
    from its smaller end, then every bridge from its larger end, and the
    first side that holds no other bridge is split off.  Returns the
    sorted sides in order, then the sorted rest, and each bridge as (end
    in its side, other end)."""
    left = set(range(g.n))

    def side_of(x, cut):
        seen, stack = {x}, [x]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w in left and w not in seen and {u, w} != set(cut):
                    seen.add(w)
                    stack.append(w)
        return seen

    bridges = [(u, v) for u, v in g.edges if v not in side_of(u, (u, v))]
    sides, split = [], []
    while len(left) > 3 and bridges:
        for x1, x2 in bridges + [(v, u) for u, v in bridges]:
            side = side_of(x1, (x1, x2))
            if not any(u in side and v in side for u, v in bridges):
                break
        sides.append(sorted(side))
        split.append((x1, x2))
        left -= side
        bridges = [(u, v) for u, v in bridges if u in left and v in left]
    return sides + [sorted(left)], split


def one_bridge_leaf_by_splice(leaf, v0):
    """The two-factor of a one-bridge leaf as (cycles, mates), built by
    splicing cycles rather than from the matching.

    The host (the leaf's vertices below n/2) is suppressed at its degree-2
    vertex v0, the suppressed graph's two-factor is selected with the
    replacement edge ab on a cycle, and v0 is spliced into that cycle
    between a and b; both copies get these cycles and the selected
    matching, and the bridge between the copies of v0 is a matching edge.
    The cycles come back canonical (each from its least vertex toward the
    larger of that vertex's cycle neighbours) and sorted, as on
    ``TwoFactor``; fails unless the cycles and the matching split the
    leaf's edges between them.
    """
    n = leaf.n // 2
    host = Graph(n, [e for e in leaf.edges if e[1] < n])
    g0, old_ids = suppress_vertex(host, v0)
    a, b = host.adj[v0]
    back = {old: new for new, old in enumerate(old_ids)}
    tf0 = select_two_factor(g0, cycle_edge=(back[a], back[b]))

    cycles = []
    for cyc in tf0.cycles:
        mapped = [old_ids[u] for u in cyc]
        L = len(mapped)
        spliced = None
        for i in range(L):
            pair = {mapped[i], mapped[(i + 1) % L]}
            if pair == {a, b}:
                spliced = mapped[:i + 1] + [v0] + mapped[i + 1:]
                break
        cycles.append(spliced if spliced is not None else mapped)
    both = cycles + [[u + n for u in cyc] for cyc in cycles]
    matching = [(old_ids[u], old_ids[v]) for u, v in tf0.m_edges]
    matching += [(u + n, v + n) for u, v in matching]
    matching.append((v0, v0 + n))

    edges = [(c[i], c[(i + 1) % len(c)]) for c in both for i in range(len(c))]
    edges += matching
    assert sorted((min(e), max(e)) for e in edges) == list(leaf.edges)
    mate = [-1] * leaf.n
    for u, v in matching:
        mate[u], mate[v] = v, u

    def canonical(cyc):
        k = cyc.index(min(cyc))
        rot = cyc[k:] + cyc[:k]
        return tuple(rot if rot[1] > rot[-1] else rot[:1] + rot[:0:-1])

    return tuple(sorted(map(canonical, both))), tuple(mate)
