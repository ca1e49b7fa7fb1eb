"""Hand-built fixtures exercising every deficiency pattern.

Each builder returns ``(g, tf, focus)`` where ``focus`` is the vertex
wired to match one specific pattern.  The ring fixtures place the
pattern's matching edges along a single cycle Z (plus a helper cycle
absorbing the leftover vertices); the ``mirror`` flag relabels Z so the
canonical cycle orientation runs the other way, turning each pattern
into its starred reflection.

The expected classifications were derived by hand from the pattern
definitions; the tests pin them as independent oracles.

The public builders are memoized: a two-factor keeps its exact law, so
handing every test the same ``(g, tf, focus)`` computes each fixture's
law once per session.
"""

import functools
from fractions import Fraction

from fracchrom.graph_core import Graph
from fracchrom.two_factor import TwoFactor


def _ring_fixture(length, chords, rungs=(), helper_len=0, helper_chords=(),
                  mirror=False):
    """Cycle Z plus an optional helper cycle, matched as specified.

    ``chords``/``rungs``/``helper_chords`` use *intended* positional
    indices along Z (0, 1, 2, ...) and the helper cycle.  Without
    ``mirror`` the labels are chosen so that the canonical orientation
    of Z (start at the minimum vertex, head for its larger neighbour)
    coincides with the intended direction; with it, they run opposite.
    """
    if mirror:
        z = list(range(length))
    else:
        z = [(length - k) % length for k in range(length)]
    y = list(range(length, length + helper_len))

    edges = [(z[k], z[(k + 1) % length]) for k in range(length)]
    matching = [(z[i], z[j]) for i, j in chords]
    matching += [(z[i], y[h]) for i, h in rungs]
    matching += [(y[a], y[b]) for a, b in helper_chords]
    cycles = [z]
    if helper_len:
        edges += [(y[k], y[(k + 1) % helper_len]) for k in range(helper_len)]
        cycles.append(y)

    g = Graph(length + helper_len, edges + matching)
    tf = TwoFactor(g, cycles, matching)
    return g, tf, z[0]


@functools.lru_cache(maxsize=None)
def type_0_fixture():
    """A 5-cycle and a 7-cycle joined so both ends of one crossing
    matching edge are deficient of type 0 (and adjacent to each other,
    exercising the blocking logic of the repair phase)."""
    z = 5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(z + i, z + (i + 1) % 7) for i in range(7)]
    matching = [(0, 5), (1, 7), (2, 8), (3, 11), (4, 10), (6, 9)]
    g = Graph(12, edges + matching)
    tf = TwoFactor(g, [list(range(5)), list(range(5, 12))], matching)
    return g, tf, 0


@functools.lru_cache(maxsize=None)
def type_I_fixture(mirror=False):
    """Length-14 ring whose focus chord sees a 4-cycle only on the mate's
    side; a second type-I vertex comes along for free."""
    return _ring_fixture(
        14,
        chords=[(0, 5), (4, 7), (1, 8), (2, 11), (3, 6), (9, 12), (10, 13)],
        mirror=mirror,
    )


@functools.lru_cache(maxsize=None)
def type_Ia_fixture(mirror=False):
    return _ring_fixture(
        10,
        chords=[(0, 4), (2, 5), (8, 3)],
        rungs=[(1, 0), (6, 1), (7, 2), (9, 3)],
        helper_len=4,
        mirror=mirror,
    )


@functools.lru_cache(maxsize=None)
def type_Ib_fixture(mirror=False):
    return _ring_fixture(
        10,
        chords=[(0, 4), (2, 5), (8, 3), (1, 6)],
        rungs=[(7, 0), (9, 3)],
        helper_len=6,
        helper_chords=[(1, 4), (2, 5)],
        mirror=mirror,
    )


@functools.lru_cache(maxsize=None)
def type_II_fixture(mirror=False):
    return _ring_fixture(
        12,
        chords=[(0, 4), (11, 6), (10, 5), (9, 1)],
        rungs=[(2, 0), (3, 1), (7, 2), (8, 3)],
        helper_len=4,
        mirror=mirror,
    )


@functools.lru_cache(maxsize=None)
def type_IIa_fixture(mirror=False):
    return _ring_fixture(
        10,
        chords=[(0, 4), (8, 5), (7, 1), (9, 6)],
        rungs=[(2, 0), (3, 3)],
        helper_len=6,
        helper_chords=[(1, 4), (2, 5)],
        mirror=mirror,
    )


@functools.lru_cache(maxsize=None)
def type_III_fixture(mirror=False):
    return _ring_fixture(
        12,
        chords=[(0, 4), (10, 5), (9, 1), (7, 3), (11, 8)],
        rungs=[(2, 0), (6, 3)],
        helper_len=6,
        helper_chords=[(1, 4), (2, 5)],
        mirror=mirror,
    )


@functools.lru_cache(maxsize=None)
def mixed_deficiency_fixture():
    """One ring holding a type-I vertex and an Ia/Ia* pair at once; the
    deficient vertices form a path, so the repair plan needs nontrivial
    neighbour bookkeeping."""
    return _ring_fixture(
        12,
        chords=[(0, 5), (4, 7), (1, 9), (2, 6), (3, 10), (8, 11)],
        mirror=True,  # labels are direction-symmetric claims either way
    )


PATTERN_FIXTURES = {
    "I": type_I_fixture,
    "Ia": type_Ia_fixture,
    "Ib": type_Ib_fixture,
    "II": type_II_fixture,
    "IIa": type_IIa_fixture,
    "III": type_III_fixture,
}


# -- randomized fixtures ---------------------------------------------------------


def random_fixture(rng, min_n=10, max_n=16):
    """A random cubic triangle-free graph with a designated two-factor.

    Draws a cycle-length partition (parts >= 4) and then rejection-samples
    a perfect matching on top until the result is simple and
    triangle-free.  Returns (g, tf).
    """
    while True:
        n = 2 * rng.randrange(min_n // 2, max_n // 2 + 1)
        lengths = []
        left = n
        while left:
            if left < 8:
                lengths.append(left)
                break
            top = min(left - 4, n)
            pick = rng.randrange(4, top + 1)
            if left - pick < 4:
                pick = left
            lengths.append(pick)
            left -= pick
        verts = list(range(n))
        rng.shuffle(verts)
        cycles = []
        at = 0
        for L in lengths:
            cycles.append(verts[at:at + L])
            at += L
        f_edges = []
        for cyc in cycles:
            f_edges += [(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))]
        fset = {(min(a, b), max(a, b)) for a, b in f_edges}

        for _ in range(200):
            pool = list(range(n))
            rng.shuffle(pool)
            matching = [(pool[2 * i], pool[2 * i + 1]) for i in range(n // 2)]
            if any((min(a, b), max(a, b)) in fset for a, b in matching):
                continue
            g = Graph(n, f_edges + matching)
            if _has_triangle(g):
                continue
            return g, TwoFactor(g, cycles, matching)


def _has_triangle(g):
    for a, b in g.edges:
        for c in g.adj[a]:
            if c != b and g.has_edge(c, b):
                return True
    return False
