"""The four workloads: how each turns a seed into inputs, runs its ops
and checks what came out.

Every op is timed on its own.  A CLI op is one in-process
``fracchrom.cli.run(argv)`` call whose standard output is kept as the op's
output; a ``lemma4-sweep`` op is one library call.  ``prepare`` writes the
inputs into the current directory (a fresh one per pass), so file names,
and therefore outputs, are the same in every pass of a seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


# -- inputs -------------------------------------------------------------------


def decode_graph6(text: str):
    """(n, edges) of a short-form graph6 string; the benchmark's own
    decoder, so that its inputs and checks do not rest on the program's."""
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0]
    bits = [(x >> (5 - i)) & 1 for x in data[1:] for i in range(6)]
    edges, k = [], 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


def generalized_petersen(n: int, k: int):
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return 2 * n, edges


def bridged_composite(a, b, edge_a, edge_b):
    """Subdivide one edge of each graph and join the two new vertices by
    a bridge."""
    def subdivide(graph, edge):
        n, edges = graph
        u, v = edge
        return n + 1, [e for e in edges if e != edge] + [(u, n), (v, n)]

    (na, ea), (nb, eb) = subdivide(a, edge_a), subdivide(b, edge_b)
    edges = ea + [(u + na, v + na) for u, v in eb] + [(na - 1, na + nb - 1)]
    return na + nb, edges


def write_edge_list(path: str, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    Path(path).write_text("\n".join(lines) + "\n")


def load_corpus():
    """Every shipped corpus graph as (n, graph6, deficient count)."""
    search = json.loads((CORPUS / "deficiency_search.json").read_text())
    deficient = {row["graph6"]: len(row["deficient"]) for row in search["graphs"]}
    graphs = []
    for path in sorted(CORPUS.glob("*.g6")):
        for line in path.read_text().split():
            graphs.append((decode_graph6(line)[0], line, deficient[line]))
    return graphs


def by_order(graphs):
    out: dict[int, list] = {}
    for g in graphs:
        out.setdefault(g[0], []).append(g)
    return out


# -- timing -------------------------------------------------------------------


class Ops:
    """Runs and times the ops of one pass.

    Outputs go to a file each, outside the timed part, so that the pass
    holds no more of them in memory than a CLI user's process would."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outputs: list[tuple[str, Path]] = []  # (label, saved output)
        self.output_bytes = 0
        self.digests: list[str] = []

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.latencies.append(time.perf_counter() - start)

    def cli(self, label: str, argv: list) -> int:
        from fracchrom import cli  # only workers import the program
        out, err = _Sink(), _Sink()
        code = self.call(cli.run, argv, out=out, err=err)
        if code == 0:
            self.save(label, "".join(out.parts))
        else:
            self.save(label, f"exit {code}: " + "".join(err.parts))
        return code

    def save(self, label: str, text: str) -> None:
        data = text.encode()
        path = Path(f"{label}.out")
        path.write_bytes(data)
        self.outputs.append((label, path))
        self.output_bytes += len(data)
        self.digests.append(hashlib.sha256(data).hexdigest())


class _Sink:
    """A write-only stream that keeps the written strings without copying."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)


def _cli_problems(path: Path):
    """The parsed document of a CLI op's saved output, or why it failed."""
    text = path.read_text()
    if text.startswith("exit "):
        return None, [text.strip()]
    return json.loads(text), []


# -- workloads ----------------------------------------------------------------


class CorpusSweep:
    """``corpus`` on a one-graph directory per graph, every order drawn."""

    PER_ORDER = {6: 1, 8: 1, 10: 2, 12: 6, 14: 30}

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        pools = by_order(load_corpus())
        picked = [g for n, k in sorted(self.PER_ORDER.items())
                  for g in rng.sample(pools[n], k)]
        rng.shuffle(picked)
        for i, (_, line, _) in enumerate(picked):
            Path(f"c{i:03d}").mkdir()
            Path(f"c{i:03d}/g.g6").write_text(line + "\n")
        return {"graphs": picked}

    def run(self, plan: dict, ops: Ops) -> dict:
        for i in range(len(plan["graphs"])):
            ops.cli(f"c{i:03d}", ["corpus", f"c{i:03d}"])
        return {"graphs": len(plan["graphs"])}

    def check(self, plan: dict, outputs: list) -> list:
        failed = []
        for (_, _, expected), (label, path) in zip(plan["graphs"], outputs):
            doc, problems = _cli_problems(path)
            if doc is not None:
                problems = checks.corpus_row(doc["rows"][0], expected)
            failed += [f"{label}: {p}" for p in problems[:1]]
        return failed


class CertifyLadder:
    """``certify`` on a generalized Petersen ladder plus one bridged
    composite (n=16) of the subdivided n=6 corpus graph and 3-cube, the
    seed choosing the two subdivided edges.

    The other n=8 corpus graph is left out of the composite: one of its
    edge choices makes ``certify`` take 30 s, which would dominate every
    check, while the cube sides cost 1-3 s whatever the edge."""

    LADDER = ((5, 2), (7, 2), (8, 3), (9, 2), (10, 3))
    CUBE = "GlCiKS"  # the 3-cube, as it appears in the n=8 corpus file

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        six = decode_graph6(by_order(load_corpus())[6][0][1])
        cube = decode_graph6(self.CUBE)
        graphs = [(f"gp{n}_{k}", generalized_petersen(n, k)) for n, k in self.LADDER]
        graphs.append(("bridged", bridged_composite(
            six, cube, rng.choice(six[1]), rng.choice(cube[1]))))
        for name, (n, edges) in graphs:
            write_edge_list(f"{name}.txt", n, edges)
        return {"graphs": graphs}

    def run(self, plan: dict, ops: Ops) -> dict:
        for name, _ in plan["graphs"]:
            ops.cli(name, ["certify", f"{name}.txt"])
        return {"graphs": len(plan["graphs"])}

    def check(self, plan: dict, outputs: list) -> list:
        failed = []
        for (_, (n, edges)), (label, path) in zip(plan["graphs"], outputs):
            doc, problems = _cli_problems(path)
            if doc is not None:
                problems = checks.certificate(doc["certificate"], n, edges)
            failed += [f"{label}: {p}" for p in problems[:1]]
        return failed


class McSampling:
    """``prob --trials`` on distinct n=12 corpus graphs, half of them with
    deficient vertices (five-phase replay), half without (trial kernel)."""

    PER_KIND = 5
    TRIALS_KERNEL = 80_000
    TRIALS_REPLAY = 16_000
    EQUIVALENCE_TRIALS = 5_000

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        twelve = by_order(load_corpus())[12]
        clean = rng.sample([g for g in twelve if g[2] == 0], self.PER_KIND)
        deficient = rng.sample([g for g in twelve if g[2] > 0], self.PER_KIND)
        picked = [(g, self.TRIALS_KERNEL) for g in clean]
        picked += [(g, self.TRIALS_REPLAY) for g in deficient]
        rng.shuffle(picked)
        ops = []
        for i, ((_, line, _), trials) in enumerate(picked):
            Path(f"m{i:02d}.g6").write_text(line + "\n")
            ops.append((f"m{i:02d}", line, trials, rng.getrandbits(64)))
        return {"ops": ops}

    def run(self, plan: dict, ops: Ops) -> dict:
        for name, _, trials, seed in plan["ops"]:
            ops.cli(name, ["prob", f"{name}.g6", "--trials", str(trials),
                           "--seed", str(seed), "--workers", "1"])
        return {"graphs": len(plan["ops"]),
                "trials": sum(trials for _, _, trials, _ in plan["ops"])}

    def check(self, plan: dict, outputs: list) -> list:
        failed = []
        exact_ops = Ops()
        for (name, _, _, _), (label, path) in zip(plan["ops"], outputs):
            doc, problems = _cli_problems(path)
            if doc is not None:
                exact_ops.cli(f"{name}-exact", ["prob", f"{name}.g6", "--exact"])
                exact, problems = _cli_problems(exact_ops.outputs[-1][1])
                if exact is not None:
                    problems = checks.monte_carlo(doc, exact["marginals"])
            failed += [f"{label}: {p}" for p in problems[:1]]
        failed += self.kernel_equivalence(plan)
        return failed

    def kernel_equivalence(self, plan: dict) -> list:
        """The compiled trial kernel must give the pure-Python kernel's
        counts bit for bit.  ``self.equivalence`` says whether it ran."""
        from fracchrom import _mcphases_py
        from fracchrom.graph_core import parse_graph6
        from fracchrom.sampler import _kernel_args
        from fracchrom.two_factor import select_two_factor
        try:
            from fracchrom import _mcphases
        except ImportError:
            self.equivalence = "skipped: compiled kernel not built"
            return []
        failed = []
        for name, line, trials, seed in plan["ops"]:
            if trials != self.TRIALS_KERNEL:
                continue
            g = parse_graph6(line)
            args = (g.n,) + _kernel_args(g, select_two_factor(g))
            runs = [k.run_trials(*args, self.EQUIVALENCE_TRIALS, seed, 0, False)
                    for k in (_mcphases_py, _mcphases)]
            if list(runs[0][0]) != list(runs[1][0]) or runs[0][1] != runs[1][1]:
                failed.append(f"{name}: compiled and pure-Python kernels disagree")
        self.equivalence = "failed" if failed else "passed"
        return failed


class Lemma4Sweep:
    """Every builtin and valid sigma-library template at every vertex of
    GP(8,3) and of seed-drawn n=12/n=14 corpus graphs, against the exact law.
    The output of a graph is one line of results per template."""

    PER_ORDER = {12: 8, 14: 9}

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        pools = by_order(load_corpus())
        graphs = [("gp8_3", generalized_petersen(8, 3))]
        for n, k in sorted(self.PER_ORDER.items()):
            graphs += [(f"n{n}_{pools[n].index(g)}", decode_graph6(g[1]))
                       for g in rng.sample(pools[n], k)]
        return {"graphs": graphs}

    def run(self, plan: dict, ops: Ops) -> dict:
        from fracchrom import sampler as S
        from fracchrom import templates as T
        from fracchrom.graph_core import Graph
        from fracchrom.two_factor import select_two_factor

        candidates = 0
        for name, (n, edges) in plan["graphs"]:
            g = Graph(n, edges)
            tf = ops.call(select_two_factor, g)
            rows = []
            for u in range(n):
                templates = []
                for tname in T.BUILTIN_NAMES:
                    try:
                        templates.append((tname, ops.call(T.builtin, tname, tf, u)))
                    except T.TemplateError:
                        pass  # this graph's geometry rules the placement out
                library = ops.call(T.sigma_library, tf, u)
                templates += [(lname, t) for lname, t in library if t is not T.INVALID]
                for label, t in templates:
                    adm = ops.call(S.admissible, t, g, tf)
                    q = ops.call(S.exact_q, t, g, tf)
                    q_up = ops.call(T.q_upper, t, g, tf)
                    pairs = ops.call(T.sensitive_pairs, t, g, tf)
                    exact = ops.call(S.event_probability, t, g, tf)
                    forced = ops.call(S.forces, t, u, g, tf)
                    bound = ops.call(T.lemma4_lower_bound, t, pairs, q)
                    rows.append((u, label, adm, q, q_up, exact, bound, forced))
                candidates += len(templates)
            ops.save(name, "".join(" ".join(map(str, row)) + "\n" for row in rows))
        return {"graphs": len(plan["graphs"]), "templates": candidates}

    def check(self, plan: dict, outputs: list) -> list:
        failed = []
        for name, path in outputs:
            for line in path.read_text().splitlines():
                u, label, adm, q, q_up, exact, bound, _ = line.split(" ")
                problems = checks.lemma4_row(
                    Fraction(exact), Fraction(bound), Fraction(q), Fraction(q_up),
                    adm == "True")
                failed += [f"{name} u={u} {label}: {p}" for p in problems[:1]]
        return failed


WORKLOADS = {
    "corpus-sweep": CorpusSweep,
    "certify-ladder": CertifyLadder,
    "mc-sampling": McSampling,
    "lemma4-sweep": Lemma4Sweep,
}
