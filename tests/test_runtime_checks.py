"""Runtime invariants are explicit checks, so they still fire under
``python -O`` (which strips ``assert`` statements).

Each case runs in a fresh ``python -O`` interpreter and breaks one step of
the construction so that it yields a dependent set.  A single run must
raise the ``RuntimeError`` that the CLI maps to exit code 4; the Monte
Carlo loop must report every trial as a violation.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import sys
from fracchrom import _mcphases_py as K, augment as A, sampler as S
from fracchrom.graph_core import parse_graph6
from fracchrom.two_factor import select_two_factor

g = parse_graph6("IlDGHCH_g")
tf = select_two_factor(g)
everything = (1 << g.n) - 1
"""

CASES = {
    # the repair may swap on any set, so its cascade reaches dependent
    # sets; building the plan that run_phase5 executes checks each once
    "run_phase5": """
A._favourable = lambda g, u, s, J: True
A.exact_phase5_distribution(g, tf)
""",
    # phases 2 and 4 of the exact law promote every vertex
    "compute_law": """
K._isolated = lambda adj_mask, mask: everything
S.enumerate_distribution(g, tf)
""",
    # phase 2 of the mask-level trial promotes every vertex
    "run_phases_1_4": """
K._isolated = lambda adj_mask, mask: everything
S.run_phases_1_4(g, tf, S.SplitMix64(0))
""",
}


def _run_optimized(body):
    """The standard output of ``PRELUDE`` and ``body`` in ``python -O``."""
    code = (PRELUDE
            + "if not sys.flags.optimize:\n    sys.exit('not optimized')\n"
            + body)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("case", sorted(CASES))
def test_dependent_set_raises_under_optimize(case):
    body = textwrap.indent(CASES[case].strip(), "    ")
    out = _run_optimized(
        "try:\n" + body + "\n"
        + "except RuntimeError as exc:\n    print('raised:', exc)\n"
        + "else:\n    print('no error')\n")
    assert out.startswith("raised:"), out
    assert "dependent set" in out


def test_monte_carlo_counts_every_dependent_trial_under_optimize():
    # phase 2 promotes every vertex; the table lookups of phases 1 and 3
    # must leave each trial's output to the independence check
    out = _run_optimized("""
K._isolated = lambda adj_mask, mask: everything
report = S.monte_carlo(g, tf, 500, 3)
print(report.violations, set(report.counts))
""")
    assert out.split() == ["500", "{500}"]
