"""Command-line front end.

Every command reads a graph file (graph6 or plain edge-list, sniffed
from the content), does its work through the library, and prints one
JSON document (or a plain-text rendering with ``--format text``).
Outputs are deterministic: same input and same seed give byte-identical
bytes, rationals are printed as ``num/den`` strings, and randomized
commands always echo the seed they ran with so any run can be replayed.

Exit codes: 0 success; 2 the input failed validation (unreadable,
malformed, or outside the class a command requires); 3 an explosion
guard stopped the computation; 4 an internal invariant was violated
(these indicate a bug and are always worth reporting).
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from fractions import Fraction
from pathlib import Path

from .augment import (
    DeficiencyError,
    build_phase5_plan,
    deficiency_report,
    exact_phase5_distribution,
)
from .fractional_lp import (
    ColouringError,
    chi_f_exact,
    chi_f_upper_subcubic,
)
from .graph_core import Graph, GraphError, GuardExceeded, analyze, parse_edge_list, parse_graph6
from .sampler import check_orientations, enumerate_distribution, monte_carlo
from .two_factor import (
    NoQualifyingTwoFactor,
    TwoFactorError,
    satisfies_ks_condition,
    select_two_factor,
    two_factor_from_json_dict,
    two_factor_to_json_dict,
)

__all__ = ["main", "run",
           "cmd_validate", "cmd_two_factor", "cmd_prob",
           "cmd_chif", "cmd_certify", "cmd_corpus"]

LOWER_BOUND_NUM = 88  # per-vertex guarantee is (88 + epsilon)/256

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4

_VALIDATION_ERRORS = (
    GraphError,
    TwoFactorError,
    NoQualifyingTwoFactor,
    DeficiencyError,
    ColouringError,
    OSError,
    json.JSONDecodeError,
)
# RuntimeError covers BiasInfeasible, PreconditionFailure and MergeFailure
_INVARIANT_ERRORS = (AssertionError, RuntimeError)


def _check_ranges(args: argparse.Namespace) -> None:
    """Refuse a seed outside 64 bits and a guard or trial count below 1."""
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 1 << 64:
        raise GraphError("seed must fit in 64 bits")
    for dest, name in (("trials", "trials"), ("max_orient", "max_orientations"),
                       ("max_branches", "max_branches")):
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise GraphError(f"{name} must be positive")


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_graph(path: str) -> Graph:
    return _parse_graph_text(_read_text(path), path)


def _data_lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor comments."""
    return [s for s in (line.strip() for line in text.splitlines())
            if s and not s.startswith("#")]


def _parse_graph_text(text: str, origin: str) -> Graph:
    lines = _data_lines(text)
    if not lines:
        raise GraphError(f"{origin}: no graph data")
    head = lines[0].split()
    if len(head) == 2 and all(tok.isdigit() for tok in head):
        return parse_edge_list(text)
    if len(lines) > 1:
        raise GraphError(
            f"{origin}: {len(lines)} graphs in file; expected exactly one"
        )
    return parse_graph6(lines[0])


def _load_two_factor(g: Graph, path: str):
    try:
        data = json.loads(_read_text(path))
    except RecursionError:
        raise TwoFactorError(f"{path}: JSON nested too deeply") from None
    return two_factor_from_json_dict(g, data)


def _law_options(args: argparse.Namespace) -> dict:
    """The options every exact-law computation of a command runs with."""
    return {"max_orientations": args.max_orient,
            "max_branches": args.max_branches}


def _pick_two_factor(g: Graph, args: argparse.Namespace):
    if args.two_factor:
        return _load_two_factor(g, args.two_factor), "pinned"
    return select_two_factor(g), "selected"


# -- commands ---------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> dict:
    g = _read_graph(args.path)
    report = analyze(g)
    payload = {"command": "validate", "input": args.path, **report.to_json_dict()}
    passed = not args.require_cubic_triangle_free or (
        report.is_cubic and report.is_triangle_free)
    payload["verdict"] = "pass" if passed else "fail"
    return payload


def cmd_two_factor(args: argparse.Namespace) -> dict:
    g = _read_graph(args.path)
    tf, origin = _pick_two_factor(g, args)
    return {
        "command": "two-factor",
        "input": args.path,
        "origin": origin,
        "cycle_count": len(tf.cycles),
        "cycle_lengths": [len(c) for c in tf.cycles],
        # a selected two-factor meets the cut condition by construction
        "meets_cut_condition": origin == "selected" or satisfies_ks_condition(g, tf),
        **two_factor_to_json_dict(tf),
    }


def _epsilon_payload(g: Graph, tf) -> tuple[dict, list]:
    recs = deficiency_report(g, tf)
    eps_table = {str(r.vertex): str(r.epsilon) for r in recs}
    deficient = [r.to_json_dict() for r in recs if r.deficient]
    return eps_table, deficient


def _exact_prob(args: argparse.Namespace, g: Graph, tf) -> dict:
    _, result = exact_phase5_distribution(g, tf, **_law_options(args))
    eps_table, deficient = _epsilon_payload(g, tf)
    marginals = {str(v): str(result.marginals[v]) for v in range(g.n)}
    lo = min((result.marginals[v] for v in range(g.n)), default=Fraction(1))
    return {
        "mode": "exact",
        "phase4": "start",  # the one reading; kept so the format is unchanged
        "marginals": marginals,
        "epsilon": eps_table,
        "deficiency_report": deficient,
        "min_marginal": str(lo),
        "threshold": f"{LOWER_BOUND_NUM}/256",
        "meets_threshold": lo >= Fraction(LOWER_BOUND_NUM, 256),
    }


def _monte_carlo_prob(args: argparse.Namespace, g: Graph, tf) -> dict:
    eps_table, deficient = _epsilon_payload(g, tf)
    plan = None
    if deficient:
        # the repair phase needs the exact plan, not the repaired law; a trial
        # whose output has a planned swap runs it after phases 1-4, on its stream
        law = enumerate_distribution(g, tf, **_law_options(args)).distribution
        plan = build_phase5_plan(g, tf, law)
    seed = secrets.randbits(64) if args.seed is None else args.seed
    report = monte_carlo(g, tf, args.trials, seed, plan=plan)
    lo = min((report.frequency(v) for v in range(g.n)), default=Fraction(1))
    return {
        "mode": "monte-carlo",
        "phase4": "start",  # as in _exact_prob
        "seed": seed,
        "trials": args.trials,
        "epsilon": eps_table,
        "deficiency_report": deficient,
        "threshold": f"{LOWER_BOUND_NUM}/256",
        "backend": report.backend,
        "violations": report.violations,
        "counts": list(report.counts),
        "frequencies": [str(report.frequency(v)) for v in range(g.n)],
        "min_frequency": str(lo),
        "meets_threshold": lo >= Fraction(LOWER_BOUND_NUM, 256),
    }


def cmd_prob(args: argparse.Namespace) -> dict:
    g = _read_graph(args.path)
    if args.exact and not args.two_factor and set(g.degrees()) == {3}:
        check_orientations(g, args.max_orient)
    tf, origin = _pick_two_factor(g, args)
    body = _exact_prob(args, g, tf) if args.exact else _monte_carlo_prob(args, g, tf)
    return {
        "command": "prob",
        "input": args.path,
        "two_factor": {"origin": origin, **two_factor_to_json_dict(tf)},
        **body,
    }


def cmd_chif(args: argparse.Namespace) -> dict:
    g = _read_graph(args.path)
    value, primal, dual = chi_f_exact(g)
    return {
        "command": "chif",
        "input": args.path,
        "chi_f": str(value),
        "weighting": primal.to_json_dict(),
        "dual_clique": {str(v): str(q) for v, q in sorted(dual.items()) if q > 0},
    }


def cmd_certify(args: argparse.Namespace) -> dict:
    g = _read_graph(args.path)
    bound, cert = chi_f_upper_subcubic(g, **_law_options(args))
    # chi_f_upper_subcubic verifies the certificate and raises otherwise
    return {
        "command": "certify",
        "input": args.path,
        "bound": str(bound),
        "verified": True,
        "certificate": cert.to_json_dict(),
    }


def _corpus_row(origin: str, g: Graph, args: argparse.Namespace) -> dict:
    report = analyze(g)
    row = {
        "graph": origin,
        "n": g.n,
        "m": g.m,
        "is_connected": report.is_connected,
        "is_cubic": report.is_cubic,
        "is_triangle_free": report.is_triangle_free,
        "is_bridgeless": report.is_bridgeless,
        "chi_f": None,
        "min_marginal": None,
        "deficient_count": None,
    }
    try:
        row["chi_f"] = str(chi_f_exact(g)[0])
    except GuardExceeded:
        pass
    if (report.is_cubic and report.is_triangle_free
            and report.is_bridgeless and report.is_connected):
        try:
            tf = select_two_factor(g)
        except NoQualifyingTwoFactor:
            row["deficient_count"] = "no-qualifying-two-factor"
            return row
        recs = deficiency_report(g, tf)
        deficient = [r for r in recs if r.deficient]
        row["deficient_count"] = len(deficient)
        if args.search:
            row["deficient"] = [r.to_json_dict() for r in deficient]
        try:
            _, result = exact_phase5_distribution(g, tf, **_law_options(args))
        except GuardExceeded:
            return row
        row["min_marginal"] = str(min(result.marginals[v] for v in range(g.n)))
    return row


def cmd_corpus(args: argparse.Namespace) -> dict:
    root = Path(args.path)
    if not root.is_dir():
        raise GraphError(f"{root}: not a directory")
    rows = []
    for path in sorted(root.glob("*.g6")):
        lines = _data_lines(_read_text(path))
        for i, line in enumerate(lines, start=1):
            origin = f"{path.name}:{i}" if len(lines) > 1 else path.name
            rows.append(_corpus_row(origin, parse_graph6(line), args))
    if args.search:
        rows = [r for r in rows if r.get("deficient_count") not in (0, None)]
    return {
        "command": "corpus",
        "input": args.path,
        "search": args.search,
        "count": len(rows),
        "rows": rows,
    }


# -- plumbing ---------------------------------------------------------------------


_COMMANDS = {
    "validate": cmd_validate,
    "two-factor": cmd_two_factor,
    "prob": cmd_prob,
    "chif": cmd_chif,
    "certify": cmd_certify,
    "corpus": cmd_corpus,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracchrom",
        description="Fractional-colouring toolkit for triangle-free subcubic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every option once, each stored under its own name (--max-orient in
    # args.max_orient); each command adds only those it reads
    options = {
        "--seed": dict(type=int, help="64-bit seed; drawn and echoed when omitted"),
        "--trials": dict(type=int, default=10000),
        "--exact": dict(action="store_true",
                        help="exact enumeration instead of Monte Carlo"),
        "--max-orient": dict(type=int),
        "--max-branches": dict(type=int),
        "--two-factor": dict(metavar="FILE", help="pin the two-factor from a JSON file"),
        "--format": dict(choices=("json", "text"), default="json"),
        "--workers": dict(type=int,
                          help="accepted and ignored: Monte Carlo runs on one thread"),
        "--require-cubic-triangle-free": dict(action="store_true"),
        "--search": dict(
            action="store_true",
            help="keep only graphs whose selected two-factor has deficient vertices"),
    }

    def add(name, help_, path_help, *flags):
        p = sub.add_parser(name, help=help_)
        p.add_argument("path", help=path_help)
        for flag, spec in options.items():
            if flag == "--format" or flag in flags:
                p.add_argument(flag, **spec)

    law = ("--max-orient", "--max-branches")
    add("validate", "parse a graph and report its structure", "graph file",
        "--require-cubic-triangle-free")
    add("two-factor", "select (or load) a qualifying two-factor", "graph file",
        "--two-factor")
    add("prob", "per-vertex inclusion probabilities, exact or sampled", "graph file",
        "--seed", "--trials", "--exact", *law, "--two-factor", "--workers")
    add("chif", "exact fractional chromatic number with certificates", "graph file")
    add("certify", "32/11 multiset certificate for a subcubic graph", "graph file",
        *law)
    add("corpus", "summarize every graph6 file in a directory", "directory",
        *law, "--search")
    return parser


_CSV_COLUMNS = (
    "graph", "n", "m", "is_connected", "is_cubic", "is_triangle_free",
    "is_bridgeless", "chi_f", "min_marginal", "deficient_count",
)


def _render_corpus_csv(payload: dict) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for row in payload["rows"]:
        lines.append(",".join(_csv_cell(row.get(c)) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _text_parts(key, value, depth: int, parts: list) -> None:
    """Append the ``--format text`` lines of one payload entry to ``parts``."""
    pad = "  " * depth
    if isinstance(value, dict):
        parts.append(f"{pad}{key}:\n")
        for k2, v2 in value.items():
            _text_parts(k2, v2, depth + 1, parts)
    elif isinstance(value, list):
        # an empty list keeps the space after the colon
        parts.append(f"{pad}{key}: " + " ".join(map(_scalar, value)) + "\n")
    else:
        parts.append(f"{pad}{key}: {_scalar(value)}\n")


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if payload.get("command") == "corpus":
        return _render_corpus_csv(payload)
    parts = []
    for k, v in payload.items():
        _text_parts(k, v, 0, parts)
    return "".join(parts)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def run(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        payload = _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        err.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except GuardExceeded as exc:
        err.write(f"guard exceeded: {exc}\n")
        return EXIT_GUARD
    except _INVARIANT_ERRORS as exc:
        err.write(f"internal invariant violated ({type(exc).__name__}): {exc}\n")
        return EXIT_INVARIANT
    text = _render(payload, args.format)
    # a failed verdict still prints its report
    code = EXIT_VALIDATION if payload.get("verdict") == "fail" else EXIT_OK
    out.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
