"""Command-line front end: analyze, solve, graph, and game subcommands.

Exit codes for analyze/game: 0 = nonempty bounded eigenspace, 2 = no
interior eigenvector, 3 = indeterminate, 1 = usage/parse error.  solve exits
4 when the iteration does not reach the residual within budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional

from .core import INF, Side, SubsetMask
from .errors import ConespecError, DimensionTooLargeError
from .existence import (STRICTNESS_TOL, SUBSET_SWEEP_CAP, Verdict,
                        VerdictKind, classify)
from .graphs import HypergraphProbe, digraph_of, digraph_to_dot, \
    hypergraph_to_dot
from .spectral import (DEFAULT_BUDGET, NonconvergedError, cw_upper,
                       solve_eigenvector)
from .topical import (build_shapley, check_additive_eigenvector, mean_payoff,
                      _convert_bracket)
from . import dsl

EXIT_BY_KIND = {
    VerdictKind.NONEMPTY_BOUNDED: 0,
    VerdictKind.NO_INTERIOR_EIGENVECTOR: 2,
    VerdictKind.INDETERMINATE: 3,
}

CONVEX_CAP = 10_000


@dataclass
class RunConfig:
    tolerance: float = STRICTNESS_TOL
    budget: int = DEFAULT_BUDGET
    max_n: int = SUBSET_SWEEP_CAP
    output: str = "json"
    prune: bool = True
    timing: bool = False


def _num(v: Optional[float]):
    if v is None:
        return None
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return v


def _bracket_doc(b):
    if b is None:
        return None
    return {"lower": _num(b.lower), "upper": _num(b.upper),
            "converged": b.converged}


def _mask_doc(mask: Optional[SubsetMask]):
    if mask is None:
        return None
    return [j + 1 for j in mask.indices()]


def verdict_doc(verdict: Verdict, timing: Optional[float] = None) -> dict:
    subsets = []
    for cert in verdict.certificates:
        entry = {
            "subset": _mask_doc(cert.subset),
            "route": cert.route.value,
            "brackets": None,
            "pruned_by": _mask_doc(cert.pruned_by),
        }
        if cert.r_bracket is not None or cert.lambda_bracket is not None:
            entry["brackets"] = {"r": _bracket_doc(cert.r_bracket),
                                 "lambda": _bracket_doc(cert.lambda_bracket)}
        subsets.append(entry)
    eigen = None
    if verdict.eigen is not None:
        eigen = {"eigenvalue": verdict.eigen.eigenvalue,
                 "vector": list(verdict.eigen.vector.entries),
                 "residual": verdict.eigen.residual,
                 "iterations": verdict.eigen.iterations}
    displacement = None
    if verdict.displacement is not None:
        displacement = {"lower": _num(verdict.displacement.lower),
                        "upper": _num(verdict.displacement.upper),
                        "converged": verdict.displacement.converged}
    doc = {
        "kind": verdict.kind.value,
        "subsets": subsets,
        "eigen": eigen,
        "uniqueness": verdict.uniqueness.value,
        "convergence": verdict.convergence.value,
        "displacement": displacement,
        "detail": verdict.detail,
        "timing": timing,
    }
    if verdict.convex_report is not None:
        doc["classes"] = [
            {"component": [v + 1 for v in c.component],
             "bracket": _bracket_doc(c.bracket),
             "final": c.final, "basic": c.basic, "primitive": c.primitive}
            for c in verdict.convex_report.classes]
        doc["strongly_nonnegative"] = verdict.convex_report.strongly_nonnegative
    return doc


def _print_doc(doc: dict, config: RunConfig) -> None:
    if config.output == "json":
        print(json.dumps(doc, indent=2))
        return
    print(f"kind: {doc['kind']}")
    for key in ("uniqueness", "convergence", "detail"):
        if doc.get(key) not in (None, "unknown"):
            print(f"{key}: {doc[key]}")
    if doc.get("eigen"):
        e = doc["eigen"]
        print(f"eigenvalue: {e['eigenvalue']}")
        print(f"eigenvector: {e['vector']}")
        print(f"residual: {e['residual']} after {e['iterations']} iterations")
    for key in ("displacement", "additive_eigenvalue_bracket"):
        b = doc.get(key)
        if b:
            state = "converged" if b["converged"] else "not converged"
            print(f"{key}: [{b['lower']}, {b['upper']}] ({state})")
    if doc.get("mean_payoff"):
        print("mean_payoff: " + "; ".join(
            f"{k}: {v}" for k, v in doc["mean_payoff"].items()))
    for entry in doc.get("subsets", []):
        line = f"J={entry['subset']}: {entry['route']}"
        if entry.get("brackets"):
            r = entry["brackets"].get("r")
            lam = entry["brackets"].get("lambda")
            if r:
                line += f"  r in [{r['lower']}, {r['upper']}]"
            if lam:
                line += f"  lambda in [{lam['lower']}, {lam['upper']}]"
        if entry.get("pruned_by"):
            line += f"  (pruned by J={entry['pruned_by']})"
        print(line)
    for cls in doc.get("classes", []):
        flags = [k for k in ("final", "basic", "primitive") if cls[k]]
        b = cls["bracket"]
        print(f"class {cls['component']}: r in [{b['lower']}, {b['upper']}]"
              + (" (" + ", ".join(flags) + ")" if flags else ""))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_analyze(path: str, config: RunConfig) -> int:
    f = dsl.parse_map(_read_text(path)).cone_map
    cap = min(config.max_n, SUBSET_SWEEP_CAP)
    if not f.multiplicatively_convex and f.dimension > cap:
        raise DimensionTooLargeError(
            f"n = {f.dimension} exceeds the generic sweep cap {cap} and the "
            "map is not multiplicatively convex")
    if f.dimension > CONVEX_CAP:
        raise DimensionTooLargeError(f"n = {f.dimension} exceeds {CONVEX_CAP}")
    start = time.monotonic()
    verdict = classify(f, budget=config.budget, tol=config.tolerance,
                       prune=config.prune)
    elapsed = time.monotonic() - start if config.timing else None
    _print_doc(verdict_doc(verdict, elapsed), config)
    return EXIT_BY_KIND[verdict.kind]


def cmd_solve(path: str, config: RunConfig) -> int:
    f = dsl.parse_map(_read_text(path)).cone_map
    try:
        result = solve_eigenvector(f, budget=config.budget)
    except NonconvergedError as exc:
        b = exc.bracket
        if config.output == "json":
            print(json.dumps({"converged": False,
                              "bracket": _bracket_doc(b),
                              "iterations": b.iterations,
                              "timing": None}, indent=2))
        else:
            print(f"no convergence; bracket [{b.lower}, {b.upper}]")
        return 4
    doc = {"converged": True,
           "eigenvalue": result.eigenvalue,
           "vector": list(result.vector.entries),
           "residual": result.residual,
           "iterations": result.iterations,
           "timing": None}
    if config.output == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"eigenvalue: {result.eigenvalue}")
        print(f"eigenvector: {list(result.vector.entries)}")
        print(f"residual: {result.residual} after {result.iterations} iterations")
    return 0


def cmd_graph(path: str, which: str, config: RunConfig) -> int:
    f = dsl.parse_map(_read_text(path)).cone_map
    if which == "G":
        print(digraph_to_dot(digraph_of(f)), end="")
    elif which == "Hminus":
        probe = HypergraphProbe(f, Side.LOWER)
        print(hypergraph_to_dot(probe, name="Hminus0"), end="")
    elif which == "Hplus":
        probe = HypergraphProbe(f, Side.UPPER)
        print(hypergraph_to_dot(probe, name="HplusInf"), end="")
    else:
        raise ConespecError(f"unknown graph {which!r}")
    return 0


def cmd_game(path: str, config: RunConfig) -> int:
    game = dsl.parse_game(_read_text(path))
    T = build_shapley(game)
    start = time.monotonic()
    verdict = check_additive_eigenvector(T, budget=config.budget,
                                         tol=config.tolerance)
    elapsed = time.monotonic() - start if config.timing else None
    # classify bracketed the same map with the same budget and tolerance
    bracket = verdict.multiplicative.r_bracket
    if bracket is None:
        bracket = cw_upper(T.conjugate, config.budget)
    doc = verdict_doc(verdict.multiplicative, elapsed)
    doc["scale"] = "additive"
    doc["additive_eigenvalue_bracket"] = _bracket_doc(_convert_bracket(bracket))
    if verdict.eigen is not None:
        doc["eigen"] = {"eigenvalue": verdict.eigen.eigenvalue,
                        "vector": list(verdict.eigen.vector),
                        "residual": verdict.eigen.residual,
                        "iterations": verdict.eigen.iterations}
    for cert, entry in zip(verdict.certificates, doc["subsets"]):
        if cert.r_bracket is not None or cert.lambda_bracket is not None:
            entry["brackets"] = {"r": _bracket_doc(cert.r_bracket),
                                 "lambda": _bracket_doc(cert.lambda_bracket)}
    report = verdict.multiplicative.convex_report
    if report is not None:
        for cls, entry in zip(report.classes, doc["classes"]):
            entry["bracket"] = _bracket_doc(_convert_bracket(cls.bracket))
    horizons = (64, 256, 1024)
    doc["mean_payoff"] = {
        str(k): [mean_payoff(T, s, k) for s in range(T.n)] for k in horizons}
    _print_doc(doc, config)
    return EXIT_BY_KIND[verdict.kind]


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors exiting 1 like every other input error
    (argparse's own code, 2, means no interior eigenvector here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: each flag, registered only on the subcommands in READERS that read it;
#: the dests of all but --which are RunConfig fields
FLAGS = {
    "--tol": dict(dest="tolerance", type=float, default=STRICTNESS_TOL,
                  help="strictness tolerance (default %(default)g)"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET,
                     help="iteration budget (default %(default)d)"),
    "--format": dict(dest="output", choices=("json", "human"),
                     default="json"),
    "--no-prune": dict(dest="prune", action="store_false",
                       help="disable subset pruning (debug)"),
    "--max-n": dict(type=int, default=SUBSET_SWEEP_CAP,
                    help="cap for the generic subset sweep"),
    "--timing": dict(action="store_true",
                     help="include wall time in the output (not reproducible)"),
    "--which": dict(choices=("G", "Hminus", "Hplus"), default="G",
                    help="which structure to emit as DOT"),
}
READERS = {
    "analyze": ("--tol", "--budget", "--format", "--no-prune", "--max-n",
                "--timing"),
    "solve": ("--budget", "--format"),
    "game": ("--tol", "--budget", "--format", "--timing"),
    "graph": ("--which",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conespec",
        description="Existence and computation of positive eigenvectors of "
                    "order-preserving homogeneous maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in READERS.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="input file, or - for stdin")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = RunConfig(**{f.name: getattr(args, f.name)
                          for f in fields(RunConfig) if hasattr(args, f.name)})
    if not 0.0 < config.tolerance < INF or config.budget < 1:
        print("tolerance must be positive and budget at least 1",
              file=sys.stderr)
        return 1
    try:
        if args.command == "graph":
            code = cmd_graph(args.file, args.which, config)
        else:
            code = {"analyze": cmd_analyze, "solve": cmd_solve,
                    "game": cmd_game}[args.command](args.file, config)
        # a reader that closed stdout shows here rather than at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader wants no more (`| head`): stop quietly, with the
        # status of a process ended by SIGPIPE (13), and flush to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConespecError, OSError) as exc:
        # OSError: an input file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
