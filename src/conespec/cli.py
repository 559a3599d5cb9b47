"""Command-line front end: analyze, solve, graph, and game subcommands.

Exit codes for analyze/game: 0 = nonempty bounded eigenspace, 2 = no
interior eigenvector, 3 = indeterminate, 1 = usage/parse error.  solve exits
4 when the iteration does not reach the residual within budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .core import INF, Side, SubsetMask
from .errors import ConespecError, DimensionTooLargeError
from .existence import SUBSET_SWEEP_CAP, Verdict, VerdictKind, classify
from .graphs import HypergraphProbe, digraph_of, digraph_to_dot, \
    hypergraph_to_dot
from .spectral import NonconvergedError, cw_upper, solve_eigenvector
from .topical import build_shapley, check_additive_eigenvector, mean_payoff
from . import dsl

EXIT_BY_KIND = {
    VerdictKind.NONEMPTY_BOUNDED: 0,
    VerdictKind.NO_INTERIOR_EIGENVECTOR: 2,
    VerdictKind.INDETERMINATE: 3,
}

CONVEX_CAP = 10_000


@dataclass
class RunConfig:
    tolerance: float = 1e-9
    budget: int = 10_000
    max_n: int = SUBSET_SWEEP_CAP
    output: str = "json"
    prune: bool = True
    workers: int = 1
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
                        "upper": _num(verdict.displacement.upper)}
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
                       prune=config.prune, workers=config.workers)
    elapsed = time.monotonic() - start if config.timing else None
    _print_doc(verdict_doc(verdict, elapsed), config)
    return EXIT_BY_KIND[verdict.kind]


def cmd_solve(path: str, config: RunConfig) -> int:
    f = dsl.parse_map(_read_text(path)).cone_map
    try:
        result = solve_eigenvector(f, budget=config.budget)
    except NonconvergedError as exc:
        doc = {"converged": False,
               "bracket": _bracket_doc(exc.bracket),
               "iterations": exc.bracket.iterations}
        _print_doc(doc, config) if config.output == "json" else print(
            f"no convergence; bracket [{exc.bracket.lower}, {exc.bracket.upper}]")
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
    bracket = cw_upper(T.conjugate, config.budget)
    doc = verdict_doc(verdict.multiplicative, elapsed)
    doc["scale"] = "additive"
    doc["additive_eigenvalue_bracket"] = {
        "lower": _num(math.log(bracket.lower) if bracket.lower > 0 else -INF),
        "upper": _num(math.log(bracket.upper) if bracket.upper < INF else INF),
        "converged": bracket.converged,
    }
    if verdict.eigen is not None:
        doc["eigen"] = {"eigenvalue": verdict.eigen.eigenvalue,
                        "vector": list(verdict.eigen.vector),
                        "residual": verdict.eigen.residual,
                        "iterations": verdict.eigen.iterations}
    for cert, entry in zip(verdict.certificates, doc["subsets"]):
        if cert.r_bracket is not None or cert.lambda_bracket is not None:
            entry["brackets"] = {
                "r": {"lower": _num(cert.r_bracket.lower),
                      "upper": _num(cert.r_bracket.upper),
                      "converged": cert.r_bracket.converged}
                if cert.r_bracket else None,
                "lambda": {"lower": _num(cert.lambda_bracket.lower),
                           "upper": _num(cert.lambda_bracket.upper),
                           "converged": cert.lambda_bracket.converged}
                if cert.lambda_bracket else None,
            }
    horizons = (64, 256, 1024)
    doc["mean_payoff"] = {
        str(k): [mean_payoff(T, s, k) for s in range(T.n)] for k in horizons}
    _print_doc(doc, config)
    return EXIT_BY_KIND[verdict.kind]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conespec",
        description="Existence and computation of positive eigenvectors of "
                    "order-preserving homogeneous maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input file, or - for stdin")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="strictness tolerance (default 1e-9)")
        p.add_argument("--budget", type=int, default=10_000,
                       help="iteration budget (default 10000)")
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--no-prune", action="store_true",
                       help="disable subset pruning (debug)")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel subset checks")
        p.add_argument("--max-n", type=int, default=SUBSET_SWEEP_CAP,
                       help="cap for the generic subset sweep")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the output (not reproducible)")

    for name in ("analyze", "solve", "game"):
        p = sub.add_parser(name)
        common(p)
    p = sub.add_parser("graph")
    common(p)
    p.add_argument("--which", choices=("G", "Hminus", "Hplus"), default="G",
                   help="which structure to emit as DOT")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(tolerance=args.tol, budget=args.budget,
                       max_n=args.max_n, output=args.format,
                       prune=not args.no_prune, workers=args.workers,
                       timing=args.timing)
    if config.tolerance <= 0 or config.budget < 1:
        print("tolerance must be positive and budget at least 1",
              file=sys.stderr)
        return 1
    try:
        if args.command == "analyze":
            return cmd_analyze(args.file, config)
        if args.command == "solve":
            return cmd_solve(args.file, config)
        if args.command == "graph":
            return cmd_graph(args.file, args.which, config)
        if args.command == "game":
            return cmd_game(args.file, config)
    except ConespecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
