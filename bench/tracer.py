"""Spans and counters around conespec's layers, recorded from outside.

The tracer replaces public functions and methods of ``dsl``, ``cli``,
``topical``, ``existence``, ``graphs``, ``spectral`` and ``maps`` with
wrappers that count calls and record a span.  A function imported into
several modules (``cw_upper`` lives in ``spectral`` and is bound again in
``existence``, ``cli`` and the package) is replaced in every module that
binds it, so no call escapes; ``uninstall`` restores every binding.  The
program itself is not modified.

A span's self time is its duration minus the child spans it contains, so
the self times of all groups partition the traced wall time.  Brackets
computed inside ``min_displacement`` are charged to ``min_displacement``.
Map evaluations are counted but not spanned, so their time stays in the
caller's self time.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "conespec"

EXISTENCE = "existence"
PROBE = "graphs.probe"
DIGRAPH = "graphs.digraph_of"
SCC = "graphs.scc_decompose"
BRACKET = "spectral.bracket"
DISPLACEMENT = "spectral.min_displacement"
SOLVE = "spectral.solve"
TRANSFORM = "maps.transform"
TOPICAL = "topical"
PARSE = "dsl.parse"
CLI = "cli"

# (module, attribute, span group or None for count-only, call counter)
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("cli", "main", CLI, None),
    ("dsl", "parse_map", PARSE, "dsl.parse.calls"),
    ("dsl", "parse_game", PARSE, "dsl.parse.calls"),
    ("topical", "build_shapley", TOPICAL, None),
    ("topical", "check_additive_eigenvector", TOPICAL, None),
    ("topical", "mean_payoff", TOPICAL, "topical.mean_payoff.calls"),
    ("topical", "TopicalMap.additive", None, "topical.additive_evals"),
    ("existence", "classify", EXISTENCE, "existence.classify.calls"),
    ("existence", "classify_convex", EXISTENCE, None),
    ("existence", "check_subset", EXISTENCE, None),
    ("existence", "infer_uniqueness_and_convergence", EXISTENCE, None),
    ("existence", "Analyzer.classify", EXISTENCE, None),
    ("existence", "Analyzer.check_subset", EXISTENCE,
     "existence.check_subset.calls"),
    ("graphs", "HypergraphProbe.hyperarc_targets", PROBE,
     "graphs.hyperarc_targets.calls"),
    ("graphs", "HypergraphProbe.reach", PROBE, "graphs.reach.calls"),
    ("graphs", "HypergraphProbe.is_invariant", PROBE, None),
    ("graphs", "digraph_of", DIGRAPH, "graphs.digraph_of.calls"),
    ("graphs", "scc_decompose", SCC, None),
    ("spectral", "cw_upper", BRACKET, "spectral.cw_upper.calls"),
    ("spectral", "cw_lower", BRACKET, "spectral.cw_lower.calls"),
    ("spectral", "_core_bracket", None, None),
    ("spectral", "min_displacement", DISPLACEMENT,
     "spectral.min_displacement.calls"),
    ("spectral", "solve_eigenvector", SOLVE, "spectral.solve.calls"),
    ("maps", "restrict_map", TRANSFORM, "maps.transform.calls"),
    ("maps", "face_map", TRANSFORM, "maps.transform.calls"),
    ("maps", "conjugate_map", TRANSFORM, "maps.transform.calls"),
    ("maps", "from_exprs", TRANSFORM, "maps.transform.calls"),
    ("core", "ConeMap.eval_interior", None, "maps.evals"),
    ("core", "ConeMap.__call__", None, "maps.evals"),
)

#: counters that depend only on the inputs, never on timing
DETERMINISTIC = ("maps.evals", "spectral.bracket_iterations",
                 "graphs.hyperarc_targets.calls", "existence.face_analyses",
                 "topical.additive_evals")

ROUTE_CLASS = {"reach_upper": "reach", "reach_lower": "reach",
               "numeric_strict": "numeric", "numeric_reverse": "numeric",
               "pruned": "pruned", "boundary": "boundary"}

#: per-layer metric name -> unit, in report order
METRICS = {
    "existence.classify.calls": "count",
    "existence.face_analyses": "count",
    "existence.check_subset.calls": "count",
    "existence.route.reach": "count",
    "existence.route.numeric": "count",
    "existence.route.pruned": "count",
    "existence.route.boundary": "count",
    "existence.prune_yield": "ratio",
    "existence.self_s": "s",
    "graphs.hyperarc_targets.calls": "count",
    "graphs.hyperarc_targets.miss_ratio": "ratio",
    "graphs.reach.calls": "count",
    "graphs.probe.self_s": "s",
    "graphs.digraph_of.calls": "count",
    "graphs.digraph_of.self_s": "s",
    "graphs.scc_decompose.self_s": "s",
    "spectral.cw_upper.calls": "count",
    "spectral.cw_lower.calls": "count",
    "spectral.bracket.self_s": "s",
    "spectral.bracket_iterations": "count",
    "spectral.bracket_converged_ratio": "ratio",
    "spectral.min_displacement.calls": "count",
    "spectral.min_displacement.self_s": "s",
    "spectral.solve.calls": "count",
    "spectral.solve.iterations": "count",
    "spectral.solve.nonconverged": "count",
    "spectral.solve.self_s": "s",
    "maps.evals": "count",
    "maps.transform.calls": "count",
    "maps.transform.self_s": "s",
    "topical.mean_payoff.calls": "count",
    "topical.additive_evals": "count",
    "topical.self_s": "s",
    "dsl.parse.calls": "count",
    "dsl.parse.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Counters and span self times for one traced phase."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []          # [group, start, child seconds]
        self._open: Counter = Counter()       # open spans per group
        self._analyzer_depth = 0
        self._seen_tails = weakref.WeakKeyDictionary()
        self._bindings: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _call(self, group: Optional[str], fn: Callable, args, kwargs):
        if group is None:
            return fn(*args, **kwargs)
        if group == BRACKET and self._open[DISPLACEMENT]:
            group = DISPLACEMENT
        frame = [group, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[group] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self._open[group] -= 1
            self.self_s[group] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, qualname: str, fn: Callable, group: Optional[str],
                 counter: Optional[str]) -> Callable:
        counts, call = self.counts, self._call

        if qualname == "Analyzer.classify":
            def wrapper(*args, **kwargs):
                nested = self._analyzer_depth > 0
                self._analyzer_depth += 1
                try:
                    verdict = call(group, fn, args, kwargs)
                finally:
                    self._analyzer_depth -= 1
                if nested:
                    counts["existence.face_analyses"] += 1
                else:
                    for cert in verdict.certificates:
                        counts["existence.route." +
                               ROUTE_CLASS[cert.route.value]] += 1
                return verdict
        elif qualname == "HypergraphProbe.hyperarc_targets":
            def wrapper(probe, tail, *args, **kwargs):
                counts[counter] += 1
                seen = self._seen_tails.setdefault(probe, set())
                if tail.bits not in seen:
                    seen.add(tail.bits)
                    counts["graphs.hyperarc_targets.misses"] += 1
                return call(group, fn, (probe, tail) + args, kwargs)
        elif qualname == "_core_bracket":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["spectral.bracket_calls"] += 1
                counts["spectral.bracket_iterations"] += result[4]
                counts["spectral.bracket_converged"] += int(result[5])
                return result
        elif qualname == "solve_eigenvector":
            nonconverged = sys.modules[PACKAGE + ".spectral"].NonconvergedError

            def wrapper(*args, **kwargs):
                counts[counter] += 1
                try:
                    result = call(group, fn, args, kwargs)
                except nonconverged as exc:
                    counts["spectral.solve.nonconverged"] += 1
                    counts["spectral.solve.iterations"] += exc.bracket.iterations
                    raise
                counts["spectral.solve.iterations"] += result.iterations
                return result
        elif counter is None:
            def wrapper(*args, **kwargs):
                return call(group, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return call(group, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    @staticmethod
    def _package_modules() -> list:
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self) -> None:
        """Wrap every target at every binding in the package's modules."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        originals = []
        for module_name, qualname, group, counter in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            wrapper = self._wrapper(qualname, original, group, counter)
            originals.append(original)
            if path:  # a method: the class holds its only binding
                self._bindings.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)
        escaped = [f"{m.__name__}.{attr}" for m in modules
                   for attr, value in vars(m).items()
                   if any(value is o for o in originals)]
        if escaped:
            self.uninstall()
            raise RuntimeError(f"untraced bindings remain: {escaped}")

    def uninstall(self) -> None:
        """Restore every binding replaced by install, and check it."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}"
                 for o, a, original in self._bindings
                 if vars(o)[a] is not original]
        self._bindings = []
        if wrong:
            raise RuntimeError(f"bindings not restored: {wrong}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- report ------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> Dict[str, float]:
        """Every per-layer metric in METRICS, zero where a layer never ran."""
        c, s = self.counts, self.self_s
        values = {name: c[name] for name in METRICS if METRICS[name] == "count"}
        values.update({
            "existence.prune_yield": _ratio(c["existence.route.pruned"],
                                            c["existence.face_analyses"]),
            "existence.self_s": s[EXISTENCE],
            "graphs.hyperarc_targets.miss_ratio": _ratio(
                c["graphs.hyperarc_targets.misses"],
                c["graphs.hyperarc_targets.calls"]),
            "graphs.probe.self_s": s[PROBE],
            "graphs.digraph_of.self_s": s[DIGRAPH],
            "graphs.scc_decompose.self_s": s[SCC],
            "spectral.bracket.self_s": s[BRACKET],
            "spectral.bracket_converged_ratio": _ratio(
                c["spectral.bracket_converged"], c["spectral.bracket_calls"]),
            "spectral.min_displacement.self_s": s[DISPLACEMENT],
            "spectral.solve.self_s": s[SOLVE],
            "maps.transform.self_s": s[TRANSFORM],
            "topical.self_s": s[TOPICAL],
            "dsl.parse.self_s": s[PARSE],
            "cli.self_s": s[CLI],
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: values[name] for name in METRICS}
