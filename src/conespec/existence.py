"""The classifier: decide whether the interior eigenspace is nonempty and
bounded in the Hilbert metric, certify non-existence, and infer uniqueness
and iterate convergence.

The generic route sweeps every nonempty proper subset J of coordinates and
checks the strict order r(f^J_0) < lambda(f^{[n]\\J}_inf): hypergraph
reachability resolves most subsets exactly (one side collapses to 0 or inf),
the rest get certified numeric brackets.  A reverse strict order at any
subset certifies that no interior eigenvector exists at all.  Maps flagged
multiplicatively convex take the strongly-connected-component route instead,
which needs only linearly many brackets.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .core import INF, ConeMap, Side, SubsetMask
from .errors import DimensionTooLargeError, FlagMissingError
from .graphs import Digraph, HypergraphProbe, digraph_of, scc_decompose
from .maps import face_map, restrict_map, sparsity_probe
from .spectral import (CWBracket, DisplacementInterval, EigenResult,
                       NonconvergedError, cw_lower, cw_upper,
                       min_displacement, solve_eigenvector,
                       DEFAULT_BUDGET)

SUBSET_SWEEP_CAP = 24
STRICTNESS_TOL = 1e-9
BRACKET_TOL = 1e-10


class Route(Enum):
    REACH_UPPER = "reach_upper"      # reach(J, H+inf) = [n], lambda side infinite
    REACH_LOWER = "reach_lower"      # reach(Jc, H-0) = [n], r side zero
    NUMERIC_STRICT = "numeric_strict"
    NUMERIC_REVERSE = "numeric_reverse"
    PRUNED = "pruned"
    BOUNDARY = "boundary"

    @property
    def passing(self) -> bool:
        return self in (Route.REACH_UPPER, Route.REACH_LOWER,
                        Route.NUMERIC_STRICT, Route.PRUNED)


class VerdictKind(Enum):
    NONEMPTY_BOUNDED = "nonempty_bounded"
    NO_INTERIOR_EIGENVECTOR = "no_interior_eigenvector"
    INDETERMINATE = "indeterminate"


class Uniqueness(Enum):
    UNIQUE = "unique"
    UNKNOWN = "unknown"


class Convergence(Enum):
    ITERATES_CONVERGE = "iterates_converge"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SubsetCertificate:
    subset: SubsetMask
    route: Route
    r_bracket: Optional[CWBracket] = None
    lambda_bracket: Optional[CWBracket] = None
    pruned_by: Optional[SubsetMask] = None


@dataclass(frozen=True)
class ClassRadius:
    """One strongly connected component with its face spectral radius.

    `basic` means the face radius ties the overall radius within tolerance.
    """

    component: Tuple[int, ...]
    bracket: CWBracket
    final: bool
    basic: bool
    primitive: bool


@dataclass(frozen=True)
class ConvexReport:
    classes: Tuple[ClassRadius, ...]
    strongly_nonnegative: Optional[bool]
    r_bracket: CWBracket
    lambda_bracket: Optional[CWBracket]


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    certificates: Tuple[SubsetCertificate, ...] = ()
    uniqueness: Uniqueness = Uniqueness.UNKNOWN
    convergence: Convergence = Convergence.UNKNOWN
    eigen: Optional[EigenResult] = None
    displacement: Optional[DisplacementInterval] = None
    detail: Optional[str] = None
    convex_report: Optional[ConvexReport] = None


def _strictly_below(hi: float, lo: float, tol: float) -> bool:
    """hi < lo with a relative safety margin; the undecided band is Boundary."""
    if hi == INF:
        return False
    if lo == INF:
        return True
    return hi + tol * max(1.0, abs(hi)) < lo


class Analyzer:
    """Shared caches for one classification run."""

    def __init__(self, f: ConeMap, budget: int = DEFAULT_BUDGET,
                 tol: float = STRICTNESS_TOL, bracket_tol: float = BRACKET_TOL,
                 prune: bool = True, workers: int = 1):
        self.f = f
        self.n = f.dimension
        self.budget = budget
        self.tol = tol
        self.bracket_tol = bracket_tol
        self.prune = prune
        self.workers = max(1, workers)
        self.lower_probe = HypergraphProbe(f, Side.LOWER)
        self.upper_probe = HypergraphProbe(f, Side.UPPER)
        self._r0_cache: Dict[int, CWBracket] = {}
        self._linf_cache: Dict[int, CWBracket] = {}
        self._face_kind_cache: Dict[Tuple[str, int], VerdictKind] = {}
        self._lock = threading.Lock()

    # -- brackets ---------------------------------------------------------

    def r0_bracket(self, J: SubsetMask) -> CWBracket:
        """Certified bracket for r(f^J_0), after stabilizing the support."""
        stable = self.lower_probe.reach(J.complement()).complement()
        with self._lock:
            hit = self._r0_cache.get(stable.bits)
        if hit is not None:
            return hit
        if stable.is_empty():
            b = CWBracket(0.0, 0.0, None, None, 0, True, collapsed_support=())
        else:
            b = cw_upper(restrict_map(self.f, stable, 0.0),
                         self.budget, self.bracket_tol)
        with self._lock:
            self._r0_cache[stable.bits] = b
        return b

    def linf_bracket(self, J: SubsetMask) -> CWBracket:
        """Certified bracket for lambda(f^{[n]\\J}_inf)."""
        kept = self.upper_probe.reach(J).complement()
        with self._lock:
            hit = self._linf_cache.get(kept.bits)
        if hit is not None:
            return hit
        if kept.is_empty():
            b = CWBracket(INF, INF, None, None, 0, True, collapsed_support=())
        else:
            b = cw_lower(restrict_map(self.f, kept, INF),
                         self.budget, self.bracket_tol)
        with self._lock:
            self._linf_cache[kept.bits] = b
        return b

    # -- subset checks ----------------------------------------------------

    def check_subset(self, J: SubsetMask) -> SubsetCertificate:
        if J.is_empty() or J.is_full():
            raise ValueError("subset must be nonempty and proper")
        if self.upper_probe.reach(J).is_full():
            return SubsetCertificate(J, Route.REACH_UPPER)
        if self.lower_probe.reach(J.complement()).is_full():
            return SubsetCertificate(J, Route.REACH_LOWER)
        rb = self.r0_bracket(J)
        lb = self.linf_bracket(J)
        if _strictly_below(rb.upper, lb.lower, self.tol):
            route = Route.NUMERIC_STRICT
        elif _strictly_below(lb.upper, rb.lower, self.tol):
            route = Route.NUMERIC_REVERSE
        else:
            route = Route.BOUNDARY
        return SubsetCertificate(J, route, rb, lb)

    # -- face classification for pruning ----------------------------------

    def _face_kind(self, keep: SubsetMask, fill: float) -> VerdictKind:
        key = ("lower" if fill == 0.0 else "upper", keep.bits)
        with self._lock:
            hit = self._face_kind_cache.get(key)
        if hit is not None:
            return hit
        face = face_map(self.f, keep, fill)
        sub = Analyzer(face, self.budget, self.tol, self.bracket_tol,
                       prune=self.prune)
        kind = sub.classify(solve=False).kind
        with self._lock:
            self._face_kind_cache[key] = kind
        return kind

    # -- the sweep ---------------------------------------------------------

    def classify(self, solve: bool = True) -> Verdict:
        n = self.n
        if n > SUBSET_SWEEP_CAP:
            raise DimensionTooLargeError(
                f"generic sweep is capped at n = {SUBSET_SWEEP_CAP}; "
                "use classify_convex for multiplicatively convex maps")
        if n == 1:
            return self._finish(VerdictKind.NONEMPTY_BOUNDED, (), solve)

        masks = sorted((SubsetMask(bits, n) for bits in range(1, (1 << n) - 1)),
                       key=lambda m: (m.popcount(), m.bits))
        pruned_by: Dict[int, SubsetMask] = {}
        certs: Dict[int, SubsetCertificate] = {}
        reverse_found = False

        by_popcount: Dict[int, List[SubsetMask]] = {}
        for m in masks:
            by_popcount.setdefault(m.popcount(), []).append(m)

        for size in sorted(by_popcount):
            wave = by_popcount[size]
            todo = [m for m in wave if m.bits not in pruned_by]
            for m in wave:
                if m.bits in pruned_by:
                    certs[m.bits] = SubsetCertificate(
                        m, Route.PRUNED, pruned_by=pruned_by[m.bits])
            if self.workers > 1 and len(todo) > 1:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    results = list(pool.map(self.check_subset, todo))
            else:
                results = [self.check_subset(m) for m in todo]
            for cert in results:
                certs[cert.subset.bits] = cert
                if cert.route is Route.NUMERIC_REVERSE:
                    reverse_found = True
            if reverse_found:
                break
            if self.prune:
                for cert in results:
                    if cert.route.passing:
                        self._try_prune(cert.subset, masks, certs, pruned_by)

        ordered = tuple(certs[m.bits] for m in masks if m.bits in certs)
        if reverse_found:
            return self._finish(VerdictKind.NO_INTERIOR_EIGENVECTOR, ordered,
                                solve)
        if all(c.route.passing for c in ordered):
            return self._finish(VerdictKind.NONEMPTY_BOUNDED, ordered, solve)
        return self._finish(VerdictKind.INDETERMINATE, ordered, solve)

    def _try_prune(self, J: SubsetMask, masks, certs, pruned_by) -> None:
        n = self.n
        # supersets of J pass once the upper face has a bounded nonempty
        # eigenspace; that face is a genuine part only when J is invariant
        remaining_supersets = [m for m in masks
                               if m.bits not in certs and m.bits not in pruned_by
                               and J.issubset(m) and m.bits != J.bits]
        if remaining_supersets and self.upper_probe.is_invariant(J):
            if self._face_kind(J.complement(), INF) is VerdictKind.NONEMPTY_BOUNDED:
                for m in remaining_supersets:
                    pruned_by[m.bits] = J
        remaining_subsets = [m for m in masks
                             if m.bits not in certs and m.bits not in pruned_by
                             and m.issubset(J) and m.bits != J.bits]
        if remaining_subsets and self.lower_probe.is_invariant(J.complement()):
            if self._face_kind(J, 0.0) is VerdictKind.NONEMPTY_BOUNDED:
                for m in remaining_subsets:
                    pruned_by[m.bits] = J

    def _finish(self, kind: VerdictKind,
                certs: Tuple[SubsetCertificate, ...], solve: bool) -> Verdict:
        verdict = Verdict(kind=kind, certificates=certs)
        if kind is VerdictKind.NO_INTERIOR_EIGENVECTOR and solve:
            rev = next(c for c in certs if c.route is Route.NUMERIC_REVERSE)
            disp = min_displacement(self.f, self.budget, self.bracket_tol,
                                    certificate=(rev.r_bracket, rev.lambda_bracket))
            verdict = replace(verdict, displacement=disp)
        if kind is VerdictKind.NONEMPTY_BOUNDED and solve:
            try:
                eigen = solve_eigenvector(self.f, budget=self.budget,
                                          tol=self.bracket_tol)
                verdict = replace(verdict, eigen=eigen)
            except NonconvergedError:
                pass
            verdict = infer_uniqueness_and_convergence(self.f, verdict)
        return verdict


def check_subset(f: ConeMap, J: SubsetMask, budget: int = DEFAULT_BUDGET,
                 tol: float = STRICTNESS_TOL) -> SubsetCertificate:
    return Analyzer(f, budget, tol).check_subset(J)


def classify(f: ConeMap, budget: int = DEFAULT_BUDGET,
             tol: float = STRICTNESS_TOL, prune: bool = True,
             fast_path: bool = True, workers: int = 1,
             solve: bool = True) -> Verdict:
    """Classify the eigenspace of f (see module docstring).

    With ``fast_path`` enabled, multiplicatively convex maps use the
    component route, and otherwise a unique-final-class shortcut is
    attempted before the exponential sweep.
    """
    if fast_path and f.multiplicatively_convex and f.is_ast:
        verdict = classify_convex(f, budget, tol, solve=solve)
        if verdict.kind is VerdictKind.INDETERMINATE and \
                f.dimension <= SUBSET_SWEEP_CAP:
            # the component route tied numerically; the sweep yields
            # per-subset certificates and may still decide
            sweep = Analyzer(f, budget, tol, prune=prune,
                             workers=workers).classify(solve=solve)
            verdict = replace(sweep, convex_report=verdict.convex_report,
                              detail=sweep.detail or verdict.detail)
        return verdict
    analyzer = Analyzer(f, budget, tol, prune=prune, workers=workers)
    if fast_path and f.is_ast:
        quick = _unique_final_class_shortcut(f, budget, tol, solve)
        if quick is not None:
            return quick
    return analyzer.classify(solve=solve)


def _unique_final_class_shortcut(f: ConeMap, budget: int, tol: float,
                                 solve: bool) -> Optional[Verdict]:
    """A unique final class C with r(f^{[n]\\C}_0) < r(f) settles the verdict."""
    scc = scc_decompose(digraph_of(f))
    finals = [i for i, fin in enumerate(scc.final) if fin]
    if len(finals) != 1:
        return None
    C = SubsetMask.of(scc.order[finals[0]], f.dimension)
    if C.is_full():
        rest = CWBracket(0.0, 0.0, None, None, 0, True)
    else:
        rest = cw_upper(restrict_map(f, C.complement(), 0.0), budget, BRACKET_TOL)
    full = cw_upper(f, budget, BRACKET_TOL)
    if not _strictly_below(rest.upper, full.lower, tol):
        return None
    verdict = Verdict(kind=VerdictKind.NONEMPTY_BOUNDED,
                      detail="unique final class with strictly smaller "
                             "complementary spectral radius")
    if solve:
        try:
            eigen = solve_eigenvector(f, budget=budget, tol=BRACKET_TOL)
            verdict = replace(verdict, eigen=eigen)
        except NonconvergedError:
            pass
        verdict = infer_uniqueness_and_convergence(f, verdict)
    return verdict


def classify_convex(f: ConeMap, budget: int = DEFAULT_BUDGET,
                    tol: float = STRICTNESS_TOL, solve: bool = True) -> Verdict:
    """The component route for multiplicatively convex maps.

    Computes the spectral radius of every strongly connected component's
    face; existence and boundedness reduce to final/basic class comparisons.
    """
    if not f.multiplicatively_convex:
        raise FlagMissingError("map is not flagged multiplicatively convex")
    n = f.dimension
    scc = scc_decompose(digraph_of(f))
    brackets = []
    for comp in scc.order:
        mask = SubsetMask.of(comp, n)
        if mask.is_full():
            b = cw_upper(f, budget, BRACKET_TOL)
        else:
            b = cw_upper(restrict_map(f, mask, 0.0), budget, BRACKET_TOL)
        brackets.append(b)

    r_lower = max(b.lower for b in brackets)
    r_upper = max(b.upper for b in brackets)
    finals = [i for i, fin in enumerate(scc.final) if fin]
    lam = CWBracket(min(brackets[i].lower for i in finals),
                    min(brackets[i].upper for i in finals),
                    None, None, 0,
                    all(brackets[i].converged for i in finals))

    def definitely_below(i: int) -> bool:
        return _strictly_below(brackets[i].upper, r_lower, tol)

    classes = []
    for i, comp in enumerate(scc.order):
        # basic: the face radius ties the top one within tolerance
        classes.append(ClassRadius(comp, brackets[i], scc.final[i],
                                   not definitely_below(i),
                                   scc.cyclicity[i] == 1))

    # strong nonnegativity definitely fails when a final class sits strictly
    # below the top radius, or a non-final class sits strictly above every
    # final one
    final_broken = any(definitely_below(i) for i in finals)
    top_final_upper = max(brackets[i].upper for i in finals)
    nonfinal_at_top = any(not scc.final[i] and
                          _strictly_below(top_final_upper, brackets[i].lower, tol)
                          for i in range(len(brackets)))
    strongly_nonneg: Optional[bool] = None
    kind = VerdictKind.INDETERMINATE
    detail = None

    if final_broken or nonfinal_at_top:
        strongly_nonneg = False
        if f.analytic:
            kind = VerdictKind.NO_INTERIOR_EIGENVECTOR
            detail = ("not strongly nonnegative: an analytic multiplicatively "
                      "convex map then has no interior eigenvector")
        else:
            detail = "not strongly nonnegative; existence undecided for this class"
    elif len(finals) == 1:
        C = SubsetMask.of(scc.order[finals[0]], n)
        if C.is_full():
            strongly_nonneg = True
            kind = VerdictKind.NONEMPTY_BOUNDED
        else:
            rest = cw_upper(restrict_map(f, C.complement(), 0.0),
                            budget, BRACKET_TOL)
            if _strictly_below(rest.upper, brackets[finals[0]].lower, tol):
                strongly_nonneg = True
                kind = VerdictKind.NONEMPTY_BOUNDED
            elif _strictly_below(brackets[finals[0]].upper, rest.lower, tol):
                strongly_nonneg = False
                if f.analytic:
                    kind = VerdictKind.NO_INTERIOR_EIGENVECTOR
                    detail = ("final class radius strictly below the rest; "
                              "no interior eigenvector")
            else:
                detail = "final and complementary radii numerically tied"
    else:
        detail = ("multiple final classes with indistinguishable radii: if "
                  "they are exactly equal the map is strongly nonnegative and "
                  "an eigenvector exists but the eigenspace is unbounded")

    report = ConvexReport(tuple(classes), strongly_nonneg,
                          CWBracket(r_lower, r_upper, None, None, 0,
                                    r_upper - r_lower <= tol * max(1.0, r_upper)),
                          lam)
    verdict = Verdict(kind=kind, detail=detail, convex_report=report)
    if kind is VerdictKind.NO_INTERIOR_EIGENVECTOR and solve:
        top = max(brackets, key=lambda b: b.lower)
        disp = min_displacement(f, budget, BRACKET_TOL, certificate=(top, lam))
        verdict = replace(verdict, displacement=disp)
    if kind is VerdictKind.NONEMPTY_BOUNDED and solve:
        try:
            eigen = solve_eigenvector(f, budget=budget, tol=BRACKET_TOL)
            verdict = replace(verdict, eigen=eigen)
        except NonconvergedError:
            pass
        verdict = infer_uniqueness_and_convergence(f, verdict)
    return verdict


def infer_uniqueness_and_convergence(f: ConeMap, verdict: Verdict) -> Verdict:
    """Upgrade uniqueness/convergence flags; never downgrade.

    The derivative-pattern rules assume f is differentiable at the solved
    eigenvector; for non-analytic maps the numeric probe presumes this
    (exact symbolic dependencies are used whenever the map is analytic).
    """
    if verdict.kind is not VerdictKind.NONEMPTY_BOUNDED:
        return verdict
    uniqueness = verdict.uniqueness
    convergence = verdict.convergence
    if f.analytic:
        # analytic + nonempty bounded eigenspace forces a unique eigenvector
        uniqueness = Uniqueness.UNIQUE
    if verdict.eigen is not None:
        pattern = sparsity_probe(f, verdict.eigen.vector)
        digraph = Digraph.from_arcs(pattern.n, pattern.arcs())
        scc = scc_decompose(digraph)
        finals = [i for i, fin in enumerate(scc.final) if fin]
        if len(scc.order) == 1:
            uniqueness = Uniqueness.UNIQUE  # irreducible derivative
        if len(finals) == 1:
            uniqueness = Uniqueness.UNIQUE
            if scc.cyclicity[finals[0]] == 1:
                convergence = Convergence.ITERATES_CONVERGE
    return replace(verdict, uniqueness=uniqueness, convergence=convergence)
