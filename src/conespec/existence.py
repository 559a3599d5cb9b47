"""The classifier: decide whether the interior eigenspace is nonempty and
bounded in the Hilbert metric, certify non-existence, and infer uniqueness
and iterate convergence.

The generic route sweeps every nonempty proper subset J of coordinates and
checks the strict order r(f^J_0) < lambda(f^{[n]\\J}_inf): hypergraph
reachability resolves most subsets exactly (one side collapses to 0 or inf),
the rest get certified numeric brackets.  A reverse strict order at any
subset certifies that no interior eigenvector exists at all.  Pruning
passes the proper supersets of a passing, upper-invariant J without a
check when the upper face on J's complement has a nonempty bounded
eigenspace; that face's kind comes from the routes of its own subsets, in
one pass that prunes nothing.  Maps flagged multiplicatively convex take
the strongly-connected-component route instead, which needs only linearly
many brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby
from typing import Dict, Optional, Tuple

from .core import INF, ConeMap, Side, SubsetMask, scatter_bits
from .errors import DimensionTooLargeError, FlagMissingError
from .graphs import Digraph, HypergraphProbe, SCCDecomposition, scc_decompose
from .maps import face_map, reject_pole_outputs, sparsity_probe
from .spectral import (CWBracket, CWHandle, DisplacementInterval,
                       EigenResult, Faces, NonconvergedError,
                       min_displacement, solve_eigenvector,
                       _bracket_and_solution, DEFAULT_BUDGET, FIRST_CHUNK)
from .spectral import cw_upper as cw_upper  # a binding bench/tracer.py wraps

SUBSET_SWEEP_CAP = 24
STRICTNESS_TOL = 1e-9


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
    #: cw_upper's bracket of f where the verdict already has it: the
    #: displacement's, or the eigenvector trajectory's, which equals
    #: cw_upper(f, budget, DEFAULT_TOL) bit for bit; not part of the output
    r_bracket: Optional[CWBracket] = None


def _strictly_below(hi: float, lo: float, tol: float) -> bool:
    """hi < lo with a relative safety margin; the undecided band is Boundary."""
    if hi == INF:
        return False
    if lo == INF:
        return True
    return hi + tol * max(1.0, abs(hi)) < lo


class Analyzer:
    """The subset sweep of one map, on the faces of one classification.

    `faces` is the classification's one cache (`spectral.Faces`): every
    route of the classification shares it, the sweep, its pruning faces,
    the displacement, and in `classify` the convex route that falls back
    to the sweep, because a restriction of a face is a restriction of f.
    Each distinct face is iterated once per classification.

    Every bracket is `FaceSide.handle` of a stable mask on one of two
    sides that `faces` makes, `r_side` and the root's `l_side`.  A side's
    hypergraph (`FaceSide.probe`) is f's own on the side's pole, so the
    top-level analyzer reads its upper one (`upper_probe`) from `l_side`.

    `classify` sweeps the subsets, as int masks, in waves of one popcount,
    each in increasing bits order: every check of a wave, then the pruning
    of its passing subsets.  Pruning reaches upward only, as J's proper
    subsets are all decided by then: when a passing J is invariant in the
    upper hypergraph and the upper face on J's complement has a bounded
    nonempty eigenspace, every proper superset of J not yet pruned is
    `pruned` by J.  That face's kind (`_face_kind`) comes from the routes
    (`_route`) of its own subsets in the sweep's order, up to the first
    numeric reverse, with no pruning and no certificate, read by an
    analyzer of the face of the root map `faces.f` that pins the
    coordinates in `inf` to inf.  That analyzer evaluates its faces by
    pinning through the root: the lambda side's are the root's, and on
    the r side the root's body gets the inf and each face's zero pins at
    once.  Its hypergraphs, structure, and the points that body cannot
    evaluate are read from the face, whose inf pins `face_map` applied
    first; it folds its own upper hypergraph.
    """

    def __init__(self, f: ConeMap, budget: int = DEFAULT_BUDGET,
                 tol: float = STRICTNESS_TOL, prune: bool = True,
                 faces: Optional[Faces] = None, inf: int = 0):
        self.f = f
        self.n = f.dimension
        self.faces = Faces(f, budget) if faces is None else faces
        self.budget = self.faces.budget
        self.tol = tol
        self.prune = prune
        self.r_side = self.faces.side(0.0, f, inf)
        self.l_side = self.faces.side(INF)
        self.upper_probe = HypergraphProbe(f, Side.UPPER) if inf else \
            self.l_side.probe()

    # -- brackets ---------------------------------------------------------

    def r0_handle(self, J: SubsetMask | int) -> CWHandle:
        """Certified bracket for r(f^J_0), after stabilizing the support,
        refined on demand; J is a `SubsetMask` or its bits."""
        full = (1 << self.n) - 1
        return self.r_side.handle(
            full ^ self.r_side.probe()._reach(full ^ _bits(J, self.n)))

    def linf_handle(self, J: SubsetMask | int) -> CWHandle:
        """Certified bracket for lambda(f^{[n]\\J}_inf), refined on demand."""
        stable = ~self.upper_probe._reach(_bits(J, self.n)) & (1 << self.n) - 1
        # the root's face, with witnesses in f's coordinates
        return self.l_side.handle(
            scatter_bits(stable, self.r_side.positions), stable, self.n)

    # -- subset checks ----------------------------------------------------

    def _route(self, bits: int) -> Tuple[Route, Optional[CWHandle],
                                         Optional[CWHandle]]:
        """The route of the nonempty proper subset `bits`, with the handles
        of the two brackets that decided it (None on a reach route),
        refining both only until they decide.

        Each bracket is sound at every iterate and only ever narrows, so a
        strict order seen early holds at the whole budget too: the route is
        the one fully refined brackets give.  BOUNDARY needs both brackets
        refined to the end.
        """
        full = (1 << self.n) - 1
        if self.upper_probe._reach(bits) == full:
            return Route.REACH_UPPER, None, None
        if self.r_side.probe()._reach(full ^ bits) == full:
            return Route.REACH_LOWER, None, None
        rh, lh = self.r0_handle(bits), self.linf_handle(bits)
        steps = FIRST_CHUNK
        while True:
            r_lo, r_up = rh.bounds()
            l_lo, l_up = lh.bounds()
            if _strictly_below(r_up, l_lo, self.tol):
                return Route.NUMERIC_STRICT, rh, lh
            if _strictly_below(l_up, r_lo, self.tol):
                return Route.NUMERIC_REVERSE, rh, lh
            if rh.done and lh.done:
                return Route.BOUNDARY, rh, lh
            rh.refine(steps)
            lh.refine(steps)
            steps *= 2

    def check_subset(self, J: SubsetMask | int) -> SubsetCertificate:
        """The certificate of J (a `SubsetMask` or its bits): its route,
        with the brackets as they were when it was decided."""
        bits = _bits(J, self.n)
        if not 0 < bits < (1 << self.n) - 1:
            raise ValueError("subset must be nonempty and proper")
        route, rh, lh = self._route(bits)
        return SubsetCertificate(SubsetMask(bits, self.n), route,
                                 rh and rh.bracket(), lh and lh.bracket())

    # -- the sweep ---------------------------------------------------------

    def classify(self, solve: bool = True) -> Verdict:
        n = self.n
        if n > SUBSET_SWEEP_CAP:
            raise DimensionTooLargeError(
                f"generic sweep is capped at n = {SUBSET_SWEEP_CAP}; "
                "use classify_convex for multiplicatively convex maps")
        pruned_by: Dict[int, SubsetMask] = {}
        certs: list = []
        reverse_found = False
        # waves of equal popcount, each in increasing bits order; n = 1 has
        # no proper subset and is nonempty and bounded
        for _, wave in groupby(_sweep_order(n), key=int.bit_count):
            passing = []
            for bits in wave:
                if bits in pruned_by:
                    certs.append(SubsetCertificate(SubsetMask(bits, n),
                                                   Route.PRUNED,
                                                   pruned_by=pruned_by[bits]))
                    continue
                cert = self.check_subset(bits)
                certs.append(cert)
                if cert.route is Route.NUMERIC_REVERSE:
                    reverse_found = True
                elif cert.route.passing:
                    passing.append(bits)
            if reverse_found:
                break
            if self.prune:
                for J in passing:
                    self._prune_supersets(J, pruned_by)

        if reverse_found:
            kind = VerdictKind.NO_INTERIOR_EIGENVECTOR
        elif all(c.route.passing for c in certs):
            kind = VerdictKind.NONEMPTY_BOUNDED
        else:
            kind = VerdictKind.INDETERMINATE
        return self._finish(kind, tuple(certs), solve)

    # -- pruning -----------------------------------------------------------

    def _prune_supersets(self, J: int, pruned_by) -> None:
        """Prune J's proper supersets not pruned yet, each J plus a nonempty
        proper submask of its complement, when J is invariant and the upper
        face on its complement has a bounded nonempty eigenspace."""
        rest = ((1 << self.n) - 1) ^ J
        remaining, s = [], rest & (rest - 1)
        while s:
            if J | s not in pruned_by:
                remaining.append(J | s)
            s = rest & (s - 1)
        if remaining and not self.upper_probe._hit(J) and self._face_kind(
                SubsetMask(rest, self.n)) is VerdictKind.NONEMPTY_BOUNDED:
            pruned_by.update(dict.fromkeys(remaining, SubsetMask(J, self.n)))

    def _face_kind(self, keep: SubsetMask) -> VerdictKind:
        """The verdict kind of f's upper face on `keep`, from the routes of
        the face's nonempty proper subsets in the sweep's order, without
        pruning: no interior eigenvector at the first numeric reverse,
        nonempty and bounded when every route passes."""
        face = face_map(self.f, keep, INF)
        sub = Analyzer(face, tol=self.tol, faces=self.faces,
                       inf=((1 << self.n) - 1) ^ keep.bits)
        kind = VerdictKind.NONEMPTY_BOUNDED
        for bits in _sweep_order(face.dimension):
            route = sub._route(bits)[0]
            if route is Route.NUMERIC_REVERSE:
                return VerdictKind.NO_INTERIOR_EIGENVECTOR
            if not route.passing:
                kind = VerdictKind.INDETERMINATE
        return kind

    def _finish(self, kind: VerdictKind,
                certs: Tuple[SubsetCertificate, ...], solve: bool) -> Verdict:
        verdict = Verdict(kind=kind, certificates=certs)
        if kind is not VerdictKind.NO_INTERIOR_EIGENVECTOR or not solve:
            return _existence(self.faces, verdict, solve)
        # the first reverse certificate bounds the displacement below and
        # carries its brackets as the displacement left them
        rev = next(c for c in certs if c.route is Route.NUMERIC_REVERSE)
        rh, lh = self.r0_handle(rev.subset), self.linf_handle(rev.subset)
        verdict = _existence(self.faces, verdict, solve, (rh, lh))
        return replace(verdict, certificates=tuple(
            replace(c, r_bracket=rh.bracket(), lambda_bracket=lh.bracket())
            if c is rev else c for c in certs))


def _sweep_order(n: int) -> list:
    """The nonempty proper subsets of [n] as bits, by popcount and then by
    bits."""
    return sorted(range(1, (1 << n) - 1), key=int.bit_count)


def _bits(J: SubsetMask | int, n: int) -> int:
    """The bits of a subset of [n] given as a `SubsetMask` or as bits."""
    if type(J) is not int and J.n != n:
        raise ValueError("mask dimension mismatch")
    return getattr(J, "bits", J)


def _existence(faces: Faces, verdict: Verdict, solve: bool,
               certificate: Optional[Tuple[CWHandle, CWHandle]] = None,
               shared=None, growth=None) -> Verdict:
    """`verdict` of f = `faces.f`, with `solve` completed as its kind asks:
    the displacement of a verdict of no interior eigenvector, bounded below
    by `certificate` (`min_displacement`), or the eigenvector and flags of
    a nonempty and bounded one.

    The eigenvector and `r_bracket` come from one trajectory: `shared`, as
    `_bracket_and_solution(faces)` gives it, or run here unless f is
    convex (where cw_upper may decompose f).  Without one, f is solved
    alone.  `growth`, f's growth digraph with its decomposition when the
    caller has them, is handed on to the flag inference.
    """
    f = faces.f
    if not solve or verdict.kind is VerdictKind.INDETERMINATE:
        return verdict
    if verdict.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR:
        disp = min_displacement(f, certificate=certificate, faces=faces)
        return replace(verdict, displacement=disp, r_bracket=disp.r_bracket)
    if shared is None and not f.multiplicatively_convex:
        shared = _bracket_and_solution(faces)
    if shared is None:
        try:
            outcome = solve_eigenvector(f, budget=faces.budget)
        except NonconvergedError as exc:
            outcome = exc
    else:
        bracket, outcome = shared
        verdict = replace(verdict, r_bracket=bracket)
    if isinstance(outcome, EigenResult):
        verdict = replace(verdict, eigen=outcome)
    return infer_uniqueness_and_convergence(f, verdict, growth)


def check_subset(f: ConeMap, J: SubsetMask, budget: int = DEFAULT_BUDGET,
                 tol: float = STRICTNESS_TOL) -> SubsetCertificate:
    return Analyzer(f, budget, tol).check_subset(J)


def classify(f: ConeMap, budget: int = DEFAULT_BUDGET,
             tol: float = STRICTNESS_TOL, prune: bool = True,
             solve: bool = True) -> Verdict:
    """Classify the eigenspace of f (see module docstring).

    Multiplicatively convex AST maps use the component route; other AST
    maps try a unique-final-class shortcut before the exponential sweep
    (`Analyzer.classify`).  Raises ValueError unless `tol` is positive
    and finite, and ZeroRowError or NumericRangeError for an AST map with
    an output that is identically 0 or inf.
    """
    if not 0.0 < tol < INF:
        raise ValueError(f"tolerance must be positive and finite, not {tol}")
    reject_pole_outputs(f)
    # one cache for every route: no face is iterated twice
    faces = Faces(f, budget)
    if f.multiplicatively_convex and f.is_ast:
        verdict = classify_convex(f, budget, tol, solve=solve, faces=faces)
        if verdict.kind is VerdictKind.INDETERMINATE and \
                f.dimension <= SUBSET_SWEEP_CAP:
            # the component route tied numerically; the sweep yields
            # per-subset certificates and may still decide
            sweep = Analyzer(f, tol=tol, prune=prune,
                             faces=faces).classify(solve=solve)
            verdict = replace(sweep, convex_report=verdict.convex_report,
                              detail=sweep.detail or verdict.detail)
        return verdict
    analyzer = Analyzer(f, tol=tol, prune=prune, faces=faces)
    if f.is_ast:
        quick = _unique_final_class_shortcut(analyzer, solve)
        if quick is not None:
            return quick
    return analyzer.classify(solve=solve)


def _unique_final_class_shortcut(analyzer: Analyzer,
                                 solve: bool) -> Optional[Verdict]:
    """A unique final class C with r(f^{[n]\\C}_0) < r(f) settles the verdict."""
    f, faces = analyzer.f, analyzer.faces
    growth, scc = analyzer.r_side.growth()
    finals = [i for i, fin in enumerate(scc.final) if fin]
    if len(finals) != 1:
        return None
    C = SubsetMask.of(scc.order[finals[0]], f.dimension)
    rest = analyzer.r0_handle(C.complement()).finished()
    # with solve, f's one trajectory gives the bracket, the eigenvector and
    # the state of f that the sweep reads if the shortcut fails
    shared = _bracket_and_solution(faces) if solve else None
    full = shared[0] if shared else analyzer.r_side.handle().finished()
    if not _strictly_below(rest.upper, full.lower, analyzer.tol):
        return None
    verdict = Verdict(kind=VerdictKind.NONEMPTY_BOUNDED,
                      detail="unique final class with strictly smaller "
                             "complementary spectral radius")
    return _existence(faces, verdict, solve, None, shared, (growth, scc))


def classify_convex(f: ConeMap, budget: int = DEFAULT_BUDGET,
                    tol: float = STRICTNESS_TOL, solve: bool = True,
                    faces: Optional[Faces] = None) -> Verdict:
    """The component route for multiplicatively convex maps.

    Computes the spectral radius of every strongly connected component's
    face; existence and boundedness reduce to final/basic class comparisons.
    The class faces are those that cw_upper(f) decomposes f into, so f
    must have expressions.  `faces`, the `Faces` of a classification of f,
    shares that classification's faces, and its budget replaces `budget`.
    """
    if not (f.multiplicatively_convex and f.is_ast):
        raise FlagMissingError(
            "the component route needs an expression map flagged "
            "multiplicatively convex")
    faces = Faces(f, budget) if faces is None else faces
    side = faces.side(0.0)
    growth, scc = side.growth()
    shared = None
    if len(scc.order) > 1:
        radius = side.face((1 << f.dimension) - 1)
        brackets = [h.bracket() for h in radius.classes]
    else:
        # one component: the verdict is nonempty_bounded, and the
        # eigenvector comes from the whole-map bracket's trajectory
        shared = _bracket_and_solution(faces) if solve else None
        brackets = [shared[0] if shared else side.handle().finished()]

    r_lower = max(b.lower for b in brackets)
    r_upper = max(b.upper for b in brackets)
    finals = [i for i, fin in enumerate(scc.final) if fin]
    lam = CWBracket(min(brackets[i].lower for i in finals),
                    min(brackets[i].upper for i in finals),
                    None, None, 0,
                    all(brackets[i].converged for i in finals))

    def definitely_below(i: int) -> bool:
        return _strictly_below(brackets[i].upper, r_lower, tol)

    # basic: the face radius ties the top one within tolerance
    classes = [ClassRadius(comp, brackets[i], scc.final[i],
                           not definitely_below(i), scc.cyclicity[i] == 1)
               for i, comp in enumerate(scc.order)]

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
        C = SubsetMask.of(scc.order[finals[0]], f.dimension)
        if C.is_full():
            strongly_nonneg = True
            kind = VerdictKind.NONEMPTY_BOUNDED
        else:
            rest = side.handle(
                side.probe().reach(C).complement().bits).finished()
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
    top = max(brackets, key=lambda b: b.lower)
    return _existence(faces, verdict, solve,
                      (CWHandle(fixed=top), CWHandle(fixed=lam)), shared,
                      (growth, scc))


def infer_uniqueness_and_convergence(
        f: ConeMap, verdict: Verdict,
        growth: Optional[Tuple[Digraph, SCCDecomposition]] = None) -> Verdict:
    """Upgrade uniqueness/convergence flags; never downgrade.

    The derivative-pattern rules assume f is differentiable at the solved
    eigenvector; for non-analytic maps the numeric probe presumes this
    (exact symbolic dependencies are used whenever the map is analytic:
    the pattern of an analytic AST map is its growth digraph, so it is not
    probed).  `growth`, f's growth digraph and its decomposition, is
    reused when the derivative pattern has the same rows: the same digraph
    decomposes the same.
    """
    if verdict.kind is not VerdictKind.NONEMPTY_BOUNDED:
        return verdict
    uniqueness = verdict.uniqueness
    convergence = verdict.convergence
    if f.analytic:
        # analytic + nonempty bounded eigenspace forces a unique eigenvector
        uniqueness = Uniqueness.UNIQUE
    if verdict.eigen is not None:
        if growth is not None and f.is_ast and f.analytic:
            rows = growth[0].rows
        else:
            rows = sparsity_probe(f, verdict.eigen.vector).rows
        if growth is not None and growth[0].rows == rows:
            scc = growth[1]
        else:
            scc = scc_decompose(Digraph.from_rows(rows))
        finals = [i for i, fin in enumerate(scc.final) if fin]
        if len(scc.order) == 1:
            uniqueness = Uniqueness.UNIQUE  # irreducible derivative
        if len(finals) == 1:
            uniqueness = Uniqueness.UNIQUE
            if scc.cyclicity[finals[0]] == 1:
                convergence = Convergence.ITERATES_CONVERGE
    return replace(verdict, uniqueness=uniqueness, convergence=convergence)
