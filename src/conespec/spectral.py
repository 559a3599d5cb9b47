"""Collatz-Wielandt brackets, minimum displacement, and the eigenvector solver.

All spectral estimates run the normalized (f + id) iteration: its normalized
iterates converge to an eigenvector whenever one exists in the open cone, and
either way every iterate x yields the sound sandwich

    min_i f(x)_i / x_i  <=  lambda(f)  <=  r(f)  <=  max_i f(x)_i / x_i

so brackets stay valid even when the iteration stalls.  On maps flagged
multiplicatively convex the spectral radius additionally decomposes over the
strongly connected components of the growth digraph, which certifies both
ends of the bracket even when the eigenspace is empty or unbounded.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass, replace
from itertools import repeat
from operator import add, truediv
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .core import (INF, ConeMap, ExtVec, Side, SubsetMask, gather_bits,
                   iter_bits, scatter_bits, sup_normalized)
from .errors import ConespecError, NumericRangeError
from .graphs import (Digraph, HypergraphProbe, SCCDecomposition,
                     digraph_of, scc_decompose)
from . import maps as _maps

DEFAULT_BUDGET = 10_000
DEFAULT_TOL = 1e-10

#: iterations of each bracket's first refinement where brackets are refined
#: only until a comparison decides; each later round refines twice as many
FIRST_CHUNK = 16

#: An iterate entry below this triggers support analysis instead of drifting
#: further in floating point.
UNDERFLOW_GUARD = 1e-300

#: the relative slack a `CWBracket`'s ends may cross each other by in float
ORDER_SLACK = 1e-12


class _Witness:
    """A witness field of `CWBracket` that embeds, when first read, a
    tuple (values, support, n, dual): `values` (or a callable giving a
    vector of them) on the face that keeps the mask `support` of n
    coordinates, reciprocated when `dual`."""

    def __set_name__(self, owner, name):
        self.name = "_" + name

    def __get__(self, bracket, owner=None):
        if bracket is None:
            raise AttributeError(self.name)  # the field has no default
        w = bracket.__dict__[self.name]
        if type(w) is tuple:
            values, support, n, dual = w
            values = values().entries if callable(values) else values
            full = [0.0] * n
            for k, j in enumerate(iter_bits(support)):
                full[j] = values[k]
            if dual:  # `reciprocal`: the values are finite
                full = [INF if v == 0.0 else 1.0 / v for v in full]
            w = bracket.__dict__[self.name] = ExtVec._unchecked(tuple(full))
        return w

    def __set__(self, bracket, value):
        bracket.__dict__[self.name] = value


@dataclass(frozen=True)
class CWBracket:
    """A certified interval [lower, upper] around a Collatz-Wielandt number.

    `lower` is the min ratio of f at `witness_lower` and `upper` the max
    ratio at `witness_upper` (ratios over the witness's support), so both
    ends can be revalidated by direct recomputation.  A bracket from
    cw_upper encloses r(f); one from cw_lower encloses lambda(f).  When the
    witnesses are interior points the same interval encloses the whole
    sandwich [lambda(f), r(f)]; component-decomposed brackets have boundary
    witnesses and certify only their targeted number.

    The brackets conespec builds embed each witness when it is first read
    (`_Witness`); `repr`, `==` and `hash` read both.
    """

    lower: float
    upper: float
    witness_lower: Optional[ExtVec] = _Witness()
    witness_upper: Optional[ExtVec] = _Witness()
    iterations: int
    converged: bool
    collapsed_support: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.lower > self.upper + ORDER_SLACK * max(1.0, abs(self.upper)):
            raise ValueError(f"bracket out of order: {self.lower} > {self.upper}")


@dataclass(frozen=True)
class EigenResult:
    """An interior eigenvector with its certified residual."""

    vector: ExtVec
    eigenvalue: float
    residual: float
    iterations: int


class NonconvergedError(ConespecError):
    """The solver exhausted its budget; carries the last certified bracket."""

    def __init__(self, bracket: CWBracket):
        self.bracket = bracket
        super().__init__(
            f"no convergence within budget; bracket [{bracket.lower}, {bracket.upper}]")


def ratios_at(f: ConeMap, w: ExtVec) -> Tuple[float, float]:
    """(min, max) of f(w)_i / w_i over the support of w; revalidates brackets."""
    out = f(w).entries
    if w.side is Side.UPPER:
        idx = [j for j, v in enumerate(w.entries) if v < INF]
    else:
        idx = [j for j, v in enumerate(w.entries) if v > 0.0]
    vals = [out[j] / w.entries[j] for j in idx]
    return min(vals), max(vals)


def _plain_trajectory(g: ConeMap, x: Sequence[float], budget: int, tol: float,
                      gap_stop: bool, residual_stop: bool, guard: float,
                      start=None):
    """The normalized (g + id) iteration from x, in plain Python.

    Each iterate x yields the ratios g(x)_i / x_i; their max and min feed
    the best sandwich seen so far.  Two stop rules can be asked for:
    `gap_stop` fires when the best sandwich closes to the relative
    tolerance `tol`, `residual_stop` when the current iterate's own ratios
    agree within `tol` in log scale (an iterate whose min ratio is 0 has an
    infinite residual).  The loop ends once every rule asked for has fired,
    after `budget` iterates, or when an iterate entry falls below `guard`.
    `start`, a sandwich (best_lo, best_up, wit_lo, wit_up) from an earlier
    run, is taken as the best seen so far.

    Returns (iterations, best_lo, best_up, wit_lo, wit_up, gap, eigen,
    last): the best sandwich over all iterates with its witnesses; `gap`,
    the best sandwich, its witnesses and the iteration count when the gap
    rule fired, else None; `eigen`, the iterate, its max ratio, its
    residual and the iteration count when the residual rule fired, else
    None; `last`, the last iterate, sup-normalized.  A run that spent its
    budget continues exactly when resumed from `last` with the returned
    sandwich as `start`: the max entry of `last` is exactly 1.0, so
    normalizing it again changes nothing.  Returns None when a map value
    overflows the float range: an interior point has a finite image, so an
    infinite ratio is reported instead of being iterated into inf/inf.  The
    compiled loop of an AST map (`ConeMap.interior_loop`) performs the same
    float operations in the same order.
    """
    x = sup_normalized(x)
    if start is None:
        best_up = INF
        best_lo = 0.0
        wit_up = wit_lo = x
    else:
        best_lo, best_up, wit_lo, wit_up = start
    gap = eigen = None
    k = 0
    while k < budget:
        k += 1
        fx = g.eval_interior(x)
        ratios = tuple(map(truediv, fx, x))
        hi = max(ratios)
        if not hi < INF:
            return None
        lo = min(ratios)
        if hi < best_up:
            best_up, wit_up = hi, x
        if lo > best_lo:
            best_lo, wit_lo = lo, x
        if gap_stop and best_up - best_lo <= tol * max(best_up, guard):
            gap = (best_lo, best_up, wit_lo, wit_up, k)
            gap_stop = False
            if not residual_stop:
                break
        if residual_stop and lo > 0.0:
            residual = math.log(hi) - math.log(lo)
            if residual <= tol:
                eigen = (x, hi, residual, k)
                residual_stop = False
                if not gap_stop:
                    break
        y = tuple(map(add, x, fx))
        x = tuple(map(truediv, y, repeat(max(y))))
        if min(x) < guard:
            break  # trajectory left the face numerically; brackets stay sound
    return k, best_lo, best_up, wit_lo, wit_up, gap, eigen, x


def _trajectory(g: ConeMap, x0: Sequence[float], budget: int, tol: float,
                gap_stop: bool, residual_stop: bool, start=None):
    """`_plain_trajectory`, run by g's compiled loop when it has one."""
    loop = g.interior_loop()
    if loop is None:
        run = _plain_trajectory(g, x0, budget, tol, gap_stop, residual_stop,
                                UNDERFLOW_GUARD, start)
    else:
        run = loop(x0, budget, tol, gap_stop, residual_stop, UNDERFLOW_GUARD,
                   start)
    if run is None:
        raise NumericRangeError(
            "a map value overflowed the float range during the (f + id) "
            "iteration; rescale the coefficients")
    return run


def _sandwich(run) -> Tuple[float, float, Tuple[float, ...],
                            Tuple[float, ...], int, bool]:
    """A trajectory's bracket: at the first gap hit, else over all iterates."""
    iterations, lo, up, wlo, wup, gap = run[:6]
    if gap is not None:
        return gap + (True,)
    return lo, up, wlo, wup, iterations, False


def _solution(run) -> Union[EigenResult, NonconvergedError]:
    """A trajectory's eigenvector at the first residual hit, or the error
    that carries its bracket over all iterates."""
    iterations, lo, up, wlo, wup, _, eigen, _ = run
    if eigen is None:
        return NonconvergedError(CWBracket(
            lo, up, ExtVec.interior(wlo), ExtVec.interior(wup),
            iterations, False))
    x, hi, residual, k = eigen
    return EigenResult(ExtVec.interior(x), hi, residual, k)


def _core_bracket(g: ConeMap, x0: Tuple[float, ...], budget: int,
                  tol: float, start=None):
    """Best sandwich found by the normalized (g + id) iteration.

    Returns (lo, up, wit_lo, wit_up, iterations, converged, last), with
    `start` and `last` as in `_plain_trajectory`.
    """
    run = _trajectory(g, x0, budget, tol, True, False, start)
    return _sandwich(run) + (run[7],)


class _Pinned(NamedTuple):
    """A face iterated on its root map's compiled body (`maps.face_loop`):
    all `_trajectory` reads of a map."""

    dimension: int
    loop: Callable

    #: like a black-box map, a pinned face has no expressions of its own
    exprs = None

    def interior_loop(self) -> Callable:
        return self.loop


class BracketState:
    """`_core_bracket` of g from the all-ones vector, resumable.

    g is a map or a `_Pinned` face.  The state keeps the best sandwich
    (lo, up) with its witnesses and the last iterate.  `refine(steps)` runs
    at most `steps` more iterations of the budget from there, so a state
    refined in any number of chunks ends bit-identical to one run of the
    whole budget.  Refinement only ever lowers `up` and raises `lo`.  The
    state is `done` once the gap closes (`converged`), the budget is spent,
    or an iterate falls below the underflow guard.
    """

    __slots__ = ("g", "budget", "tol", "x", "lo", "up", "wlo", "wup",
                 "iterations", "converged", "done")

    def __init__(self, g, budget: int, tol: float):
        self.g = g
        self.budget = budget
        self.tol = tol
        self.x = self.wlo = self.wup = (1.0,) * g.dimension
        self.lo, self.up = 0.0, INF
        self.iterations = 0
        self.converged = False
        self.done = budget <= 0

    def refine(self, steps: int) -> None:
        steps = min(steps, self.budget - self.iterations)
        if self.done or steps <= 0:
            return
        (self.lo, self.up, self.wlo, self.wup, k, self.converged,
         self.x) = _core_bracket(self.g, self.x, steps, self.tol,
                                 (self.lo, self.up, self.wlo, self.wup))
        self.iterations += k
        self.done = (self.converged or self.iterations >= self.budget
                     or min(self.x) < UNDERFLOW_GUARD)


class Faces:
    """The faces of one classification of a map f, each evaluated once.

    Every route of a classification brackets faces of f (the subset sweep
    and the faces its pruning checks, the convex route, the displacement)
    and shares them here: the budget and bracket tolerance, every
    `FaceSide` (`side`), which hands out its faces' brackets, and each
    face's `BracketState` or `_ConvexRadius` in `states` under its `key`.
    """

    def __init__(self, f: ConeMap, budget: int = DEFAULT_BUDGET,
                 tol: float = DEFAULT_TOL):
        self.f, self.budget, self.tol = f, budget, tol
        self.states: dict = {}
        self._sides: dict = {}
        # per output of f, the coordinates it reads (`key`)
        self._reads = None

    def side(self, fill: float, face: Optional[ConeMap] = None,
             inf: int = 0) -> FaceSide:
        """f's r side (`fill` 0) or lambda side (`fill` inf), made once;
        with `inf`, the side of f's face `face` with `inf` pinned to inf."""
        if inf:
            return FaceSide(self, face, fill, inf)
        side = self._sides.get(fill)
        if side is None:
            side = self._sides[fill] = FaceSide(self, self.f, fill)
        return side

    def key(self, side: FaceSide, kept: int) -> tuple:
        """The key of the face of `side` that keeps `kept`, its pins in f's
        coordinates (fill, inf, kept).  On an expression map, `inf` keeps
        only the inf pins a kept output reads: a face that reads none is
        the top-level face on the same coordinates.  Nothing tells which
        pins a black-box map's face reads, so its key keeps them all."""
        inf = side.inf
        if inf:
            kept = scatter_bits(kept, side.positions)
            if not self.f.is_ast:
                return side.fill, inf, kept
            if self._reads is None:
                self._reads = [_maps.coordinates_read(e)
                               for e in self.f.exprs]
            inf &= functools.reduce(
                operator.or_, (self._reads[j] for j in iter_bits(kept)))
        return side.fill, inf, kept


#: the exact brackets of a face whose whole support collapses
_COLLAPSED = CWBracket(0.0, 0.0, None, None, 0, True, collapsed_support=())
_COLLAPSED_DUAL = replace(_COLLAPSED, lower=INF, upper=INF)


class FaceSide:
    """The faces of one side of a map f: r(f^S_0) on the r side (`fill`
    0), lambda(f^S_inf) on the lambda side (`fill` inf), which cw_upper
    reads as r of the face of f's conjugate on S with the others at 0,
    each bracketed by `handle`.  The `Faces` of its classification makes
    the side and keeps its faces; `faces` refers to it weakly, so the
    cache is freed with the classification, not by the cycle collector.

    A side's hypergraph (`probe`) is f's own on the side's pole, lower on
    the r side and upper on the lambda side; it stabilizes the support.
    Faces are evaluated by pinning, not built: each is iterated on a
    compiled body of f on the r side, of `conjugate_map(f)` on the lambda
    side, with the coordinates it drops passed to the body as poles
    (`maps.face_loop`).  The r side of a face that pruning checks
    (`existence.Analyzer._face_kind`) is that of a face f of the root map:
    it pins through the root, the root's coordinates outside f (`inf`) to
    inf, and where the body raises it evaluates f's own face maps, whose
    inf pins f already has.  A side whose map has no compiled body (a
    black-box map, one whose outputs are all `Coord`, `Pole` or `Linear`,
    a tree too deep to compile) builds each face as a map of its own
    (`maps.face_map`).

    `shape`, f on the r side and its conjugate on the lambda side (None
    for a black-box map's), tells whether a face is multiplicatively
    convex, and gives its growth digraph (`growth`).
    """

    __slots__ = ("faces", "f", "fill", "inf", "positions", "_body",
                 "_probe", "_growth")

    def __init__(self, faces: Faces, f: ConeMap, fill: float, inf: int = 0):
        self.f, self.fill, self.inf = f, fill, inf
        self.faces = weakref.proxy(faces)
        root = faces.f
        # the root coordinate of each coordinate of f
        self.positions = tuple(j for j in range(root.dimension)
                               if not inf >> j & 1)
        # the lambda side's conjugate is built with its first face
        self._body = root if f.is_ast and fill == 0.0 else None
        self._probe = self._growth = None

    @property
    def body(self) -> Optional[ConeMap]:
        """The map whose body faces pin: the root, or f's conjugate."""
        if self._body is None and self.f.is_ast:
            self._body = _maps.conjugate_map(self.f)
        return self._body

    @property
    def shape(self) -> Optional[ConeMap]:
        return self.f if self.fill == 0.0 else self.body

    def probe(self) -> HypergraphProbe:
        """f's hypergraph on the side's pole, which stabilizes faces."""
        if self._probe is None:
            self._probe = HypergraphProbe(
                self.f, Side.LOWER if self.fill == 0.0 else Side.UPPER)
        return self._probe

    def growth(self) -> Tuple[Digraph, SCCDecomposition]:
        """The growth digraph of `shape` and its decomposition."""
        if self._growth is None:
            digraph = digraph_of(self.shape)
            self._growth = digraph, scc_decompose(digraph)
        return self._growth

    def stable(self) -> int:
        """The complement of the hypergraph's reach of the empty set: the
        coordinates no pin forces to the pole; all of a black-box map's."""
        full = (1 << self.f.dimension) - 1
        return full ^ self.probe()._reach(0) if self.f.is_ast else full

    def handle(self, kept: Optional[int] = None, support: Optional[int] = None,
               n: Optional[int] = None) -> CWHandle:
        """The bracket, refined on demand, of the face that keeps the
        stable mask `kept` (by default `stable`): cw_upper's on the r
        side, cw_lower's (`dual`) on the lambda side, with witnesses in the
        mask `support` of n coordinates, by default `kept` in f's.  An
        empty `kept` gives the exact [0, 0] (or [inf, inf])."""
        if kept is None:
            kept = self.stable()
        dual = self.fill == INF
        if not kept:
            return CWHandle(fixed=_COLLAPSED_DUAL if dual else _COLLAPSED)
        if support is None:
            support, n = kept, self.f.dimension
        face = self.face(kept)
        if type(face) is BracketState:
            return CWHandle(face, support, n, dual=dual)
        return CWHandle(support=support, n=n, fixed=face, dual=dual)

    def face(self, kept: int):
        """The `BracketState` of the face that keeps the stable mask
        `kept`, or its `_ConvexRadius` when it is multiplicatively convex
        and decomposes, made once per `faces`."""
        faces = self.faces
        key = faces.key(self, kept)
        face = faces.states.get(key)
        if face is not None:
            return face
        if self.f.is_ast and kept.bit_count() > 1 and (
                self.shape.multiplicatively_convex
                if kept == (1 << self.f.dimension) - 1
                else _maps.face_convex(self.shape.exprs, kept)):
            face = _convex_radius(self, kept)
        if face is None:
            face = BracketState(self._iterated(kept), faces.budget,
                                faces.tol)
        faces.states[key] = face
        return face

    def _iterated(self, kept: int):
        """The map, or the pinned face, that the face on `kept` iterates:
        on the whole support, f or its conjugate itself, which runs its
        own loop (`ConeMap.interior_loop`)."""
        n = self.f.dimension
        full = kept == (1 << n) - 1
        if full and not self.inf and self.shape is not None:
            return self.shape
        if self.body is not None:
            root = scatter_bits(kept, self.positions) if self.inf else kept
            loop = _maps.face_loop(self.body, root, self.inf, self.shape,
                                   kept)
            if loop is not None:
                return _Pinned(kept.bit_count(), loop)
        g = self.f if full else _maps.face_map(self.f, SubsetMask(kept, n),
                                               self.fill)
        return _maps.conjugate_map(g) if self.fill == INF else g


def _dual_bounds(lo: float, up: float) -> Tuple[float, float]:
    """lambda(f)'s enclosure from an enclosure [lo, up] of r(L f L)."""
    if up == 0.0:
        return INF, INF
    return 1.0 / up, INF if lo == 0.0 else 1.0 / lo


class CWHandle:
    """The bracket cw_upper or cw_lower returns, refined on demand.

    `FaceSide.handle` makes the handle of each face.  A handle reads the
    `BracketState` of the map cw_upper iterates, whose witnesses go to the
    mask `support` of `n` coordinates; `dual`, set on the lambda side,
    turns the conjugate's bracket into cw_lower's.  A bracket that needs
    no iteration, or a `_ConvexRadius` (turned as a state is), is `fixed`
    when the handle is made.  `bounds()` reads the current enclosure as
    two floats; `bracket()` builds the certificate.
    """

    __slots__ = ("state", "support", "n", "fixed", "dual")

    def __init__(self, state: Optional[BracketState] = None,
                 support: int = 0, n: int = 0,
                 fixed: Optional[CWBracket] = None, dual: bool = False):
        self.state = state
        self.support = support
        self.n = n
        self.fixed = fixed
        self.dual = dual

    @property
    def done(self) -> bool:
        return self.state is None or self.state.done

    def refine(self, steps: int) -> None:
        if self.state is not None:
            self.state.refine(steps)

    def bounds(self) -> Tuple[float, float]:
        if self.state is None:
            lo, up = self.fixed.lower, self.fixed.upper
        else:
            lo, up = self.state.lo, self.state.up
        return _dual_bounds(lo, up) if self.dual else (lo, up)

    def bracket(self) -> CWBracket:
        b = self.fixed
        if b is None:
            s = self.state
            return _on_support(self.support, self.n, s.lo, s.up, s.wlo,
                               s.wup, s.iterations, s.converged, self.dual)
        if type(b) is _ConvexRadius:
            return b.bracket(self.support, self.n, self.dual)
        return b

    def finished(self) -> CWBracket:
        """The bracket refined to the whole budget."""
        if self.state is not None:
            self.state.refine(self.state.budget)
        return self.bracket()


def cw_upper(f: ConeMap, budget: int = DEFAULT_BUDGET,
             tol: float = DEFAULT_TOL) -> CWBracket:
    """Bracket [lambda, r] of a map, or of a lower restriction on its face.

    The support of the face is stabilized first (a lower restriction may
    collapse part of its face to zero); if everything collapses the spectral
    radius is exactly zero.  On multiplicatively convex AST maps the radius
    is assembled from strongly connected faces, where the iteration is
    guaranteed to converge.  An output identically inf raises.
    """
    _maps.reject_pole_outputs(f, zero=False)
    faces = Faces(f, budget, tol)
    return faces.side(0.0).handle().finished()


def _bracket_and_solution(faces: Faces) -> Optional[
        Tuple[CWBracket, Union[EigenResult, NonconvergedError]]]:
    """cw_upper(f) and solve_eigenvector(f)'s outcome, from one trajectory,
    with f = `faces.f` and the budget and tolerance of `faces`.

    For f that is not multiplicatively convex, or whose growth digraph is
    strongly connected, cw_upper(f) applies no convex decomposition, so
    unless part of f's support collapses it iterates f itself from the
    all-ones vector: the solve's trajectory.  That trajectory then runs
    until both stop rules have fired, and the bracket and the outcome (the
    EigenResult, or the NonconvergedError the solve would raise) are
    bit-identical to separate calls.  Returns None when the support
    collapses; the two then iterate different maps.  f's bracket state is
    kept in `faces` refined to the whole budget, so a later handle of f's
    r side reads it without iterating again.
    """
    f, side = faces.f, faces.side(0.0)
    n = f.dimension
    if side.stable() != (1 << n) - 1:
        return None
    run = _trajectory(f, (1.0,) * n, faces.budget, faces.tol, True, True)
    sandwich = _sandwich(run)
    state = side.face((1 << n) - 1)
    if type(state) is BracketState and not state.done:
        (state.lo, state.up, state.wlo, state.wup, state.iterations,
         state.converged) = sandwich
        # a gap-only run stops at the gap with another last iterate, but a
        # done state never reads it
        state.x, state.done = run[7], True
    return _on_support((1 << n) - 1, n, *sandwich), _solution(run)


def _on_support(support: int, n: int, lo: float, up: float, wlo, wup,
                iterations: int, converged: bool,
                dual: bool = False) -> CWBracket:
    """A sandwich of f's face on the mask `support` of n coordinates as a
    bracket in f's coordinates, cw_lower's from the conjugate's if `dual`."""
    collapsed = None if support == (1 << n) - 1 else tuple(iter_bits(support))
    if dual:
        if up == 0.0:
            return CWBracket(INF, INF, None, None, iterations, True,
                             collapsed)
        (lo, up), wlo, wup = _dual_bounds(lo, up), wup, wlo
    return CWBracket(lo, up, (wlo, support, n, dual), (wup, support, n, dual),
                     iterations, converged, collapsed)


class _ConvexRadius(NamedTuple):
    """r(g) of a multiplicatively convex g, as `_convex_radius` found it.

    `classes` holds the handle of each strongly connected component's
    face, in the order of g's decomposition, refined to the whole budget.
    `lower` and `upper` are the ends of the bracket, which is built only
    when asked for: from `top`, the handle of the dominant component's
    face, or with r(g) = 0 exact when `top` is None.
    """

    lower: float
    upper: float
    top: Optional[CWHandle]
    dimension: int
    iterations: int
    converged: bool
    classes: Tuple[CWHandle, ...]

    def bracket(self, support: int, n: int, dual: bool) -> CWBracket:
        if self.top is None:
            ones = (1.0,) * self.dimension
            return _on_support(support, n, 0.0, 0.0, ones, ones,
                               self.iterations, True, dual)
        b = self.top.bracket()
        return _on_support(support, n, self.lower, self.upper,
                           functools.partial(getattr, b, "witness_lower"),
                           functools.partial(getattr, b, "witness_upper"),
                           self.iterations, self.converged, dual)


def _convex_radius(side: FaceSide, kept: int) -> Optional[_ConvexRadius]:
    """r(g) of the multiplicatively convex face g of `side` on `kept`: the
    max over g's strongly connected components C of r(g^C_0), each face
    refined to the whole budget; None for a single component."""
    n = side.f.dimension
    full = (1 << n) - 1
    scc = side.growth()[1] if kept == full else \
        scc_decompose(digraph_of(side.shape, kept))
    if len(scc.order) <= 1:
        return None
    positions = tuple(iter_bits(kept))
    classes = []
    best = None
    iterations = 0
    all_converged = True
    for comp in scc.order:
        outside = full & ~sum(1 << positions[c] for c in comp)
        stable = full & ~side.probe()._reach(outside)
        # r of the shape's face on either side, so never dual
        face = side.face(stable) if stable else _COLLAPSED
        support = gather_bits(stable, positions)
        h = CWHandle(face, support, len(positions)) if type(face) is \
            BracketState else CWHandle(None, support, len(positions), face)
        h.refine(side.faces.budget)
        classes.append(h)
        # a state, a fixed bracket and a radius all count the same way
        iterations += face.iterations
        all_converged = all_converged and face.converged
        lo, up = h.bounds()
        if best is None or up > best[1]:
            best = (lo, up, None if not stable else h)
    lo, up, top = best
    # when the dominant component collapsed entirely, r(g) = 0 is exact
    return _ConvexRadius(lo, up, top, len(positions), iterations,
                         all_converged or top is None, tuple(classes))


def cw_lower(f: ConeMap, budget: int = DEFAULT_BUDGET,
             tol: float = DEFAULT_TOL) -> CWBracket:
    """Bracket [lambda, r] computed through the reciprocal conjugate.

    lambda(f) = 1 / r(L f L), so the conjugate's bracket inverts into a
    bracket for f whose lower end is tight for lambda.  Upper restrictions
    become lower restrictions of the conjugate, so face stabilization and
    the convex decomposition apply transparently.  An output identically
    0 raises.
    """
    _maps.reject_pole_outputs(f, inf=False)
    faces = Faces(f, budget, tol)
    return faces.side(INF).handle().finished()


@dataclass(frozen=True)
class DisplacementInterval:
    """An enclosure of log r(f) - log lambda(f), clipped at zero below.

    `converged` means the interval closed to the bracket tolerance,
    `upper - lower <= tol * max(1, upper)`; the brackets behind it were then
    refined only that far.  An interval that did not close comes from
    brackets refined to the whole budget.  `r_bracket` and `lambda_bracket`
    are cw_upper's and cw_lower's brackets of f as they stood at the end.
    """

    lower: float
    upper: float
    r_bracket: CWBracket
    lambda_bracket: CWBracket
    converged: bool


def _log_ratio(num: float, den: float, default: float) -> float:
    """log(num) - log(den) when both are positive and finite, else
    `default`."""
    if 0.0 < num < INF and 0.0 < den < INF:
        return math.log(num) - math.log(den)
    return default


def min_displacement(f: ConeMap, budget: int = DEFAULT_BUDGET,
                     tol: float = DEFAULT_TOL,
                     certificate: Optional[Tuple[CWHandle, CWHandle]] = None,
                     faces: Optional[Faces] = None) -> DisplacementInterval:
    """Enclose the minimum displacement via the two Collatz-Wielandt brackets.

    Iteration alone only yields a joint [lambda, r] enclosure, so the lower
    end is zero unless a subset certificate (handles of the brackets for
    some r(f^J_0) and lambda(f^{[n]\\J}_inf) in reverse order) is supplied.
    The brackets of f and the certificate's are refined together,
    FIRST_CHUNK iterations each at first and twice as many each round, and
    only until the interval closes to `tol` or every bracket is done.  Each
    round's interval is a sound enclosure; one that never closes is the
    interval of fully refined brackets.  Where an end of f's brackets is 0
    or inf, the upper end is inf.  `faces`, the `Faces` of a classification
    of f, shares that classification's faces, and its budget and tolerance
    replace `budget` and `tol`.  An output identically 0 or inf raises, as
    in `cw_upper` and `cw_lower`.
    """
    _maps.reject_pole_outputs(f)
    faces = Faces(f, budget, tol) if faces is None else faces
    pairs = [(faces.side(0.0).handle(), faces.side(INF).handle())]
    if certificate is not None:
        pairs.append(certificate)
    handles = [h for pair in pairs for h in pair]
    steps = FIRST_CHUNK
    while True:
        bounds = [(rh.bounds(), lh.bounds()) for rh, lh in pairs]
        lo = max(0.0, *(_log_ratio(r_lo, l_up, 0.0)
                        for (r_lo, _), (_, l_up) in bounds))
        (_, r_up), (l_lo, _) = bounds[0]
        hi = max(lo, _log_ratio(r_up, l_lo, INF))
        # before any refinement hi is inf, and inf - lo <= tol * inf holds
        closed = hi != INF and hi - lo <= faces.tol * max(1.0, hi)
        if closed or all(h.done for h in handles):
            break
        for h in handles:
            h.refine(steps)
        steps *= 2
    rh, lh = pairs[0]
    return DisplacementInterval(lo, hi, rh.bracket(), lh.bracket(), closed)


def solve_eigenvector(f: ConeMap, x0: Optional[ExtVec] = None,
                      budget: int = DEFAULT_BUDGET,
                      tol: float = DEFAULT_TOL) -> EigenResult:
    """Find an interior eigenvector by the normalized (f + id) iteration.

    Raises NonconvergedError with the certified bracket when the budget runs
    out, which happens exactly when no interior eigenvector is reachable at
    the requested residual.
    """
    if x0 is None:
        x = (1.0,) * f.dimension
    else:
        if x0.side is not Side.INTERIOR:
            raise ValueError("starting point must be interior")
        f.expect_dimension(x0.n, "starting point")
        x = x0.entries
    outcome = _solution(_trajectory(f, x, budget, tol, False, True))
    if isinstance(outcome, NonconvergedError):
        raise outcome
    return outcome


def iterate_normalized(f: ConeMap, x0: ExtVec, k: int) -> List[ExtVec]:
    """The first k sup-normalized iterates of f from x0 (diagnostic)."""
    if x0.side is not Side.INTERIOR:
        raise ValueError("starting point must be interior")
    f.expect_dimension(x0.n, "starting point")
    out = []
    x = sup_normalized(x0.entries)
    for _ in range(k):
        x = sup_normalized(f.eval_interior(x))
        out.append(ExtVec.interior(x))
    return out


def plus_identity(f: ConeMap) -> ConeMap:
    """The map f + id, sharing f's capability flags."""
    if f.is_ast:
        exprs = tuple(_maps.Sum((e, _maps.Coord(i)))
                      for i, e in enumerate(f.exprs))
        return _maps.from_exprs(exprs, f.dimension)

    def evaluator(x):
        out = f.evaluator(x)
        return tuple(u + v for u, v in zip(x, out))

    return ConeMap(dimension=f.dimension, evaluator=evaluator,
                   multiplicatively_convex=f.multiplicatively_convex,
                   analytic=f.analytic)
