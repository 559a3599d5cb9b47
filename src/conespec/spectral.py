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

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from .core import (INF, ConeMap, ExtVec, Side, SubsetMask, reciprocal,
                   sup_normalized)
from .errors import ConespecError, NumericRangeError
from . import maps as _maps

DEFAULT_BUDGET = 10_000
DEFAULT_TOL = 1e-10

#: An iterate entry below this triggers support analysis instead of drifting
#: further in floating point.
UNDERFLOW_GUARD = 1e-300


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
    """

    lower: float
    upper: float
    witness_lower: Optional[ExtVec]
    witness_upper: Optional[ExtVec]
    iterations: int
    converged: bool
    collapsed_support: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            raise ValueError(f"bracket out of order: {self.lower} > {self.upper}")

    def width(self) -> float:
        return self.upper - self.lower


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


def _stable_lower_support(f: ConeMap) -> SubsetMask:
    """Iterate the zero pattern of f on indicator points until it stabilizes."""
    n = f.dimension
    support = SubsetMask.full(n)
    for _ in range(n + 1):
        point = tuple(1.0 if support.contains(j) else 0.0 for j in range(n))
        out = tuple(e.evaluate(point) for e in f.exprs)
        new_bits = sum(1 << j for j in range(n)
                       if support.contains(j) and out[j] > 0.0)
        if new_bits == support.bits:
            return support
        support = SubsetMask(new_bits, n)
    return support


def _embed_witness(values: Tuple[float, ...], face: SubsetMask) -> ExtVec:
    full = [0.0] * face.n
    for k, j in enumerate(face.indices()):
        full[j] = values[k]
    return ExtVec.of(full)


def _ratio_range(fx: Tuple[float, ...],
                 x: Tuple[float, ...]) -> Tuple[float, float]:
    """(min, max) of fx_i / x_i at an interior iterate.

    An interior point has a finite image, so an infinite ratio means the
    map's values left the float range; that is reported instead of being
    iterated into inf/inf.
    """
    ratios = [v / u for v, u in zip(fx, x)]
    hi = max(ratios)
    if not hi < INF:
        raise NumericRangeError(
            "a map value overflowed the float range during the (f + id) "
            "iteration; rescale the coefficients")
    return min(ratios), hi


def _core_bracket(g: ConeMap, x0: Tuple[float, ...], budget: int,
                  tol: float) -> Tuple[float, float, Tuple[float, ...], Tuple[float, ...], int, bool]:
    """Best sandwich found by the normalized (g + id) iteration."""
    x = sup_normalized(x0)
    best_up = INF
    best_lo = 0.0
    wit_up = wit_lo = x
    iterations = 0
    converged = False
    for k in range(budget):
        iterations = k + 1
        fx = g.eval_interior(x)
        lo, hi = _ratio_range(fx, x)
        if hi < best_up:
            best_up, wit_up = hi, x
        if lo > best_lo:
            best_lo, wit_lo = lo, x
        if best_up - best_lo <= tol * max(best_up, UNDERFLOW_GUARD):
            converged = True
            break
        x = sup_normalized(tuple(u + v for u, v in zip(x, fx)))
        if min(x) < UNDERFLOW_GUARD:
            break  # trajectory left the face numerically; bracket stays sound
    return best_lo, best_up, wit_lo, wit_up, iterations, converged


def cw_upper(f: ConeMap, budget: int = DEFAULT_BUDGET,
             tol: float = DEFAULT_TOL) -> CWBracket:
    """Bracket [lambda, r] of a map, or of a lower restriction on its face.

    The support of the face is stabilized first (a lower restriction may
    collapse part of its face to zero); if everything collapses the spectral
    radius is exactly zero.  On multiplicatively convex AST maps the radius
    is assembled from strongly connected faces, where the iteration is
    guaranteed to converge.
    """
    n = f.dimension
    if f.is_ast:
        support = _stable_lower_support(f)
    else:
        support = SubsetMask.full(n)
    if support.is_empty():
        return CWBracket(0.0, 0.0, None, None, 0, True,
                         collapsed_support=())
    if support.is_full():
        g = f
        embed = lambda v: ExtVec.of(v)
    else:
        g = _maps.face_map(f, support, 0.0)
        embed = lambda v: _embed_witness(v, support)

    if g.is_ast and g.multiplicatively_convex and g.dimension > 1:
        bracket = _convex_radius(g, budget, tol)
        if bracket is not None:
            lo, up, wlo, wup, iters, conv = bracket
            result = CWBracket(lo, up, embed(wlo), embed(wup), iters, conv)
            return _attach_collapse(result, support, n)

    lo, up, wlo, wup, iters, conv = _core_bracket(
        g, (1.0,) * g.dimension, budget, tol)
    result = CWBracket(lo, up, embed(wlo), embed(wup), iters, conv)
    return _attach_collapse(result, support, n)


def _attach_collapse(bracket: CWBracket, support: SubsetMask, n: int) -> CWBracket:
    if support.is_full():
        return bracket
    return replace(bracket, collapsed_support=support.indices())


def _convex_radius(g: ConeMap, budget: int, tol: float):
    """r(g) = max over strongly connected components C of r(g^C_0)."""
    from .graphs import digraph_of, scc_decompose

    scc = scc_decompose(digraph_of(g))
    if len(scc.order) <= 1:
        return None
    best = None
    iterations = 0
    all_converged = True
    for comp in scc.order:
        mask = SubsetMask.of(comp, g.dimension)
        sub = _maps.restrict_map(g, mask, 0.0)
        b = cw_upper(sub, budget, tol)
        iterations += b.iterations
        all_converged = all_converged and b.converged
        if best is None or b.upper > best[1]:
            wlo = b.witness_lower.entries if b.witness_lower is not None else None
            wup = b.witness_upper.entries if b.witness_upper is not None else None
            best = (b.lower, b.upper, wlo, wup)
    lo, up, wlo, wup = best
    if wlo is None or wup is None:
        # the dominant component collapsed entirely; r(g) = 0 is exact
        ones = (1.0,) * g.dimension
        return 0.0, 0.0, ones, ones, iterations, True
    return lo, up, wlo, wup, iterations, all_converged


def cw_lower(f: ConeMap, budget: int = DEFAULT_BUDGET,
             tol: float = DEFAULT_TOL) -> CWBracket:
    """Bracket [lambda, r] computed through the reciprocal conjugate.

    lambda(f) = 1 / r(L f L), so the conjugate's bracket inverts into a
    bracket for f whose lower end is tight for lambda.  Upper restrictions
    become lower restrictions of the conjugate, so face stabilization and
    the convex decomposition apply transparently.
    """
    conj = _maps.conjugate_map(f)
    b = cw_upper(conj, budget, tol)
    if b.upper == 0.0:
        return CWBracket(INF, INF, None, None, b.iterations, True,
                         collapsed_support=b.collapsed_support)
    lower = 1.0 / b.upper
    upper = INF if b.lower == 0.0 else 1.0 / b.lower
    wl = reciprocal(b.witness_upper) if b.witness_upper is not None else None
    wu = reciprocal(b.witness_lower) if b.witness_lower is not None else None
    return CWBracket(lower, upper, wl, wu, b.iterations, b.converged,
                     collapsed_support=b.collapsed_support)


@dataclass(frozen=True)
class DisplacementInterval:
    """An enclosure of log r(f) - log lambda(f), clipped at zero below."""

    lower: float
    upper: float
    r_bracket: CWBracket
    lambda_bracket: CWBracket


def min_displacement(f: ConeMap, budget: int = DEFAULT_BUDGET,
                     tol: float = DEFAULT_TOL,
                     certificate: Optional[Tuple[CWBracket, CWBracket]] = None
                     ) -> DisplacementInterval:
    """Enclose the minimum displacement via the two Collatz-Wielandt brackets.

    Iteration alone only yields a joint [lambda, r] enclosure, so the lower
    end is zero unless a subset certificate (a pair of brackets for some
    r(f^J_0) and lambda(f^{[n]\\J}_inf) in reverse order) is supplied.
    """
    rb = cw_upper(f, budget, tol)
    lb = cw_lower(f, budget, tol)
    hi = math.log(rb.upper) - math.log(lb.lower)
    lo = 0.0
    if rb.lower > 0.0 and lb.upper < INF:
        lo = max(lo, math.log(rb.lower) - math.log(lb.upper))
    if certificate is not None:
        r_cert, l_cert = certificate
        if r_cert.lower > 0.0 and l_cert.upper < INF:
            lo = max(lo, math.log(r_cert.lower) - math.log(l_cert.upper))
    return DisplacementInterval(lo, max(lo, hi), rb, lb)


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
        x = x0.entries
    x = sup_normalized(x)
    best_up, best_lo = INF, 0.0
    wit_up = wit_lo = x
    iterations = 0
    for k in range(budget):
        iterations = k + 1
        fx = f.eval_interior(x)
        lo, hi = _ratio_range(fx, x)
        if hi < best_up:
            best_up, wit_up = hi, x
        if lo > best_lo:
            best_lo, wit_lo = lo, x
        residual = math.log(hi) - math.log(lo)
        if residual <= tol:
            vec = ExtVec.interior(x)
            return EigenResult(vec, hi, residual, k + 1)
        x = sup_normalized(tuple(u + v for u, v in zip(x, fx)))
        if min(x) < UNDERFLOW_GUARD:
            break
    raise NonconvergedError(CWBracket(
        best_lo, best_up, ExtVec.interior(wit_lo), ExtVec.interior(wit_up),
        iterations, False))


def iterate_normalized(f: ConeMap, x0: ExtVec, k: int) -> List[ExtVec]:
    """The first k sup-normalized iterates of f from x0 (diagnostic)."""
    if x0.side is not Side.INTERIOR:
        raise ValueError("starting point must be interior")
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
