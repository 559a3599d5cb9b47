"""AST node library for order-preserving homogeneous maps.

Every node is positively homogeneous of degree one by construction, and each
node carries an exact one-sided extended evaluation rule, so boundary probes
(coordinates pinned to 0 or inf) are computed symbolically rather than by
large-argument sampling.  Restrictions and reciprocal conjugation are AST
transforms; pinned coordinates simplify away, which lets restricted maps be
reduced to genuine lower-dimensional maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .core import INF, ConeMap, ExtVec, Side, SubsetMask, iter_bits
from .errors import EmptySupportError, ZeroRowError

# ---------------------------------------------------------------------------
# Nodes


class Expr:
    """Base class for map-expression nodes."""

    __slots__ = ()

    def evaluate(self, x: Tuple[float, ...]) -> float:
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Coord(Expr):
    """The j-th input coordinate."""

    index: int

    def evaluate(self, x):
        return x[self.index]


@dataclass(frozen=True)
class Pole(Expr):
    """An absorbed pole (0 or inf); arises only from pinning coordinates."""

    value: float

    def __post_init__(self):
        if self.value not in (0.0, INF):
            raise ValueError("Pole holds 0 or inf only")

    def evaluate(self, x):
        return self.value


@dataclass(frozen=True)
class Scale(Expr):
    """A positive constant multiple of a subexpression."""

    factor: float
    child: Expr

    def __post_init__(self):
        if not (self.factor > 0.0 and math.isfinite(self.factor)):
            raise ValueError("scale factor must be positive and finite")

    def evaluate(self, x):
        return self.factor * self.child.evaluate(x)

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Sum(Expr):
    """Sum of subexpressions; inf is absorbing."""

    terms: Tuple[Expr, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("Sum needs at least one term")

    def evaluate(self, x):
        total = 0.0
        for t in self.terms:
            total += t.evaluate(x)
        return total

    def children(self):
        return self.terms


@dataclass(frozen=True)
class Linear(Expr):
    """A nonnegative linear form sum_j w_j x_j stored by its nonzeros only.

    `nonzeros` holds the pairs (j, w_j) with w_j > 0, in increasing j.
    Coordinates outside them are never read, so evaluation and every
    transform cost O(nnz) rather than O(n).
    """

    nonzeros: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        if not self.nonzeros:
            raise ZeroRowError("linear form needs a positive weight")
        last = -1
        for j, w in self.nonzeros:
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError("linear weights must be finite and positive")
            if j <= last:
                raise ValueError("linear indices must be increasing")
            last = j

    def evaluate(self, x):
        total = 0.0
        for j, w in self.nonzeros:
            total += w * x[j]
        return total


@dataclass(frozen=True)
class Min(Expr):
    terms: Tuple[Expr, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("Min needs at least one term")

    def evaluate(self, x):
        return min(t.evaluate(x) for t in self.terms)

    def children(self):
        return self.terms


@dataclass(frozen=True)
class Max(Expr):
    terms: Tuple[Expr, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("Max needs at least one term")

    def evaluate(self, x):
        return max(t.evaluate(x) for t in self.terms)

    def children(self):
        return self.terms


@dataclass(frozen=True)
class PowerMean(Expr):
    """The weighted power mean of its children.

    Weights are positive and sum to one; children with zero weight are not
    stored.  The exponent r may be any real; r = 0 is the geometric mean.
    """

    r: float
    weights: Tuple[float, ...]
    terms: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.terms) or not self.terms:
            raise ValueError("weights and terms must align and be nonempty")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("stored mean weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("mean weights must sum to one")

    def evaluate(self, x):
        return eval_mean(self.r, self.weights, [t.evaluate(x) for t in self.terms])

    def children(self):
        return self.terms


def _pow_safe(v: float, r: float) -> float:
    # v > 0 finite; extreme exponents may overflow the float range
    try:
        return v ** r
    except OverflowError:
        return INF


def eval_mean(r: float, sigma: Sequence[float], values: Sequence[float]) -> float:
    """The (r, sigma)-mean of `values`, with exact one-sided pole handling.

    Entries of sigma with weight zero are ignored entirely.  The remaining
    rules are the continuous one-sided extensions:

    * r > 0: zeros contribute nothing; any supported inf gives inf.
    * r = 0: any supported zero gives 0; any supported inf gives inf.
    * r < 0: any supported zero gives 0; supported infs drop out of the sum
      (their reciprocal contributes 0), and if every term drops the mean
      is inf.
    """
    pairs = [(w, v) for w, v in zip(sigma, values) if w > 0.0]
    if not pairs:
        raise EmptySupportError("mean weights have empty support")
    if r > 0.0:
        if any(v == INF for _, v in pairs):
            return INF
        total = sum(w * _pow_safe(v, r) for w, v in pairs)
        return _pow_safe(total, 1.0 / r) if total > 0.0 else 0.0
    if r == 0.0:
        if any(v == 0.0 for _, v in pairs):
            return 0.0
        if any(v == INF for _, v in pairs):
            return INF
        return math.exp(sum(w * math.log(v) for w, v in pairs))
    # r < 0
    if any(v == 0.0 for _, v in pairs):
        return 0.0
    finite = [(w, v) for w, v in pairs if v < INF]
    if not finite:
        return INF
    total = sum(w * _pow_safe(v, r) for w, v in finite)
    return 0.0 if total == INF else _pow_safe(total, 1.0 / r)


# ---------------------------------------------------------------------------
# Capability flags

def _is_analytic(e: Expr) -> bool:
    if isinstance(e, (Coord, Pole, Linear)):
        return True
    if isinstance(e, (Min, Max)):
        return False
    if isinstance(e, PowerMean):
        # Negative-exponent means are kept off the analytic fast paths.
        if e.r < 0.0:
            return False
        return all(_is_analytic(c) for c in e.terms)
    return all(_is_analytic(c) for c in e.children())


def _is_mult_convex(e: Expr) -> bool:
    if isinstance(e, (Coord, Pole, Linear)):
        return True
    if isinstance(e, Min):
        return False
    if isinstance(e, Max):
        # max of multiplicatively convex maps is multiplicatively convex
        return all(_is_mult_convex(c) for c in e.terms)
    if isinstance(e, PowerMean):
        if e.r < 0.0:
            return False
        return all(_is_mult_convex(c) for c in e.terms)
    return all(_is_mult_convex(c) for c in e.children())


def from_exprs(exprs: Sequence[Expr], dimension: int) -> ConeMap:
    """Package coordinate expressions into a ConeMap, deriving its flags."""
    exprs = tuple(exprs)
    return ConeMap(
        dimension=dimension,
        exprs=exprs,
        multiplicatively_convex=all(_is_mult_convex(e) for e in exprs),
        analytic=all(_is_analytic(e) for e in exprs),
    )


# ---------------------------------------------------------------------------
# Pinning (partial evaluation) and restriction

def pin(e: Expr, assignment: Dict[int, float]) -> Expr:
    """Partially evaluate `e` with some coordinates pinned to a pole.

    The assignment maps coordinate index -> 0.0 or inf.  The result never
    probes a pinned coordinate, and reduces to a Pole when the value is
    forced.
    """
    if isinstance(e, Coord):
        v = assignment.get(e.index)
        return Pole(v) if v is not None else e
    if isinstance(e, Pole):
        return e
    if isinstance(e, Scale):
        c = pin(e.child, assignment)
        if isinstance(c, Pole):
            return c
        return _scale(e.factor, c)
    if isinstance(e, Linear):
        kept = []
        for j, w in e.nonzeros:
            v = assignment.get(j)
            if v is None:
                kept.append((j, w))
            elif v == INF:
                return Pole(INF)
        if not kept:
            return Pole(0.0)
        return e if len(kept) == len(e.nonzeros) else Linear(tuple(kept))
    if isinstance(e, Sum):
        kept = []
        for t in e.terms:
            p = pin(t, assignment)
            if isinstance(p, Pole):
                if p.value == INF:
                    return Pole(INF)
                continue
            kept.append(p)
        if not kept:
            return Pole(0.0)
        return kept[0] if len(kept) == 1 else Sum(tuple(kept))
    if isinstance(e, Min):
        kept = []
        for t in e.terms:
            p = pin(t, assignment)
            if isinstance(p, Pole):
                if p.value == 0.0:
                    return Pole(0.0)
                continue  # inf never attains a min with other branches present
            kept.append(p)
        if not kept:
            return Pole(INF)
        return kept[0] if len(kept) == 1 else Min(tuple(kept))
    if isinstance(e, Max):
        kept = []
        for t in e.terms:
            p = pin(t, assignment)
            if isinstance(p, Pole):
                if p.value == INF:
                    return Pole(INF)
                continue
            kept.append(p)
        if not kept:
            return Pole(0.0)
        return kept[0] if len(kept) == 1 else Max(tuple(kept))
    if isinstance(e, PowerMean):
        kept_w, kept_t = [], []
        for w, t in zip(e.weights, e.terms):
            p = pin(t, assignment)
            if isinstance(p, Pole):
                if e.r > 0.0:
                    if p.value == INF:
                        return Pole(INF)
                    continue  # zero term contributes nothing to the sum
                if e.r == 0.0:
                    return Pole(p.value)
                if p.value == 0.0:
                    return Pole(0.0)
                continue  # r < 0: reciprocal of inf drops out
            kept_w.append(w)
            kept_t.append(p)
        if not kept_t:
            return Pole(0.0) if e.r > 0.0 else Pole(INF)
        mass = sum(kept_w)
        node: Expr
        if len(kept_t) == 1:
            node = kept_t[0]
        else:
            node = PowerMean(e.r, tuple(w / mass for w in kept_w), tuple(kept_t))
        if abs(mass - 1.0) > 1e-15:
            # (sum of kept sigma_i v_i^r)^(1/r) = mass^(1/r) * renormalized mean
            node = _scale(mass ** (1.0 / e.r) if e.r != 0.0 else 1.0, node)
        return node
    raise TypeError(f"unknown node {type(e).__name__}")


def _scale(factor: float, e: Expr) -> Expr:
    if isinstance(e, Scale):
        factor = factor * e.factor
        e = e.child
    return e if factor == 1.0 else Scale(factor, e)


def restrict_map(f: ConeMap, J: SubsetMask, fill: float) -> ConeMap:
    """Build P^J f P^J with the given pole as fill, keeping the dimension."""
    n = f.dimension
    outside = {j: fill for j in range(n) if not J.contains(j)}
    if f.is_ast:
        exprs = tuple(
            pin(f.exprs[i], outside) if J.contains(i) else Pole(fill)
            for i in range(n)
        )
        return from_exprs(exprs, n)

    surrogate = 1e12 if fill == INF else 0.0

    def evaluator(x):
        inner = tuple(x[j] if J.contains(j) else surrogate for j in range(n))
        out = f.evaluator(inner)
        return tuple(out[i] if J.contains(i) else fill for i in range(n))

    return ConeMap(dimension=n, evaluator=evaluator,
                   multiplicatively_convex=f.multiplicatively_convex,
                   analytic=f.analytic)


def face_map(f: ConeMap, keep: SubsetMask, fill: float) -> ConeMap:
    """Reduce a restriction to a genuine map on the coordinates in `keep`.

    Valid when pinning [n]\\keep to the fill pole leaves every kept output
    finite-structured, i.e. the support is already stable.
    """
    n = f.dimension
    kept = keep.indices()
    if not kept:
        raise ValueError("face needs at least one coordinate")
    reindex = {j: k for k, j in enumerate(kept)}
    outside = {j: fill for j in range(n) if not keep.contains(j)}
    if f.is_ast:
        exprs = []
        for i in kept:
            p = pin(f.exprs[i], outside)
            if isinstance(p, Pole):
                raise ValueError(
                    f"coordinate {i} collapses to a pole; support not stable")
            exprs.append(_reindex(p, reindex))
        return from_exprs(exprs, len(kept))

    surrogate = 1e12 if fill == INF else 0.0

    def evaluator(y):
        inner = [surrogate] * n
        for j, k in reindex.items():
            inner[j] = y[k]
        out = f.evaluator(tuple(inner))
        return tuple(out[j] for j in kept)

    return ConeMap(dimension=len(kept), evaluator=evaluator,
                   multiplicatively_convex=f.multiplicatively_convex,
                   analytic=f.analytic)


def _reindex(e: Expr, table: Dict[int, int]) -> Expr:
    if isinstance(e, Coord):
        return Coord(table[e.index])
    if isinstance(e, Pole):
        return e
    if isinstance(e, Scale):
        return Scale(e.factor, _reindex(e.child, table))
    if isinstance(e, Linear):
        # the table is increasing, so the pairs stay in index order
        return Linear(tuple((table[j], w) for j, w in e.nonzeros))
    if isinstance(e, Sum):
        return Sum(tuple(_reindex(t, table) for t in e.terms))
    if isinstance(e, Min):
        return Min(tuple(_reindex(t, table) for t in e.terms))
    if isinstance(e, Max):
        return Max(tuple(_reindex(t, table) for t in e.terms))
    if isinstance(e, PowerMean):
        return PowerMean(e.r, e.weights, tuple(_reindex(t, table) for t in e.terms))
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Reciprocal conjugation

def conjugate_expr(e: Expr) -> Expr:
    """The node transform realizing x -> 1 / e(1/x)."""
    if isinstance(e, Coord):
        return e
    if isinstance(e, Pole):
        return Pole(0.0 if e.value == INF else INF)
    if isinstance(e, Scale):
        return _scale(1.0 / e.factor, conjugate_expr(e.child))
    if isinstance(e, Linear):
        support = e.nonzeros
        total = sum(w for _, w in support)
        if len(support) == 1:
            j, w = support[0]
            return _scale(1.0 / w, Coord(j))
        mean = PowerMean(-1.0, tuple(w / total for _, w in support),
                         tuple(Coord(j) for j, _ in support))
        return _scale(1.0 / total, mean)
    if isinstance(e, Sum):
        k = len(e.terms)
        mean = PowerMean(-1.0, tuple(1.0 / k for _ in e.terms),
                         tuple(conjugate_expr(t) for t in e.terms))
        return _scale(1.0 / k, mean)
    if isinstance(e, Min):
        return Max(tuple(conjugate_expr(t) for t in e.terms))
    if isinstance(e, Max):
        return Min(tuple(conjugate_expr(t) for t in e.terms))
    if isinstance(e, PowerMean):
        return PowerMean(-e.r, e.weights, tuple(conjugate_expr(t) for t in e.terms))
    raise TypeError(f"unknown node {type(e).__name__}")


def conjugate_map(f: ConeMap) -> ConeMap:
    if f.is_ast:
        return from_exprs(tuple(conjugate_expr(e) for e in f.exprs), f.dimension)

    def evaluator(x):
        inv = tuple(1.0 / v for v in x)
        out = f.evaluator(inv)
        return tuple(1.0 / v for v in out)

    return ConeMap(dimension=f.dimension, evaluator=evaluator)


# ---------------------------------------------------------------------------
# Constructors

def matrix_map(rows: Sequence[Sequence[float]]) -> ConeMap:
    """The linear map of a nonnegative matrix with no zero row."""
    n = len(rows)
    exprs = []
    for i, row in enumerate(rows):
        row = tuple(float(v) for v in row)
        if len(row) != n:
            raise ValueError("matrix must be square")
        # negative and non-finite entries are kept so that Linear rejects them
        nonzeros = tuple((j, v) for j, v in enumerate(row) if v != 0.0)
        if not nonzeros:
            raise ZeroRowError(f"row {i + 1} of the matrix is zero")
        exprs.append(Linear(nonzeros))
    return from_exprs(exprs, n)


def max_times_map(rows: Sequence[Sequence[float]]) -> ConeMap:
    """The max-times (tropical-multiplicative) map of a nonnegative matrix."""
    n = len(rows)
    exprs = []
    for i, row in enumerate(rows):
        terms = [_scale(float(v), Coord(j)) for j, v in enumerate(row) if v > 0.0]
        if not terms:
            raise ZeroRowError(f"row {i + 1} of the matrix is zero")
        exprs.append(terms[0] if len(terms) == 1 else Max(tuple(terms)))
    return from_exprs(exprs, n)


def monomial(coefficient: float, exponents: Dict[int, float]) -> Expr:
    """c * prod_j x_j^{p_j} with exponents summing to one."""
    items = sorted((j, p) for j, p in exponents.items() if p != 0.0)
    if not items:
        raise ValueError("monomial needs at least one variable")
    total = sum(p for _, p in items)
    if abs(total - 1.0) > 1e-12:
        raise ValueError("monomial exponents must sum to one")
    if any(p < 0.0 for _, p in items):
        raise ValueError("monomial exponents must be nonnegative")
    if len(items) == 1:
        node: Expr = Coord(items[0][0])
    else:
        node = PowerMean(0.0, tuple(p for _, p in items),
                         tuple(Coord(j) for j, _ in items))
    return _scale(float(coefficient), node)


def theta(a: Expr, b: Expr) -> Expr:
    """theta(s, t) = (s^-1 + t^-1)^-1, i.e. half the harmonic mean."""
    return Scale(0.5, PowerMean(-1.0, (0.5, 0.5), (a, b)))


def build_tensor_map(table) -> ConeMap:
    """The H-eigenproblem map of a nonnegative order-d coefficient table.

    `table` is a nested sequence with d levels of depth and extent n at each
    level: table[i][j2]...[jd] >= 0.  Coordinate i evaluates to
    (sum over j2..jd of a_{i j2..jd} x_{j2}...x_{jd})^(1/(d-1)).
    """
    n = len(table)
    d = 1
    probe = table
    while isinstance(probe, (list, tuple)):
        if len(probe) != n:
            raise ValueError("tensor must have equal extent n in every mode")
        d += 1
        probe = probe[0]
    d -= 1
    if d < 2:
        raise ValueError("tensor order must be at least 2")

    def iter_entries(block, prefix):
        if len(prefix) == d - 1:
            yield prefix, float(block)
            return
        for j, sub in enumerate(block):
            yield from iter_entries(sub, prefix + (j,))

    exprs = []
    for i in range(n):
        coeffs, monos = [], []
        for idx, a in sorted(iter_entries(table[i], ())):
            if a < 0.0:
                raise ValueError("tensor entries must be nonnegative")
            if a == 0.0:
                continue
            exps: Dict[int, float] = {}
            for j in idx:
                exps[j] = exps.get(j, 0.0) + 1.0 / (d - 1)
            coeffs.append(a)
            monos.append(monomial(1.0, exps))
        if not coeffs:
            raise ZeroRowError(f"tensor coordinate {i + 1} has all-zero coefficients")
        total = sum(coeffs)
        if len(monos) == 1:
            node = _scale(total ** (1.0 / (d - 1)), monos[0])
        else:
            mean = PowerMean(float(d - 1), tuple(c / total for c in coeffs),
                             tuple(monos))
            node = _scale(total ** (1.0 / (d - 1)), mean)
        exprs.append(node)
    return from_exprs(exprs, n)


def schoen_map(a, b, c, d) -> ConeMap:
    """The four-compartment population map built from harmonic couplings."""
    a, b, c, d = (tuple(float(v) for v in t) for t in (a, b, c, d))
    x1, x2, x3, x4 = Coord(0), Coord(1), Coord(2), Coord(3)

    def row(i, base, th1, th2, th3):
        terms = [_scale(a[i], base)]
        for coeff, t in ((b[i], th1), (c[i], th2), (d[i], th3)):
            if coeff > 0.0:
                terms.append(_scale(coeff, t))
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    exprs = (
        row(0, x1, theta(x1, x2), theta(x1, x4), theta(x2, x3)),
        row(1, x2, theta(x1, x2), theta(x1, x4), theta(x2, x3)),
        row(2, x3, theta(x3, x4), theta(x1, x4), theta(x2, x3)),
        row(3, x4, theta(x3, x4), theta(x1, x4), theta(x2, x3)),
    )
    return from_exprs(exprs, 4)


def build_shapley_conjugate(game) -> ConeMap:
    """The multiplicative conjugate exp . T . log of a game's operator."""
    from .topical import build_shapley

    return build_shapley(game).conjugate


# ---------------------------------------------------------------------------
# Growth structure

def pole_masks(e: Expr, full: int) -> Tuple[int, int]:
    """Where e is inf and where it is 0, over all unit pins to inf at once.

    Bit j of the first mask is set when e evaluates to inf at the point with
    x_j = inf and every other coordinate 1; bit j of the second mask when it
    evaluates to 0 there.  `full` is the mask of all n coordinates.  Each
    node applies its exact one-sided evaluation rule to its children's
    masks, so one pass over the tree gives what n evaluations would.
    """
    if isinstance(e, Linear):
        return sum(1 << j for j, _ in e.nonzeros), 0
    if isinstance(e, Coord):
        return 1 << e.index, 0
    if isinstance(e, Pole):
        return (full, 0) if e.value == INF else (0, full)
    if isinstance(e, Scale):
        return pole_masks(e.child, full)
    any_inf = any_zero = 0
    all_inf = all_zero = full
    for t in e.children():
        inf, zero = pole_masks(t, full)
        any_inf |= inf
        any_zero |= zero
        all_inf &= inf
        all_zero &= zero
    if isinstance(e, PowerMean) and e.r == 0.0:
        return any_inf & ~any_zero, any_zero  # a zero factor absorbs first
    if isinstance(e, (Sum, Max)) or (isinstance(e, PowerMean) and e.r > 0.0):
        return any_inf, all_zero
    if isinstance(e, (Min, PowerMean)):
        # a child's two masks are disjoint, so all_inf already avoids any_zero
        return all_inf, any_zero
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Jacobian sparsity

@dataclass(frozen=True)
class SparsityPattern:
    """Dependency pattern: bit j of rows[i] means output i grows with x_j."""

    rows: Tuple[int, ...]
    exact: bool

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> Tuple[Tuple[bool, ...], ...]:
        """The pattern as an n x n boolean matrix."""
        return tuple(tuple(bool(bits >> j & 1) for j in range(self.n))
                     for bits in self.rows)

    def arcs(self):
        return {(i, j) for i, bits in enumerate(self.rows)
                for j in iter_bits(bits)}


def _symbolic_deps(e: Expr) -> int:
    if isinstance(e, Coord):
        return 1 << e.index
    if isinstance(e, Pole):
        return 0
    if isinstance(e, Linear):
        return sum(1 << j for j, _ in e.nonzeros)
    bits = 0
    for c in e.children():
        bits |= _symbolic_deps(c)
    return bits


def sparsity_probe(f: ConeMap, u: ExtVec, tol: float = 1e-7) -> SparsityPattern:
    """Dependency pattern of f at the interior point u.

    Symbolic (exact) when the map is an analytic AST; otherwise central
    finite differences with a relative threshold, flagged as heuristic.
    """
    if u.side is not Side.INTERIOR:
        raise ValueError("sparsity probe needs an interior point")
    n = f.dimension
    if f.is_ast and f.analytic:
        return SparsityPattern(tuple(_symbolic_deps(e) for e in f.exprs),
                               exact=True)

    base = f.eval_interior(u.entries)
    cols = []
    for j in range(n):
        h = 1e-6 * u.entries[j]
        up = list(u.entries)
        lo = list(u.entries)
        up[j] += h
        lo[j] -= h
        fu = f.eval_interior(tuple(up))
        fl = f.eval_interior(tuple(lo))
        cols.append([(fu[i] - fl[i]) / (2.0 * h) for i in range(n)])
    rows = []
    for i in range(n):
        bits = 0
        for j in range(n):
            scale = base[i] / u.entries[j]
            if abs(cols[j][i]) > tol * max(scale, 1e-300):
                bits |= 1 << j
        rows.append(bits)
    return SparsityPattern(tuple(rows), exact=False)
