"""AST node library for order-preserving homogeneous maps.

Every node is positively homogeneous of degree one by construction, and each
node carries an exact one-sided extended evaluation rule, so boundary probes
(coordinates pinned to 0 or inf) are computed symbolically rather than by
large-argument sampling.  Restrictions and reciprocal conjugation are AST
transforms; pinned coordinates simplify away, which lets restricted maps be
reduced to genuine lower-dimensional maps.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (INF, ConeMap, ExtVec, Side, SubsetMask, is_finite,
                   iter_bits)
from .errors import EmptySupportError, NumericRangeError, ZeroRowError

#: how far weights and exponents that sum to one may miss it in float
WEIGHT_TOL = 1e-12

#: the finite value black-box maps are evaluated at in place of inf
INF_SURROGATE = 1e12

#: a pinned mean whose kept weights sum within this of one is not rescaled
MASS_TOL = 1e-15

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
        if not 0.0 < self.factor < INF:
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
            if not 0.0 < w < INF:
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
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
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


def _plain_sum(terms: Iterable[float]) -> float:
    # Left to right from 0.0, like the `+` chains of the compiled bodies;
    # builtin sum compensates float rounding from Python 3.12 on.
    total = 0.0
    for t in terms:
        total += t
    return total


def eval_mean(r: float, sigma: Sequence[float], values: Sequence[float]) -> float:
    """The (r, sigma)-mean of `values`, with exact one-sided pole handling.

    Entries of sigma with weight zero are ignored entirely.  The remaining
    rules are the continuous one-sided extensions:

    * r > 0: zeros contribute nothing; any supported inf gives inf.
    * r = 0: any supported zero gives 0; any supported inf gives inf.
    * r < 0: any supported zero gives 0; supported infs drop out of the sum
      (their reciprocal contributes 0), and if every term drops the mean
      is inf.

    The weighted terms are added one at a time from 0.0 in order, so the
    result is the same on every Python version and bit-identical to the
    compiled bodies of the (f + id) loops (`_compile_body`).
    """
    pairs = [(w, v) for w, v in zip(sigma, values) if w > 0.0]
    if not pairs:
        raise EmptySupportError("mean weights have empty support")
    if r > 0.0:
        if any(v == INF for _, v in pairs):
            return INF
        total = _plain_sum(w * _pow_safe(v, r) for w, v in pairs)
        return _pow_safe(total, 1.0 / r) if total > 0.0 else 0.0
    if r == 0.0:
        if any(v == 0.0 for _, v in pairs):
            return 0.0
        if any(v == INF for _, v in pairs):
            return INF
        return math.exp(_plain_sum(w * math.log(v) for w, v in pairs))
    # r < 0
    if any(v == 0.0 for _, v in pairs):
        return 0.0
    finite = [(w, v) for w, v in pairs if v < INF]
    if not finite:
        return INF
    total = _plain_sum(w * _pow_safe(v, r) for w, v in finite)
    return 0.0 if total == INF else _pow_safe(total, 1.0 / r)


# ---------------------------------------------------------------------------
# Capability flags

def _flags(e: Expr) -> Tuple[bool, bool]:
    """(analytic, multiplicatively convex) for e; a max is only convex."""
    if isinstance(e, (Coord, Pole, Linear)):
        return True, True
    if isinstance(e, Min) or isinstance(e, PowerMean) and e.r < 0.0:
        return False, False
    analytic, convex = not isinstance(e, Max), True
    for c in e.children():
        a, v = _flags(c)
        analytic, convex = analytic and a, convex and v
        if not convex:
            return False, False
    return analytic, convex


def map_flags(exprs: Sequence[Expr]) -> Tuple[bool, bool]:
    """(analytic, multiplicatively convex) for the map with outputs exprs;
    `ConeMap` derives an AST map's flags with it."""
    flags = [_flags(e) for e in exprs]
    return all(a for a, _ in flags), all(v for _, v in flags)


def check_exprs(exprs: Sequence[Expr], n: int) -> None:
    """Raise ValueError for a node that is not an `Expr` or a coordinate
    that is not an int in [0, n), and NumericRangeError for a constant
    outside the float range: `ConeMap` checks an AST map's outputs so."""
    for e in exprs:
        kind = type(e)
        if kind is Coord:
            read, held = (e.index,), ()
        elif kind is Linear:
            read, held = zip(*e.nonzeros)
        elif isinstance(e, Expr):
            read, held = (), (e.factor,) if kind is Scale else \
                (e.r, *e.weights) if kind is PowerMean else ()
        else:
            raise ValueError(f"{e!r} is not an expression node")
        for j in read:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"coordinate {j!r} is not an int in [0, {n})")
        if not all(map(is_finite, held)):
            raise NumericRangeError(f"a {kind.__name__} constant leaves the "
                                    "float range; rescale the coefficients")
        check_exprs(e.children(), n)


def from_exprs(exprs: Sequence[Expr], dimension: int) -> ConeMap:
    """Package coordinate expressions into a ConeMap."""
    return ConeMap(dimension=dimension, exprs=tuple(exprs))


# ---------------------------------------------------------------------------
# Compiled (f + id) loops

def _inlinable(v) -> bool:
    """Whether v is a float that a generated body can take as a constant."""
    return type(v) is float and math.isfinite(v)


def _point(n: int) -> str:
    """The locals x0, ..., x{n-1} as a tuple display."""
    return "(" + "".join(f"x{j}, " for j in range(n)) + ")"


class _Emitter:
    """Writes expression trees as inline Python source over the locals
    x0, ..., x{n-1} and the constants c0, c1, ....

    Every node is written with the operations its `evaluate` performs, in
    the same order.  Only integers and names this class chooses reach the
    source: each float a node holds (a `Scale` factor, a zero `Pole`, and a
    `PowerMean`'s weights, r and 1/r) is written as a parameter c{k}, one
    per distinct value, whose value is `constants[k]`.  The source
    therefore depends only on the tree's shape and on which of its
    constants are equal, and maps of one shape share one compiled code
    object (`shape_code`).  Each parameter costs the compiler more than a
    literal, and each call copies its default, hence one per value.
    Nodes it does not inline (`Linear`, whose loop costs more to compile
    than it saves, and nodes with constants that are not finite floats)
    are called through their own `evaluate` on the point as a tuple, by a
    name bound in the map's own `namespace`.

    A mean with r <= 0 is guarded: it is 0 when a term is 0, as
    `eval_mean` has it, instead of raising at `_log(0.0)` or `0.0 ** r`;
    a geometric mean that also has an inf term still raises, since which
    pole absorbs depends on the order of the pins (`face_loop`).  The
    terms are bound to the locals t0, t1, ..., tested, and the mean is
    computed from them with the operations `eval_mean` performs.
    """

    def __init__(self, n: int):
        self.n = n
        self.namespace: Dict[str, object] = {
            "INF": INF, "_exp": math.exp, "_log": math.log}
        self.constants: List[float] = []
        self._names: Dict[object, str] = {}
        self._locals = 0

    def _constant(self, v: float) -> str:
        key = v or repr(v)  # 0.0 == -0.0, but the sign can reach an output
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"c{len(self.constants)}"
            self.constants.append(v)
        return name

    def _out_of_line(self, e: Expr) -> str:
        name = f"_node{len(self.namespace)}"
        self.namespace[name] = e.evaluate
        return f"{name}({_point(self.n)})"

    def emit(self, e: Expr) -> str:
        if type(e) is Coord:
            return f"x{e.index}"
        if type(e) is Pole and type(e.value) is float:
            return "INF" if e.value == INF else self._constant(e.value)
        if type(e) is Scale and _inlinable(e.factor):
            return f"({self._constant(e.factor)} * {self.emit(e.child)})"
        if type(e) is Sum:
            return "(0.0 + " + " + ".join(map(self.emit, e.terms)) + ")"
        if type(e) in (Min, Max):
            if len(e.terms) == 1:
                return self.emit(e.terms[0])
            name = "min" if type(e) is Min else "max"
            return f"{name}(" + ", ".join(map(self.emit, e.terms)) + ")"
        if type(e) is PowerMean and _inlinable(e.r) and \
                all(map(_inlinable, e.weights)):
            inverse = 1.0 / e.r if e.r != 0.0 else 0.0
            if math.isfinite(inverse):
                return self._mean(e, inverse)
        return self._out_of_line(e)

    def _mean(self, e: PowerMean, inverse: float) -> str:
        weights = [self._constant(w) for w in e.weights]
        r = self._constant(e.r) if e.r != 0.0 else None
        terms = [self.emit(t) for t in e.terms]
        test = None
        if e.r <= 0.0:
            names = [f"t{self._locals + k}" for k in range(len(terms))]
            self._locals += len(terms)
            # every term is evaluated, in order, before any is tested
            test = " & ".join(f"(({v} := {t}) != 0.0)"
                              for v, t in zip(names, terms))
            terms = names
        if e.r == 0.0:
            body = "_exp(0.0 + " + " + ".join(
                f"{w} * _log({t})" for w, t in zip(weights, terms)) + ")"
        else:
            body = ("((0.0 + " + " + ".join(
                f"{w} * {t} ** {r}" for w, t in zip(weights, terms)) +
                f") ** {self._constant(inverse)})")
        if test is None:
            return body
        # a zero term absorbs, but a geometric mean that also sees inf
        # raises at _log(0.0)
        zero = "0.0" if e.r < 0.0 else \
            f"(0.0 if INF not in ({', '.join(terms)},) else _log(0.0))"
        return f"({body} if {test} else {zero})"


def _extreme(var: str, items: Sequence[str], op: str, indent: str) -> List[str]:
    """Lines setting `var` to the max (op ">") or min (op "<") of `items`.

    They make the comparisons builtin max and min make, in the same order
    (a later item replaces the current one only when strictly beyond it),
    so the result is the same, NaN included, without a call.
    """
    lines = [f"{indent}{var} = {items[0]}"]
    for item in items[1:]:
        lines += [f"{indent}if {item} {op} {var}:", f"{indent}    {var} = {item}"]
    return lines


def _loop_source(n: int, face: bool = False) -> str:
    """The normalized (f + id) iteration in dimension n, over scalar locals.

    The generated `_trajectory(body, interpret, x, ..., face=None)` takes a
    map's compiled body (`_compile_body`), a function from the mask of the
    outputs to compute and the coordinates to the outputs, and its
    interpreter, which evaluates the points where the body raises,
    followed by the arguments of `spectral._plain_trajectory`, and returns
    what it returns.  Per iterate it performs the same floating-point
    operations and comparisons in the same order, without building a tuple
    except for a new best witness, a point the body cannot evaluate and the
    last iterate.  Without `face`, the body computes every output, its
    mask a literal.  With `face`, the loop iterates the n kept coordinates
    of a face of a larger map (`face_loop`): `face` holds their positions
    in the map, the map's point with the other coordinates at their pins,
    and the mask of the kept outputs, which the body computes alone.  The
    source depends on n alone either way.
    """
    xs = [f"x{i}" for i in range(n)]
    fs = [f"f{i}" for i in range(n)]
    rs = [f"r{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    point = _point(n)
    if face:
        ids = [f"i{i}" for i in range(n)]
        setup = [f"    {', '.join(ids)}, = face[0]", "    a = list(face[1])",
                 "    keep = face[2]"]
        call = ["; ".join(f"a[{i}] = {x}" for i, x in zip(ids, xs)),
                "out = body(keep, *a)",
                "; ".join(f"{f} = out[{i}]" for f, i in zip(fs, ids))]
    else:
        setup = []
        call = [f"{', '.join(fs)}, = body({(1 << n) - 1}, {', '.join(xs)})"]
    lines = [
        "def _trajectory(body, interpret, x, budget, tol, gap_stop, "
        "residual_stop, guard, start=None, face=None):",
        f"    {', '.join(xs)}, = x",
        *setup,
        *_extreme("m", xs, ">", "    "),
        *(f"    {v} = {v} / m" for v in xs),
        "    if start is None:",
        "        best_up = INF",
        "        best_lo = 0.0",
        f"        wit_up = wit_lo = {point}",
        "    else:",
        "        best_lo, best_up, wit_lo, wit_up = start",
        "    gap = eigen = None",
        "    k = 0",
        "    while k < budget:",
        "        k += 1",
        "        try:",
        *(f"            {c}" for c in call),
        "        except (ArithmeticError, ValueError):",
        f"            {', '.join(fs)}, = interpret({point})",
        *(f"        {r} = {v} / {u}" for r, v, u in zip(rs, fs, xs)),
        *_extreme("hi", rs, ">", "        "),
        "        if not hi < INF:",
        "            return None",
        *_extreme("lo", rs, "<", "        "),
        "        if hi < best_up:",
        "            best_up = hi",
        f"            wit_up = {point}",
        "        if lo > best_lo:",
        "            best_lo = lo",
        f"            wit_lo = {point}",
        "        if gap_stop and best_up - best_lo <= "
        "tol * (guard if guard > best_up else best_up):",
        "            gap = (best_lo, best_up, wit_lo, wit_up, k)",
        "            gap_stop = False",
        "            if not residual_stop:",
        "                break",
        "        if residual_stop and lo > 0.0:",
        "            residual = _log(hi) - _log(lo)",
        "            if residual <= tol:",
        f"                eigen = ({point}, hi, residual, k)",
        "                residual_stop = False",
        "                if not gap_stop:",
        "                    break",
        *(f"        {y} = {u} + {v}" for y, u, v in zip(ys, xs, fs)),
        *_extreme("m", ys, ">", "        "),
        *(f"        {u} = {y} / m" for u, y in zip(xs, ys)),
        *_extreme("m", xs, "<", "        "),
        "        if m < guard:",
        "            break",
        "    return k, best_lo, best_up, wit_lo, wit_up, gap, eigen, "
        f"{point}",
    ]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _loop(n: int, face: bool = False) -> Callable:
    """The (f + id) loop of `_loop_source`, compiled once per dimension,
    for whole maps and for faces."""
    namespace: Dict[str, object] = {"INF": INF, "_log": math.log}
    # named by kind and dimension, so that profiles keep loops apart
    name = f"<(f + id) face loop k={n}>" if face else f"<(f + id) loop n={n}>"
    exec(compile(_loop_source(n, face), name, "exec"), namespace)
    return namespace["_trajectory"]


@functools.lru_cache(maxsize=128)
def shape_code(source: str, filename: str) -> types.CodeType:
    """The code object of the one function that `source` defines.

    The bodies of the (f + id) loops (`_compile_body`) and Shapley
    operators (`topical._shapley_steps`) take their constants as trailing
    parameters, so their source depends only on the shape of the map or
    game, and each shape is compiled once per process.  Every map of that
    shape builds its own function from the code with `types.FunctionType`,
    giving its constants as the parameters' defaults (read as fast locals)
    and its own namespace.  The cache keeps the 128 shapes used last: code
    objects only, never a map or its constants.  `filename` names the
    code's kind and dimension, by which profiles tell generated functions
    apart.
    """
    module = compile(source, filename, "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def _compile_body(exprs: Sequence[Expr]) -> Optional[Callable]:
    """The outputs of `exprs` as a lambda of the mask of the outputs to
    compute, the n coordinates and its constants (`_Emitter`): the outputs
    outside the mask are 0.0.  Its code comes from the shape cache, and it
    is bound to the map's constants and namespace; None for a tree too
    deep for the Python compiler."""
    n = len(exprs)
    emitter = _Emitter(n)
    try:
        outputs = "".join(f"({emitter.emit(e)} if keep & {1 << i} else 0.0), "
                          for i, e in enumerate(exprs))
        params = ["keep", *(f"x{j}" for j in range(n)),
                  *(f"c{k}" for k in range(len(emitter.constants)))]
        code = shape_code(f"lambda {', '.join(params)}: ({outputs})",
                          f"<body n={n}>")
    except (RecursionError, SyntaxError):
        return None
    return types.FunctionType(code, emitter.namespace, None,
                              tuple(emitter.constants))


def _worth_compiling(exprs: Sequence[Expr]) -> bool:
    """Whether a map has a compiled body: two or more coordinates (x ->
    f(1) x closes its bracket at the first iterate), and an output that is
    not a `Coord`, `Pole` or `Linear` (every `matrix_map`), which have
    nothing worth inlining."""
    return len(exprs) > 1 and not all(
        type(e) in (Coord, Pole, Linear) for e in exprs)


# ---------------------------------------------------------------------------
# Faces evaluated by pinning

def face_loop(f: ConeMap, keep: int, inf: int, face: ConeMap,
              kept: int) -> Optional[Callable]:
    """The (f + id) loop of f's face that keeps the coordinates in `keep`,
    on f's compiled body, with every other coordinate pinned: to inf when
    it is in `inf`, else to 0; None when f has no compiled body.  The same
    face is the map `face` with its coordinates outside `kept` pinned to
    0, where `face` is f when `inf` is 0, and else f's face that pins
    `inf` to inf.  Keeping every coordinate with none pinned, it is f's
    own loop (`ConeMap.interior_loop`), `_loop` of its dimension.

    This is how the faces f^J_0 and, on f's conjugate, f^J_inf are
    iterated: as f with the other coordinates sent to a pole, not as maps
    of their own.  Zero pins are exact in IEEE arithmetic (they add 0.0,
    absorb in `min` and drop out of `max` and of r > 0 means), and so are
    inf pins, so the face's outputs are the face map's (`face_exprs`) bit
    for bit, except where building that map rounds: `_substitute`
    renormalizes a power mean's weights, unwraps a one-term mean and
    merges nested scales.  The body, compiled once per map, computes the
    kept outputs alone and guards the means with r <= 0, which would raise
    at a zero term (`_Emitter`).  The points where the body still raises,
    such as a geometric mean that sees both poles or a power that
    overflows, are evaluated on the face map, `face_exprs` of `face` on
    `kept`, built at the first of them, and on f's own loop by f's
    outputs.  Every other point takes the floating-point operations of
    the interpreter in the same order, so iterates are bit-identical to
    those of `spectral`'s plain-Python loop, which iterates the maps
    without a body (`_worth_compiling`, and trees too deep for the Python
    compiler); their faces are built as maps of their own (`face_map`).
    """
    body = f._body
    if body is None:
        body = f.is_ast and _worth_compiling(f.exprs) and _compile_body(
            f.exprs) or False
        object.__setattr__(f, "_body", body)
    if not body:
        return None
    n = f.dimension
    whole = keep == (1 << n) - 1 and not inf
    exprs: List[Expr] = list(f.exprs) if whole else []

    def interpret(y):
        if not exprs:
            exprs.extend(face_exprs(face.exprs,
                                    SubsetMask(kept, face.dimension), 0.0))
        return tuple(e.evaluate(y) for e in exprs)

    if whole:
        return functools.partial(_loop(n), body, interpret)
    point = tuple(INF if inf >> j & 1 else 0.0 for j in range(n))
    positions = tuple(iter_bits(keep))
    return functools.partial(_loop(len(positions), True), body, interpret,
                             face=(positions, point, keep))


def coordinates_read(e: Expr) -> int:
    """The mask of the coordinates e reads, or -1, every coordinate, when e
    holds a literal `Pole`: whether a face pins any coordinate to inf then
    decides which pole a geometric mean takes, as the face of a pruning
    face is built from that face, its inf pins already in
    (`existence.Analyzer._face_kind`)."""
    kind = type(e)
    if kind is Coord:
        return 1 << e.index
    if kind is Pole:
        return -1
    if kind is Linear:
        return sum(1 << j for j, _ in e.nonzeros)
    return functools.reduce(operator.or_, map(coordinates_read, e.children()))


def face_convex(exprs: Sequence[Expr], keep: int) -> bool:
    """Whether the face of `exprs` on `keep`, the other coordinates pinned
    to 0, is multiplicatively convex, read from `exprs` under the pins: as
    `map_flags` of its `face_exprs`, where a `Min` or a mean with r < 0
    that keeps one branch is that branch."""
    pins = [0 if keep >> j & 1 else 1 for j in range(len(exprs))]

    def convex(e: Expr) -> bool:
        kind = type(e)
        if kind is Scale:
            return convex(e.child)
        live = [t for t in e.children()
                if pole_masks(t, pins, 1, 0.0) == (0, 0)]
        if len(live) > 1 and (kind is Min or kind is PowerMean and e.r < 0.0):
            return False
        return all(map(convex, live))

    return all(convex(exprs[i]) for i in iter_bits(keep))


# ---------------------------------------------------------------------------
# Pinning (partial evaluation) and restriction

def pin(e: Expr, assignment: Dict[int, float]) -> Expr:
    """Partially evaluate `e` with some coordinates pinned to a pole.

    The assignment maps coordinate index -> 0.0 or inf.  The result never
    probes a pinned coordinate, and reduces to a Pole when the value is
    forced.
    """
    return _substitute(e, {j: Pole(v) for j, v in assignment.items()})


#: the pole that absorbs each n-ary node; the other pole drops out of it
_ABSORBING = {Sum: INF, Max: INF, Min: 0.0}


def _substitute(e: Expr, table: Dict[int, Expr]) -> Expr:
    """`e` with coordinate j replaced by table[j], a `Pole` (pinned) or a
    renumbered `Coord`; coordinates not in the table are kept.

    Renumbering must be increasing, so `Linear` pairs stay in index order.
    Pinned coordinates simplify away by each node's one-sided rule.
    """
    kind = type(e)
    if kind is Coord:
        return table.get(e.index, e)
    if kind is Pole:
        return e
    if kind is Scale:
        c = _substitute(e.child, table)
        return c if type(c) is Pole else _scale(e.factor, c)
    if kind is Linear:
        kept = []
        for j, w in e.nonzeros:
            t = table.get(j)
            if t is None:
                kept.append((j, w))
            elif type(t) is Coord:
                kept.append((t.index, w))
            elif t.value == INF:
                return t
        return Linear(tuple(kept)) if kept else Pole(0.0)
    if kind in _ABSORBING:
        absorbing = _ABSORBING[kind]
        kept = []
        for t in e.terms:
            p = _substitute(t, table)
            if type(p) is Pole:
                if p.value == absorbing:
                    return p
                continue  # the other pole never decides with branches left
            kept.append(p)
        if not kept:
            return Pole(0.0 if absorbing == INF else INF)
        return kept[0] if len(kept) == 1 else kind(tuple(kept))
    if kind is PowerMean:
        kept_w, kept_t = [], []
        inf_factor = None
        for w, t in zip(e.weights, e.terms):
            p = _substitute(t, table)
            if type(p) is Pole:
                if e.r > 0.0:
                    if p.value == INF:
                        return p
                    continue  # zero term contributes nothing to the sum
                if p.value == 0.0:
                    return p
                if e.r == 0.0:
                    inf_factor = p  # absorbs unless a later factor is zero
                continue  # r < 0: reciprocal of inf drops out
            kept_w.append(w)
            kept_t.append(p)
        if inf_factor is not None:
            return inf_factor
        if not kept_t:
            return Pole(0.0) if e.r > 0.0 else Pole(INF)
        mass = sum(kept_w)
        node: Expr
        if len(kept_t) == 1:
            node = kept_t[0]
        else:
            node = PowerMean(e.r, tuple(w / mass for w in kept_w), tuple(kept_t))
        if abs(mass - 1.0) > MASS_TOL and e.r != 0.0:
            # (sum of kept sigma_i v_i^r)^(1/r) = mass^(1/r) * renormalized mean
            factor = _pow_safe(mass, 1.0 / e.r)
            if not 0.0 < factor < INF:
                raise NumericRangeError(
                    f"the power mean's renormalization {mass!r} ** (1 / "
                    f"{e.r!r}) leaves the float range; rescale the exponent")
            node = _scale(factor, node)
        return node
    raise TypeError(f"unknown node {kind.__name__}")


def _scale(factor: float, e: Expr) -> Expr:
    if isinstance(e, Scale) and 0.0 < factor < INF:
        merged = factor * e.factor
        if not 0.0 < merged < INF:
            raise NumericRangeError(
                f"the coefficient product {factor!r} * {e.factor!r} leaves "
                "the float range; rescale the coefficients")
        factor, e = merged, e.child
    return e if factor == 1.0 else Scale(factor, e)


def _inverse(c: float) -> float:
    """1 / c for a positive finite coefficient; it overflows below ~5.6e-309."""
    inverse = 1.0 / c
    if inverse == INF:
        raise NumericRangeError(
            f"the reciprocal of the coefficient {c!r} overflows the float "
            "range; rescale the coefficients")
    return inverse


def restrict_map(f: ConeMap, J: SubsetMask, fill: float) -> ConeMap:
    """Build P^J f P^J with the given pole as fill, keeping the dimension."""
    n = f.dimension
    f.expect_dimension(J.n, "mask")
    if J.is_empty():
        raise ValueError("restriction needs a nonempty index set")
    outside = {j: fill for j in range(n) if not J.contains(j)}
    if f.is_ast:
        exprs = tuple(
            pin(f.exprs[i], outside) if J.contains(i) else Pole(fill)
            for i in range(n)
        )
        return from_exprs(exprs, n)
    kept = J.indices()
    face = _pinned_black_box(f, kept, fill)

    def evaluator(x):
        out = [fill] * n
        for j, v in zip(kept, face.evaluator(tuple(x[j] for j in kept))):
            out[j] = v
        return tuple(out)

    return replace(face, dimension=n, evaluator=evaluator)


def restrict_lower(f: ConeMap, J: SubsetMask) -> ConeMap:
    """The lower restriction: conjugate f by the projection pinning [n]\\J to 0."""
    return restrict_map(f, J, 0.0)


def restrict_upper(f: ConeMap, J: SubsetMask) -> ConeMap:
    """The upper restriction: conjugate f by the projection pinning [n]\\J to inf."""
    return restrict_map(f, J, INF)


def face_exprs(exprs: Sequence[Expr], keep: SubsetMask,
               fill: float) -> Tuple[Expr, ...]:
    """The outputs of an AST map's face on the nonempty set `keep`: each
    kept output pinned and renumbered in one `_substitute` pass.  Callers
    that memoize faces key them by this tuple before building a map."""
    pole = Pole(fill)
    table: Dict[int, Expr] = dict.fromkeys(range(len(exprs)), pole)
    kept = keep.indices()
    table.update((j, Coord(k)) for k, j in enumerate(kept))
    out = []
    for i in kept:
        p = _substitute(exprs[i], table)
        if type(p) is Pole:
            raise ValueError(
                f"coordinate {i} collapses to a pole; support not stable")
        out.append(p)
    return tuple(out)


def face_map(f: ConeMap, keep: SubsetMask, fill: float) -> ConeMap:
    """Reduce a restriction to a genuine map on the coordinates in `keep`.

    Valid when pinning [n]\\keep to the fill pole leaves every kept output
    finite-structured, i.e. the support is already stable.  An AST face is
    `from_exprs` of its `face_exprs`.
    """
    kept = keep.indices()
    if not kept:
        raise ValueError("face needs at least one coordinate")
    if f.is_ast:
        return from_exprs(face_exprs(f.exprs, keep, fill), len(kept))
    return _pinned_black_box(f, kept, fill)


def _pinned_black_box(f: ConeMap, kept: Sequence[int],
                      fill: float) -> ConeMap:
    """The face of the black-box map f on the coordinates `kept`, with f's
    flags: f with the others pinned to `fill`, inf passed as
    `INF_SURROGATE`."""
    n = f.dimension
    surrogate = INF_SURROGATE if fill == INF else 0.0

    def evaluator(y):
        inner = [surrogate] * n
        for k, j in enumerate(kept):
            inner[j] = y[k]
        out = f.evaluator(tuple(inner))
        return tuple(out[j] for j in kept)

    return ConeMap(dimension=len(kept), evaluator=evaluator,
                   multiplicatively_convex=f.multiplicatively_convex,
                   analytic=f.analytic)


# ---------------------------------------------------------------------------
# Reciprocal conjugation

def conjugate_expr(e: Expr) -> Expr:
    """The node transform realizing x -> 1 / e(1/x)."""
    if isinstance(e, Coord):
        return e
    if isinstance(e, Pole):
        return Pole(0.0 if e.value == INF else INF)
    if isinstance(e, Scale):
        return _scale(_inverse(e.factor), conjugate_expr(e.child))
    if isinstance(e, Linear):
        support = e.nonzeros
        total = sum(w for _, w in support)
        if len(support) == 1:
            j, w = support[0]
            return _scale(_inverse(w), Coord(j))
        mean = PowerMean(-1.0, tuple(w / total for _, w in support),
                         tuple(Coord(j) for j, _ in support))
        return _scale(_inverse(total), mean)
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
        # 0 absorbs a geometric mean before inf does, whatever is pinned
        if e.r == 0.0 and any(pin(t, {}) == Pole(0.0) for t in e.terms):
            return Pole(INF)
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
    if abs(total - 1.0) > WEIGHT_TOL:
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
        weights = tuple(c / total for c in coeffs)
        if not all(w > 0.0 for w in weights):  # an overflow or underflow
            raise NumericRangeError(
                f"the coefficients of tensor coordinate {i + 1}, from "
                f"{min(coeffs)!r} to {max(coeffs)!r} with sum {total!r}, "
                "do not fit the float range; rescale the table")
        if len(monos) == 1:
            node = _scale(total ** (1.0 / (d - 1)), monos[0])
        else:
            mean = PowerMean(float(d - 1), weights, tuple(monos))
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


# ---------------------------------------------------------------------------
# Growth structure

def pole_masks(e: Expr, pins: Sequence[int], full: int,
               pole: float, zero: int = 0) -> Tuple[int, int]:
    """Where e is inf and where it is 0, over several pins at once.

    Pin t sends every coordinate j with bit t of `pins[j]` to `pole` (0.0
    or inf) and every other coordinate to 1; `full` is the mask of all
    pins.  Bit t of the first mask is set when e is inf at pin t, bit t of
    the second mask when it is 0 there.  Each node applies its exact
    one-sided evaluation rule to its children's masks, so one pass over
    the tree gives what an evaluation per pin would, and no constant under-
    or overflows.  This is the only code that decides which pins force a
    pole: hyperarcs (`graphs.HypergraphProbe`) fold each output once over
    all 2^n tails up to n = 10, and once per tail beyond, and growth arcs
    (`graphs.digraph_of`) and the exact sparsity rows of analytic maps are
    the fold over the unit pins to inf (`_growth_rows`).  The coordinates
    in `zero` are 0 at every pin, pinned before the others: the growth
    rows of a face (`spectral.FaceSide`) read with the face's zero pins.
    """
    kind = type(e)
    if kind is Coord:
        if zero >> e.index & 1:
            return 0, full
        return (pins[e.index], 0) if pole == INF else (0, pins[e.index])
    if kind is Scale:
        return pole_masks(e.child, pins, full, pole, zero)
    if kind is Linear:
        if zero:  # at the poles a linear form is the sum of its coordinates
            return pole_masks(Sum(tuple(Coord(j) for j, _ in e.nonzeros)),
                              pins, full, pole, zero)
        read = [pins[j] for j, _ in e.nonzeros]
        if pole == INF:  # a sum: inf when any term is, 0 when all are
            return functools.reduce(operator.or_, read), 0
        return 0, functools.reduce(operator.and_, read)
    if kind is Pole:
        return (full, 0) if e.value == INF else (0, full)
    any_inf = any_zero = 0
    all_inf = all_zero = full
    for t in e.children():
        inf, zero_at = pole_masks(t, pins, full, pole, zero)
        any_inf |= inf
        any_zero |= zero_at
        all_inf &= inf
        all_zero &= zero_at
    if kind is PowerMean and e.r == 0.0:
        return any_inf & ~any_zero, any_zero  # a zero factor absorbs first
    if kind is Sum or kind is Max or kind is PowerMean and e.r > 0.0:
        return any_inf, all_zero
    if kind is Min or kind is PowerMean:
        # a child's two masks are disjoint, so all_inf already avoids any_zero
        return all_inf, any_zero
    raise TypeError(f"unknown node {kind.__name__}")


def _growth_rows(exprs: Sequence[Expr], n: int) -> Tuple[int, ...]:
    """Bit j of row i is set when output i is inf at x_j = inf, every other
    coordinate 1: the inf masks of `pole_masks` over the n unit pins."""
    units = [1 << j for j in range(n)]
    full = (1 << n) - 1
    return tuple(pole_masks(e, units, full, INF)[0] for e in exprs)


def reject_pole_outputs(f: ConeMap, zero: bool = True,
                        inf: bool = True) -> None:
    """Raise ZeroRowError (with `zero`) or NumericRangeError (with `inf`)
    for an output of f that is identically 0 or inf: one `pole_masks`
    fold with a pin that pins nothing reads it at the all-ones point.  A
    black-box map has no expressions to tell, and passes."""
    if not f.is_ast:
        return
    nothing = (0,) * f.dimension
    for i, e in enumerate(f.exprs):
        if type(e) in (Coord, Linear):
            continue  # never a pole: a matrix map folds nothing
        is_inf, is_zero = pole_masks(e, nothing, 1, INF)
        if zero and is_zero:
            raise ZeroRowError(f"coordinate {i + 1} of the map is "
                               "identically 0")
        if inf and is_inf:
            raise NumericRangeError(f"coordinate {i + 1} of the map is "
                                    "identically inf")


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


def sparsity_probe(f: ConeMap, u: ExtVec, tol: float = 1e-7) -> SparsityPattern:
    """Dependency pattern of f at the interior point u.

    Exact when the map is an analytic AST: output i of such a map grows
    with x_j exactly where it blows up at x_j = inf, so the rows are its
    `_growth_rows`.  Otherwise central finite differences with a relative
    threshold, flagged as heuristic.
    """
    if u.side is not Side.INTERIOR:
        raise ValueError("sparsity probe needs an interior point")
    f.expect_dimension(u.n, "point")
    n = f.dimension
    if f.is_ast and f.analytic:
        return SparsityPattern(_growth_rows(f.exprs, n), exact=True)

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
