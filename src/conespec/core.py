"""Extended-value vectors, subset masks, the evaluable-map abstraction,
coordinate projections, and the Hilbert projective metric.

Scalars live in [0, inf] and are represented as plain floats, with 0.0 and
math.inf as the two poles.  A single evaluation context is one-sided: a
vector may contain zeros or infinities, never both, so no 0*inf form can
arise during evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import MixedPolesError

INF = math.inf


def is_ext_scalar(v: float) -> bool:
    """True when v is a valid extended scalar: 0, inf, or a positive finite."""
    return v == 0.0 or v == INF or (v > 0.0 and not math.isnan(v) and math.isfinite(v))


def is_finite(v: float) -> bool:
    """Whether v is a finite float, or an int that converts to one."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


class Side(Enum):
    """Which pole a one-sided vector may contain."""

    LOWER = "lower"        # zeros allowed, infinities forbidden
    UPPER = "upper"        # infinities allowed, zeros forbidden
    INTERIOR = "interior"  # all entries finite and positive


@dataclass(frozen=True)
class ExtVec:
    """A one-sided vector over the extended nonnegative reals [0, inf]."""

    entries: Tuple[float, ...]
    side: Side

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ValueError("ExtVec needs dimension >= 1")
        has_zero = any(v == 0.0 for v in self.entries)
        has_inf = any(v == INF for v in self.entries)
        for v in self.entries:
            if not is_ext_scalar(v):
                raise ValueError(f"invalid extended scalar: {v!r}")
        if has_zero and has_inf:
            raise MixedPolesError("vector contains both a zero and an infinite entry")
        if self.side is Side.LOWER and has_inf:
            raise MixedPolesError("lower-side vector may not contain inf")
        if self.side is Side.UPPER and has_zero:
            raise MixedPolesError("upper-side vector may not contain zero")
        if self.side is Side.INTERIOR and (has_zero or has_inf):
            raise MixedPolesError("interior vector must be finite and positive")

    @staticmethod
    def of(values: Iterable[float]) -> "ExtVec":
        """Build a vector, auto-detecting the side from its poles."""
        v = ExtVec._unchecked(tuple(float(v) for v in values))
        return ExtVec(v.entries, v.side)

    @staticmethod
    def _unchecked(vals: Tuple[float, ...]) -> "ExtVec":
        """`of` without its checks, for the vectors conespec embeds."""
        v = object.__new__(ExtVec)
        v.__dict__.update(entries=vals, side=Side.LOWER if 0.0 in vals else
                          Side.UPPER if INF in vals else Side.INTERIOR)
        return v

    @staticmethod
    def interior(values: Iterable[float]) -> "ExtVec":
        return ExtVec(tuple(float(v) for v in values), Side.INTERIOR)

    @property
    def n(self) -> int:
        return len(self.entries)

    def support(self) -> "SubsetMask":
        """Coordinates away from the side's pole.

        Lower side: {j : x_j > 0}.  Upper side: {j : x_j < inf}.
        Interior vectors have full support.
        """
        if self.side is Side.UPPER:
            bits = sum(1 << j for j, v in enumerate(self.entries) if v < INF)
        else:
            bits = sum(1 << j for j, v in enumerate(self.entries) if v > 0.0)
        return SubsetMask(bits, self.n)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, j: int) -> float:
        return self.entries[j]


def iter_bits(bits: int) -> Iterator[int]:
    """The indices of the set bits of a nonnegative int, in increasing order.

    Costs one step per set bit, so sparse masks over large n stay cheap.
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def gather_bits(bits: int, positions: Sequence[int]) -> int:
    """Bit k of the result is bit positions[k] of `bits`: a mask read on the
    coordinates of a face that keeps `positions`."""
    return sum(1 << k for k, j in enumerate(positions) if bits >> j & 1)


def scatter_bits(bits: int, positions: Sequence[int]) -> int:
    """The inverse of `gather_bits`: bit k of `bits` moves to positions[k]."""
    return sum(1 << positions[k] for k in iter_bits(bits))


@dataclass(frozen=True, order=True)
class SubsetMask:
    """A subset of coordinate indices [0, n) stored as a bitmask."""

    bits: int
    n: int = field(compare=False)

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"mask {self.bits:#x} out of range for n={self.n}")

    @staticmethod
    def of(indices: Iterable[int], n: int) -> "SubsetMask":
        bits = 0
        for j in indices:
            if not 0 <= j < n:
                raise ValueError(f"index {j} out of range for n={n}")
            bits |= 1 << j
        return SubsetMask(bits, n)

    @staticmethod
    def full(n: int) -> "SubsetMask":
        return SubsetMask((1 << n) - 1, n)

    @staticmethod
    def empty(n: int) -> "SubsetMask":
        return SubsetMask(0, n)

    def indices(self) -> Tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.bits ^ ((1 << self.n) - 1), self.n)

    def union(self, other: "SubsetMask") -> "SubsetMask":
        return SubsetMask(self.bits | other.bits, self.n)

    def contains(self, j: int) -> bool:
        return bool(self.bits >> j & 1)

    def issubset(self, other: "SubsetMask") -> bool:
        return self.bits & ~other.bits == 0

    def popcount(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == (1 << self.n) - 1

    def __iter__(self):
        return iter(self.indices())

    def __repr__(self):
        return "{" + ",".join(str(j + 1) for j in self.indices()) + "}"


@dataclass(frozen=True)
class ConeMap:
    """An order-preserving homogeneous self-map of the positive orthant.

    AST-backed maps (``exprs`` set) evaluate one-sided extended vectors
    exactly; black-box maps (``evaluator`` set) evaluate interior points
    only, and boundary probes fall back to large-argument heuristics.

    The capability flags of an AST map are derived from its expressions
    (`maps.map_flags`); a flag passed for one must agree with them.  A
    black-box map has the flags it is given, False by default.

    An AST map evaluates every point with its interpreter, and only its
    (f + id) iterations run compiled code: its own loop (`interior_loop`)
    and the loops of the faces pinned through it (`maps.face_loop`).
    """

    dimension: int
    exprs: Optional[tuple] = None
    evaluator: Optional[Callable[[Tuple[float, ...]], Sequence[float]]] = None
    multiplicatively_convex: Optional[bool] = None
    analytic: Optional[bool] = None
    # the compiled body of an AST map's outputs (False when it has none),
    # which its own loop and its faces' run, built on first use by
    # `maps.face_loop`
    _body: Optional[Callable] = \
        field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"map dimension must be at least 1, not "
                             f"{self.dimension}")
        if (self.exprs is None) == (self.evaluator is None):
            raise ValueError("exactly one of exprs/evaluator must be given")
        if self.exprs is not None:
            if len(self.exprs) != self.dimension:
                raise ValueError(
                    "one expression per output coordinate required")
            check_exprs(self.exprs, self.dimension)
        derived = map_flags(self.exprs) if self.exprs else (False, False)
        for name, value in zip(("analytic", "multiplicatively_convex"),
                               derived):
            given = getattr(self, name)
            if self.exprs is not None and given not in (None, value):
                raise ValueError(f"{name}={given} contradicts the expressions")
            object.__setattr__(self, name, value if given is None else given)

    @property
    def is_ast(self) -> bool:
        return self.exprs is not None

    def expect_dimension(self, n: int, what: str) -> None:
        """Raise ValueError unless `what`, of dimension n, fits the map."""
        if n != self.dimension:
            raise ValueError(f"dimension mismatch: map is {self.dimension}, "
                             f"{what} is {n}")

    def __call__(self, x: ExtVec) -> ExtVec:
        self.expect_dimension(x.n, "input")
        if self.exprs is not None:
            out = tuple(e.evaluate(x.entries) for e in self.exprs)
        else:
            if x.side is not Side.INTERIOR:
                raise ValueError("black-box maps evaluate interior points only")
            out = tuple(float(v) for v in self.evaluator(x.entries))
        result = ExtVec.of(out)
        if x.side is Side.LOWER and any(v == INF for v in out):
            raise MixedPolesError("lower-side evaluation produced inf")
        if x.side is Side.UPPER and any(v == 0.0 for v in out):
            raise MixedPolesError("upper-side evaluation produced zero")
        return result

    def eval_interior(self, values: Sequence[float]) -> Tuple[float, ...]:
        """Evaluate at an interior point given as raw floats: an AST map by
        `Expr.evaluate`, as `__call__` does, a black-box map by its
        evaluator.  A point of another dimension raises ValueError."""
        x = tuple(values)
        self.expect_dimension(len(x), "point")
        if self.exprs is None:
            return tuple(float(v) for v in self.evaluator(x))
        return tuple(e.evaluate(x) for e in self.exprs)

    def interior_loop(self) -> Optional[Callable]:
        """The compiled normalized (f + id) loop of an AST map, or None:
        `maps.face_loop` of the face that keeps every coordinate, on the
        body compiled at the first call and kept.  None for black-box maps
        and for maps without a compiled body; `spectral` iterates those
        with its plain-Python loop.
        """
        full = (1 << self.dimension) - 1
        return face_loop(self, full, 0, self, full)


def project(x: ExtVec, J: SubsetMask, fill: float) -> ExtVec:
    """The projection that keeps coordinates in J and pins the rest to `fill`.

    `fill` must be one of the poles 0.0 or inf.
    """
    if fill not in (0.0, INF):
        raise ValueError("fill must be 0 or inf")
    if x.n != J.n:
        raise ValueError("mask dimension mismatch")
    out = tuple(x.entries[j] if J.contains(j) else fill for j in range(x.n))
    has_zero = any(v == 0.0 for v in out)
    has_inf = any(v == INF for v in out)
    if has_zero and has_inf:
        raise MixedPolesError("projection would mix zero and inf entries")
    return ExtVec.of(out)


def reciprocal(x: ExtVec) -> ExtVec:
    """Entrywise reciprocal with 1/0 = inf and 1/inf = 0; swaps sides."""
    return ExtVec.of(tuple(INF if v == 0.0 else (0.0 if v == INF else 1.0 / v)
                           for v in x.entries))


def hilbert_distance(x: ExtVec, y: ExtVec) -> float:
    """Hilbert's projective metric between two interior vectors."""
    if x.side is not Side.INTERIOR or y.side is not Side.INTERIOR:
        raise ValueError("hilbert_distance is defined for interior vectors")
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    ratios = [math.log(a) - math.log(b) for a, b in zip(x.entries, y.entries)]
    return max(ratios) - min(ratios)


def sup_normalized(values: Sequence[float]) -> Tuple[float, ...]:
    """Scale a positive vector to unit sup-norm."""
    m = max(values)
    return tuple(v / m for v in values)


# maps builds on the classes above, so it is imported once they exist
from .maps import check_exprs, face_loop, map_flags  # noqa: E402
