"""Extended-value vectors, subset masks, the evaluable-map abstraction,
coordinate projections and restrictions, and the Hilbert projective metric.

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

#: Relative comparison tolerance used across the package unless overridden.
DEFAULT_TOL = 1e-9


def is_ext_scalar(v: float) -> bool:
    """True when v is a valid extended scalar: 0, inf, or a positive finite."""
    return v == 0.0 or v == INF or (v > 0.0 and not math.isnan(v) and math.isfinite(v))


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
        vals = tuple(float(v) for v in values)
        if any(v == 0.0 for v in vals):
            return ExtVec(vals, Side.LOWER)
        if any(v == INF for v in vals):
            return ExtVec(vals, Side.UPPER)
        return ExtVec(vals, Side.INTERIOR)

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

    def intersect(self, other: "SubsetMask") -> "SubsetMask":
        return SubsetMask(self.bits & other.bits, self.n)

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
    """

    dimension: int
    exprs: Optional[tuple] = None
    evaluator: Optional[Callable[[Tuple[float, ...]], Sequence[float]]] = None
    multiplicatively_convex: bool = False
    analytic: bool = False

    def __post_init__(self):
        if (self.exprs is None) == (self.evaluator is None):
            raise ValueError("exactly one of exprs/evaluator must be given")
        if self.exprs is not None and len(self.exprs) != self.dimension:
            raise ValueError("one expression per output coordinate required")

    @property
    def is_ast(self) -> bool:
        return self.exprs is not None

    def __call__(self, x: ExtVec) -> ExtVec:
        if x.n != self.dimension:
            raise ValueError(f"dimension mismatch: map is {self.dimension}, input is {x.n}")
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
        """Evaluate at an interior point given as raw floats."""
        if self.exprs is not None:
            return tuple(e.evaluate(tuple(values)) for e in self.exprs)
        return tuple(float(v) for v in self.evaluator(tuple(values)))


ZERO_FILL = 0.0
INF_FILL = INF


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


def restrict_lower(f: ConeMap, J: SubsetMask) -> ConeMap:
    """The lower restriction: conjugate f by the projection pinning [n]\\J to 0."""
    if J.is_empty():
        raise ValueError("restriction needs a nonempty index set")
    from . import maps

    return maps.restrict_map(f, J, 0.0)


def restrict_upper(f: ConeMap, J: SubsetMask) -> ConeMap:
    """The upper restriction: conjugate f by the projection pinning [n]\\J to inf."""
    if J.is_empty():
        raise ValueError("restriction needs a nonempty index set")
    from . import maps

    return maps.restrict_map(f, J, INF)


def reciprocal_conjugate(f: ConeMap) -> ConeMap:
    """Conjugate f by the entrywise reciprocal, swapping the two poles."""
    from . import maps

    return maps.conjugate_map(f)


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
