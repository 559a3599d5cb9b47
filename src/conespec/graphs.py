"""Boundary hypergraphs, the growth digraph, and strongly connected structure.

The two hypergraphs record which coordinates are forced to a pole when a
tail set of coordinates is sent there: on the lower side a hyperarc (T, {j})
means f(e_{[n]\\T})_j = 0, on the upper side it means f(omega_T)_j = inf.
On AST maps hyperarcs and growth arcs (and exact sparsity rows) come from
one symbolic fold, `maps.pole_masks`; black-box maps are probed at large
finite pins.  Probes memoize per mask.  Up to
`HypergraphProbe.EXHAUSTIVE_SCAN_CAP` coordinates, an AST probe folds each
output once over all 2^n tails on its first query and reads every later
tail from that table; beyond, it folds each output once per tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .core import INF, ConeMap, Side, SubsetMask, gather_bits, iter_bits
from .maps import INF_SURROGATE, _growth_rows, pole_masks


@functools.lru_cache(maxsize=None)
def _tail_pins(n: int) -> Tuple[int, ...]:
    """Coordinate j's truth table over all 2^n tails: bit t of entry j is
    bit j of t.  As `maps.pole_masks` pins, they fold every tail at once."""
    size = 1 << n
    full = (1 << size) - 1
    pins = []
    for j in range(n):
        width = 1 << j
        period = (1 << 2 * width) - 1  # a run of 2^j zeros then 2^j ones
        pins.append(((1 << width) - 1 << width) * (full // period))
    return tuple(pins)


class HypergraphProbe:
    """Memoized hyperarc queries against one side of a map's boundary, on
    int masks (`_hit`, `_reach`) that the public methods wrap."""

    def __init__(self, f: ConeMap, side: Side):
        if side not in (Side.LOWER, Side.UPPER):
            raise ValueError("side must be LOWER or UPPER")
        self.map = f
        self.side = side
        self._targets: Dict[int, int] = {}  # per tail
        self._reached: Dict[int, int] = {}  # per mask
        # per output, bit t set when tail t forces it to the pole
        self._table: Optional[List[int]] = None

    def hyperarc_targets(self, tail: SubsetMask) -> SubsetMask:
        """Heads j outside the tail forced to the pole by pinning the tail."""
        self.map.expect_dimension(tail.n, "mask")
        return SubsetMask(self._hit(tail.bits), tail.n)

    def _hit(self, tail: int) -> int:
        """`hyperarc_targets` on bits."""
        hit = self._targets.get(tail)
        if hit is None:
            hit = self._targets[tail] = self._probe(tail) & ~tail
        return hit

    def _probe(self, tail_bits: int) -> int:
        """The outputs forced to the pole by pinning the tail, tail included."""
        pole = 0.0 if self.side is Side.LOWER else INF
        if not self.map.is_ast:
            return self._probe_heuristic(tail_bits, pole)
        n = self.map.dimension
        if n > self.EXHAUSTIVE_SCAN_CAP:
            pins = [tail_bits >> j & 1 for j in range(n)]
            return sum(1 << i for i, m in enumerate(self._fold(pins, 1, pole))
                       if m)
        if self._table is None:
            self._table = self._fold(_tail_pins(n), (1 << (1 << n)) - 1, pole)
        return sum(1 << i for i, m in enumerate(self._table)
                   if m >> tail_bits & 1)

    def _fold(self, pins: Sequence[int], full: int, pole: float) -> List[int]:
        """Per output, the mask of the pins where it is the pole."""
        side = 0 if pole == INF else 1
        return [pole_masks(e, pins, full, pole)[side] for e in self.map.exprs]

    def _probe_heuristic(self, tail_bits: int, pole: float) -> int:
        # Black-box maps: compare growth between t and t^2 scaled pins; an
        # output already at the pole at the first pin is forced.
        n = self.map.dimension
        t = INF_SURROGATE
        big = t if pole == INF else 1.0 / t
        x1 = tuple(big if tail_bits >> j & 1 else 1.0 for j in range(n))
        x2 = tuple(big * big if tail_bits >> j & 1 else 1.0 for j in range(n))
        y1 = self.map.eval_interior(x1)
        y2 = self.map.eval_interior(x2)
        grows = math.sqrt(t)
        bits = 0
        for j in range(n):
            if y1[j] == pole:
                bits |= 1 << j
            elif y1[j] > 0.0:
                ratio = y2[j] / y1[j]
                if ratio > grows if pole == INF else ratio < 1.0 / grows:
                    bits |= 1 << j
        return bits

    def is_invariant(self, I: SubsetMask) -> bool:
        """True when no hyperarc leaves I."""
        return self.hyperarc_targets(I).is_empty()

    def reach(self, J: SubsetMask) -> SubsetMask:
        """The smallest invariant superset of J."""
        self.map.expect_dimension(J.n, "mask")
        return SubsetMask(self._reach(J.bits), J.n)

    def _reach(self, bits: int) -> int:
        """`reach` on bits, memoized per mask."""
        reached = self._reached.get(bits)
        if reached is None:
            reached, grown = bits, bits | self._hit(bits)
            while grown != reached:
                reached, grown = grown, grown | self._hit(grown)
            self._reached[bits] = reached
        return reached

    EXHAUSTIVE_SCAN_CAP = 10

    def minimal_tails(self) -> Set[Tuple[FrozenSet[int], int]]:
        """Hyperarcs whose tail is inclusion-minimal among scanned positives.

        Up to dimension EXHAUSTIVE_SCAN_CAP every proper tail is probed, so
        the result is the true set of minimal hyperarcs.  Beyond that the
        scan covers singletons and complements of singletons only, so it is
        bounded and may miss hyperarcs whose minimal tail is neither; the
        result never depends on earlier queries of the probe.
        """
        n, full = self.map.dimension, (1 << self.map.dimension) - 1
        if n <= self.EXHAUSTIVE_SCAN_CAP:
            candidates = set(range(1, full))
        else:
            candidates = {b for j in range(n) for b in (1 << j, full ^ 1 << j)}
        positive = [(bits, j) for bits in sorted(candidates)
                    for j in iter_bits(self._hit(bits))]
        result = set()
        for bits, j in positive:
            if not any(o != bits and o & ~bits == 0 for o, h in positive if h == j):
                result.add((frozenset(SubsetMask(bits, n).indices()), j))
        return result


@dataclass(frozen=True)
class Digraph:
    """A directed graph on [n] with forward and reverse adjacency.

    Bit j of `rows[i]` is the arc (i, j); two digraphs are equal when their
    rows are.  `succ` and `pred` list each vertex's neighbours in
    increasing order.
    """

    rows: Tuple[int, ...]
    succ: Tuple[Tuple[int, ...], ...] = field(compare=False)
    pred: Tuple[Tuple[int, ...], ...] = field(compare=False)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def arcs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((i, j) for i, s in enumerate(self.succ) for j in s)

    @staticmethod
    def from_rows(rows: Sequence[int]) -> "Digraph":
        """The digraph with one bitmask row of successors per vertex."""
        rows = tuple(rows)
        succ = tuple(tuple(iter_bits(bits)) for bits in rows)
        pred: List[List[int]] = [[] for _ in rows]
        for i, s in enumerate(succ):
            for j in s:
                pred[j].append(i)
        return Digraph(rows, succ, tuple(map(tuple, pred)))

    @staticmethod
    def from_arcs(n: int, arcs) -> "Digraph":
        rows = [0] * n
        for i, j in arcs:
            rows[int(i)] |= 1 << int(j)
        return Digraph.from_rows(rows)


def digraph_of(f: ConeMap, keep: Optional[int] = None) -> Digraph:
    """The growth digraph: arc (i, j) when output i blows up as x_j -> inf.

    On AST maps the rows are one symbolic pass over each output
    (`maps._growth_rows`), linear in the size of the map; on black-box
    maps they are the upper probe's unmasked targets of each unit tail.
    With `keep`, the digraph of an AST map's face that keeps those
    coordinates, numbered in order, the others pinned to 0 before the
    pass (`maps.pole_masks`): the face need not be built.
    """
    n = f.dimension
    if keep is not None:
        positions = tuple(iter_bits(keep))
        units = [1 << j for j in range(n)]
        full = (1 << n) - 1
        return Digraph.from_rows([gather_bits(pole_masks(
            f.exprs[i], units, full, INF, full & ~keep)[0], positions)
            for i in positions])
    if f.is_ast:
        return Digraph.from_rows(_growth_rows(f.exprs, n))
    probe = HypergraphProbe(f, Side.UPPER)
    rows = [0] * n
    for j in range(n):
        for i in iter_bits(probe._probe(1 << j)):
            rows[i] |= 1 << j
    return Digraph.from_rows(rows)


@dataclass(frozen=True)
class SCCDecomposition:
    """Strongly connected components in topological order, sinks first.

    `order` lists components so that arcs only go from later components to
    earlier ones; `component_of[v]` is the index of v's component in that
    order.  `cyclicity` is the gcd of cycle lengths inside each component
    (0 for a trivial component with no cycle).
    """

    order: Tuple[Tuple[int, ...], ...]
    component_of: Tuple[int, ...]
    final: Tuple[bool, ...]
    cyclicity: Tuple[int, ...]

    def final_classes(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(c for c, fin in zip(self.order, self.final) if fin)

    def is_primitive(self, index: int) -> bool:
        return self.cyclicity[index] == 1


def scc_decompose(g: Digraph) -> SCCDecomposition:
    """Tarjan's algorithm (iterative); components emerge sinks-first."""
    n = g.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[Tuple[int, ...]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            successors = g.succ[v]
            while pi < len(successors):
                w = successors[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    final = []
    for ci, comp in enumerate(comps):
        members = set(comp)
        final.append(all(w in members for v in comp for w in g.succ[v]))

    cyclicity = [_component_cyclicity(g, comp) for comp in comps]
    return SCCDecomposition(tuple(comps), tuple(comp_of), tuple(final),
                            tuple(cyclicity))


def _component_cyclicity(g: Digraph, comp: Tuple[int, ...]) -> int:
    members = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = [root]
    gcd = 0
    while queue:
        v = queue.pop()
        for w in g.succ[v]:
            if w not in members:
                continue
            if w in level:
                gcd = math.gcd(gcd, level[v] + 1 - level[w])
            else:
                level[w] = level[v] + 1
                queue.append(w)
    return abs(gcd)


# ---------------------------------------------------------------------------
# DOT emission

def digraph_to_dot(g: Digraph, name: str = "G") -> str:
    lines = [f"digraph {name} {{"]
    for v in range(g.n):
        lines.append(f"  n{v + 1} [label=\"{v + 1}\"];")
    for i, j in sorted(g.arcs):
        lines.append(f"  n{i + 1} -> n{j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hypergraph_to_dot(probe: HypergraphProbe, name: str = "H") -> str:
    """Render minimal scanned hyperarcs; multi-node tails get a fan-in point."""
    n = probe.map.dimension
    arcs = sorted(probe.minimal_tails(), key=lambda a: (sorted(a[0]), a[1]))
    lines = [f"digraph {name} {{",
             "  // minimal hyperarcs of the tails scanned: every proper tail",
             f"  // up to n = {probe.EXHAUSTIVE_SCAN_CAP}, above that the "
             "singletons and their complements"]
    for v in range(n):
        lines.append(f"  n{v + 1} [label=\"{v + 1}\"];")
    fan = 0
    for tail, head in arcs:
        tail_ix = sorted(tail)
        if len(tail_ix) == 1:
            lines.append(f"  n{tail_ix[0] + 1} -> n{head + 1};")
        else:
            fan += 1
            hub = f"t{fan}"
            label = "{" + ",".join(str(t + 1) for t in tail_ix) + "}"
            lines.append(f"  {hub} [shape=point, width=0.06, xlabel=\"{label}\"];")
            for t in tail_ix:
                lines.append(f"  n{t + 1} -> {hub} [dir=none, style=dashed];")
            lines.append(f"  {hub} -> n{head + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
