"""Boundary hypergraphs, the growth digraph, and strongly connected structure.

The two hypergraphs record which coordinates are forced to a pole when a
tail set of coordinates is sent there: on the lower side a hyperarc (T, {j})
means f(e_{[n]\\T})_j = 0, on the upper side it means f(omega_T)_j = inf.
Probes evaluate the map's exact extended semantics and memoize per mask.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .core import INF, ConeMap, Side, SubsetMask, iter_bits
from .maps import pole_masks


class HypergraphProbe:
    """Memoized hyperarc queries against one side of a map's boundary."""

    def __init__(self, f: ConeMap, side: Side):
        if side not in (Side.LOWER, Side.UPPER):
            raise ValueError("side must be LOWER or UPPER")
        self.map = f
        self.side = side
        self.heuristic = not f.is_ast
        self._cache: Dict[int, int] = {}
        self._lock = threading.Lock()

    def hyperarc_targets(self, tail: SubsetMask) -> SubsetMask:
        """Heads j outside the tail forced to the pole by pinning the tail."""
        n = self.map.dimension
        if tail.n != n:
            raise ValueError("mask dimension mismatch")
        with self._lock:
            hit = self._cache.get(tail.bits)
        if hit is None:
            hit = self._probe(tail.bits)
            with self._lock:
                self._cache[tail.bits] = hit
        return SubsetMask(hit, n)

    def _probe(self, tail_bits: int) -> int:
        n = self.map.dimension
        pole = 0.0 if self.side is Side.LOWER else INF
        if self.map.is_ast:
            point = tuple(pole if tail_bits >> j & 1 else 1.0 for j in range(n))
            out = tuple(e.evaluate(point) for e in self.map.exprs)
            return sum(1 << j for j in range(n)
                       if not tail_bits >> j & 1 and out[j] == pole)
        return self._probe_heuristic(tail_bits)

    def _probe_heuristic(self, tail_bits: int) -> int:
        # Black-box maps: compare growth between t and t^2 scaled pins.
        n = self.map.dimension
        t = 1e12
        big = t if self.side is Side.UPPER else 1.0 / t
        x1 = tuple(big if tail_bits >> j & 1 else 1.0 for j in range(n))
        x2 = tuple(big * big if tail_bits >> j & 1 else 1.0 for j in range(n))
        y1 = self.map.eval_interior(x1)
        y2 = self.map.eval_interior(x2)
        bits = 0
        for j in range(n):
            if tail_bits >> j & 1:
                continue
            ratio = y2[j] / y1[j]
            if self.side is Side.UPPER and ratio > math.sqrt(t):
                bits |= 1 << j
            if self.side is Side.LOWER and ratio < 1.0 / math.sqrt(t):
                bits |= 1 << j
        return bits

    def is_invariant(self, I: SubsetMask) -> bool:
        """True when no hyperarc leaves I."""
        return self.hyperarc_targets(I).is_empty()

    def reach(self, J: SubsetMask) -> SubsetMask:
        """The smallest invariant superset of J."""
        current = J
        for _ in range(self.map.dimension + 1):
            grown = current.union(self.hyperarc_targets(current))
            if grown.bits == current.bits:
                return current
            current = grown
        return current

    EXHAUSTIVE_SCAN_CAP = 10

    def minimal_tails(self, heads: Optional[Sequence[int]] = None,
                      extra_tails: Sequence[SubsetMask] = ()) -> Set[Tuple[FrozenSet[int], int]]:
        """Hyperarcs whose tail is inclusion-minimal among scanned positives.

        Up to dimension EXHAUSTIVE_SCAN_CAP every proper tail is probed, so
        the result is the true set of minimal hyperarcs.  Beyond that the
        scan covers singletons, complements of singletons, and any extra
        masks (e.g. those cached by a prior analysis), so it is bounded and
        may miss hyperarcs whose minimal tail was never queried.
        """
        n = self.map.dimension
        if n <= self.EXHAUSTIVE_SCAN_CAP:
            candidates = set(range(1, (1 << n) - 1))
        else:
            candidates = {SubsetMask.of([j], n).bits for j in range(n)}
            candidates |= {SubsetMask.of([j], n).complement().bits
                           for j in range(n)}
        candidates |= {m.bits for m in extra_tails}
        with self._lock:
            candidates |= set(self._cache)
        positive: List[Tuple[int, int]] = []
        for bits in sorted(candidates):
            mask = SubsetMask(bits, n)
            for j in self.hyperarc_targets(mask):
                if heads is None or j in heads:
                    positive.append((bits, j))
        result = set()
        for bits, j in positive:
            if not any(o != bits and o & ~bits == 0 for o, h in positive if h == j):
                result.add((frozenset(SubsetMask(bits, n).indices()), j))
        return result


def hyperarc_targets(probe: HypergraphProbe, tail: SubsetMask) -> SubsetMask:
    return probe.hyperarc_targets(tail)


def reach(probe: HypergraphProbe, J: SubsetMask) -> SubsetMask:
    return probe.reach(J)


def is_invariant(probe: HypergraphProbe, I: SubsetMask) -> bool:
    return probe.is_invariant(I)


@dataclass(frozen=True)
class Digraph:
    """A directed graph on [n] with forward and reverse adjacency."""

    n: int
    arcs: FrozenSet[Tuple[int, int]]
    succ: Tuple[Tuple[int, ...], ...] = field(default=None, compare=False)
    pred: Tuple[Tuple[int, ...], ...] = field(default=None, compare=False)

    @staticmethod
    def from_arcs(n: int, arcs) -> "Digraph":
        arcset = frozenset((int(i), int(j)) for i, j in arcs)
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for i, j in sorted(arcset):
            succ[i].append(j)
            pred[j].append(i)
        return Digraph(n, arcset,
                       tuple(tuple(s) for s in succ),
                       tuple(tuple(p) for p in pred))


def digraph_of(f: ConeMap) -> Digraph:
    """The growth digraph: arc (i, j) when output i blows up as x_j -> inf.

    On AST maps the arcs of output i are the inf mask of `pole_masks`, one
    symbolic pass over its expression, so the cost is linear in the size of
    the map rather than n evaluations of it.  Black-box maps are probed at
    large finite arguments.
    """
    n = f.dimension
    if f.is_ast:
        full = (1 << n) - 1
        return Digraph.from_arcs(n, [
            (i, j) for i, e in enumerate(f.exprs)
            for j in iter_bits(pole_masks(e, full)[0])])
    probe = HypergraphProbe(f, Side.UPPER)
    arcs = []
    for j in range(n):
        mask = SubsetMask.of([j], n)
        # reuse the heuristic probe for off-diagonal arcs, then test (j, j)
        targets = probe.hyperarc_targets(mask)
        arcs.extend((i, j) for i in targets)
        t = 1e12
        x1 = tuple(t if k == j else 1.0 for k in range(n))
        x2 = tuple(t * t if k == j else 1.0 for k in range(n))
        if f.eval_interior(x2)[j] / f.eval_interior(x1)[j] > math.sqrt(t):
            arcs.append((j, j))
    return Digraph.from_arcs(n, arcs)


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


def hypergraph_to_dot(probe: HypergraphProbe, name: str = "H",
                      extra_tails: Sequence[SubsetMask] = ()) -> str:
    """Render minimal scanned hyperarcs; multi-node tails get a fan-in point."""
    n = probe.map.dimension
    arcs = sorted(probe.minimal_tails(extra_tails=extra_tails),
                  key=lambda a: (sorted(a[0]), a[1]))
    lines = [f"digraph {name} {{",
             "  // hyperarcs from a bounded minimal-tail scan; tails never",
             "  // queried by the scan or a prior analysis may be missing"]
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
