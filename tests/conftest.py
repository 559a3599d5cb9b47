"""Shared fixtures: the worked example maps, random generators, oracles."""

import math
import os
from typing import Dict, List

import numpy as np
import pytest

import conespec as cs
from conespec.core import INF, Side, SubsetMask, sup_normalized
from conespec import existence, maps
from conespec.errors import DimensionTooLargeError
from conespec.existence import (SUBSET_SWEEP_CAP, Route, SubsetCertificate,
                                VerdictKind)
from conespec.maps import (Coord, Linear, Max, Min, Pole, PowerMean, Scale,
                           Sum, face_map, from_exprs, monomial, pole_masks)

# Five fixed seeds for the property suites; CONESPEC_SEED shifts the base.
_BASE = int(os.environ.get("CONESPEC_SEED", "0"))
SEEDS = [_BASE + s for s in (11, 23, 37, 53, 71)]


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance criteria")


# ---------------------------------------------------------------------------
# Example maps

def make_tensor_example(a1=1.0, a2=1.0, b1=1.0, b2=1.0, b3=1.0,
                        c1=1.0, c2=1.0, c3=1.0, d1=1.0, d2=1.0, d3=1.0):
    """The order-3 tensor map with square-root coordinate combinations."""
    n = 4
    A = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    A[0][0][1] = a1
    A[0][1][1] = a2
    A[1][0][0] = b1
    A[1][0][1] = b2
    A[1][1][1] = b3
    A[2][0][0] = c1
    A[2][0][1] = c2
    A[2][1][2] = c3
    A[3][0][3] = d1
    A[3][2][2] = d2
    A[3][3][3] = d3
    return cs.build_tensor_map(A)


def tensor_example_raw(params):
    """Plain-formula evaluator for the tensor example (independent oracle)."""
    a1, a2, b1, b2, b3, c1, c2, c3, d1, d2, d3 = params

    def f(x):
        x1, x2, x3, x4 = x
        return (math.sqrt(a1 * x1 * x2 + a2 * x2 ** 2),
                math.sqrt(b1 * x1 ** 2 + b2 * x1 * x2 + b3 * x2 ** 2),
                math.sqrt(c1 * x1 ** 2 + c2 * x1 * x2 + c3 * x2 * x3),
                math.sqrt(d1 * x1 * x4 + d2 * x3 ** 2 + d3 * x4 ** 2))

    return f


def make_schoen(a=(1, 1, 1, 1), b=(1, 1, 1, 1), c=(1, 1, 1, 1),
                d=(1, 1, 1, 1)):
    return cs.schoen_map(a, b, c, d)


def make_game(r1, r2, r3, r4, r5, r6, p1, p2) -> cs.GameSpec:
    """The three-state turn-based game: max controls 1, min controls 2, 3."""
    A = cs.GameAction
    return cs.GameSpec(
        controllers=("max", "min", "min"),
        actions=(
            (A(r1, (1.0, 0.0, 0.0)), A(r2, (p1, 1.0 - p1, 0.0))),
            (A(r3, (0.0, 1.0, 0.0)), A(r4, (p2, 0.0, 1.0 - p2))),
            (A(r5, (0.0, 0.0, 1.0)), A(r6, (1.0, 0.0, 0.0))),
        ))


GAME_CONEMAP_TEXT = """\
format: 1
dim: 3
param r1 = {r1}
param r2 = {r2}
param r3 = {r3}
param r4 = {r4}
param r5 = {r5}
param r6 = {r6}
param p1 = {p1}
param p2 = {p2}
coord 1: max(2.718281828459045^r1*x1, 2.718281828459045^r2*x1^p1*x2^(1-p1))
coord 2: min(2.718281828459045^r3*x2, 2.718281828459045^r4*x1^p2*x3^(1-p2))
coord 3: min(2.718281828459045^r5*x3, 2.718281828459045^r6*x1)
"""


def game_conjugate_text(r1, r2, r3, r4, r5, r6, p1, p2):
    return GAME_CONEMAP_TEXT.format(r1=r1, r2=r2, r3=r3, r4=r4, r5=r5,
                                    r6=r6, p1=p1, p2=p2)


# ---------------------------------------------------------------------------
# Random generators

def random_interior(rng, n, lo=0.2, hi=5.0) -> cs.ExtVec:
    return cs.ExtVec.interior(rng.uniform(lo, hi, size=n))


def random_mplus_map(rng, n) -> cs.ConeMap:
    """A random map whose coordinates are sums of nonneg-exponent means."""
    exprs = []
    for _ in range(n):
        terms = []
        for _ in range(rng.integers(1, 4)):
            k = int(rng.integers(1, n + 1))
            support = rng.choice(n, size=k, replace=False)
            weights = rng.uniform(0.2, 1.0, size=k)
            weights = tuple(float(w) for w in weights / weights.sum())
            r = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            if k == 1:
                node = Coord(int(support[0]))
            else:
                node = PowerMean(r, weights,
                                 tuple(Coord(int(j)) for j in support))
            coeff = float(rng.uniform(0.3, 2.0))
            terms.append(Scale(coeff, node) if coeff != 1.0 else node)
        exprs.append(terms[0] if len(terms) == 1 else Sum(tuple(terms)))
    return from_exprs(exprs, n)


def random_tree(rng, n, depth):
    """A random node over every node type, poles included."""
    kind = int(rng.integers(0, 8 if depth > 0 else 3))
    if kind == 0:
        return Coord(int(rng.integers(0, n)))
    if kind == 1:
        return Pole(0.0 if rng.random() < 0.5 else INF)
    if kind == 2:
        support = sorted(int(j) for j in rng.choice(
            n, size=int(rng.integers(1, n + 1)), replace=False))
        return Linear(tuple((j, float(rng.uniform(0.1, 3.0)))
                            for j in support))
    if kind == 3:
        return Scale(float(rng.uniform(0.1, 3.0)),
                     random_tree(rng, n, depth - 1))
    terms = tuple(random_tree(rng, n, depth - 1)
                  for _ in range(int(rng.integers(1, 4))))
    if kind == 4:
        return Sum(terms)
    if kind == 5:
        return Min(terms)
    if kind == 6:
        return Max(terms)
    weights = [float(w) for w in rng.uniform(0.2, 1.0, size=len(terms))]
    total = sum(weights)
    return PowerMean(float(rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])),
                     tuple(w / total for w in weights), terms)


def reference_pin(e, assignment):
    """Partial evaluation with coordinates pinned to poles, as `maps.pin`
    was written before its fold renumbered too: the reference for
    `maps.face_map`."""
    if isinstance(e, Coord):
        v = assignment.get(e.index)
        return Pole(v) if v is not None else e
    if isinstance(e, Pole):
        return e
    if isinstance(e, Scale):
        c = reference_pin(e.child, assignment)
        if isinstance(c, Pole):
            return c
        return maps._scale(e.factor, c)
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
            p = reference_pin(t, assignment)
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
            p = reference_pin(t, assignment)
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
            p = reference_pin(t, assignment)
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
        inf_factor = None
        for w, t in zip(e.weights, e.terms):
            p = reference_pin(t, assignment)
            if isinstance(p, Pole):
                if e.r > 0.0:
                    if p.value == INF:
                        return Pole(INF)
                    continue  # zero term contributes nothing to the sum
                if p.value == 0.0:
                    return Pole(0.0)
                if e.r == 0.0:
                    inf_factor = Pole(INF)  # a zero factor absorbs first
                continue  # r < 0: reciprocal of inf drops out
            kept_w.append(w)
            kept_t.append(p)
        if inf_factor is not None:
            return inf_factor
        if not kept_t:
            return Pole(0.0) if e.r > 0.0 else Pole(INF)
        mass = sum(kept_w)
        if len(kept_t) == 1:
            node = kept_t[0]
        else:
            node = PowerMean(e.r, tuple(w / mass for w in kept_w),
                             tuple(kept_t))
        if abs(mass - 1.0) > 1e-15:
            # (sum of kept sigma_i v_i^r)^(1/r) = mass^(1/r) * renormalized mean
            node = maps._scale(mass ** (1.0 / e.r) if e.r != 0.0 else 1.0,
                               node)
        return node
    raise TypeError(f"unknown node {type(e).__name__}")


def reference_probe(f, side, tail_bits):
    """`graphs.HypergraphProbe._probe` on AST maps as it was written before
    it folded `maps.pole_masks`: the heads outside the tail where f is the
    pole at the float point with the tail pinned there, every other
    coordinate 1."""
    n = f.dimension
    pole = 0.0 if side is Side.LOWER else INF
    point = tuple(pole if tail_bits >> j & 1 else 1.0 for j in range(n))
    out = tuple(e.evaluate(point) for e in f.exprs)
    return sum(1 << j for j in range(n)
               if not tail_bits >> j & 1 and out[j] == pole)


def reference_tail_probe(self, tail_bits):
    """`graphs.HypergraphProbe._probe` (with the probe as `self`) as it was
    written before an AST probe up to ten coordinates folded each output
    once over all tails: one fold of every output per tail.  The reference
    for the truth-table fold."""
    pole = 0.0 if self.side is Side.LOWER else INF
    if not self.map.is_ast:
        return self._probe_heuristic(tail_bits, pole)
    pins = [tail_bits >> j & 1 for j in range(self.map.dimension)]
    side = 0 if pole == INF else 1
    return sum(1 << i for i, e in enumerate(self.map.exprs)
               if pole_masks(e, pins, 1, pole)[side])


def reference_pole_masks(e, full):
    """`maps.pole_masks` as it was written for the unit pins to inf only:
    the reference for the growth rows of `graphs.digraph_of`."""
    if isinstance(e, Linear):
        return sum(1 << j for j, _ in e.nonzeros), 0
    if isinstance(e, Coord):
        return 1 << e.index, 0
    if isinstance(e, Pole):
        return (full, 0) if e.value == INF else (0, full)
    if isinstance(e, Scale):
        return reference_pole_masks(e.child, full)
    any_inf = any_zero = 0
    all_inf = all_zero = full
    for t in e.children():
        inf, zero = reference_pole_masks(t, full)
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


def reference_symbolic_deps(e):
    """The coordinates e reads, as `maps.sparsity_probe` found the rows of
    analytic maps before they became the growth rows."""
    if isinstance(e, Coord):
        return 1 << e.index
    if isinstance(e, Pole):
        return 0
    if isinstance(e, Linear):
        return sum(1 << j for j, _ in e.nonzeros)
    bits = 0
    for c in e.children():
        bits |= reference_symbolic_deps(c)
    return bits


def reference_is_analytic(e):
    """The analytic flag as `maps.from_exprs` derived it before one fold
    gave both flags."""
    if isinstance(e, (Coord, Pole, Linear)):
        return True
    if isinstance(e, (Min, Max)):
        return False
    if isinstance(e, PowerMean):
        # Negative-exponent means are kept off the analytic fast paths.
        if e.r < 0.0:
            return False
        return all(reference_is_analytic(c) for c in e.terms)
    return all(reference_is_analytic(c) for c in e.children())


def reference_is_mult_convex(e):
    """The multiplicative-convexity flag, as `reference_is_analytic`."""
    if isinstance(e, (Coord, Pole, Linear)):
        return True
    if isinstance(e, Min):
        return False
    if isinstance(e, Max):
        # max of multiplicatively convex maps is multiplicatively convex
        return all(reference_is_mult_convex(c) for c in e.terms)
    if isinstance(e, PowerMean):
        if e.r < 0.0:
            return False
        return all(reference_is_mult_convex(c) for c in e.terms)
    return all(reference_is_mult_convex(c) for c in e.children())


def reference_renumber(e, table):
    """e with coordinate j renamed table[j], node types kept."""
    if isinstance(e, Coord):
        return Coord(table[e.index])
    if isinstance(e, Pole):
        return e
    if isinstance(e, Scale):
        return Scale(e.factor, reference_renumber(e.child, table))
    if isinstance(e, Linear):
        # the table is increasing, so the pairs stay in index order
        return Linear(tuple((table[j], w) for j, w in e.nonzeros))
    if isinstance(e, Sum):
        return Sum(tuple(reference_renumber(t, table) for t in e.terms))
    if isinstance(e, Min):
        return Min(tuple(reference_renumber(t, table) for t in e.terms))
    if isinstance(e, Max):
        return Max(tuple(reference_renumber(t, table) for t in e.terms))
    if isinstance(e, PowerMean):
        return PowerMean(e.r, e.weights,
                         tuple(reference_renumber(t, table) for t in e.terms))
    raise TypeError(f"unknown node {type(e).__name__}")


def reference_face(exprs, keep, fill):
    """The face on `keep` by pinning, then renumbering in a second pass;
    None when a kept output collapses to a pole."""
    n = len(exprs)
    kept = keep.indices()
    outside = {j: fill for j in range(n) if j not in kept}
    table = {j: k for k, j in enumerate(kept)}
    pinned = [reference_pin(exprs[i], outside) for i in kept]
    if any(isinstance(p, Pole) for p in pinned):
        return None
    return tuple(reference_renumber(p, table) for p in pinned)


def reference_plain_trajectory(g, x, budget, tol, gap_stop, residual_stop,
                               guard, start=None):
    """`spectral._plain_trajectory` as it was written before its ratios and
    next iterate were built with `map`: the reference for that loop."""
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
        ratios = [v / u for v, u in zip(fx, x)]
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
        x = sup_normalized(tuple(u + v for u, v in zip(x, fx)))
        if min(x) < guard:
            break  # trajectory left the face numerically; brackets stay sound
    return k, best_lo, best_up, wit_lo, wit_up, gap, eigen, x


class _ReferenceAnalyzer(existence.Analyzer):
    """`existence.Analyzer` with the subset sweep as it was written before
    it became one pass over integer masks: `classify` and `_try_prune`
    verbatim, with a `_face_kind` that checks every nonempty proper subset
    of the face, as `SubsetMask`s in (popcount, bits) order, until the
    first numeric reverse.  Its face analyzer is built as `type(self)` on
    the root map's face that pins the complement of the face to inf, as
    `existence.Analyzer._face_kind` does, and it prunes nothing; its checks
    build certificates, and refine the shared brackets as a route-only one
    does.  Its lower-face branch never runs: waves go by popcount, so
    every proper subset of a passing subset already has its certificate."""

    def _face_kind(self, keep: SubsetMask, fill: float) -> VerdictKind:
        face = face_map(self.f, keep, fill)
        rooted = ({"faces": self.faces, "inf": keep.complement().bits}
                  if fill == INF else {})
        sub = type(self)(face, self.budget, self.tol, prune=False, **rooted)
        k = face.dimension
        masks = (SubsetMask(bits, k) for bits in range(1, (1 << k) - 1))
        routes = []
        for m in sorted(masks, key=lambda m: (m.popcount(), m.bits)):
            route = sub.check_subset(m).route
            if route is Route.NUMERIC_REVERSE:
                return VerdictKind.NO_INTERIOR_EIGENVECTOR
            routes.append(route)
        if all(route.passing for route in routes):
            return VerdictKind.NONEMPTY_BOUNDED
        return VerdictKind.INDETERMINATE

    def classify(self, solve: bool = True) -> existence.Verdict:
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
        if remaining_subsets and self.r_side.probe().is_invariant(
                J.complement()):
            if self._face_kind(J, 0.0) is VerdictKind.NONEMPTY_BOUNDED:
                for m in remaining_subsets:
                    pruned_by[m.bits] = J


def reference_sweep(f, budget=existence.DEFAULT_BUDGET, solve=True):
    """`Analyzer(f, budget).classify(solve)` by the reference sweep: the
    oracle for the one-pass sweep."""
    return _ReferenceAnalyzer(f, budget).classify(solve)


def random_irreducible_matrix(rng, n):
    """Nonnegative matrix containing a full cycle, hence irreducible."""
    mat = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.1, 3.0, (n, n)), 0.0)
    for i in range(n):
        mat[i][(i + 1) % n] = rng.uniform(0.2, 2.0)
    return mat


# ---------------------------------------------------------------------------
# Oracles

def perron_oracle(rows) -> float:
    """Dense spectral radius of a nonnegative matrix (independent route)."""
    return float(max(abs(np.linalg.eigvals(np.asarray(rows, dtype=float)))))


def block_radius_oracle(g, tol=1e-13) -> float:
    """Spectral radius of a 2-dim map by bisecting for (tau, 1 - tau)."""
    def balance(t):
        y1, y2 = g((t, 1.0 - t))
        return y1 * (1.0 - t) - y2 * t

    lo, hi = 1e-12, 1.0 - 1e-12
    if balance(lo) < 0:
        lo, hi = hi, lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < tol:
            break
    t = 0.5 * (lo + hi)
    y1, _ = g((t, 1.0 - t))
    return y1 / t


def reference_additive(game: cs.GameSpec, x):
    """The Shapley operator T(x), evaluated directly from the game.

    The reference for the generated loop of `TopicalMap`, which must take
    the same floating-point operations in the same order.
    """
    out = []
    for controller, acts in zip(game.controllers, game.actions):
        vals = []
        for act in acts:
            s = act.payoff
            for j, p in enumerate(act.transition):
                if p > 0.0:
                    s += p * x[j]
            vals.append(s)
        out.append(min(vals) if controller == "min" else max(vals))
    return tuple(out)


def reference_iterate(game: cs.GameSpec, x0, k: int):
    """T^k(x0) by k direct evaluations."""
    x = tuple(float(v) for v in x0)
    for _ in range(k):
        x = reference_additive(game, x)
    return x


def value_iteration_oracle(T: cs.TopicalMap, k: int = 4096):
    """Per-state long-run average payoff via plain value iteration."""
    x = reference_iterate(T.game, (0.0,) * T.n, k)
    return [v / k for v in x]


@pytest.fixture(params=SEEDS)
def rng(request):
    return np.random.default_rng(request.param)
