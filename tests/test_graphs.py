"""Hypergraphs, growth digraph, strongly connected structure, DOT output."""

import random

import pytest

import conespec as cs
from conespec.core import INF, ConeMap, ExtVec, Side, SubsetMask
from conespec.existence import Uniqueness, VerdictKind
from conespec.graphs import Digraph, HypergraphProbe, digraph_to_dot, \
    hypergraph_to_dot
from conespec.maps import (Coord, Linear, Max, Min, Pole, PowerMean, Scale,
                           Sum, from_exprs)

from conftest import (make_game, make_schoen, make_tensor_example,
                      random_mplus_map)


def mask(ix, n):
    return SubsetMask.of([i - 1 for i in ix], n)


def all_proper(n):
    return [SubsetMask(bits, n) for bits in range(1, (1 << n) - 1)]


class TestTensorExampleFixtures:
    """Boolean fixtures for the order-3 tensor example (all parameters 1)."""

    @pytest.fixture(scope="class")
    @staticmethod
    def f():
        return make_tensor_example()

    def test_upper_targets_of_singleton_one(self, f):
        probe = HypergraphProbe(f, Side.UPPER)
        assert probe.hyperarc_targets(mask([1], 4)) == mask([2, 3, 4], 4)

    def test_lower_targets(self, f):
        probe = HypergraphProbe(f, Side.LOWER)
        assert probe.hyperarc_targets(mask([2], 4)) == mask([1], 4)
        assert probe.hyperarc_targets(mask([1, 2], 4)) == mask([3], 4)
        assert probe.hyperarc_targets(mask([1], 4)).is_empty()

    def test_lower_minimal_hyperarcs(self, f):
        probe = HypergraphProbe(f, Side.LOWER)
        arcs = probe.minimal_tails()
        assert arcs == {(frozenset({1}), 0), (frozenset({0, 1}), 2)}

    def test_upper_minimal_hyperarcs(self, f):
        probe = HypergraphProbe(f, Side.UPPER)
        arcs = probe.minimal_tails()
        assert arcs == {(frozenset({0}), 1), (frozenset({0}), 2),
                        (frozenset({0}), 3), (frozenset({1}), 0),
                        (frozenset({1}), 2), (frozenset({2}), 3)}

    def test_upper_invariant_sets(self, f):
        probe = HypergraphProbe(f, Side.UPPER)
        invariant = [J for J in all_proper(4) if probe.is_invariant(J)]
        assert invariant == [mask([3, 4], 4), mask([4], 4)] or \
            set(J.bits for J in invariant) == {mask([4], 4).bits,
                                               mask([3, 4], 4).bits}

    def test_reach_of_complements(self, f):
        probe = HypergraphProbe(f, Side.LOWER)
        assert probe.reach(mask([1, 2, 3], 4)) == mask([1, 2, 3], 4)
        assert probe.reach(mask([1, 2], 4)) == mask([1, 2, 3], 4)

    def test_growth_digraph_matches_figure(self, f):
        g = cs.digraph_of(f)
        expected = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                    (3, 0), (3, 2), (3, 3)}
        assert set(g.arcs) == expected

    def test_components_and_final_class(self, f):
        scc = cs.scc_decompose(cs.digraph_of(f))
        assert set(scc.order) == {(0, 1), (2,), (3,)}
        assert scc.final_classes() == ((0, 1),)
        for i, comp in enumerate(scc.order):
            assert scc.cyclicity[i] == 1  # every class has a self-loop


class TestSchoenFixtures:
    @pytest.fixture(scope="class")
    @staticmethod
    def f():
        return make_schoen()

    def test_lower_hypergraph_empty(self, f):
        probe = HypergraphProbe(f, Side.LOWER)
        assert all(probe.hyperarc_targets(J).is_empty() for J in all_proper(4))

    def test_upper_invariant_sets(self, f):
        probe = HypergraphProbe(f, Side.UPPER)
        invariant = {J.bits for J in all_proper(4) if probe.is_invariant(J)}
        expected = {mask(ix, 4).bits for ix in
                    ([1], [2], [3], [4], [1, 2], [1, 3], [2, 4], [3, 4])}
        assert invariant == expected

    def test_upper_minimal_hyperarcs(self, f):
        probe = HypergraphProbe(f, Side.UPPER)
        arcs = probe.minimal_tails()
        assert arcs == {(frozenset({0, 3}), 1), (frozenset({0, 3}), 2),
                        (frozenset({1, 2}), 0), (frozenset({1, 2}), 3)}


class TestGameFixtures:
    @pytest.fixture(scope="class")
    @staticmethod
    def T():
        return cs.build_shapley(make_game(0.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                          0.5, 0.5))

    def test_minus_infinity_hypergraph(self, T):
        probe = HypergraphProbe(T.conjugate, Side.LOWER)
        arcs = probe.minimal_tails()
        assert arcs == {(frozenset({0}), 1), (frozenset({0}), 2),
                        (frozenset({2}), 1)}

    def test_plus_infinity_hypergraph(self, T):
        probe = HypergraphProbe(T.conjugate, Side.UPPER)
        assert probe.minimal_tails() == {(frozenset({1}), 0)}

    def test_exceptional_subsets(self, T):
        # subsets evading both reach shortcuts: {1}, {1,2}, {1,3}
        lower = HypergraphProbe(T.conjugate, Side.LOWER)
        upper = HypergraphProbe(T.conjugate, Side.UPPER)
        exceptional = [J.bits for J in all_proper(3)
                       if not lower.reach(J.complement()).is_full()
                       and not upper.reach(J).is_full()]
        assert set(exceptional) == {mask([1], 3).bits, mask([1, 2], 3).bits,
                                    mask([1, 3], 3).bits}

    def test_additive_probe_transfer(self, T):
        lower = HypergraphProbe(T.conjugate, Side.LOWER)
        upper = HypergraphProbe(T.conjugate, Side.UPPER)
        for J in all_proper(3):
            assert T.additive_hyperarc_targets(False, J) == \
                lower.hyperarc_targets(J)
            assert T.additive_hyperarc_targets(True, J) == \
                upper.hyperarc_targets(J)


class TestDigraphBasics:
    def test_identity_has_no_cross_arcs(self):
        f = cs.matrix_map([[1, 0], [0, 1]])
        probe = HypergraphProbe(f, Side.UPPER)
        for J in all_proper(2):
            assert probe.hyperarc_targets(J).is_empty()
        g = cs.digraph_of(f)
        assert set(g.arcs) == {(0, 0), (1, 1)}

    def test_irreducible_iff_strongly_connected(self, rng):
        irreducible = cs.matrix_map([[0, 1], [1, 0]])
        scc = cs.scc_decompose(cs.digraph_of(irreducible))
        assert len(scc.order) == 1
        reducible = cs.matrix_map([[1, 1], [0, 1]])
        scc = cs.scc_decompose(cs.digraph_of(reducible))
        assert len(scc.order) == 2

    def test_diagonal_self_loops(self):
        f = cs.matrix_map([[1, 0], [0, 2]])
        assert set(cs.digraph_of(f).arcs) == {(0, 0), (1, 1)}


class TestSCC:
    def test_two_cycle(self):
        g = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        scc = cs.scc_decompose(g)
        assert scc.order == ((0, 1),)
        assert scc.final == (True,)
        assert scc.cyclicity == (2,)
        assert not scc.is_primitive(0)

    def test_complete_graph_primitive(self):
        arcs = [(i, j) for i in range(3) for j in range(3) if i != j]
        scc = cs.scc_decompose(Digraph.from_arcs(3, arcs))
        assert scc.order == ((0, 1, 2),)
        assert scc.cyclicity == (1,)
        assert scc.is_primitive(0)

    def test_topological_order_sinks_first(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 3)])
        scc = cs.scc_decompose(g)
        order = scc.order
        pos = {comp: i for i, comp in enumerate(order)}
        # no arcs from an earlier component to a later one
        for i, j in g.arcs:
            ci = order[scc.component_of[i]]
            cj = order[scc.component_of[j]]
            if ci != cj:
                assert pos[cj] < pos[ci]

    def test_trivial_component_cyclicity_zero(self):
        g = Digraph.from_arcs(2, [(0, 1), (1, 1)])
        scc = cs.scc_decompose(g)
        by_comp = dict(zip(scc.order, scc.cyclicity))
        assert by_comp[(0,)] == 0
        assert by_comp[(1,)] == 1


class TestHypergraphProperties:
    def test_conjugation_identity(self, rng):
        for n in (3, 4, 5):
            f = random_mplus_map(rng, n)
            g = cs.reciprocal_conjugate(f)
            up = HypergraphProbe(f, Side.UPPER)
            lo = HypergraphProbe(g, Side.LOWER)
            for J in all_proper(n):
                assert up.hyperarc_targets(J) == lo.hyperarc_targets(J)

    def test_hyperarc_monotone_in_tail(self, rng):
        f = random_mplus_map(rng, 4)
        probe = HypergraphProbe(f, Side.UPPER)
        for T in all_proper(4):
            heads = probe.hyperarc_targets(T)
            for S in all_proper(4):
                if T.issubset(S):
                    bigger = probe.hyperarc_targets(S)
                    for j in heads:
                        if not S.contains(j):
                            assert bigger.contains(j)

    def test_reach_monotone(self, rng):
        f = random_mplus_map(rng, 4)
        probe = HypergraphProbe(f, Side.LOWER)
        for J in all_proper(4):
            rj = probe.reach(J)
            assert probe.reach(rj) == rj  # idempotent
            for S in all_proper(4):
                if J.issubset(S):
                    assert rj.issubset(probe.reach(S))
        assert probe.reach(SubsetMask.empty(4)).is_empty()

    def test_full_reach_iff_restriction_radius_zero(self, rng):
        # sampled equivalence between reach and a vanishing face radius
        for n in (3, 4, 5):
            f = random_mplus_map(rng, n)
            probe = HypergraphProbe(f, Side.LOWER)
            for J in all_proper(n):
                full = probe.reach(J.complement()).is_full()
                bracket = cs.cw_upper(cs.restrict_lower(f, J), budget=2000)
                if full:
                    assert bracket.upper <= 1e-9
                else:
                    assert bracket.upper > 1e-9


class TestBlackBoxProbes:
    def test_heuristic_matches_exact_on_matrix(self):
        rows = [[1.0, 2.0], [0.0, 1.0]]
        exact = cs.matrix_map(rows)
        black = ConeMap(dimension=2,
                        evaluator=lambda x: (x[0] + 2 * x[1], x[1]))
        for side in (Side.LOWER, Side.UPPER):
            pe = HypergraphProbe(exact, side)
            pb = HypergraphProbe(black, side)
            assert pb.heuristic
            for J in all_proper(2):
                assert pe.hyperarc_targets(J) == pb.hyperarc_targets(J)
        assert set(cs.digraph_of(black).arcs) == set(cs.digraph_of(exact).arcs)


class TestDot:
    def test_digraph_dot_deterministic(self):
        f = make_tensor_example()
        d1 = digraph_to_dot(cs.digraph_of(f))
        d2 = digraph_to_dot(cs.digraph_of(f))
        assert d1 == d2
        assert "n4 -> n1;" in d1

    def test_identity_hypergraph_dot_empty(self):
        f = cs.matrix_map([[1, 0], [0, 1]])
        out = hypergraph_to_dot(HypergraphProbe(f, Side.UPPER))
        assert "->" not in out.replace("// ", "")

    def test_fan_in_rendering(self):
        f = make_schoen()
        out = hypergraph_to_dot(HypergraphProbe(f, Side.UPPER))
        assert "t1 [shape=point" in out
        assert out.count("xlabel") == 4  # four two-element tails


class TestConcurrentProbes:
    def test_parallel_reach_consistent(self):
        from concurrent.futures import ThreadPoolExecutor
        from conespec.core import Side
        f = make_tensor_example()
        probe = HypergraphProbe(f, Side.UPPER)
        masks = all_proper(4) * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(probe.reach, masks))
        serial = [probe.reach(J) for J in masks]
        assert [r.bits for r in results] == [r.bits for r in serial]


# ---------------------------------------------------------------------------
# The symbolic growth digraph against per-coordinate probing

NODE_TYPES = (Coord, Pole, Scale, Sum, Linear, Min, Max, PowerMean)


def probe_digraph_arcs(f):
    """Reference: arc (i, j) when f_i = inf at x_j = inf, other entries 1."""
    n = f.dimension
    arcs = set()
    for j in range(n):
        point = tuple(INF if k == j else 1.0 for k in range(n))
        out = tuple(e.evaluate(point) for e in f.exprs)
        arcs |= {(i, j) for i in range(n) if out[i] == INF}
    return arcs


def with_restrictions(f):
    """f, its conjugate, and every lower and upper restriction of both."""
    n = f.dimension
    for g in (f, cs.reciprocal_conjugate(f)):
        yield g
        for J in all_proper(n):
            yield cs.restrict_lower(g, J)
            yield cs.restrict_upper(g, J)


def random_rows(rng, n, density=0.4):
    rows = [[float(rng.uniform(0.1, 3.0)) if rng.random() < density else 0.0
             for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        if not any(row):
            row[int(rng.integers(0, n))] = 1.0
    return rows


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


class TestSymbolicDigraph:
    def _check(self, f):
        for g in with_restrictions(f):
            assert set(cs.digraph_of(g).arcs) == probe_digraph_arcs(g)

    def test_fixtures(self):
        self._check(make_tensor_example())
        self._check(make_schoen())
        self._check(make_schoen(b=(1, 0, 1, 1), c=(0, 1, 1, 0)))
        for r1 in (-1.0, 0.0, 1.0):
            self._check(cs.build_shapley(
                make_game(r1, 0.5, 0.0, 0.3, 2.0, -1.0, 0.4, 0.6)).conjugate)

    def test_random_maps(self, rng):
        for n in range(1, 7):
            self._check(random_mplus_map(rng, n))
            rows = random_rows(rng, n)
            self._check(cs.matrix_map(rows))
            self._check(cs.max_times_map(rows))

    def test_random_trees_with_poles(self, rng):
        for n in range(1, 7):
            for _ in range(4):
                f = from_exprs([random_tree(rng, n, 3) for _ in range(n)], n)
                self._check(f)

    def test_ast_digraph_evaluates_nothing(self, monkeypatch):
        calls = []

        def counted(original):
            def evaluate(self, x):
                calls.append(type(self).__name__)
                return original(self, x)
            return evaluate

        for cls in NODE_TYPES:
            monkeypatch.setattr(cls, "evaluate", counted(cls.evaluate))
        maps = [make_tensor_example(), make_schoen(),
                cs.build_shapley(make_game(0.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                           0.5, 0.5)).conjugate,
                cs.matrix_map([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0],
                               [0.0, 3.0, 0.0]])]
        for f in maps:
            cs.digraph_of(f)
        assert calls == []
        for f in maps:
            probe_digraph_arcs(f)
        assert len(calls) > 0  # the counter does see evaluations

    def test_classify_sparse_thousand(self):
        # four random entries per row plus a full cycle, as in the benchmark
        rnd = random.Random(7)
        n = 1000
        rows = []
        for i in range(n):
            row = [0.0] * n
            for j in rnd.sample(range(n), 4):
                row[j] = rnd.uniform(0.1, 3.0)
            row[(i + 1) % n] = rnd.uniform(0.2, 2.0)
            rows.append(row)
        v = cs.classify(cs.matrix_map(rows))
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.eigen.residual <= 1e-10
