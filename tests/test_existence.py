"""The classifier: subset checks, sweep, convex route, inference rules."""

import gc
import math
import pickle
import random
import sys
import weakref
from dataclasses import replace

import pytest

import conespec as cs
from conespec import existence, graphs, spectral
from conespec.core import INF, ConeMap, ExtVec, Side, SubsetMask
from conespec.errors import (DimensionTooLargeError, FlagMissingError,
                             NumericRangeError, ZeroRowError)
from conespec.graphs import HypergraphProbe
from conespec.existence import Route, Uniqueness, Convergence, VerdictKind
from conespec.maps import (Coord, Linear, Max, Min, Pole, PowerMean, Scale,
                           Sum, from_exprs)
from conespec.spectral import NonconvergedError, ratios_at

from test_dsl import GAME_JSON
from conftest import (block_radius_oracle, game_conjugate_text, make_game,
                      make_schoen, make_tensor_example,
                      random_irreducible_matrix, random_mplus_map,
                      random_tree, reference_sweep, tensor_example_raw)


def mask(ix, n):
    return SubsetMask.of([i - 1 for i in ix], n)


def _count_graph_work(monkeypatch):
    """Lists that collect every `digraph_of` map and the rows of every
    digraph `scc_decompose` gets, through every binding in the package."""
    digraphs, decompositions = [], []
    digraph_of, scc_decompose = cs.digraph_of, cs.scc_decompose

    def counted_digraph(f):
        digraphs.append(f)
        return digraph_of(f)

    def counted_scc(g):
        decompositions.append(g.rows)
        return scc_decompose(g)

    monkeypatch.setattr(spectral, "digraph_of", counted_digraph)
    for module in (existence, spectral):
        monkeypatch.setattr(module, "scc_decompose", counted_scc)
    return digraphs, decompositions


def game_conjugate(r1, r3=1.0, r5=2.0, r2=0.5, r4=0.3, r6=-1.0,
                   p1=0.5, p2=0.5):
    return cs.build_shapley(make_game(r1, r2, r3, r4, r5, r6, p1, p2)).conjugate


class TestCheckSubset:
    def test_game_singleton_strict_iff_condition(self):
        J = mask([1], 3)
        cert = cs.check_subset(game_conjugate(r1=0.0, r3=1.0, r5=2.0), J)
        assert cert.route is Route.NUMERIC_STRICT
        assert cert.r_bracket.upper == pytest.approx(1.0, rel=1e-12)
        assert cert.lambda_bracket.lower == pytest.approx(math.e, rel=1e-12)
        cert = cs.check_subset(game_conjugate(r1=3.0, r3=1.0, r5=2.0), J)
        assert cert.route is Route.NUMERIC_REVERSE

    def test_tensor_reach_route(self):
        f = make_tensor_example()
        cert = cs.check_subset(f, mask([1, 3], 4))
        assert cert.route is Route.REACH_UPPER

    def test_identity_boundary(self):
        f = cs.matrix_map([[1, 0], [0, 1]])
        cert = cs.check_subset(f, mask([1], 2))
        assert cert.route is Route.BOUNDARY
        assert cert.r_bracket.upper == pytest.approx(1.0)
        assert cert.lambda_bracket.lower == pytest.approx(1.0)

    def test_rejects_trivial_subsets(self):
        f = cs.matrix_map([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            cs.check_subset(f, SubsetMask.empty(2))
        with pytest.raises(ValueError):
            cs.check_subset(f, SubsetMask.full(2))

    def test_rejects_a_mask_of_another_dimension(self):
        analyzer = cs.Analyzer(cs.matrix_map([[1, 1], [1, 1]]))
        with pytest.raises(ValueError, match="mask dimension mismatch"):
            analyzer.check_subset(mask([1], 3))


class TestClassify:
    def test_geometric_mean_of_both_poles_is_zero_on_the_lambda_side(self):
        # coordinate 2 is max(0, x3) = x3, as the geometric mean of the two
        # poles is 0; the lambda side's conjugate used to read it as
        # identically inf and call the map nonempty_bounded, although
        # r = 2 on {1} exceeds lambda = 1 on {2, 3}
        f = from_exprs([Linear(((0, 2.0), (1, 1.0), (2, 1.0))),
                        Max((PowerMean(0.0, (0.5, 0.5),
                                       (Pole(INF), Pole(0.0))), Coord(2))),
                        Coord(1)], 3)
        v = cs.classify(f)
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        cert = v.certificates[0]
        assert cert.route is Route.NUMERIC_REVERSE
        assert cert.lambda_bracket.upper == pytest.approx(1.0)

    @pytest.mark.parametrize("exprs, error", [
        # f(x) = (0, x1) has no positive eigenvector
        ([Pole(0.0), Coord(0)], ZeroRowError),
        ([Min((Coord(1), Pole(0.0))), Coord(0)], ZeroRowError),
        # used to raise a plain ValueError from face_map
        ([Min((Coord(1), Pole(0.0), Pole(0.0))), Linear(((1, 0.23),))],
         ZeroRowError),
        # used to raise a misleading overflow error
        ([Max((Coord(1), Pole(INF))), Coord(0)], NumericRangeError),
    ])
    def test_output_identically_a_pole_rejected(self, exprs, error):
        with pytest.raises(error, match="coordinate 1 of the map"):
            cs.classify(from_exprs(exprs, 2))

    def test_schoen_exists_unique(self):
        v = cs.classify(make_schoen())
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.eigen is not None and v.eigen.residual <= 1e-10
        # symmetric parameters: the eigenvector is the ones vector
        assert v.eigen.vector.entries == pytest.approx((1.0,) * 4, rel=1e-9)
        assert v.eigen.eigenvalue == pytest.approx(2.5, rel=1e-9)

    def test_schoen_broken_coupling(self):
        v = cs.classify(make_schoen(a=(10.0, 10.0, 1.0, 1.0)))
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert any(c.route is Route.NUMERIC_REVERSE for c in v.certificates)

    def test_identity_indeterminate(self):
        v = cs.classify(cs.matrix_map([[1, 0], [0, 1]]))
        assert v.kind is VerdictKind.INDETERMINATE

    def test_jordan_block_boundary_certificate(self):
        v = cs.Analyzer(cs.matrix_map([[1, 1], [0, 1]])).classify()
        assert v.kind is VerdictKind.INDETERMINATE
        cert = next(c for c in v.certificates
                    if c.subset.bits == mask([1], 2).bits)
        assert cert.route is Route.BOUNDARY
        assert cert.r_bracket.lower <= 1.0 <= cert.r_bracket.upper
        assert cert.lambda_bracket.lower <= 1.0 <= cert.lambda_bracket.upper

    def test_diagonal_reverse_certificate(self):
        v = cs.Analyzer(cs.matrix_map([[1, 0], [0, 2]])).classify()
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        cert = next(c for c in v.certificates
                    if c.route is Route.NUMERIC_REVERSE)
        assert cert.subset.bits == mask([2], 2).bits
        assert v.displacement is not None and v.displacement.lower > 0

    def test_game_both_regimes(self):
        v = cs.classify(game_conjugate(r1=0.0))
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        v = cs.classify(game_conjugate(r1=3.0))
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR

    def test_min_max_unique_final_class_shortcut(self):
        f = from_exprs([Max((Scale(0.9, Coord(0)), Coord(1))),
                        Min((Coord(0), Scale(2.0, Coord(1))))], 2)
        assert not f.multiplicatively_convex
        v = cs.classify(f)
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.detail is not None and "final class" in v.detail
        # the generic sweep agrees
        v2 = cs.Analyzer(f).classify()
        assert v2.kind is VerdictKind.NONEMPTY_BOUNDED

    def test_dimension_cap(self):
        n = 25
        rows = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        with pytest.raises(DimensionTooLargeError):
            cs.Analyzer(cs.matrix_map(rows)).classify()

    def test_one_dimensional_always_bounded(self):
        v = cs.classify(cs.matrix_map([[3.0]]))
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.eigen.eigenvalue == pytest.approx(3.0)


class TestClassifyConvex:
    def test_requires_flag(self):
        with pytest.raises(FlagMissingError):
            cs.classify_convex(make_schoen())
        # the class faces are those cw_upper decomposes an expression map
        # into; a black-box map has none
        f = cs.matrix_map([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(FlagMissingError):
            cs.classify_convex(ConeMap(dimension=2, evaluator=f.eval_interior,
                                       multiplicatively_convex=True))

    def test_tensor_condition_both_sides(self):
        base = dict(a1=1.0, a2=1.0, b1=1.0, b2=1.0, b3=1.0,
                    c1=1.0, c2=1.0, c3=1.0, d1=1.0, d2=1.0)
        raw = tensor_example_raw(tuple(base.values()) + (1.0,))
        block = lambda y: raw((y[0], y[1], 1.0, 1.0))[:2]
        r_block = block_radius_oracle(block)
        below = (r_block * 0.8) ** 2
        above = (r_block * 1.25) ** 2
        v = cs.classify_convex(make_tensor_example(**base, d3=below))
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.convex_report.strongly_nonnegative is True
        v = cs.classify_convex(make_tensor_example(**base, d3=above))
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert v.convex_report.strongly_nonnegative is False

    def test_block_diagonal_equal_radii(self):
        f = cs.matrix_map([[2.0, 0.0], [0.0, 2.0]])
        v = cs.classify_convex(f)
        assert v.kind is VerdictKind.INDETERMINATE
        assert "unbounded" in (v.detail or "")
        report = v.convex_report
        assert len(report.classes) == 2
        assert all(c.final for c in report.classes)

    def test_diagonal_distinct_radii(self):
        v = cs.classify_convex(cs.matrix_map([[1, 0], [0, 2]]))
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert v.convex_report.strongly_nonnegative is False

    def test_class_radii_reported(self):
        f = make_tensor_example()
        v = cs.classify_convex(f)
        by_comp = {c.component: c for c in v.convex_report.classes}
        assert by_comp[(0, 1)].final and by_comp[(0, 1)].basic
        assert by_comp[(3,)].bracket.upper == pytest.approx(1.0, rel=1e-9)
        assert by_comp[(2,)].bracket.upper == 0.0

    def test_irreducible_map_builds_one_digraph(self, monkeypatch):
        from conespec import spectral
        from conespec.graphs import digraph_of

        calls = []

        def counted(f):
            calls.append(f)
            return digraph_of(f)

        monkeypatch.setattr(spectral, "digraph_of", counted)
        f = cs.matrix_map([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0],
                           [0.5, 3.0, 0.0]])
        v = cs.classify_convex(f, solve=False)
        assert calls == [f]
        assert v.convex_report.classes[0].bracket == cs.cw_upper(f)

    def test_classify_probes_no_sparsity(self, monkeypatch):
        # the derivative pattern of an analytic AST map is its growth
        # digraph: one digraph_of call serves the route and the flags
        probes = []
        monkeypatch.setattr(existence, "sparsity_probe",
                            lambda *args: probes.append(args))
        digraphs, _ = _count_graph_work(monkeypatch)
        f = cs.matrix_map([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0],
                           [0.5, 3.0, 0.0]])
        v = cs.classify(f)
        assert probes == [] and digraphs == [f]
        assert v.uniqueness is Uniqueness.UNIQUE

    def test_hyperarc_probes_evaluate_nothing(self, monkeypatch):
        calls = []
        for cls in (Coord, Linear, Max, Min, Pole, PowerMean, Scale, Sum):
            monkeypatch.setattr(cls, "evaluate",
                                lambda self, x: calls.append(self))
        f = make_schoen()
        for side in (Side.LOWER, Side.UPPER):
            probe = HypergraphProbe(f, side)
            for bits in range(1, 15):
                probe.hyperarc_targets(SubsetMask(bits, 4))
        assert calls == []

    def test_classify_decomposes_once(self, monkeypatch):
        # the derivative pattern of a matrix map is its growth digraph, so
        # the flag inference reuses the decomposition
        f = cs.matrix_map([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0],
                           [0.5, 3.0, 0.0]])
        digraphs, decompositions = _count_graph_work(monkeypatch)
        v = cs.classify(f)
        assert (len(digraphs), len(decompositions)) == (1, 1)
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.convergence is Convergence.ITERATES_CONVERGE

    def test_pattern_unlike_the_growth_digraph(self, monkeypatch):
        # at the eigenvector (1, 1) the max reads only 2 * x2, so the
        # pattern drops the growth arc (1, 1) and is decomposed itself
        f = from_exprs([Max((Coord(0), Scale(2.0, Coord(1)))),
                        Sum((Coord(0), Coord(1)))], 2)
        digraphs, decompositions = _count_graph_work(monkeypatch)
        v = cs.classify(f)
        monkeypatch.undo()
        assert cs.digraph_of(f).rows == (3, 3)
        assert cs.sparsity_probe(f, v.eigen.vector).rows == (2, 3)
        assert len(digraphs) == 1
        assert decompositions == [(3, 3), (2, 3)]
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.convergence is Convergence.ITERATES_CONVERGE
        assert v == cs.infer_uniqueness_and_convergence(
            f, replace(v, uniqueness=Uniqueness.UNKNOWN,
                       convergence=Convergence.UNKNOWN))

    def test_other_verdicts_left_unchanged(self):
        f = cs.matrix_map([[1.0, 1.0], [0.0, 2.0]])
        for kind in VerdictKind:
            if kind is not VerdictKind.NONEMPTY_BOUNDED:
                v = existence.Verdict(kind=kind)
                assert cs.infer_uniqueness_and_convergence(f, v) is v

    def test_decomposition_ignored_on_a_collapsed_face(self):
        # coordinate 3 of the restriction is 0, so the bracket runs on the
        # two-dimensional face {1, 2}, not on the digraph handed in
        f = cs.restrict_lower(from_exprs((Coord(1), Coord(0), Coord(2)), 3),
                              mask([1, 2], 3))
        faces = spectral.Faces(f)
        assert faces.side(0.0).growth()[1].order == ((0, 1), (2,))
        bracket = faces.side(0.0).handle().finished()
        assert bracket.collapsed_support == (0, 1)
        assert bracket == cs.cw_upper(f)


class TestInference:
    def test_analytic_class_map_unique(self):
        v = cs.classify(make_tensor_example())
        assert v.uniqueness is Uniqueness.UNIQUE

    def test_primitive_matrix_converges(self):
        v = cs.classify(cs.matrix_map([[1, 1], [1, 0]]))
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.convergence is Convergence.ITERATES_CONVERGE

    def test_nonconverged_solve_keeps_the_verdict(self):
        f = cs.matrix_map([[1, 1], [0, 3]])
        v = cs.classify(f, budget=5)
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.eigen is None
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.convergence is Convergence.UNKNOWN
        assert cs.classify(f).eigen.eigenvalue == pytest.approx(3.0)

    def test_permutation_unique_but_not_primitive(self):
        v = cs.classify(cs.matrix_map([[0, 1], [1, 0]]))
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.convergence is Convergence.UNKNOWN


class TestSweepProperties:
    def test_sweep_agrees_with_convex_route(self, rng):
        agreements = 0
        for _ in range(8):
            n = int(rng.integers(2, 5))
            f = random_mplus_map(rng, n)
            a = cs.Analyzer(f).classify(solve=False)
            b = cs.classify_convex(f, solve=False)
            if VerdictKind.INDETERMINATE in (a.kind, b.kind):
                continue
            assert a.kind is b.kind
            agreements += 1
        assert agreements >= 1

    def test_bracket_uppers_monotone_in_subset(self, rng):
        f = random_mplus_map(rng, 4)
        v = cs.Analyzer(f, prune=False).classify(solve=False)
        uppers = {c.subset.bits: c.r_bracket.upper
                  for c in v.certificates if c.r_bracket is not None}
        for a, ua in uppers.items():
            for b, ub in uppers.items():
                if a & ~b == 0:
                    assert ua <= ub + 1e-9 * max(1.0, abs(ub))

    def test_verdict_soundness(self, rng):
        for _ in range(6):
            f = random_mplus_map(rng, int(rng.integers(2, 5)))
            v = cs.Analyzer(f).classify()
            if v.kind is VerdictKind.NONEMPTY_BOUNDED:
                assert v.eigen is not None and v.eigen.residual <= 1e-10
            elif v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR:
                assert v.displacement is not None
                assert v.displacement.lower > 0

    def test_certificate_replay(self):
        for f in (game_conjugate(r1=0.0), game_conjugate(r1=3.0),
                  cs.matrix_map([[1, 0], [0, 2]])):
            v = cs.Analyzer(f).classify(solve=False)
            for cert in v.certificates:
                if cert.route not in (Route.NUMERIC_STRICT,
                                      Route.NUMERIC_REVERSE):
                    continue
                rb, lb = cert.r_bracket, cert.lambda_bracket
                if rb.witness_upper is not None:
                    _, hi = ratios_at(f, rb.witness_upper)
                    assert hi == pytest.approx(rb.upper, rel=1e-11)
                if lb.witness_lower is not None:
                    lo, _ = ratios_at(f, lb.witness_lower)
                    assert lo == pytest.approx(lb.lower, rel=1e-11)

    def test_pruning_never_changes_kind(self, rng):
        # pruning passes a subset only where the unpruned sweep passes it
        seeds = rng.integers(1 << 16, size=2)
        corpus = [(_seeded_family(fam, seed, n), existence.DEFAULT_BUDGET)
                  for seed in seeds for n in (6, 7) for fam in "AB"]
        twins = [f for f, _ in corpus[:2]] + [cs.parse_map(SWEEP_MAP).cone_map]
        corpus += [(ConeMap(dimension=f.dimension, evaluator=f.eval_interior),
                    300) for f in twins]
        corpus += [(cs.parse_map(text).cone_map, existence.DEFAULT_BUDGET)
                   for text in (SWEEP_MAP, REVERSE_SWEEP_MAP)]
        trees = 0
        while trees < 15:
            n = 3 + trees % 3
            f = from_exprs([random_tree(rng, n, 3) for _ in range(n)], n)
            try:
                cs.maps.reject_pole_outputs(f)
            except cs.ConespecError:
                continue
            corpus.append((f, existence.DEFAULT_BUDGET))
            trees += 1
        for f, budget in corpus:
            a = cs.Analyzer(f, budget, prune=True).classify(solve=False)
            b = cs.Analyzer(f, budget, prune=False).classify(solve=False)
            assert a.kind is b.kind
            unpruned = dict(_routes(b))
            for bits, route in _routes(a):
                if route is Route.PRUNED:
                    assert unpruned[bits].passing


class TestLargeConvex:
    def test_hundred_dimensional_matrix(self, rng):
        # the component route has no subset sweep, so big n stays cheap
        from conftest import perron_oracle, random_irreducible_matrix
        n = 100
        rows = random_irreducible_matrix(rng, n)
        f = cs.matrix_map(rows)
        v = cs.classify(f)
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.eigen.eigenvalue == pytest.approx(perron_oracle(rows),
                                                   rel=1e-8)

    def test_two_block_large_matrix(self):
        # decoupled blocks with distinct radii: no interior eigenvector
        n = 40
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n // 2):
            rows[i][(i + 1) % (n // 2)] = 1.0
        for i in range(n // 2, n):
            j = n // 2 + (i + 1 - n // 2) % (n // 2)
            rows[i][j] = 2.0
        v = cs.classify(cs.matrix_map(rows))
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR


SWEEP_MAP = """\
format: 1
dim: 5
coord 1: 1.7275261935629742*x1 + min(x2, 2*x3)
coord 2: 0.8259985372803251*x2 + min(x3, 2*x4)
coord 3: 1.3298035028885802*x3 + min(x4, 2*x1)
coord 4: 1.8279567360596833*x4 + min(x5, 2*x2)
coord 5: 1.2122270644014164*x5 + min(x1, 2*x5)
"""


#: a map of the sweep family whose reverse order shows before its brackets
#: converge
REVERSE_SWEEP_MAP = """\
format: 1
dim: 5
coord 1: 0.6747732822938828*x1 + min(x2, 2*x5)
coord 2: 0.5489429763242335*x2 + min(x3, 2*x5)
coord 3: 0.7183496149643133*x3 + min(x4, 2*x3)
coord 4: 1.925921488455121*x4 + min(x5, 2*x5)
coord 5: 0.7347965380482986*x5 + min(x1, 2*x2)
"""


#: maps whose sweeps give numeric and boundary certificates on both sides
WITNESS_MAPS = {
    "sweep": lambda: cs.parse_map(SWEEP_MAP).cone_map,
    "reverse": lambda: cs.parse_map(REVERSE_SWEEP_MAP).cone_map,
    "game": lambda: cs.build_shapley(cs.parse_game(GAME_JSON)).conjugate,
    "reducible_matrix": lambda: cs.matrix_map(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 1, 2, 1], [0, 0, 1, 2]]),
}


class TestWitnesses:
    """Every bracket of a certificate re-checks from its witnesses, which
    are embedded the first time they are read."""

    @staticmethod
    def _brackets(f):
        """The brackets of f's numeric and boundary certificates, except
        the exact r = 0 and lambda = inf of a collapsed face."""
        return [b for c in cs.Analyzer(f).classify().certificates
                if c.route in (Route.NUMERIC_STRICT, Route.NUMERIC_REVERSE,
                               Route.BOUNDARY)
                for b in (c.r_bracket, c.lambda_bracket)
                if b.upper != 0.0 and b.lower != INF]

    @pytest.mark.parametrize("name", list(WITNESS_MAPS))
    def test_numeric_certificates_replay_from_their_witnesses(self, name):
        f = WITNESS_MAPS[name]()
        brackets = self._brackets(f)
        assert len(brackets) >= 4
        for b in brackets:
            assert b.witness_lower is not None
            assert b.witness_upper is not None
            lo, _ = ratios_at(f, b.witness_lower)
            _, hi = ratios_at(f, b.witness_upper)
            assert lo == pytest.approx(b.lower, rel=1e-11)
            assert hi == pytest.approx(b.upper, rel=1e-11)

    @pytest.mark.parametrize("name", list(WITNESS_MAPS))
    def test_a_witness_is_embedded_once_as_it_was_eagerly(self, name):
        brackets = self._brackets(WITNESS_MAPS[name]())
        duals = {vars(b)["_witness_lower"][3] for b in brackets}
        for b in brackets:
            for field in ("witness_lower", "witness_upper"):
                values, support, n, dual = vars(b)["_" + field]
                if callable(values):
                    values = values().entries
                full = [0.0] * n
                for k, j in enumerate(SubsetMask(support, n)):
                    full[j] = values[k]
                eager = ExtVec.of(full)
                if dual:
                    eager = cs.core.reciprocal(eager)
                w = getattr(b, field)
                assert w is getattr(b, field)
                assert w == eager and repr(w) == repr(eager)
        assert duals == {False, True}

    def test_unread_witnesses_pickle(self):
        # the game's convex faces give brackets whose witnesses are read
        # from another bracket's
        verdict = cs.Analyzer(WITNESS_MAPS["game"]()).classify()
        assert repr(pickle.loads(pickle.dumps(verdict))) == repr(verdict)


class _Forgetful(dict):
    """A dict that stores nothing: every lookup misses."""

    def __setitem__(self, key, value):
        pass


class TestClassificationMemo:
    """One classification iterates each face from one bracket state, and
    pruning analyzes each face once, in one flat pass over its subsets."""

    @staticmethod
    def _counted(monkeypatch, text=SWEEP_MAP, forgetful=False):
        """(verdict, the bracket states made, how many of them the
        classification's `Faces` keeps, the face every pruning analysis
        keeps); a `forgetful` `Faces` keeps nothing."""
        states, faces = [], []
        face_kind = existence.Analyzer._face_kind

        class State(spectral.BracketState):
            __slots__ = ()

            def __init__(self, g, *args):
                states.append(self)
                super().__init__(g, *args)

        def recorded(self, keep):
            faces.append(keep.bits)
            return face_kind(self, keep)

        monkeypatch.setattr(spectral, "BracketState", State)
        monkeypatch.setattr(existence.Analyzer, "_face_kind", recorded)
        f = cs.parse_map(text).cone_map
        cache = spectral.Faces(f)
        if forgetful:
            cache.states = _Forgetful()
        verdict = existence.Analyzer(f, faces=cache).classify()
        monkeypatch.undo()
        kept = sum(type(v) is State for v in cache.states.values())
        return verdict, states, kept, faces

    def test_each_map_bracketed_and_each_face_analyzed_once(self,
                                                            monkeypatch):
        verdict, states, kept, faces = self._counted(monkeypatch)
        assert verdict.kind is VerdictKind.NONEMPTY_BOUNDED
        # with f's own state, filled by the eigenvector's trajectory
        assert len(states) == kept == 33
        assert len(faces) == len(set(faces)) == 5

    def test_without_the_memo_the_work_repeats(self, monkeypatch):
        shared, _, _, _ = self._counted(monkeypatch)
        verdict, states, kept, faces = self._counted(monkeypatch,
                                                     forgetful=True)
        assert (len(states), kept) == (100, 0)
        assert len(faces) == len(set(faces)) == 5
        # the memo changes the work, never the result
        assert repr(verdict) == repr(shared)

    def test_without_the_memo_the_displacement_path_repeats(self,
                                                            monkeypatch):
        shared, shared_states, kept, shared_faces = self._counted(
            monkeypatch, REVERSE_SWEEP_MAP)
        verdict, states, _, faces = self._counted(
            monkeypatch, REVERSE_SWEEP_MAP, forgetful=True)
        assert len(shared_states) == kept == 32
        assert len(shared_faces) == len(set(shared_faces)) == 3
        assert len(states) == 63
        assert faces == shared_faces
        # the same verdict, routes and displacement; a certificate keeps its
        # brackets as they stood when it was decided, and the states the
        # shared states stand further refined by then
        assert (verdict.kind, _routes(verdict), verdict.displacement) == \
            (shared.kind, _routes(shared), shared.displacement)
        assert verdict.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR

    @pytest.mark.parametrize("text, black_box", [
        (SWEEP_MAP, False), (REVERSE_SWEEP_MAP, False), (SWEEP_MAP, True)],
        ids=["sweep", "reverse", "black_box_twin"])
    def test_face_kinds_equal_full_analyses(self, monkeypatch, text,
                                            black_box):
        # pruning analyzes each face once, by the routes of its subsets
        # alone: no face analysis classifies or analyzes a face of its own,
        # yet each reads the kind an unpruned analysis of the face gives
        f = cs.parse_map(text).cone_map
        budget = 100 if black_box else existence.DEFAULT_BUDGET
        if black_box:
            f = ConeMap(dimension=f.dimension, evaluator=f.eval_interior)
        seen, depth, nested = [], [0], []

        def watched(name, original):
            def wrapper(self, *args, **kwargs):
                if depth[0]:
                    nested.append(name)
                depth[0] += name == "_face_kind"
                try:
                    return original(self, *args, **kwargs)
                finally:
                    depth[0] -= name == "_face_kind"
            return wrapper

        face_kind = watched("_face_kind", existence.Analyzer._face_kind)

        def recorded(self, keep):
            kind = face_kind(self, keep)
            seen.append((keep.bits, cs.maps.face_map(self.f, keep, INF),
                         kind))
            return kind

        monkeypatch.setattr(existence.Analyzer, "_face_kind", recorded)
        monkeypatch.setattr(existence.Analyzer, "classify", watched(
            "classify", existence.Analyzer.classify))
        existence.Analyzer(f, budget).classify()
        monkeypatch.undo()
        assert seen and nested == []
        keeps = [keep for keep, _, _ in seen]
        assert len(keeps) == len(set(keeps))
        for _, face, kind in seen:
            full = existence.Analyzer(face, budget, prune=False)
            assert full.classify(solve=False).kind is kind

    def test_black_box_twin_prunes_by_the_faces_of_its_map(self,
                                                           monkeypatch):
        # a black-box twin decides each subset as its expression map does,
        # so its pruning analyzes the same faces, each once; its faces are
        # kept under all their pins, as nothing tells which ones they read
        f = cs.parse_map(SWEEP_MAP).cone_map
        twin = ConeMap(dimension=5, evaluator=f.eval_interior)
        face_kind = existence.Analyzer._face_kind

        def faces_of(g):
            keeps = []

            def recorded(self, keep):
                keeps.append(keep.bits)
                return face_kind(self, keep)

            monkeypatch.setattr(existence.Analyzer, "_face_kind", recorded)
            top = existence.Analyzer(g, budget=100)
            verdict = top.classify()
            monkeypatch.undo()
            return verdict, keeps, top.faces

        ast, ast_faces, _ = faces_of(f)
        black, black_faces, cache = faces_of(twin)
        assert black_faces == ast_faces
        assert len(set(ast_faces)) == len(ast_faces) == 5
        pins = {0b11111 ^ keep for keep in black_faces}
        assert {inf for _, inf, _ in cache.states} == pins | {0}
        assert all(not inf & kept for _, inf, kept in cache.states)
        assert _routes(black) == _routes(ast)
        assert Route.PRUNED in {c.route for c in black.certificates}
        unpruned = existence.Analyzer(twin, budget=100, prune=False)
        assert black.kind is unpruned.classify().kind
        assert black.kind is VerdictKind.NONEMPTY_BOUNDED


class TestOneFaceCache:
    """Every route of one classification reads the faces from one
    `spectral.Faces`: the convex route's class faces, its displacement and
    its sweep fallback, and every probe of a map."""

    @staticmethod
    def _runs(monkeypatch, f):
        """The verdict of f and the iterations of every trajectory run."""
        runs = []
        trajectory = spectral._trajectory

        def counted(g, *args):
            run = trajectory(g, *args)
            runs.append(run[0])
            return run

        monkeypatch.setattr(spectral, "_trajectory", counted)
        verdict = cs.classify(f)
        monkeypatch.undo()
        return verdict, runs

    def test_displacement_reads_the_class_faces(self, monkeypatch):
        # classes {1, 2} and {3, 4, 5}, and no interior eigenvector: the
        # two class faces and f's lambda side, each iterated once
        f = cs.matrix_map([[1, 3, 0.5, 0, 0], [0.2, 1, 0, 0, 0],
                           [0, 0, 0.1, 1, 0], [0, 0, 0, 0.1, 1],
                           [0, 0, 1, 0, 0.1]])
        verdict, runs = self._runs(monkeypatch, f)
        assert verdict.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert len(runs) <= 3 and sum(runs) <= 47

    def test_sweep_fallback_reads_the_class_faces(self, monkeypatch):
        # two equal blocks tie on the convex route, and the sweep that
        # follows finds their faces already bracketed
        f = cs.matrix_map([[1, 3, 0, 0], [0.2, 1, 0, 0], [0, 0, 1, 3],
                           [0, 0, 0.2, 1]])
        verdict, runs = self._runs(monkeypatch, f)
        assert verdict.convex_report is not None and verdict.certificates
        assert sum(runs) <= 190

    def test_one_probe_per_map_and_side(self, monkeypatch):
        probes = []
        init = HypergraphProbe.__init__

        def recorded(self, f, side):
            probes.append((f, side))
            init(self, f, side)

        monkeypatch.setattr(HypergraphProbe, "__init__", recorded)
        cs.classify(cs.parse_map(SWEEP_MAP).cone_map)
        monkeypatch.undo()
        # the maps stay alive in `probes`, so their ids are distinct
        keys = [(id(f), side) for f, side in probes]
        assert len(keys) == len(set(keys)) > 2

    def test_sides_leave_no_cycle(self):
        # a side refers to its cache weakly, so the cache and every state
        # it keeps are freed as soon as the classification drops it
        gc.disable()
        try:
            faces = spectral.Faces(cs.parse_map(SWEEP_MAP).cone_map)
            for fill in (0.0, INF):
                faces.side(fill).handle().finished()
            ref = weakref.ref(faces)
            del faces
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("source, total", [(SWEEP_MAP, 12),
                                               (REVERSE_SWEEP_MAP, 8)],
                             ids=["sweep", "reverse"])
    def test_one_hypergraph_per_side_of_f(self, monkeypatch, source, total):
        # the lambda side's hypergraph is f's upper one, which the sweep
        # reads too, not a second fold of it on f's conjugate
        probes = []
        init = HypergraphProbe.__init__

        def recorded(self, f, side):
            probes.append((f.dimension, side))
            init(self, f, side)

        monkeypatch.setattr(HypergraphProbe, "__init__", recorded)
        cs.classify(cs.parse_map(source).cone_map)
        monkeypatch.undo()
        assert sorted(side.value for n, side in probes if n == 5) == \
            ["lower", "upper"]
        assert len(probes) == total


def _seeded_family(fam, seed, n):
    """A map of family A (`a_i*x_i + min(x_{i+1}, 2*x_{c_i})`), or of
    family B, whose first `min` term reads x_{p_i}: a, c and p drawn in
    that order from `random.Random(f"{fam}/{seed}/{n}")`."""
    rng = random.Random(f"{fam}/{seed}/{n}")
    a = [rng.uniform(0.5, 2.0) for _ in range(n)]
    c = [rng.randrange(n) for _ in range(n)]
    p = ([rng.randrange(n) for _ in range(n)] if fam == "B"
         else [(i + 1) % n for i in range(n)])
    return cs.parse_map(f"format: 1\ndim: {n}\n" + "".join(
        f"coord {i + 1}: {a[i]!r}*x{i + 1} + min(x{p[i] + 1}, "
        f"2*x{c[i] + 1})\n" for i in range(n))).cone_map


def _family_map(n, seed, free_head):
    """A map of family A, the sweep catalog's `a_i*x_i + min(x_{i+1},
    2*x_{c_i})`, or with `free_head` of family B, whose first `min` term
    reads a random x_{p_i} instead of x_{i+1}."""
    rng = random.Random(seed)
    lines = ["format: 1", f"dim: {n}"]
    for i in range(n):
        a = rng.uniform(0.5, 2.0)
        p = rng.randrange(n) if free_head else (i + 1) % n
        c = rng.randrange(n)
        lines.append(f"coord {i + 1}: {a!r}*x{i + 1} + "
                     f"min(x{p + 1}, 2*x{c + 1})")
    return cs.parse_map("\n".join(lines) + "\n").cone_map


def _sweep_corpus():
    """(id, map, budget): two maps of each family at n = 5..8, the two
    sweep maps and the sweep map's black-box twin."""
    out = [(f"{fam}{n}.{k}",
            _family_map(n, f"sweep/{n}/{fam}/{k}", fam == "B"),
            existence.DEFAULT_BUDGET)
           for n in range(5, 9) for fam in "AB" for k in range(2)]
    sweep = cs.parse_map(SWEEP_MAP).cone_map
    out += [("sweep", sweep, existence.DEFAULT_BUDGET),
            ("reverse", cs.parse_map(REVERSE_SWEEP_MAP).cone_map,
             existence.DEFAULT_BUDGET),
            ("black_box_twin",
             ConeMap(dimension=5, evaluator=sweep.eval_interior), 100)]
    return out


class TestOnePassSweep:
    """The sweep over integer masks decides as the reference sweep does
    (`conftest.reference_sweep`), with the same work."""

    CORPUS = _sweep_corpus()

    @pytest.mark.parametrize("f, budget", [c[1:] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_verdict_equals_the_reference_sweep(self, f, budget):
        verdict = existence.Analyzer(f, budget).classify()
        assert repr(verdict) == repr(reference_sweep(f, budget))
        for c in verdict.certificates:
            if c.route is Route.PRUNED:
                assert c.pruned_by.issubset(c.subset)
                assert c.pruned_by != c.subset

    def test_corpus_reaches_pruning_and_the_reverse_order(self):
        verdicts = [existence.Analyzer(f, budget).classify(solve=False)
                    for _, f, budget in self.CORPUS]
        assert {v.kind for v in verdicts} == {
            VerdictKind.NONEMPTY_BOUNDED, VerdictKind.NO_INTERIOR_EIGENVECTOR}
        assert sum(c.route is Route.PRUNED
                   for v in verdicts for c in v.certificates) > 1000

    def test_work_on_the_sweep_map(self, monkeypatch):
        # the sweep reads reaches on ints, not through `reach`, and each
        # probe computes a mask's reach once: at most two per routed
        # subset; the checks and the face analyses, whose order the shared
        # bracket states show, are those of the reference sweep, and a face
        # analysis routes its subsets without a certificate
        calls = {"check": 0, "route": 0, "reach": 0, "face_kind": 0}
        int_reach, probes = HypergraphProbe._reach, {}

        def counted(cls, name, tally):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls[tally] += 1
                return original(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        def reached(self, bits):
            probes[id(self)] = self
            return int_reach(self, bits)

        counted(existence.Analyzer, "check_subset", "check")
        counted(existence.Analyzer, "_route", "route")
        counted(existence.Analyzer, "_face_kind", "face_kind")
        counted(HypergraphProbe, "reach", "reach")
        monkeypatch.setattr(HypergraphProbe, "_reach", reached)
        verdict = cs.classify(cs.parse_map(SWEEP_MAP).cone_map)
        monkeypatch.undo()
        assert verdict.kind is VerdictKind.NONEMPTY_BOUNDED
        assert calls == {"check": 5, "route": 65, "reach": 0, "face_kind": 5}
        computed = sum(len(p._reached) for p in probes.values())
        assert computed == 108 <= 2 * calls["route"]


def _count_calls(monkeypatch, name):
    """Count calls of `maps.<name>` through every binding in the package."""
    calls = []
    original = getattr(cs.maps, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("conespec"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestReducedFaces:
    """Subset brackets pin f's body; only face analyses build a map."""

    def test_sweep_builds_faces_without_restrictions(self, monkeypatch):
        f = cs.parse_map(SWEEP_MAP).cone_map
        restricted = _count_calls(monkeypatch, "restrict_map")
        built = _count_calls(monkeypatch, "from_exprs")
        faces = _count_calls(monkeypatch, "face_map")
        verdict = cs.classify(f)
        monkeypatch.undo()
        assert verdict.kind is VerdictKind.NONEMPTY_BOUNDED
        # f's conjugate and the 5 faces that pruning analyzes
        assert (len(restricted), len(built), len(faces)) == (0, 6, 5)

    @pytest.mark.parametrize("text", [SWEEP_MAP, REVERSE_SWEEP_MAP],
                             ids=["sweep", "reverse"])
    def test_face_analyses_build_no_brackets(self, monkeypatch, text):
        # a face analysis reads only the routes of the face's subsets: no
        # certificate, no bracket, no vector (a witness or a reciprocal) and
        # no subset mask is built while one runs; the top level embeds no
        # witness either until one is read
        depth, built = [0], {}

        def counted(cls, name, nests=False):
            original = getattr(cls, name)
            tally = built[cls.__name__ + "." + name] = {"top": 0, "faces": 0}

            def wrapper(*args, **kwargs):
                tally["faces" if depth[0] else "top"] += 1
                depth[0] += nests
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] -= nests
            monkeypatch.setattr(cls, name, wrapper)

        for cls in (spectral.CWBracket, ExtVec, existence.SubsetCertificate,
                    SubsetMask):
            counted(cls, "__init__")
        counted(ExtVec, "_unchecked")
        counted(existence.Analyzer, "_face_kind", nests=True)
        cs.classify(cs.parse_map(text).cone_map)
        monkeypatch.undo()
        faces = {k: v["faces"] for k, v in built.items()}
        assert faces == dict.fromkeys(faces, 0)
        assert built["Analyzer._face_kind"]["top"] > 0
        assert built["CWBracket.__init__"]["top"] > 0
        assert built["ExtVec._unchecked"]["top"] == 0

    @pytest.mark.parametrize("side", [Side.LOWER, Side.UPPER])
    def test_probe_folds_each_output_once_up_to_the_cap(self, monkeypatch,
                                                        side):
        calls = []
        pole_masks = graphs.pole_masks

        def counted(*args):
            calls.append(1)
            return pole_masks(*args)

        monkeypatch.setattr(graphs, "pole_masks", counted)
        for n in (5, HypergraphProbe.EXHAUSTIVE_SCAN_CAP + 1):
            f = from_exprs([Sum((Scale(1.5, Coord(i)),
                                 Min((Coord((i + 1) % n), Coord(0)))))
                            for i in range(n)], n)
            probe = HypergraphProbe(f, side)
            calls.clear()
            small = n <= HypergraphProbe.EXHAUSTIVE_SCAN_CAP
            tails = range(1 << n) if small else range(0, 1 << n, 97)
            for tail in tails:
                probe.hyperarc_targets(SubsetMask(tail, n))
            # one fold per output over all tails; beyond the cap, per tail
            assert len(calls) == n * (1 if small else len(tails))

    @pytest.mark.parametrize("text", [SWEEP_MAP, REVERSE_SWEEP_MAP],
                             ids=["sweep", "reverse"])
    def test_each_lambda_side_map_conjugated_once(self, monkeypatch, text):
        conjugated = []
        conjugate_map = cs.maps.conjugate_map

        def recorded(g):
            conjugated.append(g.exprs)
            return conjugate_map(g)

        monkeypatch.setattr(cs.maps, "conjugate_map", recorded)
        f = cs.parse_map(text).cone_map
        cs.classify(f)
        monkeypatch.undo()
        # every lambda-side face pins the conjugate of f itself
        assert conjugated == [f.exprs]

    def test_memoized_maps_freed_after_classify(self, monkeypatch):
        f = cs.parse_map(SWEEP_MAP).cone_map
        built = []
        from_exprs = cs.maps.from_exprs

        def recorded(*args):
            g = from_exprs(*args)
            built.append(weakref.ref(g))
            return g

        monkeypatch.setattr(cs.maps, "from_exprs", recorded)
        verdict = cs.classify(f)
        monkeypatch.undo()
        gc.collect()
        assert verdict.kind is VerdictKind.NONEMPTY_BOUNDED
        assert len(built) == 6
        assert [ref for ref in built if ref() is not None] == []

    def test_black_box_matrix_twin_decided_on_faces(self):
        # a black-box map's subset brackets iterate its reduced faces, as
        # the AST map's do, so both decide the same subsets
        f = cs.matrix_map([[2.0, 1.0], [0.0, 1.0]])
        twin = ConeMap(dimension=2, evaluator=f.eval_interior)
        ast = existence.Analyzer(f).classify()
        black = cs.classify(twin)
        assert black.kind is ast.kind is cs.classify(f).kind \
            is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert _routes(black) == _routes(ast) == [
            (0b01, Route.NUMERIC_REVERSE), (0b10, Route.REACH_UPPER)]


class TestConvexSharedTrajectory:
    """One component: the whole-map bracket and the eigenvector share a run."""

    @staticmethod
    def _runs(monkeypatch):
        runs = []
        trajectory = spectral._trajectory

        def counted(g, *args):
            runs.append(args[3:])
            return trajectory(g, *args)

        monkeypatch.setattr(spectral, "_trajectory", counted)
        return runs

    @staticmethod
    def _irreducible_mplus(rng):
        while True:
            f = random_mplus_map(rng, 4)
            if len(cs.scc_decompose(cs.digraph_of(f)).order) == 1:
                return f

    @pytest.mark.parametrize("make", [
        lambda rng: cs.matrix_map(random_irreducible_matrix(rng, 30)),
        _irreducible_mplus,
        lambda rng: cs.max_times_map([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0],
                                      [0.5, 0.0, 0.0]]),
    ])
    def test_one_trajectory_equal_to_separate_calls(self, monkeypatch, rng,
                                                    make):
        f = make(rng)
        assert len(cs.scc_decompose(cs.digraph_of(f)).order) == 1
        runs = self._runs(monkeypatch)
        verdict = cs.classify_convex(f)
        assert runs == [(True, True)]
        monkeypatch.undo()
        assert verdict.kind is VerdictKind.NONEMPTY_BOUNDED
        (cls,) = verdict.convex_report.classes
        assert repr(cls.bracket) == repr(cs.cw_upper(f))
        assert repr(verdict.r_bracket) == repr(cs.cw_upper(f))
        assert repr(verdict.eigen) == repr(cs.solve_eigenvector(f))

    @pytest.mark.parametrize("budget, tol", [
        (0, 1e-10), (1, 1e-10), (3, 1e-10), (40, 1e-10),
        # at tol 0.5 the gap closes at iterate 2, the residual at 3
        (2, 0.5), (40, 0.5)])
    def test_budgets_and_tolerances_match_separate_calls(self, budget, tol):
        f = cs.matrix_map([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0],
                           [0.5, 0.0, 1.0]])
        bracket, outcome = spectral._bracket_and_solution(
            spectral.Faces(f, budget, tol))
        assert repr(bracket) == repr(cs.cw_upper(f, budget, tol))
        assert _outcome(outcome) == _solved(f, budget=budget, tol=tol)

    def test_no_shared_trajectory_across_components(self, monkeypatch):
        f = cs.matrix_map([[2.0, 1.0], [0.0, 1.0]])
        runs = self._runs(monkeypatch)
        verdict = cs.classify_convex(f)
        assert runs and (True, True) not in runs
        monkeypatch.undo()
        assert verdict.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR

    def test_collapsed_support_is_not_shared(self, monkeypatch):
        # the first coordinate of the restriction is the pole 0, so
        # cw_upper brackets a face of f, not f itself
        f = cs.restrict_lower(cs.matrix_map([[1, 1], [0, 1]]),
                              SubsetMask.of([1], 2))
        assert f.exprs[0] == Pole(0.0)
        assert spectral._bracket_and_solution(spectral.Faces(f, 100)) is None

    def test_underflow_is_not_a_collapsed_support(self):
        # f(1, 1) underflows to 0 in the first coordinate, but no pin forces
        # it to 0: the class bracket must hold the radius 1e-150
        f = from_exprs([PowerMean(2.0, (1.0,), (Scale(1e-300, Coord(1)),)),
                        Coord(0)], 2)
        assert f.eval_interior((1.0, 1.0))[0] == 0.0
        v = cs.classify(f)
        (cls,) = v.convex_report.classes
        assert cls.bracket.collapsed_support is None
        assert cls.bracket.lower <= 1e-150 <= cls.bracket.upper


class TestUniqueFinalClassShortcut:
    """The shortcut reads f's bracket and eigenvector off one trajectory; a
    shortcut that fails leaves f's bracket state, refined to the whole
    budget, in the memo the sweep goes on with."""

    @staticmethod
    def _runs_of(monkeypatch, f):
        runs = []
        trajectory = spectral._trajectory

        def counted(g, *args):
            if g.exprs == f.exprs:
                runs.append(args[3:])
            return trajectory(g, *args)

        monkeypatch.setattr(spectral, "_trajectory", counted)
        return runs

    def test_one_trajectory_of_f(self, monkeypatch):
        # {2} is the one final class, and the face on {1}, x1, has radius
        # 1 < r(f) = 2
        f = from_exprs([Sum((Coord(0), Min((Coord(1), Scale(2.0, Coord(1)))))),
                        Scale(2.0, Coord(1))], 2)
        assert not f.multiplicatively_convex
        runs = self._runs_of(monkeypatch, f)
        digraphs, decompositions = _count_graph_work(monkeypatch)
        v = cs.classify(f)
        monkeypatch.undo()
        assert "unique final class" in v.detail
        assert runs == [(True, True)]
        # the pattern at the eigenvector is the growth digraph
        assert (len(digraphs), len(decompositions)) == (1, 1)
        assert repr(v.r_bracket) == repr(cs.cw_upper(f))
        assert repr(v.eigen) == repr(cs.solve_eigenvector(f))
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.convergence is Convergence.ITERATES_CONVERGE

    def test_failed_shortcut_leaves_the_finished_bracket(self, monkeypatch):
        # {3, 4} is the one final class, but the face on {1, 2} has the
        # larger radius 2.5; the displacement reads f's bracket refined to
        # the whole budget, as it did when the shortcut called cw_upper
        f = from_exprs([Linear(((0, 2.5), (2, 0.5))), Coord(2),
                        Min((Linear(((1, 2.0), (2, 0.35))), Coord(3))),
                        Linear(((2, 1.5),))], 4)
        runs = self._runs_of(monkeypatch, f)
        v = cs.classify(f)
        monkeypatch.undo()
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert runs == [(True, True)]
        assert repr(v.displacement.r_bracket) == repr(cs.cw_upper(f))

    @pytest.mark.parametrize("budget, tol", [
        (0, 1e-10), (1, 1e-10), (3, 1e-10), (40, 1e-10), (2, 0.5),
        (10_000, 1e-10)])
    def test_memo_gets_the_finished_state(self, budget, tol):
        fields = ("lo", "up", "wlo", "wup", "iterations", "converged", "done")
        for f in (cs.parse_map(SWEEP_MAP).cone_map,
                  # leaves the face at the underflow guard
                  from_exprs([Coord(0),
                              Min((Scale(1e-3, Coord(1)), Coord(0)))], 2)):
            faces = spectral.Faces(f, budget, tol)
            spectral._bracket_and_solution(faces)
            (state,) = faces.states.values()
            alone = spectral.BracketState(f, budget, tol)
            alone.refine(budget)
            assert repr([getattr(state, a) for a in fields]) == \
                repr([getattr(alone, a) for a in fields])
            if not alone.converged:
                assert state.x == alone.x
            assert repr(faces.side(0.0).handle().finished()) == \
                repr(cs.cw_upper(f, budget, tol))


class TestVerdictBracket:
    """A nonempty-bounded verdict keeps its eigenvector trajectory's bracket,
    equal to cw_upper's bracket of f."""

    @staticmethod
    def _checked(maps):
        checked = 0
        for f in maps:
            verdict = cs.classify(f)
            if verdict.kind is VerdictKind.NONEMPTY_BOUNDED:
                assert not f.multiplicatively_convex
                assert repr(verdict.r_bracket) == repr(cs.cw_upper(
                    f, spectral.DEFAULT_BUDGET, spectral.DEFAULT_TOL))
                checked += 1
        return checked

    def test_random_nonconvex_maps(self, rng):
        maps = [sweep_family_map(rng, int(rng.integers(2, 5)))
                for _ in range(12)]
        assert self._checked(maps) >= 3

    def test_game_conjugates(self, rng):
        maps = []
        for _ in range(8):
            r3, r5, r2, r4, r6 = (float(v) for v in rng.uniform(-3.0, 3.0, 5))
            p1, p2 = (float(p) for p in rng.uniform(0.05, 0.95, 2))
            # r1 < min(r3, r5): an eigenvector exists
            r1 = min(r3, r5) - float(rng.uniform(0.01, 2.0))
            maps.append(game_conjugate(r1, r3, r5, r2, r4, r6, p1, p2))
        assert self._checked(maps) == len(maps)

    def test_no_bracket_across_components(self):
        # cw_upper decomposes a reducible convex map, so the verdict keeps
        # no bracket from the eigenvector's trajectory
        f = cs.matrix_map([[1.0, 1.0], [0.0, 2.0]])
        verdict = cs.classify(f)
        assert verdict.kind is VerdictKind.NONEMPTY_BOUNDED
        assert verdict.r_bracket is None


def _outcome(outcome):
    """repr of an EigenResult, or of a NonconvergedError's bracket."""
    if isinstance(outcome, NonconvergedError):
        return "nonconverged " + repr(outcome.bracket)
    return repr(outcome)


def _solved(f, **kwargs):
    try:
        return _outcome(cs.solve_eigenvector(f, **kwargs))
    except NonconvergedError as exc:
        return _outcome(exc)


def sweep_family_map(rng, n):
    """coord i: a_i*x_i + min(x_{i+1}, 2*x_{c_i}), as the sweep benchmark
    draws it."""
    lines = ["format: 1", f"dim: {n}"]
    for i in range(n):
        a = float(rng.uniform(0.5, 2.0))
        c = int(rng.integers(0, n))
        lines.append(f"coord {i + 1}: {a!r}*x{i + 1} + "
                     f"min(x{(i + 1) % n + 1}, 2*x{c + 1})")
    return cs.parse_map("\n".join(lines) + "\n").cone_map


def _routes(verdict):
    return [(c.subset.bits, c.route) for c in verdict.certificates]


def _refined_route(rb, lb, tol=existence.STRICTNESS_TOL):
    """The route fully refined brackets give."""
    if existence._strictly_below(rb.upper, lb.lower, tol):
        return Route.NUMERIC_STRICT
    if existence._strictly_below(lb.upper, rb.lower, tol):
        return Route.NUMERIC_REVERSE
    return Route.BOUNDARY


NUMERIC = (Route.NUMERIC_STRICT, Route.NUMERIC_REVERSE, Route.BOUNDARY)


class TestAnytimeBrackets:
    """Subset brackets are refined only until the comparison decides."""

    @staticmethod
    def _both(monkeypatch, f, budget, prune, solve=False):
        """(anytime analyzer, its verdict, the verdict of a run whose first
        refinement already spends the whole budget)."""
        anytime = existence.Analyzer(f, budget, prune=prune)
        verdict = anytime.classify(solve=solve)
        monkeypatch.setattr(existence, "FIRST_CHUNK", budget)
        full = existence.Analyzer(f, budget, prune=prune).classify(solve=solve)
        monkeypatch.undo()
        return anytime, verdict, full

    def _assert_routes_as_refined(self, monkeypatch, f, budget):
        for prune in (True, False):
            anytime, verdict, full = self._both(monkeypatch, f, budget, prune)
            assert verdict.kind is full.kind
            assert _routes(verdict) == _routes(full)
            for cert in verdict.certificates:
                if cert.route in NUMERIC:
                    rb = anytime.r0_handle(cert.subset).finished()
                    lb = anytime.linf_handle(cert.subset).finished()
                    assert cert.route is _refined_route(rb, lb)

    def test_sweep_map_routes(self, monkeypatch):
        f = cs.parse_map(SWEEP_MAP).cone_map
        self._assert_routes_as_refined(monkeypatch, f, 10_000)

    def test_black_box_twin_routes(self, monkeypatch):
        f = cs.parse_map(SWEEP_MAP).cone_map
        twin = ConeMap(dimension=5, evaluator=f.eval_interior)
        self._assert_routes_as_refined(monkeypatch, twin, 100)

    def test_random_map_routes(self, monkeypatch, rng):
        for f in (sweep_family_map(rng, int(rng.integers(2, 6))),
                  random_mplus_map(rng, int(rng.integers(2, 5))),
                  game_conjugate(r1=float(rng.uniform(-1.0, 4.0)))):
            self._assert_routes_as_refined(monkeypatch, f, 2000)

    def test_decision_brackets_contain_refined_ones(self, rng):
        for f in (cs.parse_map(SWEEP_MAP).cone_map,
                  sweep_family_map(rng, 4), random_mplus_map(rng, 4)):
            anytime = existence.Analyzer(f, prune=False)
            verdict = anytime.classify(solve=False)
            for cert in verdict.certificates:
                if cert.route not in NUMERIC:
                    continue
                for early, handle in (
                        (cert.r_bracket, anytime.r0_handle(cert.subset)),
                        (cert.lambda_bracket,
                         anytime.linf_handle(cert.subset))):
                    refined = handle.finished()
                    assert early.lower <= refined.lower
                    assert refined.upper <= early.upper
                    if early.witness_lower is not None and early.lower > 0:
                        lo, _ = ratios_at(f, early.witness_lower)
                        assert lo == pytest.approx(early.lower, rel=1e-11)
                    if early.witness_upper is not None and early.upper < INF:
                        _, hi = ratios_at(f, early.witness_upper)
                        assert hi == pytest.approx(early.upper, rel=1e-11)

    @pytest.mark.parametrize("text", [
        game_conjugate_text(3.0, 0.5, 1.0, 0.3, 2.0, -1.0, 0.5, 0.5),
        REVERSE_SWEEP_MAP])
    def test_reverse_certificate_and_displacement_contain_refined(
            self, monkeypatch, text):
        f = cs.parse_map(text).cone_map
        lazy, full = _lazy_and_full(
            monkeypatch, lambda: existence.Analyzer(f).classify())
        assert lazy.kind is full.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert _routes(lazy) == _routes(full)
        _assert_contains_refined(lazy.displacement, full.displacement)
        for early, refined in zip(lazy.certificates, full.certificates):
            if early.route is Route.NUMERIC_REVERSE:
                for a, b in ((early.r_bracket, refined.r_bracket),
                             (early.lambda_bracket, refined.lambda_bracket)):
                    assert a.lower <= b.lower and b.upper <= a.upper
        # the displacement's lower end re-checks from the certificate it
        # was computed with
        rev = next(c for c in lazy.certificates
                   if c.route is Route.NUMERIC_REVERSE)
        assert lazy.displacement.lower >= (
            math.log(rev.r_bracket.lower)
            - math.log(rev.lambda_bracket.upper))
        if text is REVERSE_SWEEP_MAP:
            # without the solve, the certificate keeps its decision brackets
            _, early, full = self._both(monkeypatch, f, 10_000, True)
            assert _reverse(early) != _reverse(full)

    @staticmethod
    def _loop_iterations(monkeypatch, f):
        """(verdict of classify(f), the bracket-loop iterations it ran)."""
        iterations = []
        core_bracket = spectral._core_bracket

        def counted(*args):
            result = core_bracket(*args)
            iterations.append(result[4])
            return result

        monkeypatch.setattr(spectral, "_core_bracket", counted)
        verdict = cs.classify(f)
        monkeypatch.undo()
        return verdict, sum(iterations)

    def test_bracket_iterations_of_the_sweep_map(self, monkeypatch):
        # a deterministic count of loop work: refining every bracket until
        # it converges or spends its budget takes about a hundred times more
        verdict, iterations = self._loop_iterations(
            monkeypatch, cs.parse_map(SWEEP_MAP).cone_map)
        assert verdict.kind is VerdictKind.NONEMPTY_BOUNDED
        assert iterations == 367

    def test_bracket_iterations_of_a_game_without_eigenvector(self,
                                                              monkeypatch):
        # the displacement refines f's brackets only until its interval
        # closes; refining them to the whole budget takes 3,008 iterations
        f = cs.parse_map(game_conjugate_text(
            3.0, 0.5, 1.0, 0.3, 2.0, -1.0, 0.5, 0.5)).cone_map
        verdict, iterations = self._loop_iterations(monkeypatch, f)
        assert verdict.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR
        assert verdict.displacement.converged
        assert iterations == 35


def _reverse(verdict):
    return [repr(c) for c in verdict.certificates
            if c.route is Route.NUMERIC_REVERSE]


def _lazy_and_full(monkeypatch, run):
    """run() as it is, and with every displacement bracket refined to the
    whole budget in its first round; subset comparisons read existence's
    own binding of FIRST_CHUNK and run alike in both."""
    lazy = run()
    monkeypatch.setattr(spectral, "FIRST_CHUNK", spectral.DEFAULT_BUDGET)
    full = run()
    monkeypatch.undo()
    return lazy, full


def _assert_contains_refined(lazy, full, tol=spectral.DEFAULT_TOL):
    """An anytime displacement encloses the fully refined one; it is closed
    to `tol` when that one is, and equal to it when it is not closed."""
    assert lazy.lower <= full.lower and full.upper <= lazy.upper
    if full.upper < INF and full.upper - full.lower <= tol * max(1.0,
                                                                 full.upper):
        assert lazy.converged
    if lazy.converged:
        assert lazy.upper < INF
        assert lazy.upper - lazy.lower <= tol * max(1.0, lazy.upper)
    else:
        assert repr(lazy) == repr(full)


class TestAnytimeDisplacement:
    """The displacement refines its brackets only until it closes."""

    def test_random_games(self, monkeypatch, rng):
        for _ in range(3):
            p1, p2 = (float(p) for p in rng.uniform(0.05, 0.95, size=2))
            f = game_conjugate(r1=float(rng.uniform(-1.0, 4.0)), p1=p1, p2=p2)
            lazy, full = _lazy_and_full(monkeypatch, lambda: cs.classify(f))
            assert lazy.kind is full.kind
            assert _routes(lazy) == _routes(full)
            if full.displacement is not None:
                _assert_contains_refined(lazy.displacement, full.displacement)
            # without a certificate the lower end comes from f's brackets
            _assert_contains_refined(*_lazy_and_full(
                monkeypatch, lambda: cs.min_displacement(f)))

    @pytest.mark.parametrize("rows", [[[1, 1], [1, 0]], [[1, 1], [0, 1]],
                                      [[1, 0], [0, 2]], [[2, 1], [0, 1]]])
    def test_matrices(self, monkeypatch, rows):
        f = cs.matrix_map(rows)
        _assert_contains_refined(*_lazy_and_full(
            monkeypatch, lambda: cs.min_displacement(f)))
        lazy, full = _lazy_and_full(monkeypatch, lambda: cs.classify(f))
        if full.displacement is not None:
            # the convex route's certificate is a fixed pair of brackets
            assert lazy.convex_report is not None
            _assert_contains_refined(lazy.displacement, full.displacement)
