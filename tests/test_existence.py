"""The classifier: subset checks, sweep, convex route, inference rules."""

import math

import pytest

import conespec as cs
from conespec.core import INF, ExtVec, SubsetMask
from conespec.errors import DimensionTooLargeError, FlagMissingError
from conespec.existence import Route, Uniqueness, Convergence, VerdictKind
from conespec.maps import Coord, Linear, Max, Min, Scale, from_exprs
from conespec.spectral import ratios_at

from conftest import (block_radius_oracle, make_game, make_schoen,
                      make_tensor_example, random_mplus_map,
                      tensor_example_raw)


def mask(ix, n):
    return SubsetMask.of([i - 1 for i in ix], n)


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


class TestClassify:
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
        v = cs.classify(cs.matrix_map([[1, 1], [0, 1]]), fast_path=False)
        assert v.kind is VerdictKind.INDETERMINATE
        cert = next(c for c in v.certificates
                    if c.subset.bits == mask([1], 2).bits)
        assert cert.route is Route.BOUNDARY
        assert cert.r_bracket.lower <= 1.0 <= cert.r_bracket.upper
        assert cert.lambda_bracket.lower <= 1.0 <= cert.lambda_bracket.upper

    def test_diagonal_reverse_certificate(self):
        v = cs.classify(cs.matrix_map([[1, 0], [0, 2]]), fast_path=False)
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
        v2 = cs.classify(f, fast_path=False)
        assert v2.kind is VerdictKind.NONEMPTY_BOUNDED

    def test_dimension_cap(self):
        n = 25
        rows = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        with pytest.raises(DimensionTooLargeError):
            cs.classify(cs.matrix_map(rows), fast_path=False)

    def test_one_dimensional_always_bounded(self):
        v = cs.classify(cs.matrix_map([[3.0]]))
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.eigen.eigenvalue == pytest.approx(3.0)


class TestClassifyConvex:
    def test_requires_flag(self):
        with pytest.raises(FlagMissingError):
            cs.classify_convex(make_schoen())

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
        from conespec import existence, spectral
        from conespec.graphs import digraph_of

        calls = []

        def counted(f):
            calls.append(f)
            return digraph_of(f)

        monkeypatch.setattr(existence, "digraph_of", counted)
        monkeypatch.setattr(spectral, "digraph_of", counted)
        f = cs.matrix_map([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0],
                           [0.5, 3.0, 0.0]])
        v = cs.classify_convex(f, solve=False)
        assert calls == [f]
        assert v.convex_report.classes[0].bracket == cs.cw_upper(f)

    def test_decomposition_ignored_on_a_collapsed_face(self):
        # coordinate 3 of the restriction is 0, so the bracket runs on the
        # two-dimensional face {1, 2}, not on the digraph handed in
        f = cs.restrict_lower(from_exprs((Coord(1), Coord(0), Coord(2)), 3),
                              mask([1, 2], 3))
        scc = cs.scc_decompose(cs.digraph_of(f))
        assert scc.order == ((0, 1), (2,))
        assert cs.cw_upper(f, components=scc) == cs.cw_upper(f)


class TestInference:
    def test_analytic_class_map_unique(self):
        v = cs.classify(make_tensor_example())
        assert v.uniqueness is Uniqueness.UNIQUE

    def test_primitive_matrix_converges(self):
        v = cs.classify(cs.matrix_map([[1, 1], [1, 0]]))
        assert v.uniqueness is Uniqueness.UNIQUE
        assert v.convergence is Convergence.ITERATES_CONVERGE

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
            a = cs.classify(f, fast_path=False, solve=False)
            b = cs.classify_convex(f, solve=False)
            if VerdictKind.INDETERMINATE in (a.kind, b.kind):
                continue
            assert a.kind is b.kind
            agreements += 1
        assert agreements >= 1

    def test_bracket_uppers_monotone_in_subset(self, rng):
        f = random_mplus_map(rng, 4)
        v = cs.classify(f, fast_path=False, solve=False, prune=False)
        uppers = {c.subset.bits: c.r_bracket.upper
                  for c in v.certificates if c.r_bracket is not None}
        for a, ua in uppers.items():
            for b, ub in uppers.items():
                if a & ~b == 0:
                    assert ua <= ub + 1e-9 * max(1.0, abs(ub))

    def test_verdict_soundness(self, rng):
        for _ in range(6):
            f = random_mplus_map(rng, int(rng.integers(2, 5)))
            v = cs.classify(f, fast_path=False)
            if v.kind is VerdictKind.NONEMPTY_BOUNDED:
                assert v.eigen is not None and v.eigen.residual <= 1e-10
            elif v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR:
                assert v.displacement is not None
                assert v.displacement.lower > 0

    def test_certificate_replay(self):
        for f in (game_conjugate(r1=0.0), game_conjugate(r1=3.0),
                  cs.matrix_map([[1, 0], [0, 2]])):
            v = cs.classify(f, fast_path=False, solve=False)
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
        corpus = [random_mplus_map(rng, int(rng.integers(2, 5)))
                  for _ in range(4)]
        corpus += [game_conjugate(r1=0.0), game_conjugate(r1=3.0),
                   make_schoen()]
        for f in corpus:
            a = cs.classify(f, fast_path=False, solve=False, prune=True)
            b = cs.classify(f, fast_path=False, solve=False, prune=False)
            assert a.kind is b.kind

    def test_workers_deterministic(self):
        f = game_conjugate(r1=0.0)
        a = cs.classify(f, fast_path=False, solve=False, workers=1)
        b = cs.classify(f, fast_path=False, solve=False, workers=4)
        assert a.kind is b.kind
        assert [(c.subset.bits, c.route) for c in a.certificates] == \
            [(c.subset.bits, c.route) for c in b.certificates]


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
