"""AST nodes: means, tensor maps, game conjugates, flags, sparsity."""

import math

import pytest

import conespec as cs
from conespec.core import INF, ExtVec, SubsetMask
from conespec.errors import EmptySupportError, ZeroRowError
from conespec.maps import (Coord, Linear, Max, Min, Pole, PowerMean, Scale,
                           Sum, eval_mean, from_exprs, monomial, pin, theta)

from conftest import (make_game, make_schoen, make_tensor_example,
                      random_interior, random_mplus_map, tensor_example_raw,
                      value_iteration_oracle)


class TestEvalMean:
    def test_arithmetic(self):
        assert eval_mean(1.0, (0.5, 0.5), (2.0, 4.0)) == pytest.approx(3.0)

    def test_geometric(self):
        assert eval_mean(0.0, (0.5, 0.5), (1.0, 4.0)) == pytest.approx(2.0)

    def test_harmonic_with_zero(self):
        assert eval_mean(-1.0, (0.5, 0.5), (0.0, 5.0)) == 0.0

    def test_empty_support(self):
        with pytest.raises(EmptySupportError):
            eval_mean(1.0, (0.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize("r, with_zero, with_inf", [
        (2.0, math.sqrt(0.5) * 3.0, INF),   # zero contributes nothing
        (0.0, 0.0, INF),
        (-1.0, 0.0, 6.0),                   # inf reciprocal drops out
    ])
    def test_extension_table(self, r, with_zero, with_inf):
        assert eval_mean(r, (0.5, 0.5), (0.0, 3.0)) == pytest.approx(with_zero)
        assert eval_mean(r, (0.5, 0.5), (INF, 3.0)) == pytest.approx(with_inf)

    def test_all_inf_negative_exponent(self):
        assert eval_mean(-2.0, (0.5, 0.5), (INF, INF)) == INF

    def test_zero_weight_never_probes(self):
        # the weight-0 slot may hold either pole without effect
        assert eval_mean(1.0, (0.0, 1.0), (INF, 3.0)) == 3.0
        assert eval_mean(-1.0, (0.0, 1.0), (0.0, 3.0)) == 3.0

    def test_monotone_in_exponent(self, rng):
        x = tuple(rng.uniform(0.5, 4.0, size=4))
        w = rng.uniform(0.1, 1.0, size=4)
        w = tuple(w / w.sum())
        values = [eval_mean(r, w, x) for r in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestTensorMap:
    def test_order_two_is_matrix(self):
        f = cs.build_tensor_map([[2.0, 0.0], [0.0, 3.0]])
        assert f(ExtVec.interior([1.0, 1.0])).entries == pytest.approx((2.0, 3.0))
        assert f(ExtVec.interior([2.0, 5.0])).entries == pytest.approx((4.0, 15.0))

    def test_flags(self):
        f = make_tensor_example()
        assert f.multiplicatively_convex and f.analytic

    def test_example_formulas(self, rng):
        params = tuple(rng.uniform(0.3, 3.0, size=11))
        f = make_tensor_example(*params)
        raw = tensor_example_raw(params)
        for _ in range(100):
            x = random_interior(rng, 4)
            assert f(x).entries == pytest.approx(raw(x.entries), rel=1e-12)

    def test_cubic_scalar(self):
        # n=1, d=3, coefficient 4: f(x) = sqrt(4 x^2) = 2x
        f = cs.build_tensor_map([[[4.0]]])
        assert f(ExtVec.interior([3.0])).entries == pytest.approx((6.0,))
        b = cs.cw_upper(f)
        assert b.lower == pytest.approx(2.0) and b.upper == pytest.approx(2.0)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError):
            cs.build_tensor_map([[0.0, 0.0], [1.0, 1.0]])


class TestSparseLinear:
    def test_evaluation_bit_identical_to_dense_sum(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            row = [float(rng.uniform(1e-3, 1e3)) if rng.random() < 0.3
                   else 0.0 for _ in range(n)]
            row[int(rng.integers(0, n))] = float(rng.uniform(1e-3, 1e3))
            x = tuple(float(v) for v in rng.uniform(1e-3, 1e3, size=n))
            dense = 0.0
            for j, w in enumerate(row):
                if w > 0.0:
                    dense += w * x[j]
            e = Linear(tuple((j, w) for j, w in enumerate(row) if w > 0.0))
            assert e.evaluate(x) == dense
            f = cs.matrix_map([row] + [[1.0] * n for _ in range(n - 1)])
            assert f.exprs[0] == e
            assert f.eval_interior(x)[0] == dense

    def test_stores_nonzeros_only(self):
        f = cs.matrix_map([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 0.0, 4.0]])
        assert [e.nonzeros for e in f.exprs] == [
            ((1, 2.0),), ((0, 1.0), (2, 3.0)), ((2, 4.0),)]

    def test_validation(self):
        with pytest.raises(ZeroRowError):
            Linear(())
        with pytest.raises(ZeroRowError):
            cs.matrix_map([[0.0, 0.0], [1.0, 1.0]])
        for bad in (((0, -1.0),), ((0, 0.0),), ((0, INF),),
                    ((0, math.nan),), ((1, 1.0), (0, 1.0)),
                    ((0, 1.0), (0, 2.0)), ((-1, 1.0),)):
            with pytest.raises(ValueError):
                Linear(bad)
        for row in ([1.0, -1.0], [1.0, INF], [math.nan, 1.0]):
            with pytest.raises(ValueError):
                cs.matrix_map([row, [1.0, 1.0]])


class TestShapleyConjugate:
    def test_example_coordinate_structure(self, rng):
        r = (0.3, -0.5, 1.0, 0.2, 2.0, -1.0)
        p1, p2 = 0.25, 0.75
        game = make_game(*r, p1, p2)
        f = cs.build_shapley_conjugate(game)
        for _ in range(25):
            x = random_interior(rng, 3)
            x1, x2, x3 = x.entries
            expected = (
                max(math.exp(r[0]) * x1,
                    math.exp(r[1]) * x1 ** p1 * x2 ** (1 - p1)),
                min(math.exp(r[2]) * x2,
                    math.exp(r[3]) * x1 ** p2 * x3 ** (1 - p2)),
                min(math.exp(r[4]) * x3, math.exp(r[5]) * x1),
            )
            assert f(x).entries == pytest.approx(expected, rel=1e-12)
        assert not f.multiplicatively_convex and not f.analytic

    def test_single_state(self):
        game = cs.GameSpec(("min",), ((cs.GameAction(0.7, (1.0,)),),))
        f = cs.build_shapley_conjugate(game)
        assert f(ExtVec.interior([2.0])).entries == pytest.approx(
            (math.exp(0.7) * 2.0,))
        res = cs.solve_eigenvector(f)
        assert res.eigenvalue == pytest.approx(math.exp(0.7))

    def test_two_state_cycle_eigenvalue(self):
        # deterministic swap with payoffs 1 and -1: mean payoff 0
        A = cs.GameAction
        game = cs.GameSpec(("min", "min"),
                           ((A(1.0, (0.0, 1.0)),), (A(-1.0, (1.0, 0.0)),)))
        T = cs.build_shapley(game)
        averages = value_iteration_oracle(T, k=4096)
        assert averages == pytest.approx([0.0, 0.0], abs=1e-3)
        res = cs.solve_eigenvector(T.conjugate)
        assert res.eigenvalue == pytest.approx(1.0, rel=1e-9)


class TestFlags:
    def test_linear_and_means_are_convex_and_analytic(self):
        f = cs.matrix_map([[1, 2], [3, 0]])
        assert f.multiplicatively_convex and f.analytic

    def test_negative_exponent_mean_clears_flags(self):
        f = from_exprs([theta(Coord(0), Coord(1)), Coord(1)], 2)
        assert not f.multiplicatively_convex and not f.analytic

    def test_min_clears_convexity(self):
        f = from_exprs([Min((Coord(0), Coord(1))), Coord(1)], 2)
        assert not f.multiplicatively_convex and not f.analytic

    def test_max_times_keeps_convexity(self):
        f = cs.max_times_map([[1.0, 2.0], [0.5, 0.0]])
        assert f.multiplicatively_convex and not f.analytic

    def test_sum_and_nesting_preserve_convexity(self):
        inner = PowerMean(2.0, (0.5, 0.5), (Coord(0), Coord(1)))
        outer = Sum((Scale(2.0, inner),
                     PowerMean(0.0, (0.3, 0.7), (inner, Coord(0)))))
        f = from_exprs([outer, Coord(1)], 2)
        assert f.multiplicatively_convex and f.analytic

    def test_convexity_certificate(self, rng):
        for f in (random_mplus_map(rng, 4), make_tensor_example(),
                  cs.max_times_map([[1.0, 0.3], [2.0, 0.5]])):
            if not f.multiplicatively_convex:
                continue
            n = f.dimension
            for _ in range(20):
                x = random_interior(rng, n)
                y = random_interior(rng, n)
                th = float(rng.uniform(0.05, 0.95))
                mix = ExtVec.interior([a ** th * b ** (1 - th)
                                       for a, b in zip(x.entries, y.entries)])
                lhs = f(mix).entries
                rhs = [a ** th * b ** (1 - th)
                       for a, b in zip(f(x).entries, f(y).entries)]
                assert all(l <= r + 1e-10 for l, r in zip(lhs, rhs))


class TestExtendedLimits:
    def test_pinned_evaluation_is_interior_limit(self, rng):
        for f in (random_mplus_map(rng, 4), make_schoen()):
            n = f.dimension
            for _ in range(10):
                x = random_interior(rng, n)
                bits = int(rng.integers(1, (1 << n) - 1))
                J = SubsetMask(bits, n)
                pinned = f(cs.project(x, J, 0.0)).entries
                approx = []
                for eps in (1e-4, 1e-8):
                    xe = ExtVec.interior([v if J.contains(j) else v * eps
                                          for j, v in enumerate(x.entries)])
                    approx.append(f(xe).entries)
                for j in range(n):
                    gap4 = abs(approx[0][j] - pinned[j])
                    gap8 = abs(approx[1][j] - pinned[j])
                    # order-preservation makes the approach one-sided and
                    # monotone; the rate depends on the smallest exponent
                    assert gap8 <= gap4 + 1e-12
                    assert approx[1][j] >= pinned[j] - 1e-15


class TestPinning:
    def test_theta_absorbs_infinity(self):
        e = theta(Coord(0), Coord(1))
        pinned = pin(e, {0: INF})
        assert pinned == Coord(1)

    def test_max_drops_zero_branch(self):
        e = Max((Scale(2.0, Coord(0)), Coord(1)))
        assert pin(e, {1: 0.0}) == Scale(2.0, Coord(0))

    def test_min_absorbs_zero(self):
        e = Min((Scale(2.0, Coord(0)), Coord(1)))
        assert pin(e, {1: 0.0}) == Pole(0.0)

    def test_power_mean_renormalizes(self):
        e = PowerMean(2.0, (0.25, 0.75), (Coord(0), Coord(1)))
        pinned = pin(e, {1: 0.0})
        x = (3.0, 99.0)
        assert pinned.evaluate(x) == pytest.approx(
            eval_mean(2.0, (0.25, 0.75), (3.0, 0.0)))


class TestSparsity:
    def test_matrix_pattern_is_support(self):
        f = cs.matrix_map([[1.0, 0.0], [2.0, 3.0]])
        pat = cs.sparsity_probe(f, ExtVec.interior([1.0, 1.0]))
        assert pat.exact
        assert pat.matrix == ((True, False), (True, True))

    def test_tensor_example_matches_growth_digraph(self):
        f = make_tensor_example()
        pat = cs.sparsity_probe(f, ExtVec.interior([1.0, 1.0, 1.0, 1.0]))
        arcs = pat.arcs()
        expected = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                    (3, 0), (3, 2), (3, 3)}
        assert arcs == expected
        g = cs.digraph_of(f)
        assert set(g.arcs) == expected

    def test_geometric_coupling_full(self):
        geo = PowerMean(0.0, (0.5, 0.5), (Coord(0), Coord(1)))
        f = from_exprs([geo, geo], 2)
        pat = cs.sparsity_probe(f, ExtVec.interior([1.0, 2.0]))
        assert pat.matrix == ((True, True), (True, True))

    def test_numeric_path_on_schoen(self):
        f = make_schoen()
        pat = cs.sparsity_probe(f, ExtVec.interior([1.0, 1.1, 0.9, 1.2]))
        assert not pat.exact
        assert all(all(row) for row in pat.matrix)


class TestBlackBoxRestrictions:
    def _bb(self):
        from conespec.core import ConeMap
        return ConeMap(dimension=3,
                       evaluator=lambda x: (x[0] + x[1], 2 * x[1],
                                            x[1] + 0.5 * x[2]))

    def test_lower_restrict_evaluates_with_zeros(self):
        J = SubsetMask.of([0, 1], 3)
        low = cs.restrict_lower(self._bb(), J)
        assert low(ExtVec.interior([1, 2, 3])).entries == (3.0, 4.0, 0.0)

    def test_upper_restrict_fills_infinity(self):
        J = SubsetMask.of([0, 1], 3)
        up = cs.restrict_upper(self._bb(), J)
        out = up(ExtVec.interior([1, 2, 3])).entries
        assert out[:2] == (3.0, 4.0) and out[2] == INF

    def test_brackets_stay_sound(self):
        J = SubsetMask.of([0, 1], 3)
        b = cs.cw_upper(cs.restrict_lower(self._bb(), J), budget=2000)
        assert b.lower <= 2.0 <= b.upper * (1 + 1e-9)
        assert b.upper == pytest.approx(2.0, rel=1e-8)
        lb = cs.cw_lower(cs.restrict_upper(self._bb(), J), budget=2000)
        assert lb.lower == pytest.approx(2.0, rel=1e-8)


class TestPinEquivalence:
    def test_pin_matches_extended_evaluation(self, rng):
        # partial evaluation and direct extended evaluation must agree
        for _ in range(40):
            n = int(rng.integers(2, 6))
            f = random_mplus_map(rng, n)
            bits = int(rng.integers(1, (1 << n) - 1))
            pole = 0.0 if rng.random() < 0.5 else INF
            assign = {j: pole for j in range(n) if bits >> j & 1}
            x = [float(v) for v in rng.uniform(0.2, 3.0, size=n)]
            full = tuple(pole if j in assign else x[j] for j in range(n))
            for e in f.exprs:
                via_ext = e.evaluate(full)
                via_pin = pin(e, assign).evaluate(tuple(x))
                if via_ext in (0.0, INF):
                    assert via_pin == via_ext
                else:
                    assert via_pin == pytest.approx(via_ext, rel=1e-12)
