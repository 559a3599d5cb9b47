"""Collatz-Wielandt brackets, displacement, and the eigenvector solver."""

import math

import pytest

import conespec as cs
from conespec.core import INF, ConeMap, ExtVec, Side, SubsetMask
from conespec.errors import NumericRangeError
from conespec.maps import Coord, Scale, Sum, from_exprs
from conespec.spectral import NonconvergedError, plus_identity, ratios_at

from conftest import (make_game, make_schoen, make_tensor_example,
                      perron_oracle, random_interior,
                      random_irreducible_matrix, random_mplus_map)


def mask(ix, n):
    return SubsetMask.of([i - 1 for i in ix], n)


class TestCwUpper:
    def test_identity_immediate(self):
        b = cs.cw_upper(cs.matrix_map([[1, 0], [0, 1]]))
        assert b.lower == b.upper == 1.0
        assert b.converged

    def test_jordan_block_plain_iteration_stalls(self):
        # without structure flags the sandwich straddles 1 and never closes
        black = ConeMap(dimension=2, evaluator=lambda x: (x[0] + x[1], x[1]))
        b = cs.cw_upper(black, budget=500)
        assert not b.converged
        assert b.lower <= 1.0 <= b.upper
        assert b.upper - b.lower > 1e-10

    def test_jordan_block_component_route_is_exact(self):
        b = cs.cw_upper(cs.matrix_map([[1, 1], [0, 1]]))
        assert b.converged
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)

    def test_tensor_restriction_radius(self):
        # the lower restriction to {3,4} collapses onto {4}: radius sqrt(d3)
        f = make_tensor_example(d3=4.0)
        b = cs.cw_upper(cs.restrict_lower(f, mask([3, 4], 4)))
        assert b.lower == pytest.approx(2.0, rel=1e-12)
        assert b.upper == pytest.approx(2.0, rel=1e-12)
        assert b.collapsed_support == (3,)

    def test_full_collapse_gives_zero(self):
        f = make_tensor_example()
        # restriction to {3}: the only monomial of f3 needs x2, so r = 0
        b = cs.cw_upper(cs.restrict_lower(f, mask([3], 4)))
        assert b.lower == b.upper == 0.0
        assert b.converged and b.collapsed_support == ()


class TestCwLower:
    def test_identity(self):
        b = cs.cw_lower(cs.matrix_map([[1, 0], [0, 1]]))
        assert b.lower == b.upper == 1.0

    def test_irreducible_two_by_two(self):
        # Perron root of [[2,1],[1,3]] is (5 + sqrt(5)) / 2
        b = cs.cw_lower(cs.matrix_map([[2, 1], [1, 3]]))
        root = (5.0 + math.sqrt(5.0)) / 2.0
        assert b.lower == pytest.approx(root, rel=1e-9)
        assert b.upper == pytest.approx(root, rel=1e-9)

    def test_game_upper_face_lambda(self):
        # pinning state 1 to +inf decouples states 2 and 3: lambda is the
        # smaller of the two stay payoffs, exactly
        r3, r5 = 1.0, 2.0
        T = cs.build_shapley(make_game(0.0, 0.5, r3, 0.3, r5, -1.0, 0.5, 0.5))
        g = cs.restrict_upper(T.conjugate, mask([2, 3], 3))
        b = cs.cw_lower(g)
        assert b.lower == pytest.approx(math.exp(min(r3, r5)), rel=1e-12)

    def test_reach_collapse_gives_infinite_lambda(self):
        f = cs.matrix_map([[1, 1], [0, 1]])
        b = cs.cw_lower(cs.restrict_upper(f, mask([1], 2)))
        assert b.lower == INF and b.upper == INF


class TestMinDisplacement:
    def test_map_with_eigenvector_near_zero(self):
        d = cs.min_displacement(cs.matrix_map([[1, 1], [1, 0]]))
        assert d.lower == pytest.approx(0.0, abs=1e-9)
        assert d.upper <= 1e-8

    def test_jordan_block_zero_but_no_eigenvector(self):
        # displacement vanishes although the eigenspace is empty, so
        # existence must never be inferred from the displacement alone
        d = cs.min_displacement(cs.matrix_map([[1, 1], [0, 1]]))
        assert d.lower == pytest.approx(0.0, abs=1e-12)
        assert d.upper <= 1e-6

    def test_diagonal_gap(self):
        d = cs.min_displacement(cs.matrix_map([[1, 0], [0, 2]]))
        assert d.lower == pytest.approx(math.log(2.0), rel=1e-9)
        assert d.upper == pytest.approx(math.log(2.0), rel=1e-9)


class TestSolveEigenvector:
    def test_permutation_converges_while_plain_iteration_oscillates(self):
        f = cs.matrix_map([[0, 1], [1, 0]])
        x0 = ExtVec.interior([1.0, 2.0])
        traj = cs.iterate_normalized(f, x0, 6)
        assert traj[0].entries == pytest.approx(traj[2].entries)
        assert traj[0].entries != pytest.approx(traj[1].entries)
        res = cs.solve_eigenvector(f, x0)
        assert res.eigenvalue == pytest.approx(1.0, rel=1e-10)
        assert res.vector.entries == pytest.approx((1.0, 1.0), rel=1e-9)

    def test_tensor_example_converges(self):
        f = make_tensor_example()
        res = cs.solve_eigenvector(f)
        assert res.residual <= 1e-10
        assert all(v > 0 for v in res.vector.entries)

    def test_matches_dense_oracle(self, rng):
        for n in (2, 4, 6, 8):
            rows = random_irreducible_matrix(rng, n)
            res = cs.solve_eigenvector(cs.matrix_map(rows))
            rho = perron_oracle(rows)
            assert res.eigenvalue == pytest.approx(rho, rel=1e-8)

    def test_nonconverged_carries_bracket(self):
        f = cs.matrix_map([[1, 0], [0, 2]])
        with pytest.raises(NonconvergedError) as info:
            cs.solve_eigenvector(f, budget=200)
        b = info.value.bracket
        assert b.lower <= 2.0 + 1e-12 and b.upper >= 1.0 - 1e-12

    def test_nonconverged_reports_iterations_run(self):
        # the second coordinate decays by (1 + 1e-3) / 2 per step and
        # crosses the underflow guard long before the budget runs out
        f = cs.matrix_map([[1, 0], [0, 1e-3]])
        with pytest.raises(NonconvergedError) as info:
            cs.solve_eigenvector(f)
        assert info.value.bracket.iterations == 999
        with pytest.raises(NonconvergedError) as info:
            cs.solve_eigenvector(f, budget=200)
        assert info.value.bracket.iterations == 200

    def test_overflowing_map_raises_range_error(self):
        f = from_exprs([Sum((Scale(1e308, Coord(0)), Scale(1e308, Coord(1)))),
                        Sum((Coord(0), Coord(1)))], 2)
        with pytest.raises(NumericRangeError):
            cs.solve_eigenvector(f)
        with pytest.raises(NumericRangeError):
            cs.cw_upper(f)
        with pytest.raises(NumericRangeError):
            cs.classify(f)


class TestIterateNormalized:
    def test_fibonacci_converges_to_golden_vector(self):
        f = cs.matrix_map([[1, 1], [1, 0]])
        traj = cs.iterate_normalized(f, ExtVec.interior([1.0, 1.0]), 80)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert traj[-1].entries == pytest.approx((1.0, 1.0 / phi), rel=1e-9)

    def test_plus_identity_tames_permutation(self):
        f = cs.matrix_map([[0, 1], [1, 0]])
        g = plus_identity(f)
        traj = cs.iterate_normalized(g, ExtVec.interior([1.0, 2.0]), 60)
        assert traj[-1].entries == pytest.approx((1.0, 1.0), rel=1e-9)

    def test_plus_identity_evaluates_as_sum(self, rng):
        f = random_mplus_map(rng, 3)
        g = plus_identity(f)
        x = random_interior(rng, 3)
        fx = f(x).entries
        gx = g(x).entries
        assert gx == pytest.approx(tuple(a + b for a, b in
                                         zip(fx, x.entries)), rel=1e-12)


class TestBracketProperties:
    def _brackets(self, rng):
        out = []
        for n in (3, 4):
            f = random_mplus_map(rng, n)
            out.append((f, cs.cw_upper(f)))
            J = SubsetMask(int(rng.integers(1, (1 << n) - 1)), n)
            rest = cs.restrict_lower(f, J)
            out.append((rest, cs.cw_upper(rest)))
        s = make_schoen()
        out.append((s, cs.cw_upper(s, budget=3000)))
        return out

    def test_witness_recomputation(self, rng):
        for f, b in self._brackets(rng):
            if b.witness_lower is not None:
                lo, _ = ratios_at(f, b.witness_lower)
                assert lo == pytest.approx(b.lower, rel=1e-11, abs=1e-300)
            if b.witness_upper is not None:
                _, hi = ratios_at(f, b.witness_upper)
                assert hi == pytest.approx(b.upper, rel=1e-11)

    def test_order(self, rng):
        for _, b in self._brackets(rng):
            assert b.lower <= b.upper * (1 + 1e-12)

    def test_duality_at_matched_witnesses(self, rng):
        from conespec.core import reciprocal
        for n in (3, 4):
            f = random_mplus_map(rng, n)
            conj = cs.reciprocal_conjugate(f)
            lb = cs.cw_lower(f)
            ub = cs.cw_upper(conj)
            assert lb.lower == pytest.approx(1.0 / ub.upper, rel=1e-12)
            assert lb.upper == pytest.approx(1.0 / ub.lower, rel=1e-12)
            if lb.witness_lower is not None:
                lo, _ = ratios_at(f, lb.witness_lower)
                _, hi = ratios_at(conj, reciprocal(lb.witness_lower))
                assert lo == pytest.approx(1.0 / hi, rel=1e-11)

    def test_dominated_map_has_smaller_numbers(self, rng):
        # adding a positive term only increases both CW numbers
        from conespec.maps import Coord, Scale, Sum, from_exprs
        for n in (3, 4):
            f = random_mplus_map(rng, n)
            bigger = from_exprs(
                [Sum((e, Scale(0.25, Coord(i))))
                 for i, e in enumerate(f.exprs)], n)
            bf, bg = cs.cw_upper(f), cs.cw_upper(bigger)
            assert bf.upper <= bg.upper + 1e-9 * max(1.0, bg.upper)
            lf, lg = cs.cw_lower(f), cs.cw_lower(bigger)
            assert lf.lower <= lg.lower + 1e-9 * max(1.0, lg.lower)

    def test_eigen_residual_consistency(self, rng):
        f = random_mplus_map(rng, 4)
        try:
            res = cs.solve_eigenvector(f)
        except NonconvergedError:
            return
        lo, hi = ratios_at(f, res.vector)
        assert hi - lo <= 2e-10 * max(1.0, hi)
        assert res.eigenvalue == pytest.approx(hi, rel=1e-12)

    def test_displacement_consistent_with_orbit_estimates(self, rng):
        for builder in (lambda: random_mplus_map(rng, 3),
                        lambda: cs.matrix_map([[1, 0], [0, 2]])):
            f = builder()
            d = cs.min_displacement(f)
            x = ExtVec.interior([1.0] * f.dimension)
            values = []
            for k in (64, 128):
                y = x
                for _ in range(k):
                    y = ExtVec.interior(f.eval_interior(y.entries))
                    m = max(y.entries)
                    y = ExtVec.interior([v / m for v in y.entries])
                # renormalized orbit keeps the projective distance intact
                values.append(cs.hilbert_distance(x, y) / k)
            slack = 3.0 * abs(values[0] - values[1]) + 1e-6
            assert min(values) - slack <= d.upper
            assert d.lower <= max(values) + slack
