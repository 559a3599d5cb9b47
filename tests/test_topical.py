"""Topical maps, Shapley operators, additive verdicts, mean payoff."""

import math

import pytest

import conespec as cs
from conespec.core import SubsetMask
from conespec.errors import NumericRangeError, ValidationError
from conespec.existence import Route, VerdictKind
from conespec.topical import variation_norm

from conftest import (make_game, random_interior, reference_iterate,
                      value_iteration_oracle)


def mask(ix, n):
    return SubsetMask.of([i - 1 for i in ix], n)


class TestGameSpec:
    def test_transition_must_sum_to_one(self):
        A = cs.GameAction
        with pytest.raises(ValidationError) as info:
            cs.GameSpec(("min",), ((A(0.0, (0.5,)),),))
        assert "/actions/0/0/transition" in str(info.value)

    def test_state_needs_an_action(self):
        with pytest.raises(ValidationError):
            cs.GameSpec(("min",), ((),))

    def test_payoff_beyond_exp_range_raises(self):
        A = cs.GameAction
        for payoff in (800.0, -800.0):
            game = cs.GameSpec(("min", "max"),
                               ((A(0.0, (1.0, 0.0)),),
                                (A(1.0, (0.0, 1.0)), A(payoff, (0.5, 0.5)))))
            with pytest.raises(NumericRangeError) as info:
                cs.build_shapley(game)
            assert "/actions/1/1/payoff" in str(info.value)

    @pytest.mark.parametrize("row, j", [
        ((math.nan, 1.0), 0),
        ((0.0, math.nan), 1),
        ((1.0, math.inf), 1),
        ((10 ** 400, 0), 0),
        ((1.5, -0.5), 0),
    ], ids=["nan_first", "nan_second", "inf", "huge_int", "above_one"])
    def test_probability_outside_unit_interval(self, row, j):
        A = cs.GameAction
        with pytest.raises(ValidationError) as info:
            cs.GameSpec(("min", "max"),
                        ((A(0.0, row),), (A(1.0, (0.0, 1.0)),)))
        assert info.value.pointer == f"/actions/0/0/transition/{j}"

    @pytest.mark.parametrize("payoff", [10 ** 400, -10 ** 400, math.nan],
                             ids=["huge", "huge_negative", "nan"])
    def test_payoff_outside_float_range(self, payoff):
        with pytest.raises(ValidationError) as info:
            cs.GameSpec(("min",), ((cs.GameAction(payoff, (1,)),),))
        assert info.value.pointer == "/actions/0/0/payoff"

    def test_controller_tags(self):
        with pytest.raises(ValidationError):
            cs.GameSpec(("neither",),
                        ((cs.GameAction(0.0, (1.0,)),),))


class TestBuildShapley:
    def test_example_operator_values(self, rng):
        r = (0.4, -0.2, 1.1, 0.3, 2.2, -1.5)
        p1, p2 = 0.3, 0.6
        T = cs.build_shapley(make_game(*r, p1, p2))
        for _ in range(30):
            x = tuple(float(v) for v in rng.uniform(-4, 4, size=3))
            expected = (
                max(r[0] + x[0], r[1] + p1 * x[0] + (1 - p1) * x[1]),
                min(r[2] + x[1], r[3] + p2 * x[0] + (1 - p2) * x[2]),
                min(r[4] + x[2], r[5] + x[0]),
            )
            assert T.additive(x) == pytest.approx(expected, rel=1e-12)

    def test_additive_homogeneity(self, rng):
        T = cs.build_shapley(make_game(0.4, -0.2, 1.1, 0.3, 2.2, -1.5,
                                       0.3, 0.6))
        for _ in range(20):
            x = tuple(float(v) for v in rng.uniform(-3, 3, size=3))
            c = float(rng.uniform(-5, 5))
            shifted = T.additive(tuple(v + c for v in x))
            base = T.additive(x)
            assert all(abs(a - (b + c)) <= 1e-12 * max(1, abs(c))
                       for a, b in zip(shifted, base))

    def test_single_state_translation(self):
        game = cs.GameSpec(("max",), ((cs.GameAction(0.7, (1.0,)),),))
        T = cs.build_shapley(game)
        assert T.additive((2.0,)) == (2.7,)
        assert cs.mean_payoff(T, 0, 17) == pytest.approx(0.7)

    def test_two_state_swap_average(self):
        # deterministic swap with payoffs a and b averages to (a+b)/2
        a, b = 3.0, -1.0
        A = cs.GameAction
        game = cs.GameSpec(("min", "min"),
                           ((A(a, (0.0, 1.0)),), (A(b, (1.0, 0.0)),)))
        T = cs.build_shapley(game)
        oracle = value_iteration_oracle(T, k=4096)
        assert oracle == pytest.approx([(a + b) / 2] * 2, abs=1e-3)
        v = cs.check_additive_eigenvector(T)
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        assert v.eigen.eigenvalue == pytest.approx((a + b) / 2, rel=1e-9)
        # closed form: lambda = a + x1 - x1... from T(x)_1 = a + x2 = x1 + lambda
        # the potential difference is x2 - x1 = (b - a) / 2
        x = v.eigen.vector
        assert x[1] - x[0] == pytest.approx((b - a) / 2, rel=1e-9)


class TestCheckAdditiveEigenvector:
    def test_game_condition_positive(self):
        T = cs.build_shapley(make_game(0.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.5, 0.5))
        v = cs.check_additive_eigenvector(T)
        assert v.kind is VerdictKind.NONEMPTY_BOUNDED
        cert = next(c for c in v.certificates
                    if c.subset.bits == mask([1], 3).bits)
        assert cert.route is Route.NUMERIC_STRICT
        # additive brackets are in log scale
        assert cert.r_bracket.upper == pytest.approx(0.0, abs=1e-12)
        assert cert.lambda_bracket.lower == pytest.approx(1.0, rel=1e-12)

    def test_game_condition_negative(self):
        T = cs.build_shapley(make_game(3.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.5, 0.5))
        v = cs.check_additive_eigenvector(T)
        assert v.kind is VerdictKind.NO_INTERIOR_EIGENVECTOR

    def test_translation_indeterminate(self):
        # T(x) = x + c has every vector as an additive eigenvector
        A = cs.GameAction
        game = cs.GameSpec(("min", "min"),
                           ((A(1.0, (1.0, 0.0)),), (A(1.0, (0.0, 1.0)),)))
        T = cs.build_shapley(game)
        v = cs.check_additive_eigenvector(T)
        assert v.kind is VerdictKind.INDETERMINATE

    def test_eigen_reported_in_log_scale(self):
        T = cs.build_shapley(make_game(0.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.5, 0.5))
        v = cs.check_additive_eigenvector(T)
        assert v.eigen is not None
        mult = v.multiplicative.eigen
        assert v.eigen.eigenvalue == pytest.approx(
            math.log(mult.eigenvalue), rel=1e-12)
        assert v.eigen.vector == pytest.approx(
            tuple(math.log(u) for u in mult.vector.entries), rel=1e-12)
        # additive residual: T(x) - x is constant within tolerance
        tx = T.additive(v.eigen.vector)
        gaps = [a - b for a, b in zip(tx, v.eigen.vector)]
        assert max(gaps) - min(gaps) <= 1e-9


class TestMeanPayoff:
    def test_single_state(self):
        game = cs.GameSpec(("min",), ((cs.GameAction(-2.5, (1.0,)),),))
        T = cs.build_shapley(game)
        for k in (1, 7, 64):
            assert cs.mean_payoff(T, 0, k) == pytest.approx(-2.5)

    def test_states_agree_when_eigenvector_exists(self):
        T = cs.build_shapley(make_game(0.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.5, 0.5))
        values = [cs.mean_payoff(T, s, 1 << 12) for s in range(3)]
        assert max(values) - min(values) <= 1e-2
        # horizon doubling shrinks the spread
        coarse = [cs.mean_payoff(T, s, 1 << 8) for s in range(3)]
        assert max(values) - min(values) <= max(coarse) - min(coarse) + 1e-12

    def test_states_split_without_eigenvector(self):
        T = cs.build_shapley(make_game(3.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.5, 0.5))
        values = [cs.mean_payoff(T, s, 1 << 12) for s in range(3)]
        # state 1 collects r1 forever; state 2 is stuck at r3
        assert values[0] == pytest.approx(3.0, abs=1e-2)
        assert values[1] == pytest.approx(1.0, abs=1e-2)
        assert max(values) - min(values) > 1.0

    def test_shared_trajectory_matches_restarts(self):
        T = cs.build_shapley(make_game(3.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.4, 0.6))
        # increasing, repeated and decreasing horizons, one state at a time
        for k in (7, 64, 64, 256, 1024, 7, 300):
            for s in range(3):
                fresh = T.iterate_additive((0.0,) * 3, k)[s] / k
                assert cs.mean_payoff(T, s, k) == fresh

    def test_validation(self):
        T = cs.build_shapley(make_game(0, 0, 1, 0, 2, 0, 0.5, 0.5))
        with pytest.raises(ValueError):
            cs.mean_payoff(T, 0, 0)
        with pytest.raises(ValueError):
            cs.mean_payoff(T, 5, 4)

    def test_negative_steps_rejected(self):
        # a negative horizon used to be stored as the trajectory's memo,
        # so T^3(0) asked for next came back as T^8(0)
        T = cs.build_shapley(make_game(3.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.4, 0.6))
        with pytest.raises(ValueError):
            T.iterate_from_zero(-5)
        with pytest.raises(ValueError):
            T.iterate_additive((0.0,) * 3, -1)
        assert T.iterate_from_zero(3) == \
            reference_iterate(T.game, (0.0,) * 3, 3)
        assert T.iterate_from_zero(0) == (0.0,) * 3
        assert T.iterate_additive((1.0, 2.0, 3.0), 0) == (1.0, 2.0, 3.0)

    def test_generated_loop_freed_by_reference_counting(self):
        import gc
        import weakref
        T = cs.build_shapley(make_game(3.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.4, 0.6))
        cs.mean_payoff(T, 0, 16)
        steps = weakref.ref(T._steps)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del T
            assert steps() is None  # no cycle keeps the generated loop alive
        finally:
            if enabled:
                gc.enable()


class TestTopicalProperties:
    def _T(self):
        return cs.build_shapley(make_game(0.4, -0.2, 1.1, 0.3, 2.2, -1.5,
                                          0.3, 0.6))

    def test_conjugation_coherence(self, rng):
        T = self._T()
        f = T.conjugate
        for _ in range(25):
            x = tuple(float(v) for v in rng.uniform(-2, 2, size=3))
            via_cone = [math.log(v) for v in
                        f.eval_interior(tuple(math.exp(u) for u in x))]
            assert via_cone == pytest.approx(T.additive(x), abs=1e-10)

    def test_variation_norm_nonexpansive(self, rng):
        T = self._T()
        for _ in range(25):
            x = tuple(float(v) for v in rng.uniform(-3, 3, size=3))
            y = tuple(float(v) for v in rng.uniform(-3, 3, size=3))
            dxy = variation_norm([a - b for a, b in zip(x, y)])
            dT = variation_norm([a - b for a, b in
                                 zip(T.additive(x), T.additive(y))])
            assert dT <= dxy + 1e-10

    def test_hypergraph_transfer(self):
        from conespec.graphs import HypergraphProbe
        from conespec.core import Side
        T = self._T()
        lower = HypergraphProbe(T.conjugate, Side.LOWER)
        upper = HypergraphProbe(T.conjugate, Side.UPPER)
        for bits in range(1, 7):
            J = SubsetMask(bits, 3)
            assert T.additive_hyperarc_targets(False, J) == \
                lower.hyperarc_targets(J)
            assert T.additive_hyperarc_targets(True, J) == \
                upper.hyperarc_targets(J)


class TestPayoffValidation:
    def test_infinite_payoff_rejected(self):
        import math as _m
        with pytest.raises(ValidationError) as info:
            cs.GameSpec(("min",), ((cs.GameAction(_m.inf, (1.0,)),),))
        assert "/actions/0/0/payoff" in str(info.value)
