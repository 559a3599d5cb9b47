"""Collatz-Wielandt brackets, displacement, and the eigenvector solver."""

import math

import pytest

import conespec as cs
from conespec import maps, spectral
from conespec.core import INF, ConeMap, ExtVec, Side, SubsetMask
from conespec.errors import NumericRangeError, ZeroRowError
from conespec.graphs import HypergraphProbe
from conespec.maps import (Coord, Linear, Max, Min, Pole, PowerMean, Scale,
                           Sum, from_exprs)
from conespec.spectral import NonconvergedError, plus_identity, ratios_at

from conftest import (make_game, make_schoen, make_tensor_example,
                      perron_oracle, random_interior,
                      random_irreducible_matrix, random_mplus_map,
                      random_tree, reference_plain_trajectory)


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

    def test_bracket_ends_at_zero_or_inf_give_an_infinite_upper_end(self):
        # with no iteration r(f) <= inf and lambda(f) >= 0: no finite bound
        f = cs.parse_map("format: 1\ndim: 2\ncoord 1: x1 + x2\n"
                         "coord 2: x2\n").cone_map
        d = cs.min_displacement(f, budget=0)
        assert (d.lower, d.upper, d.converged) == (0.0, INF, False)
        # a certificate whose lambda bracket is [0, 0] bounds nothing below
        zero = spectral.CWHandle(fixed=cs.CWBracket(0.0, 0.0, None, None, 0,
                                                    True))
        one = spectral.CWHandle(fixed=cs.CWBracket(1.0, 1.0, None, None, 0,
                                                   True))
        d = cs.min_displacement(cs.matrix_map([[1, 0], [0, 2]]),
                                certificate=(one, zero))
        assert d.lower == pytest.approx(math.log(2.0), rel=1e-9)
        assert d.converged


#: the two maps whose restrictions to {1} have an output that is a pole
POLE_FACE_MAPS = [cs.matrix_map([[1, 1], [1, 1]]),
                  cs.max_times_map([[1, 2], [3, 1]])]


class TestPoleOutputs:
    """A restriction keeps its pinned outputs as poles; the brackets that
    cannot iterate such an output name it instead of failing inside."""

    @pytest.mark.parametrize("f", POLE_FACE_MAPS, ids=["matrix", "max_times"])
    def test_cw_lower_of_a_lower_restriction(self, f):
        g = cs.restrict_lower(f, SubsetMask(1, 2))
        with pytest.raises(ZeroRowError,
                           match="coordinate 2 of the map is identically 0"):
            cs.cw_lower(g)

    @pytest.mark.parametrize("f", POLE_FACE_MAPS, ids=["matrix", "max_times"])
    def test_min_displacement_of_a_lower_restriction(self, f):
        g = cs.restrict_lower(f, SubsetMask(1, 2))
        with pytest.raises(ZeroRowError,
                           match="coordinate 2 of the map is identically 0"):
            cs.min_displacement(g)

    @pytest.mark.parametrize("f", POLE_FACE_MAPS, ids=["matrix", "max_times"])
    def test_cw_upper_of_an_upper_restriction(self, f):
        # pinning x2 to inf sends both outputs to inf; the first is named
        g = cs.restrict_upper(f, SubsetMask(1, 2))
        with pytest.raises(NumericRangeError,
                           match="coordinate 1 of the map is identically inf"):
            cs.cw_upper(g)


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

    def test_starting_point_of_another_dimension(self):
        with pytest.raises(ValueError):
            cs.solve_eigenvector(make_schoen(), ExtVec.interior([1.0, 2.0]))

    def test_map_value_underflowing_to_zero(self):
        # f_1 = 1e-323 * x_1 rounds to 0 once x_1 < 1/2: the residual is
        # infinite there, and x_1 halves until the underflow guard stops
        f = from_exprs([Scale(1e-323, Coord(0)), Sum((Coord(0), Coord(1)))],
                       2)
        for g in (f, _interpreted(f)):
            with pytest.raises(NonconvergedError) as info:
                cs.solve_eigenvector(g)
            b = info.value.bracket
            assert b.lower < 1e-320 and b.upper == 1.0
            assert 0 < b.iterations < 10_000


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

    def test_plus_identity_of_a_black_box_map(self):
        f = cs.matrix_map([[0, 1], [2, 0]])
        black = ConeMap(2, evaluator=f.eval_interior,
                        multiplicatively_convex=True, analytic=True)
        g = plus_identity(black)
        assert not g.is_ast and g.multiplicatively_convex and g.analytic
        assert g.eval_interior((1.0, 3.0)) == (4.0, 5.0)


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


def _interpreted(g):
    """g as a black box over the AST interpreter: iterated by the plain loop."""
    return ConeMap(dimension=g.dimension,
                   evaluator=lambda x: tuple(e.evaluate(x) for e in g.exprs))


def _run_outcome(g, x, budget, tol, gap_stop, residual_stop):
    """The raw trajectory's repr, or the type of the exception raised."""
    try:
        return repr(spectral._trajectory(g, x, budget, tol, gap_stop,
                                         residual_stop))
    except Exception as exc:  # the exception type is what gets compared
        return type(exc).__name__


def _public_outcomes(g, x, budget, tol):
    """repr of the 6-tuple bracket and of the solve outcome, or error types."""
    try:
        bracket = repr(spectral._core_bracket(g, x, budget, tol))
    except Exception as exc:
        bracket = type(exc).__name__
    try:
        solved = repr(cs.solve_eigenvector(g, ExtVec.interior(x), budget, tol))
    except NonconvergedError as exc:
        solved = "nonconverged " + repr(exc.bracket)
    except Exception as exc:
        solved = type(exc).__name__
    return bracket, solved


MODES = ((True, False), (False, True), (True, True))


class TestCompiledLoop:
    """The generated (f + id) loop against the plain-Python loop."""

    def _assert_same(self, g, x, budget, tol=1e-10):
        assert g.interior_loop() is not None
        black = _interpreted(g)
        assert black.interior_loop() is None
        for gap_stop, residual_stop in MODES:
            assert _run_outcome(g, x, budget, tol, gap_stop, residual_stop) \
                == _run_outcome(black, x, budget, tol, gap_stop,
                                residual_stop)
        assert _public_outcomes(g, x, budget, tol) == \
            _public_outcomes(black, x, budget, tol)

    def test_random_trees_and_conjugates(self, rng):
        compared = 0
        for _ in range(120):
            n = int(rng.integers(1, 6))
            exprs = [random_tree(rng, n, int(rng.integers(0, 4)))
                     for _ in range(n)]
            for g in (from_exprs(exprs, n),
                      cs.reciprocal_conjugate(from_exprs(exprs, n))):
                if g.interior_loop() is None:
                    continue  # all Coord, Pole or Linear: never compiled
                if rng.random() < 0.3:
                    x = tuple(float(v) for v in
                              10.0 ** rng.uniform(-300.0, 300.0, size=n))
                else:
                    x = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=n))
                self._assert_same(g, x, int(rng.integers(0, 60)),
                                  float(rng.choice([1e-10, 1e-3, 0.5])))
                compared += 1
        assert compared > 100

    def test_interpreter_fallback_inside_the_loop(self, monkeypatch):
        # a tiny scale of a small x1 overflows the harmonic mean's
        # reciprocal, so the compiled arithmetic raises there
        node = PowerMean(-1.0, (0.5, 0.5),
                         (Scale(1e-200, Coord(0)), Coord(1)))
        g = from_exprs((Sum((node, Coord(0))), Min((Coord(0), Coord(1)))), 2)
        calls = []
        original = PowerMean.evaluate

        def counted(self, point):
            calls.append(point)
            return original(self, point)

        monkeypatch.setattr(PowerMean, "evaluate", counted)
        spectral._trajectory(g, (1e-120, 1.0), 5, 1e-10, True, True)
        # the compiled loop fell back to the interpreter at every iterate
        assert len(calls) == 5
        self._assert_same(g, (1e-120, 1.0), 5)
        self._assert_same(g, (1.0, 1.0), 50)

    def test_overflow_raises_range_error(self):
        g = from_exprs([Sum((Scale(1e308, Coord(0)), Scale(1e308, Coord(1)))),
                        Min((Coord(0), Coord(1)))], 2)
        for gap_stop, residual_stop in MODES:
            with pytest.raises(NumericRangeError):
                spectral._trajectory(g, (1.0, 1.0), 10, 1e-10, gap_stop,
                                     residual_stop)
        self._assert_same(g, (1.0, 1.0), 10)

    def test_underflow_guard_break(self):
        # x2 shrinks by about 1 / 2 per step until it crosses the guard
        g = from_exprs([Coord(0), Min((Scale(1e-3, Coord(1)), Coord(0)))], 2)
        run = spectral._trajectory(g, (1.0, 1.0), 10_000, 1e-10, True, True)
        assert run[0] < 10_000 and run[5] is None and run[6] is None
        self._assert_same(g, (1.0, 1.0), 10_000)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_tiny_budgets(self, budget):
        g = from_exprs([Max((Coord(0), Scale(2.0, Coord(1)))),
                        Min((Coord(0), Scale(0.5, Coord(1))))], 2)
        self._assert_same(g, (1.0, 3.0), budget)
        run = spectral._trajectory(g, (1.0, 3.0), budget, 1e-10, True, True)
        assert run[0] == budget

    def test_one_dimensional(self):
        # x -> f(1) x needs no loop: the plain one stops at the first iterate
        doubling = from_exprs([Max((Scale(2.0, Coord(0)), Coord(0)))], 1)
        zero = from_exprs([Min((Coord(0), Pole(0.0)))], 1)
        overflow = from_exprs(
            [Sum((Scale(1e308, Coord(0)), Scale(1e308, Coord(0))))], 1)
        for g in (doubling, zero, overflow):
            assert g.interior_loop() is None
            for budget in (0, 1, 10):
                for gap_stop, residual_stop in MODES:
                    plain = spectral._plain_trajectory(
                        g, (3.0,), budget, 1e-10, gap_stop, residual_stop,
                        spectral.UNDERFLOW_GUARD)
                    expected = ("NumericRangeError" if plain is None
                                else repr(plain))
                    assert _run_outcome(g, (3.0,), budget, 1e-10, gap_stop,
                                        residual_stop) == expected
        assert _run_outcome(overflow, (3.0,), 10, 1e-10, True, True) == \
            "NumericRangeError"
        assert cs.solve_eigenvector(doubling).eigenvalue == 2.0

    def test_large_dimension(self, rng):
        n = 150
        g = from_exprs([Sum((Scale(float(rng.uniform(0.5, 2.0)), Coord(i)),
                             Min((Coord((i + 1) % n),
                                  Scale(2.0, Coord((i + 7) % n))))))
                        for i in range(n)], n)
        x = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=n))
        self._assert_same(g, x, 40)

    def test_solve_and_bracket_stop_where_they_did_apart(self):
        # the combined run records each result at its own first hit; at a
        # coarse tolerance the gap closes an iterate before the residual
        g = make_schoen(a=(1, 2, 1, 3), b=(2, 1, 1, 1))
        ones = (1.0, 1.0, 1.0, 1.0)
        both = spectral._trajectory(g, ones, 10_000, 0.5, True, True)
        gap = spectral._trajectory(g, ones, 10_000, 0.5, True, False)
        res = spectral._trajectory(g, ones, 10_000, 0.5, False, True)
        assert gap[5][4] < res[6][3]
        assert repr(both[5]) == repr(gap[5]) and repr(both[6]) == repr(res[6])
        assert both[0] == res[0]
        self._assert_same(g, ones, 10_000, 0.5)


def _plain_outcomes(g, x, budget, tol, gap_stop, residual_stop, guard,
                    start=None):
    """(repr of `_plain_trajectory`'s run, repr of the reference loop's),
    or the type of the exception each raised."""
    outcomes = []
    for loop in (spectral._plain_trajectory, reference_plain_trajectory):
        try:
            outcomes.append(repr(loop(g, x, budget, tol, gap_stop,
                                      residual_stop, guard, start)))
        except Exception as exc:  # the exception type is what gets compared
            outcomes.append(type(exc).__name__)
    return tuple(outcomes)


class TestPlainLoopReference:
    """`_plain_trajectory` against the loop it replaced, kept verbatim as
    `conftest.reference_plain_trajectory`: the same float operations in the
    same order, so the runs agree bit for bit."""

    STOPS = ((False, False),) + MODES

    def _assert_same(self, g, x, budget, tol=1e-10,
                     guard=spectral.UNDERFLOW_GUARD):
        for gap_stop, residual_stop in self.STOPS:
            new, old = _plain_outcomes(g, x, budget, tol, gap_stop,
                                       residual_stop, guard)
            assert new == old

    def _assert_same_resumed(self, g, budget, chunk, tol=1e-10):
        # each chunk resumes from the last iterate with the best sandwich
        # as `start`, as a `BracketState` refines
        for gap_stop, residual_stop in self.STOPS:
            x, start, spent = (1.0,) * g.dimension, None, 0
            while spent < budget:
                steps = min(chunk, budget - spent)
                new, old = _plain_outcomes(g, x, steps, tol, gap_stop,
                                           residual_stop,
                                           spectral.UNDERFLOW_GUARD, start)
                assert new == old
                run = spectral._plain_trajectory(
                    g, x, steps, tol, gap_stop, residual_stop,
                    spectral.UNDERFLOW_GUARD, start)
                if run is None or run[0] < steps:
                    break
                spent += steps
                x, start = run[7], run[1:5]

    @staticmethod
    def _random_linear(rng, n):
        exprs = []
        for _ in range(n):
            support = sorted(int(j) for j in rng.choice(
                n, size=int(rng.integers(1, n + 1)), replace=False))
            exprs.append(Linear(tuple(
                (j, float(10.0 ** rng.uniform(-3.0, 3.0))) for j in support)))
        return from_exprs(exprs, n)

    def test_random_linear_maps(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            g = self._random_linear(rng, n)
            x = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=n))
            budget = int(rng.integers(0, 200))
            tol = float(rng.choice([1e-10, 1e-3, 0.5]))
            self._assert_same(g, x, budget, tol)
            self._assert_same_resumed(g, budget, int(rng.integers(1, 40)),
                                      tol)

    def test_random_ast_maps(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 6))
            exprs = [random_tree(rng, n, int(rng.integers(0, 4)))
                     for _ in range(n)]
            for g in (from_exprs(exprs, n),
                      cs.reciprocal_conjugate(from_exprs(exprs, n))):
                if rng.random() < 0.3:
                    x = tuple(float(v) for v in
                              10.0 ** rng.uniform(-300.0, 300.0, size=n))
                else:
                    x = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=n))
                budget = int(rng.integers(0, 60))
                self._assert_same(g, x, budget)
                self._assert_same(g, x, budget, guard=0.5)
                self._assert_same_resumed(g, budget, int(rng.integers(1, 20)))

    def test_guard_break(self):
        # x2 shrinks by about 1 / 2 per step until it crosses the guard
        g = from_exprs([Coord(0), Min((Scale(1e-3, Coord(1)), Coord(0)))], 2)
        run = spectral._plain_trajectory(g, (1.0, 1.0), 10_000, 1e-10, True,
                                         True, spectral.UNDERFLOW_GUARD)
        assert run[0] < 10_000 and run[5] is None and run[6] is None
        self._assert_same(g, (1.0, 1.0), 10_000)
        self._assert_same_resumed(g, 10_000, 300)

    def test_overflow_returns_none(self):
        g = from_exprs([Linear(((0, 1e308), (1, 1e308))),
                        Linear(((0, 1.0),))], 2)
        for gap_stop, residual_stop in self.STOPS:
            assert spectral._plain_trajectory(
                g, (1.0, 1.0), 10, 1e-10, gap_stop, residual_stop,
                spectral.UNDERFLOW_GUARD) is None
        self._assert_same(g, (1.0, 1.0), 10)


def _one_shot(g, budget, tol):
    """The bracket of one run of the whole budget from the all-ones vector."""
    return repr(spectral._core_bracket(g, (1.0,) * g.dimension, budget,
                                       tol)[:6])


def _resumed(g, budget, tol, cuts):
    """The same bracket from a `BracketState` refined in chunks ending at
    `cuts`, then to the end of the budget."""
    state = spectral.BracketState(g, budget, tol)
    for cut in sorted(cuts):
        state.refine(cut - state.iterations)
    state.refine(budget)
    assert state.done
    return repr((state.lo, state.up, state.wlo, state.wup, state.iterations,
                 state.converged))


class TestResumedBracket:
    """A bracket refined in chunks is bit-identical to one long run."""

    def test_raw_trajectory_resumes_exactly(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            g = from_exprs([random_tree(rng, n, int(rng.integers(0, 4)))
                            for _ in range(n)], n)
            x = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=n))
            budget = int(rng.integers(0, 40))
            cut = int(rng.integers(0, budget + 1))
            for h in (g, _interpreted(g)):
                try:
                    whole = spectral._trajectory(h, x, budget, 1e-10, False,
                                                 False)
                    head = spectral._trajectory(h, x, cut, 1e-10, False,
                                                False)
                    if min(head[7]) < spectral.UNDERFLOW_GUARD:
                        continue  # the guard ended the run
                    tail = spectral._trajectory(h, head[7], budget - cut,
                                                1e-10, False, False,
                                                head[1:5])
                except NumericRangeError:
                    continue
                assert repr(tail[1:5] + tail[7:]) == \
                    repr(whole[1:5] + whole[7:])
                assert head[0] + tail[0] == whole[0]

    def test_random_trees_and_conjugates(self, rng):
        compared = 0
        for _ in range(80):
            n = int(rng.integers(1, 6))
            exprs = [random_tree(rng, n, int(rng.integers(0, 4)))
                     for _ in range(n)]
            budget = int(rng.integers(0, 200))
            tol = float(rng.choice([1e-10, 1e-3, 0.5]))
            cuts = [int(c) for c in rng.integers(0, budget + 1, size=3)]
            for g in (from_exprs(exprs, n),
                      cs.reciprocal_conjugate(from_exprs(exprs, n))):
                for h in (g, _interpreted(g)):
                    try:
                        whole = _one_shot(h, budget, tol)
                    except NumericRangeError:
                        continue
                    assert _resumed(h, budget, tol, cuts) == whole
                    compared += 1
        assert compared > 120

    @pytest.mark.parametrize("budget", [0, 1, 15])
    def test_tiny_budgets(self, budget):
        g = from_exprs([Max((Coord(0), Scale(2.0, Coord(1)))),
                        Min((Coord(0), Scale(0.5, Coord(1))))], 2)
        for h in (g, _interpreted(g)):
            whole = _one_shot(h, budget, 1e-10)
            for cut in range(budget + 1):
                assert _resumed(h, budget, 1e-10, [cut]) == whole

    def test_guard_break_on_a_chunk_end(self):
        # x2 shrinks by about 1 / 2 per step until it crosses the guard
        g = from_exprs([Coord(0), Min((Scale(1e-3, Coord(1)), Coord(0)))], 2)
        for h in (g, _interpreted(g)):
            whole = spectral._core_bracket(h, (1.0, 1.0), 10_000, 1e-10)
            stop = whole[4]
            assert stop < 10_000 and not whole[5]
            state = spectral.BracketState(h, 10_000, 1e-10)
            state.refine(stop)  # the guard fires on the chunk's last step
            assert state.done and state.iterations == stop
            assert _resumed(h, 10_000, 1e-10, [stop - 1, stop]) == \
                _one_shot(h, 10_000, 1e-10)

    def test_refinement_only_narrows(self, rng):
        g = random_mplus_map(rng, 4)
        state = spectral.BracketState(g, 10_000, 1e-10)
        previous = (state.lo, state.up)
        while not state.done:
            state.refine(7)
            assert previous[0] <= state.lo <= state.up <= previous[1]
            previous = (state.lo, state.up)


def _noted_face_exprs(monkeypatch, exprs, keep, fill):
    """`maps.face_exprs(exprs, keep, fill)` and whether `_substitute`
    rounded anything its way: a power mean's weights are divided by their
    float sum, and by less when it loses terms, one left with a single
    term is that term, and nested scales are merged into one factor.  The
    pinned body computes the original means and factors, so only such
    faces may differ from it in the last bits."""
    rounded = []
    substitute = maps._substitute

    def noted(e, table):
        out = substitute(e, table)
        if type(out) is not Pole:
            if type(e) is PowerMean and not (
                    type(out) is PowerMean and out.weights == e.weights):
                rounded.append(e)
            if type(e) is Scale and not (
                    type(out) is Scale and out.factor == e.factor):
                rounded.append(e)
        return out

    monkeypatch.setattr(maps, "_substitute", noted)
    try:
        return maps.face_exprs(exprs, keep, fill), bool(rounded)
    finally:
        monkeypatch.undo()


def _pinned_run(body_map, keep, inf, shape, kept, budget):
    """The trajectory of the face of `body_map` on `keep` iterated on its
    compiled body with the others pinned (inf on `inf`, else 0), or the
    type of the exception raised; `shape` on `kept` is the same face."""
    k = kept.bit_count()
    face = spectral._Pinned(k, maps.face_loop(body_map, keep, inf, shape,
                                              kept))
    return _run_outcome(face, (1.0,) * k, budget, 1e-10, True, True)


def _stable_subsets(f, side):
    """Every nonempty proper set of f's coordinates whose complement the
    hypergraph of `side` leaves invariant: the stable faces of that side."""
    probe = HypergraphProbe(f, side)
    n = f.dimension
    return [keep for keep in range(1, (1 << n) - 1)
            if probe.reach(SubsetMask(keep, n).complement()).complement()
            .bits == keep]


class TestPinnedFaces:
    """A face iterated on its map's compiled body with the other
    coordinates pinned, against the face map `face_exprs` builds: the same
    trajectory bit for bit, except on faces that `_substitute` rounds its
    way (`_noted_face_exprs`), which agree within DEFAULT_TOL.  This
    covers every stable face of both sides, the lambda side's as faces of
    the conjugate, and the faces of the faces pruning checks, whose inf
    pins come first."""

    BUDGET = 40

    def _compare(self, pinned, face_map, rounded, seen):
        built = _run_outcome(face_map, (1.0,) * face_map.dimension,
                             self.BUDGET, 1e-10, True, True)
        runs = pinned.startswith("(") and built.startswith("(")
        if not rounded or pinned == built or not runs:
            assert pinned == built
            seen["exact"] += 1
            return
        # the named exception: brackets within the tolerance
        seen["rounded"] += 1
        a, b = (eval(run, {"inf": INF}) for run in (pinned, built))
        for x, y in zip(a[1:3], b[1:3]):
            assert x == pytest.approx(y, rel=spectral.DEFAULT_TOL)

    def test_random_trees_with_poles(self, monkeypatch, rng):
        seen = {"exact": 0, "rounded": 0, "mixed": 0, "lambda": 0}
        for _ in range(200):
            n = int(rng.integers(2, 5))
            f = from_exprs([random_tree(rng, n, int(rng.integers(1, 4)))
                            for _ in range(n)], n)
            try:
                maps.reject_pole_outputs(f)
            except cs.ConespecError:
                continue
            conj = maps.conjugate_map(f)
            for g in (f, conj):
                if g.interior_loop() is None:
                    continue
                for keep in _stable_subsets(g, Side.LOWER):
                    face, rounded = _noted_face_exprs(
                        monkeypatch, g.exprs, SubsetMask(keep, n), 0.0)
                    k = keep.bit_count()
                    self._compare(_pinned_run(g, keep, 0, g, keep,
                                              self.BUDGET),
                                  from_exprs(face, k), rounded, seen)
                    seen["lambda"] += g is conj
            if f.interior_loop() is None:
                continue
            # a pruning face's analyzer on K pins the rest to inf first
            for outer in _stable_subsets(f, Side.UPPER):
                outer_exprs, outer_rounded = _noted_face_exprs(
                    monkeypatch, f.exprs, SubsetMask(outer, n), INF)
                g = from_exprs(outer_exprs, outer.bit_count())
                positions = SubsetMask(outer, n).indices()
                for keep in _stable_subsets(g, Side.LOWER):
                    face, rounded = _noted_face_exprs(
                        monkeypatch, g.exprs, SubsetMask(keep, g.dimension),
                        0.0)
                    k = keep.bit_count()
                    root = cs.core.scatter_bits(keep, positions)
                    self._compare(_pinned_run(f, root, ~outer & ((1 << n) - 1),
                                              g, keep, self.BUDGET),
                                  from_exprs(face, k),
                                  rounded or outer_rounded, seen)
                    seen["mixed"] += 1
        assert min(seen.values()) > 0 and seen["exact"] > seen["rounded"]

    def test_inf_pins_come_before_zero_pins(self):
        # the face of f that pins x2 to inf, and then x3 to 0: its first
        # output is min(inf, 2 x1) = 2 x1, where a geometric mean that took
        # the zero first would make it 0
        f = from_exprs([Min((PowerMean(0.0, (0.5, 0.5), (Coord(1), Coord(2))),
                             Scale(2.0, Coord(0)))), Coord(1), Coord(2)], 3)
        outer = maps.face_map(f, SubsetMask(0b101, 3), INF)
        face = maps.face_map(outer, SubsetMask(0b01, 2), 0.0)
        assert face.exprs == (Scale(2.0, Coord(0)),)
        pinned = _pinned_run(f, 0b001, 0b010, outer, 0b01, 10)
        assert pinned == _run_outcome(face, (1.0,), 10, 1e-10, True, True)
        assert eval(pinned, {"inf": INF})[1:3] == (2.0, 2.0)
