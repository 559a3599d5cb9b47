"""AST nodes: means, tensor maps, game conjugates, flags, sparsity."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conespec as cs
from conespec.core import INF, ExtVec, Side, SubsetMask
from conespec.errors import EmptySupportError, NumericRangeError, ZeroRowError
from conespec import maps
from conespec.graphs import HypergraphProbe
from conespec.maps import (Coord, Linear, Max, Min, Pole, PowerMean, Scale,
                           Sum, eval_mean, from_exprs,
                           monomial, pin, theta)

from conftest import (make_game, make_schoen, make_tensor_example,
                      random_interior, random_mplus_map, random_tree,
                      reference_face, tensor_example_raw,
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
        f = cs.build_shapley(game).conjugate
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
        f = cs.build_shapley(game).conjugate
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

    def test_flags_derived_from_expressions(self):
        # every (1, t) with 1/2 <= t <= 2 is an eigenvector, so the flags
        # must not claim the uniqueness that analyticity would give
        exprs = (Min((Coord(0), Scale(2.0, Coord(1)))),
                 Min((Coord(1), Scale(2.0, Coord(0)))))
        f = from_exprs(exprs, 2)
        assert not f.multiplicatively_convex and not f.analytic
        v = cs.classify(f)
        assert v.kind is cs.VerdictKind.NONEMPTY_BOUNDED
        assert v.uniqueness is cs.Uniqueness.UNKNOWN
        for flags in ({"multiplicatively_convex": True, "analytic": True},
                      {"analytic": True}, {"multiplicatively_convex": True}):
            with pytest.raises(ValueError, match="contradicts"):
                cs.ConeMap(dimension=2, exprs=exprs, **flags)
        assert cs.ConeMap(dimension=2, exprs=exprs, analytic=False) == f

    def test_passed_flags_must_match_on_ast_maps_only(self):
        exprs = cs.matrix_map([[1, 2], [3, 0]]).exprs
        with pytest.raises(ValueError, match="contradicts"):
            cs.ConeMap(dimension=2, exprs=exprs, analytic=False)
        black = cs.ConeMap(dimension=2, evaluator=lambda x: x,
                           multiplicatively_convex=True, analytic=True)
        assert black.multiplicatively_convex and black.analytic
        plain = cs.ConeMap(dimension=2, evaluator=lambda x: x)
        assert plain.multiplicatively_convex is False
        assert plain.analytic is False

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


    def test_zero_factor_absorbs_first(self):
        # a geometric mean with factors inf and 0 is 0, whichever comes first
        for terms in ((Pole(INF), Coord(0)), (Coord(0), Pole(INF))):
            e = PowerMean(0.0, (0.5, 0.5), terms)
            assert e.evaluate((0.0,)) == 0.0
            assert pin(e, {0: 0.0}) == Pole(0.0)


class TestFaceFold:
    """`face_map` pins and renumbers in one fold, exactly as pinning and
    then renumbering in a second pass (`conftest.reference_face`)."""

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=300)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
           bits=st.integers(1, 2 ** 6 - 1), depth=st.integers(0, 4),
           fill=st.sampled_from([0.0, INF]))
    def test_matches_pin_then_renumber(self, seed, n, bits, depth, fill):
        rng = np.random.default_rng(seed)
        exprs = tuple(random_tree(rng, n, depth) for _ in range(n))
        keep = SubsetMask(bits & ((1 << n) - 1) or 1, n)
        try:
            expected = reference_face(exprs, keep, fill)
        except NumericRangeError:
            with pytest.raises(NumericRangeError):
                maps.face_map(from_exprs(exprs, n), keep, fill)
            return
        if expected is None:
            with pytest.raises(ValueError, match="collapses to a pole"):
                maps.face_map(from_exprs(exprs, n), keep, fill)
        else:
            face = maps.face_map(from_exprs(exprs, n), keep, fill)
            assert repr(face.exprs) == repr(expected)


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

    def test_face_and_restriction_pin_alike(self):
        from conespec.core import ConeMap
        f = ConeMap(dimension=3, evaluator=self._bb().evaluator,
                    multiplicatively_convex=True)
        J = SubsetMask.of([0, 2], 3)
        for fill, pinned in ((0.0, 0.0), (INF, maps.INF_SURROGATE)):
            face = maps.face_map(f, J, fill)
            restriction = maps.restrict_map(f, J, fill)
            out = f.evaluator((1.0, pinned, 3.0))
            assert face.eval_interior((1.0, 3.0)) == (out[0], out[2])
            assert restriction.eval_interior((1.0, 2.0, 3.0)) == \
                (out[0], fill, out[2])
            for g in (face, restriction):
                assert (g.multiplicatively_convex, g.analytic) == \
                    (True, False)


class TestConjugateOfAZeroTerm:
    """A geometric mean with a term that is 0 whatever is pinned is 0,
    since 0 absorbs before inf, so its conjugate is the pole inf and
    never the 0 that the mirrored mean would give."""

    F = from_exprs([Linear(((0, 2.0), (1, 1.0), (2, 1.0))),
                    Max((PowerMean(0.0, (0.5, 0.5), (Pole(INF), Pole(0.0))),
                         Coord(2))),
                    Coord(1)], 3)

    def test_conjugate_is_the_reciprocal_map(self):
        x = (1.0, 2.0, 3.0)
        g = maps.conjugate_map(self.F)
        assert g.exprs[1] == Min((Pole(INF), Coord(2)))
        assert g.eval_interior(tuple(1.0 / v for v in x)) == pytest.approx(
            tuple(1.0 / v for v in self.F.eval_interior(x)), rel=1e-15)

    def test_upper_hypergraph_is_the_conjugates_lower_one(self):
        # the lambda side stabilizes the conjugate's faces with f's upper
        # hypergraph (`spectral.FaceSide.probe`)
        rng = np.random.default_rng(0)
        corpus = [self.F]
        while len(corpus) < 150:
            n = int(rng.integers(2, 6))
            f = from_exprs([random_tree(rng, n, 3) for _ in range(n)], n)
            try:
                maps.reject_pole_outputs(f)
            except cs.ConespecError:
                continue
            corpus.append(f)
        for f in corpus:
            n = f.dimension
            up = HypergraphProbe(f, Side.UPPER)
            low = HypergraphProbe(maps.conjugate_map(f), Side.LOWER)
            for tail in range(1 << n):
                mask = SubsetMask(tail, n)
                assert up.hyperarc_targets(mask) == low.hyperarc_targets(mask)


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


def _outcome(evaluate, x):
    """The repr of the outputs, or the type of the exception raised."""
    try:
        return repr(evaluate(x))
    except Exception as exc:  # the exception type is what gets compared
        return type(exc).__name__


def _loop_evaluator(exprs):
    """x -> the outputs of `exprs` as their compiled (f + id) loop
    evaluates them: by its body, asked for every output, and by its
    interpreter where the body raises; None when nothing is compiled."""
    loop = from_exprs(exprs, len(exprs)).interior_loop()
    if loop is None:
        return None
    body, interpret = loop.args
    full = (1 << len(exprs)) - 1

    def evaluate(x):
        try:
            return body(full, *x)
        except (ArithmeticError, ValueError):
            return interpret(x)

    return evaluate


class TestCompiledInterior:
    """The body of a compiled (f + id) loop, with its fallback, against
    the interpreter that evaluates every point of the map."""

    @staticmethod
    def _interpreted(exprs):
        return lambda x: tuple(e.evaluate(x) for e in exprs)

    def test_random_trees_match_interpreter(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 6))
            exprs = [random_tree(rng, n, int(rng.integers(0, 5)))
                     for _ in range(n)]
            for g in (from_exprs(exprs, n),
                      cs.reciprocal_conjugate(from_exprs(exprs, n))):
                slow = self._interpreted(g.exprs)
                fast = _loop_evaluator(g.exprs) or slow
                for _ in range(6):
                    if rng.random() < 0.5:
                        x = tuple(float(v) for v in
                                  10.0 ** rng.uniform(-300.0, 300.0, size=n))
                    else:
                        x = tuple(float(v) for v in
                                  rng.uniform(0.1, 10.0, size=n))
                    assert _outcome(fast, x) == _outcome(slow, x)

    def test_single_term_min_max_and_poles(self):
        exprs = (Min((Scale(2.0, Coord(0)),)),
                 Max((Sum((Coord(1), Pole(0.0))),)),
                 Sum((Pole(INF), Coord(0))),
                 PowerMean(-1.0, (0.5, 0.5), (Pole(INF), Coord(2))))
        fast = _loop_evaluator(exprs)
        for x in ((1.0, 2.0, 3.0, 4.0), (1e-300, 1e300, 5e-324, 1.0)):
            assert repr(fast(x)) == repr(self._interpreted(exprs)(x))

    @pytest.mark.parametrize("node, x, falls_back", [
        # an underflowing scale puts a zero under a geometric mean's log,
        # which the body's guard takes as the mean's zero
        (PowerMean(0.0, (0.5, 0.5), (Scale(1e-200, Coord(0)), Coord(1))),
         (1e-200, 1.0), False),
        # the same zero raised to a negative power
        (PowerMean(-1.0, (0.5, 0.5), (Scale(1e-200, Coord(0)), Coord(1))),
         (1e-200, 1.0), False),
        # a power that overflows: the interpreter's _pow_safe gives inf
        (PowerMean(2.0, (0.5, 0.5), (Coord(0), Coord(1))), (1e200, 1.0),
         True),
        # every term of a negative-exponent mean overflows to inf
        (PowerMean(-0.5, (0.5, 0.5), (Scale(1e200, Coord(0)),
                                      Scale(1e200, Coord(1)))),
         (1e200, 1e200), True),
    ], ids=[f"node{k}-x{k}" for k in range(4)])
    def test_fallback_points(self, monkeypatch, node, x, falls_back):
        fast = _loop_evaluator((node, Coord(0)))
        ordinary = repr(self._interpreted((node, Coord(0)))((1.0, 1.0)))
        expected = repr(self._interpreted((node, Coord(0)))(x))
        calls = []
        original = PowerMean.evaluate

        def counted(self, point):
            calls.append(point)
            return original(self, point)

        # the compiled code inlines the mean, so only the fallback calls it
        monkeypatch.setattr(PowerMean, "evaluate", counted)
        assert repr(fast((1.0, 1.0))) == ordinary
        assert calls == []
        assert repr(fast(x)) == expected
        assert calls == ([x] if falls_back else [])

    def test_tree_too_deep_to_compile(self):
        e = Coord(0)
        for _ in range(250):
            e = Scale(1.5, Sum((e, Coord(1))))
        f = from_exprs((e, Coord(0)), 2)
        x = (1.0, 2.0)
        assert f.interior_loop() is None and f._body is False
        assert f.eval_interior(x) == (e.evaluate(x), 1.0)

    def test_cached_on_the_map(self):
        f = make_schoen()
        assert f._body is None
        loop = f.interior_loop()
        assert loop is not None and loop.args[0] is f._body
        cs.solve_eigenvector(f)
        assert f.interior_loop().args[0] is f._body
        # a map without a body keeps that too
        g = cs.matrix_map([[1.0, 2.0], [3.0, 4.0]])
        assert g.interior_loop() is None and g._body is False

    def test_one_compile_per_map_and_one_loop_per_dimension(self,
                                                              monkeypatch):
        maps._loop(4)  # the dimension's loop, compiled at most once
        maps.shape_code.cache_clear()
        sources = []

        def counted(source, filename, mode):
            sources.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(maps, "compile", counted, raising=False)
        # b scales a harmonic coupling that already has a factor 0.5, so f
        # and g differ in one constant only; a = 2 adds a factor to the
        # first row of h
        f, g = make_schoen(b=(3, 1, 1, 1)), make_schoen(b=(5, 1, 1, 1))
        h = make_schoen(a=(2, 1, 1, 1), b=(3, 1, 1, 1))
        x = (1.0, 2.0, 3.0, 4.0)
        # the interpreter evaluates points and compiles nothing
        assert f.eval_interior(x) == self._interpreted(f.exprs)(x)
        assert sources == []
        loop = f.interior_loop()
        cs.solve_eigenvector(f)
        assert f.interior_loop().args[0] is loop.args[0]
        assert sources == ["<body n=4>"]
        assert g.interior_loop().func is loop.func
        assert sources == ["<body n=4>"]
        assert h.interior_loop().func is loop.func
        assert sources == ["<body n=4>"] * 2

    def test_large_map_has_a_loop(self):
        n = 200
        f = cs.max_times_map([[2.0 if j in (i, (i + 1) % n) else 0.0
                               for j in range(n)] for i in range(n)])
        x = tuple(1.0 + j for j in range(n))
        assert f.eval_interior(x) == self._interpreted(f.exprs)(x)
        assert f.interior_loop() is not None
        assert cs.solve_eigenvector(f).eigenvalue == 2.0

    def test_matrix_map_is_never_compiled(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a linear map was compiled")

        # shadows the builtin for the code generator only
        monkeypatch.setattr(maps, "compile", refuse, raising=False)
        f = cs.matrix_map([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0],
                           [0.5, 3.0, 0.0]])
        assert cs.classify(f).kind is cs.VerdictKind.NONEMPTY_BOUNDED
        cs.cw_upper(cs.restrict_lower(f, SubsetMask.of([0, 1], 3)))
        # the guard does see compilation: the conjugate has power means
        with pytest.raises(AssertionError):
            cs.reciprocal_conjugate(f).interior_loop()

    def test_compiled_map_freed_by_reference_counting(self):
        import gc
        import weakref
        g = from_exprs([Max((Coord(0), Scale(2.0, Coord(1)))),
                        Min((Coord(0), Coord(1)))], 2)
        assert g.interior_loop() is not None
        body = weakref.ref(g.interior_loop().args[0])
        enabled = gc.isenabled()
        gc.disable()
        try:
            del g
            assert body() is None  # no cycle keeps the compiled body alive
        finally:
            if enabled:
                gc.enable()


def _recast(e, rng):
    """A tree of e's shape with its factors and weights drawn again.

    Exponents come from a few values, so they are kept: drawn again, they
    could change which constants are equal, and so the shape.
    """
    kind = type(e)
    if kind is Scale:
        return Scale(float(rng.uniform(0.1, 3.0)), _recast(e.child, rng))
    if kind is Linear:
        return Linear(tuple((j, float(rng.uniform(0.1, 3.0)))
                            for j, _ in e.nonzeros))
    if kind in (Sum, Min, Max):
        return kind(tuple(_recast(t, rng) for t in e.terms))
    if kind is PowerMean:
        weights = [float(w) for w in rng.uniform(0.2, 1.0, size=len(e.terms))]
        return PowerMean(e.r, tuple(w / sum(weights) for w in weights),
                         tuple(_recast(t, rng) for t in e.terms))
    return e  # Coord and Pole hold no constant of their own


def _emitted(exprs):
    """The body source of `exprs` and the constants it takes."""
    emitter = maps._Emitter(len(exprs))
    return "".join(emitter.emit(e) + ", " for e in exprs), emitter.constants


class TestSharedShapes:
    """Maps of one shape share compiled code and keep their own constants."""

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=60)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.booleans())
    def test_same_shape_other_constants(self, seed, n, twin_first):
        rng = np.random.default_rng(seed)
        exprs = [random_tree(rng, n, int(rng.integers(0, 5)))
                 for _ in range(n)]
        twin = [_recast(e, rng) for e in exprs]
        assert _emitted(twin)[0] == _emitted(exprs)[0]
        f, g = from_exprs(exprs, n), from_exprs(twin, n)
        for h in ((g, f) if twin_first else (f, g)):
            h.interior_loop()
        if f.interior_loop() is not None:
            assert f.interior_loop().args[0].__code__ is \
                g.interior_loop().args[0].__code__
        for _ in range(6):
            if rng.random() < 0.5:
                x = tuple(float(v) for v in
                          10.0 ** rng.uniform(-300.0, 300.0, size=n))
            else:
                x = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=n))
            for h in (f, g):
                slow = TestCompiledInterior._interpreted(h.exprs)
                assert _outcome(_loop_evaluator(h.exprs) or slow, x) == \
                    _outcome(slow, x)

    def test_one_parameter_per_distinct_value(self):
        exprs = (Min((Scale(2.0, Coord(0)), Pole(0.0))),
                 Min((Scale(2.0, Coord(1)), Pole(-0.0))))
        assert repr(_emitted(exprs)[1]) == "[2.0, 0.0, -0.0]"
        x = (1.0, 3.0)
        assert repr(_loop_evaluator(exprs)(x)) == "(0.0, -0.0)"

    def test_each_map_keeps_its_out_of_line_nodes(self):
        rows = (Min((Coord(0), Coord(1))),)
        f = from_exprs((Max((Linear(((0, 1.0), (1, 2.0))), Coord(1))),)
                       + rows, 2)
        g = from_exprs((Max((Linear(((1, 5.0),)), Coord(1))),) + rows, 2)
        assert _emitted(f.exprs)[0] == _emitted(g.exprs)[0]
        x = (3.0, 0.5)
        assert f.interior_loop().args[0](0b11, *x) == (4.0, 0.5)
        assert g.interior_loop().args[0](0b11, *x) == (2.5, 0.5)
        assert f.interior_loop().args[0].__code__ is \
            g.interior_loop().args[0].__code__

    def test_maps_and_games_freed_after_use(self):
        f = make_schoen(b=(3, 1, 1, 1))
        T = cs.build_shapley(make_game(3.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                       0.4, 0.6))
        cs.classify(f)
        cs.mean_payoff(T, 0, 16)
        refs = weakref.ref(f), weakref.ref(T)
        del f, T
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_at_most_128_shapes_kept(self):
        for k in range(1, 140):
            body = from_exprs([Sum((Coord(0),) * k), Coord(1)], 2)
            assert body.interior_loop().args[0](0b11, 1.0, 2.0) == \
                (float(k), 2.0)
        info = maps.shape_code.cache_info()
        assert info.maxsize == 128 and info.currsize <= 128


class TestMalformedMaps:
    """A map whose outputs are not expression trees over its coordinates,
    or hold a constant no float can hold, is refused when it is built."""

    @pytest.mark.parametrize("output", [
        Coord(5), Coord(-1), Coord(1.0), Linear(((0, 1.0), (7, 1.0))),
        Sum((Coord(0), Max((Coord(1), Coord(2))))),
    ])
    def test_coordinate_outside_the_map(self, output):
        with pytest.raises(ValueError, match="is not an int in"):
            cs.ConeMap(dimension=2, exprs=(output, Coord(0)))

    def test_classify_of_an_out_of_range_coordinate(self):
        with pytest.raises(ValueError, match="coordinate 5"):
            cs.classify(cs.ConeMap(dimension=2, exprs=(Coord(5), Coord(0))))

    @pytest.mark.parametrize("output", [1.0, Sum((Coord(0), 1.0)),
                                        Scale(2.0, "x0")])
    def test_output_that_is_not_a_node(self, output):
        with pytest.raises(ValueError, match="is not an expression node"):
            cs.ConeMap(dimension=2, exprs=(Coord(1), output))

    @pytest.mark.parametrize("output", [
        Scale(10 ** 400, Coord(0)), Linear(((0, 1.0), (1, 10 ** 400))),
        PowerMean(10 ** 400, (0.5, 0.5), (Coord(0), Coord(1))),
    ])
    def test_constant_outside_the_float_range(self, output):
        with pytest.raises(NumericRangeError, match="float range"):
            cs.ConeMap(dimension=2, exprs=(output, Coord(0)))

    def test_int_constants_in_range_are_kept(self):
        f = cs.ConeMap(dimension=2, exprs=(Scale(2, Coord(1)),
                                           Linear(((0, 3),))))
        assert f.eval_interior((1.0, 1.0)) == (2.0, 3.0)


class TestCoefficientRange:
    """Coefficients computed by transforms that leave the float range."""

    @pytest.mark.parametrize("e", [
        Scale(1e-323, Coord(0)),
        Linear(((0, 1e-323),)),
        Linear(((0, 1e-320), (1, 1e-320))),
    ])
    def test_conjugate_of_a_subnormal_coefficient(self, e):
        with pytest.raises(NumericRangeError):
            maps.conjugate_expr(e)

    def test_merged_scales_overflow(self):
        with pytest.raises(NumericRangeError):
            maps._scale(1e200, Scale(1e200, Coord(0)))
        with pytest.raises(NumericRangeError):
            maps.conjugate_expr(Scale(1e-200, Scale(1e-200, Coord(0))))
        assert maps._scale(1e200, Scale(3e-200, Coord(0))) == \
            Scale(1e200 * 3e-200, Coord(0))

    def test_invalid_factor_still_a_value_error(self):
        with pytest.raises(ValueError):
            maps._scale(-1.0, Scale(2.0, Coord(0)))

    @pytest.mark.parametrize("r", [1e-320, -1e-320, -1e-4])
    def test_power_mean_renormalization_leaves_the_range(self, r):
        # pinning x1 leaves half the weight: the factor 0.5 ** (1 / r) is
        # 0, inf, or raises OverflowError in floating point
        f = from_exprs([Coord(0),
                        PowerMean(r, (0.5, 0.5), (Coord(0), Coord(1)))], 2)
        fill = 0.0 if r > 0.0 else INF
        with pytest.raises(NumericRangeError, match=repr(r)):
            maps.face_map(f, SubsetMask.of([1], 2), fill)

    @pytest.mark.parametrize("table, value", [
        ([[[1e308, 1e308], [1e308, 1e308]], [[1, 1], [1, 1]]], "inf"),
        ([[[1e308, 1e-300], [1, 1]], [[1, 1], [1, 1]]], "1e-300"),
    ], ids=["sum_overflows", "weight_underflows"])
    def test_tensor_coefficients_leave_the_range(self, table, value):
        with pytest.raises(NumericRangeError, match=value):
            cs.build_tensor_map(table)
