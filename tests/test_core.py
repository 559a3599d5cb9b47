"""Vectors, projections, restrictions, conjugation, Hilbert metric."""

import math

import pytest

import conespec as cs
from conespec.core import INF, ExtVec, Side, SubsetMask
from conespec.errors import MixedPolesError

from conftest import (SEEDS, make_schoen, make_tensor_example,
                      random_interior, random_mplus_map)


def mask(ix, n):
    return SubsetMask.of([i - 1 for i in ix], n)


class TestExtVec:
    def test_side_detection(self):
        assert ExtVec.of([1.0, 2.0]).side is Side.INTERIOR
        assert ExtVec.of([0.0, 2.0]).side is Side.LOWER
        assert ExtVec.of([INF, 2.0]).side is Side.UPPER

    def test_mixed_poles_rejected(self):
        with pytest.raises(MixedPolesError):
            ExtVec.of([0.0, INF])

    def test_invalid_scalars_rejected(self):
        with pytest.raises(ValueError):
            ExtVec.of([-1.0, 2.0])
        with pytest.raises(ValueError):
            ExtVec.of([float("nan"), 1.0])

    def test_support(self):
        assert ExtVec.of([0.0, 2.0, 1.0]).support().indices() == (1, 2)
        assert ExtVec.of([INF, 2.0, 1.0]).support().indices() == (1, 2)


class TestProject:
    def test_keep_and_zero_fill(self):
        x = ExtVec.interior([2.0, 3.0])
        assert cs.project(x, mask([1], 2), 0.0).entries == (2.0, 0.0)

    def test_keep_and_inf_fill(self):
        x = ExtVec.interior([2.0, 3.0])
        assert cs.project(x, mask([1], 2), INF).entries == (2.0, INF)

    def test_full_mask_is_identity(self):
        x = ExtVec.interior([2.0, 3.0, 5.0])
        assert cs.project(x, SubsetMask.full(3), 0.0).entries == x.entries

    def test_mixed_pole_rejected(self):
        x = ExtVec.of([INF, 3.0])
        with pytest.raises(MixedPolesError):
            cs.project(x, mask([1], 2), 0.0)


class TestRestrict:
    def test_identity_lower(self):
        f = cs.matrix_map([[1, 0], [0, 1]])
        g = cs.restrict_lower(f, mask([1], 2))
        assert g(ExtVec.interior([2, 3])).entries == (2.0, 0.0)

    def test_identity_upper(self):
        f = cs.matrix_map([[1, 0], [0, 1]])
        g = cs.restrict_upper(f, mask([1], 2))
        assert g(ExtVec.interior([2, 3])).entries == (2.0, INF)

    def test_jordan_block_lower(self):
        f = cs.matrix_map([[1, 1], [0, 1]])
        g = cs.restrict_lower(f, mask([2], 2))
        assert g(ExtVec.interior([1, 1])).entries == (0.0, 1.0)

    def test_schoen_lower_pair(self):
        # restriction to {1, 3} decouples into the diagonal scalings
        a = (1.5, 1.0, 2.5, 1.0)
        f = make_schoen(a=a)
        g = cs.restrict_lower(f, mask([1, 3], 4))
        out = g(ExtVec.interior([2.0, 7.0, 3.0, 9.0])).entries
        assert out == pytest.approx((a[0] * 2.0, 0.0, a[2] * 3.0, 0.0))

    def test_schoen_upper_pair(self):
        # pinning {1, 2} to inf turns the cross couplings into linear terms
        f = make_schoen()
        g = cs.restrict_upper(f, mask([3, 4], 4))
        x3, x4 = 2.0, 3.0
        out = g(ExtVec.interior([1.0, 1.0, x3, x4])).entries
        th = 1.0 / (1.0 / x3 + 1.0 / x4)
        assert out[0] == INF and out[1] == INF
        assert out[2] == pytest.approx(x3 + th + x4 + x3)
        assert out[3] == pytest.approx(x4 + th + x4 + x3)

    def test_sandwich_on_samples(self, rng):
        for f in (random_mplus_map(rng, 4), make_schoen()):
            n = f.dimension
            for _ in range(20):
                x = random_interior(rng, n)
                bits = int(rng.integers(1, (1 << n) - 1))
                J = SubsetMask(bits, n)
                fx = f(x).entries
                low = cs.restrict_lower(f, J)(x).entries
                up = cs.restrict_upper(f, J)(x).entries
                for a, b, c in zip(low, fx, up):
                    assert a <= b * (1 + 1e-12)
                    assert b <= c * (1 + 1e-12) or c == INF


class TestReciprocal:
    def test_entrywise(self):
        from conespec.core import reciprocal
        assert reciprocal(ExtVec.interior([2.0, 4.0])).entries == (0.5, 0.25)

    def test_pole_swap(self):
        from conespec.core import reciprocal
        x = ExtVec.of([0.0, 2.0])
        assert reciprocal(x).entries == (INF, 0.5)
        assert reciprocal(reciprocal(x)).entries == x.entries

    def test_involution_extensionally(self, rng):
        f = random_mplus_map(rng, 3)
        g = cs.reciprocal_conjugate(cs.reciprocal_conjugate(f))
        for _ in range(10):
            x = random_interior(rng, 3)
            assert f(x).entries == pytest.approx(g(x).entries, rel=1e-12)

    def test_one_dimensional_radius_inverts(self):
        f = cs.matrix_map([[2.0]])
        g = cs.reciprocal_conjugate(f)
        assert g(ExtVec.interior([3.0])).entries == pytest.approx((1.5,))
        b = cs.cw_upper(g)
        assert b.upper == pytest.approx(0.5)


class TestHilbert:
    def test_scale_invariance(self):
        x = ExtVec.interior([1.0, 2.0, 0.5])
        y = ExtVec.interior([3.0, 6.0, 1.5])
        assert cs.hilbert_distance(x, y) == pytest.approx(0.0, abs=1e-14)

    def test_direct_formula(self):
        x = ExtVec.interior([1.0, 1.0])
        y = ExtVec.interior([1.0, math.e])
        assert cs.hilbert_distance(x, y) == pytest.approx(1.0)

    def test_brute_force_value(self):
        # max over i, j of (y_i x_j)/(x_i y_j) for x=(2,1), y=(1,2) is 4
        x, y = (2.0, 1.0), (1.0, 2.0)
        best = max(y[i] * x[j] / (x[i] * y[j])
                   for i in range(2) for j in range(2))
        assert best == 4.0
        d = cs.hilbert_distance(ExtVec.interior(x), ExtVec.interior(y))
        assert d == pytest.approx(math.log(4.0))

    def test_symmetry_and_positivity(self, rng):
        for _ in range(25):
            x = random_interior(rng, 5)
            y = random_interior(rng, 5)
            d1 = cs.hilbert_distance(x, y)
            d2 = cs.hilbert_distance(y, x)
            assert d1 == pytest.approx(d2, abs=1e-12)
            assert d1 >= 0.0


class TestDimensionChecks:
    """A vector or mask of the wrong dimension is a ValueError at the
    library boundary."""

    def test_map_needs_a_coordinate(self):
        with pytest.raises(ValueError, match="at least 1"):
            cs.matrix_map([])
        with pytest.raises(ValueError, match="at least 1"):
            cs.ConeMap(dimension=0, evaluator=lambda x: x)

    def test_starting_points(self):
        f = cs.matrix_map([[1, 1], [1, 1]])
        x = ExtVec.interior([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            cs.iterate_normalized(f, x, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            cs.solve_eigenvector(f, x)

    def test_sparsity_probe_point(self):
        f = cs.matrix_map([[1.0] * 4] * 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            cs.sparsity_probe(f, ExtVec.interior([1.0] * 5))

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
    @pytest.mark.parametrize("f", [
        cs.matrix_map([[1, 2], [3, 4]]),
        cs.from_exprs([cs.maps.Min((cs.maps.Coord(0), cs.maps.Coord(1))),
                       cs.maps.Coord(0)], 2),
        cs.ConeMap(dimension=2, evaluator=lambda x: (x[0] + x[1], x[0]))],
        ids=["matrix", "nonlinear", "black_box"])
    def test_interior_point(self, f, point):
        with pytest.raises(ValueError, match="dimension mismatch"):
            f.eval_interior(point)
        assert len(f.eval_interior((1.0, 2.0))) == 2

    @pytest.mark.parametrize("restrict", ["restrict_lower", "restrict_upper"])
    def test_restriction_mask(self, restrict):
        f = cs.matrix_map([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            getattr(cs, restrict)(f, mask([1], 3))
        with pytest.raises(ValueError, match="nonempty"):
            getattr(cs, restrict)(f, mask([], 2))


class TestMapProperties:
    def _maps(self, rng):
        return [random_mplus_map(rng, 4), make_schoen(),
                make_tensor_example()]

    def test_homogeneity(self, rng):
        for f in self._maps(rng):
            n = f.dimension
            for t in (0.5, 2.0, 10.0):
                x = random_interior(rng, n)
                fx = f(x).entries
                tx = ExtVec.interior([t * v for v in x.entries])
                ftx = f(tx).entries
                err = max(abs(a - t * b) for a, b in zip(ftx, fx))
                assert err <= 1e-12 * max(t * b for b in fx)

    def test_monotonicity(self, rng):
        for f in self._maps(rng):
            n = f.dimension
            for _ in range(15):
                x = random_interior(rng, n)
                bump = rng.uniform(0.0, 1.0, size=n)
                y = ExtVec.interior([a + b for a, b in zip(x.entries, bump)])
                fx, fy = f(x).entries, f(y).entries
                assert all(a <= b * (1 + 1e-12) for a, b in zip(fx, fy))

    def test_nonexpansive_in_hilbert_metric(self, rng):
        for f in self._maps(rng):
            n = f.dimension
            for _ in range(15):
                x = random_interior(rng, n)
                y = random_interior(rng, n)
                dxy = cs.hilbert_distance(x, y)
                dfxy = cs.hilbert_distance(f(x), f(y))
                assert dfxy <= dxy + 1e-10

    def test_side_discipline(self, rng):
        for f in self._maps(rng):
            n = f.dimension
            for _ in range(10):
                bits = int(rng.integers(1, (1 << n) - 1))
                vals = rng.uniform(0.5, 2.0, size=n)
                low = ExtVec.of([v if bits >> j & 1 else 0.0
                                 for j, v in enumerate(vals)])
                up = ExtVec.of([v if bits >> j & 1 else INF
                                for j, v in enumerate(vals)])
                assert all(v < INF for v in f(low).entries)
                assert all(v > 0.0 for v in f(up).entries)


class TestSubsetMask:
    def test_round_trip(self):
        m = SubsetMask.of([0, 2], 4)
        assert m.indices() == (0, 2)
        assert m.complement().indices() == (1, 3)
        assert m.popcount() == 2
        assert not m.is_full() and not m.is_empty()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SubsetMask.of([4], 4)
        with pytest.raises(ValueError):
            SubsetMask(1 << 5, 5)
