"""Tests for rank topologies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi.topology import Torus, grid_dims, torus_neighbors
from repro.errors import ConfigurationError


class TestRing:
    def test_small_ring(self):
        nb = torus_neighbors((4,))
        assert nb.shape == (4, 2)
        assert list(nb[0]) == [3, 1]
        assert list(nb[3]) == [2, 0]

    def test_single_rank_self(self):
        nb = torus_neighbors((1,))
        assert list(nb[0]) == [0, 0]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            torus_neighbors((0,))


class TestGridDims:
    def test_exact_square(self):
        assert grid_dims(16, 2) == (4, 4)

    def test_cube(self):
        assert grid_dims(64, 3) == (4, 4, 4)

    def test_product_preserved(self):
        for n in (1, 2, 6, 30, 64, 100, 1920):
            for d in (1, 2, 3):
                dims = grid_dims(n, d)
                assert int(np.prod(dims)) == n
                assert len(dims) == d

    def test_prime(self):
        assert grid_dims(7, 2) == (7, 1)

    def test_1920_3d_near_cubic(self):
        dims = grid_dims(1920, 3)
        assert int(np.prod(dims)) == 1920
        assert max(dims) / min(dims) <= 3  # near-cubic

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            grid_dims(0, 2)
        with pytest.raises(ConfigurationError):
            grid_dims(4, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=4))
    def test_product_property(self, n, d):
        assert int(np.prod(grid_dims(n, d))) == n


class TestTorus:
    def test_2d_grid_neighbors(self):
        nb = torus_neighbors((2, 3))
        assert nb.shape == (6, 4)
        # rank 0 = (0,0): -row=(1,0)=3, +row=(1,0)=3, -col=(0,2)=2, +col=(0,1)=1
        assert set(nb[0]) == {3, 2, 1}

    def test_symmetry(self):
        # If j is a neighbour of i, then i is a neighbour of j.
        nb = torus_neighbors((4, 4))
        for i in range(16):
            for j in nb[i]:
                assert i in nb[j]

    def test_degenerate_axis_self_neighbor(self):
        nb = torus_neighbors((1, 3))
        assert nb[0, 0] == 0 and nb[0, 1] == 0  # flat axis wraps to self

    def test_3d_shape(self):
        nb = torus_neighbors((2, 2, 2))
        assert nb.shape == (8, 6)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            torus_neighbors(())
        with pytest.raises(ConfigurationError):
            torus_neighbors((0, 2))


class TestTorusPartnerMax:
    """``Torus.partner_max`` (shifted slices) against the index table of
    ``torus_neighbors``, on column tiles cut anywhere: partial blocks at
    tile edges, extent-1 and extent-2 axes, tiles narrower than a
    block and tiles spanning several."""

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_matches_index_table_on_any_tiling(self, shape, cuts, seed):
        torus = Torus(tuple(shape))
        n = torus.n_ranks
        plane = np.random.default_rng(seed).uniform(0.0, 10.0, (3, n))
        want = plane.copy()
        for col in torus_neighbors(torus.shape).T:
            want = np.maximum(want, plane[:, col])
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        got = np.empty_like(plane)
        for a, b in zip(bounds, bounds[1:]):
            np.copyto(got[:, a:b], plane[:, a:b])
            torus.partner_max(plane, a, b, got[:, a:b])
        assert np.array_equal(got, want)
