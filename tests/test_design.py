import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from floodcal.design import (
    Design,
    ParameterSpace,
    augment_cheap,
    edge_mask,
    maximin_lhs,
    min_pairwise_distance,
    read_design_csv,
    write_design_csv,
)


@pytest.fixture
def unit1d():
    return ParameterSpace((("x", 0.0, 1.0),))


class TestMaximinLhs:
    def test_two_point_strata(self, unit1d):
        d = maximin_lhs(unit1d, p=2, seed=0, n_candidates=10)
        xs = np.sort(d.points[:, 0])
        assert 0.0 <= xs[0] < 0.5 <= xs[1] < 1.0

    def test_strata_occupancy(self, flood_space):
        # oracle: bin each dimension into p strata, expect a permutation
        p = 5
        d = maximin_lhs(flood_space, p=p, seed=3, n_candidates=50)
        unit = flood_space.scale(d.points)
        for j in range(flood_space.k):
            bins = np.floor(unit[:, j] * p).astype(int)
            assert sorted(bins.tolist()) == list(range(p))

    def test_maximin_improves_with_candidates(self, flood_space):
        for seed in (0, 1, 2):
            few = maximin_lhs(flood_space, 8, seed, n_candidates=1)
            many = maximin_lhs(flood_space, 8, seed, n_candidates=1000)
            d_few = pdist(flood_space.scale(few.points)).min()
            d_many = pdist(flood_space.scale(many.points)).min()
            assert d_many >= d_few

    def test_deterministic_per_seed(self, flood_space):
        a = maximin_lhs(flood_space, 6, seed=42, n_candidates=20)
        b = maximin_lhs(flood_space, 6, seed=42, n_candidates=20)
        assert np.array_equal(a.points, b.points)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 10), st.integers(0, 2**32 - 1),
           st.integers(0, 3), st.booleans())
    def test_sweep_minimum_is_bitwise_pdist(self, p, k, seed, n_dup, lattice):
        rng = np.random.default_rng(seed)
        # jittered Latin hypercube rows, or rows on a coarse lattice (many ties)
        u = rng.integers(0, 4, (p, k)) / 4.0 if lattice else rng.random((p, k))
        for _ in range(n_dup):  # exact duplicate rows: minimum 0
            u[rng.integers(p)] = u[rng.integers(p)]
        assert min_pairwise_distance(u) == pdist(u).min()

    def test_sweep_on_unequal_coordinate_scales(self):
        rng = np.random.default_rng(5)
        for p, k in ((2, 1), (3, 2), (20, 2), (300, 2), (60, 10)):
            u = rng.random((p, k)) * np.array([1e-9, 1e9] * 5)[:k]
            assert min_pairwise_distance(u) == pdist(u).min()
        assert min_pairwise_distance(np.zeros((4, 3))) == 0.0

    def test_preconditions(self, unit1d):
        with pytest.raises(ValueError):
            maximin_lhs(unit1d, p=1, seed=0)
        with pytest.raises(ValueError):
            maximin_lhs(unit1d, p=4, seed=0, n_candidates=0)


class TestAugmentCheap:
    def test_extra_zero_matches_expensive(self, flood_space):
        exp = maximin_lhs(flood_space, 5, seed=1, n_candidates=10)
        full = augment_cheap(exp, flood_space, extra=0, seed=2)
        assert np.array_equal(full.cheap_points, full.expensive_points)

    def test_50e200c_counts(self, flood_space):
        exp = maximin_lhs(flood_space, 50, seed=1, n_candidates=20)
        full = augment_cheap(exp, flood_space, extra=150, seed=2)
        assert full.n_expensive == 50
        assert full.n_cheap == 200
        full.validate_nesting()

    def test_100e400c_counts(self, flood_space):
        exp = maximin_lhs(flood_space, 100, seed=1, n_candidates=10)
        full = augment_cheap(exp, flood_space, extra=300, seed=2)
        assert full.n_expensive == 100
        assert full.n_cheap == 400

    def test_expensive_rows_first(self, flood_space):
        exp = maximin_lhs(flood_space, 4, seed=1, n_candidates=5)
        full = augment_cheap(exp, flood_space, extra=3, seed=2)
        assert list(full.fidelity[:4]) == ["expensive"] * 4
        assert list(full.fidelity[4:]) == ["cheap"] * 7


class TestEdgeFilter:
    """``edge_mask``: the expensive rows an edge-band hold-out removes."""

    def band_design(self, flood_space, pts):
        pts = np.asarray(pts)
        fid = np.array(["expensive"] * len(pts), dtype=object)
        return Design(pts, fid, flood_space)

    def test_zero_bands_keep_all(self, flood_space):
        d = self.band_design(flood_space, [[0.05, 1.0], [0.09, 0.96]])
        assert edge_mask(d, [(0, 0), (0, 0)]).tolist() == [False, False]

    def test_rwe_top_5_percent(self, flood_space):
        # top 5% of (0.95, 1.05) is (1.045, 1.05)
        d = self.band_design(
            flood_space, [[0.05, 1.046], [0.05, 1.044], [0.05, 1.045]]
        )
        held = edge_mask(d, [(0, 0), (0, 0.05)])
        assert d.points[held, 1].tolist() == [1.046]
        assert sorted(d.points[~held, 1].tolist()) == [1.044, 1.045]

    def test_nch_bottom_10_percent(self, flood_space):
        # bottom 10% of (0.02, 0.1) is (0.02, 0.028)
        d = self.band_design(flood_space, [[0.0275, 1.0], [0.028, 1.0], [0.03, 1.0]])
        held = edge_mask(d, [(0.10, 0), (0, 0)])
        assert d.points[held, 0].tolist() == [0.0275]
        assert sorted(d.points[~held, 0].tolist()) == [0.028, 0.03]

    def test_partition_of_expensive(self, flood_space):
        # oracle: each row tested coordinate by coordinate against its cuts
        exp = maximin_lhs(flood_space, 30, seed=5, n_candidates=10)
        full = augment_cheap(exp, flood_space, extra=20, seed=6)
        bands = [(0.10, 0.0), (0.0, 0.05)]
        lo, hi = flood_space.lower, flood_space.upper
        expected = [tag == "expensive" and any(
            x < lo[d] + low * (hi[d] - lo[d]) or x > hi[d] - high * (hi[d] - lo[d])
            for d, (x, (low, high)) in enumerate(zip(point, bands)))
            for point, tag in zip(full.points, full.fidelity)]
        held = edge_mask(full, bands)
        assert held.tolist() == expected
        assert 0 < held.sum() < full.n_expensive

    def test_cheap_never_removed(self, flood_space):
        exp = maximin_lhs(flood_space, 10, seed=7, n_candidates=10)
        full = augment_cheap(exp, flood_space, extra=15, seed=8)
        held = edge_mask(full, [(0.2, 0.2), (0.2, 0.2)])
        assert not held[full.fidelity == "cheap"].any()

    def test_all_expensive_removed(self, flood_space):
        # the mask flags every row; the hold-out that then leaves fewer than 2
        # is refused by the CLI (test_cli: "the emulators need at least 2")
        d = self.band_design(flood_space, [[0.021, 1.0]])
        assert edge_mask(d, [(0.10, 0.0), (0.0, 0.0)]).tolist() == [True]

    def test_fraction_bounds_checked(self, flood_space):
        d = self.band_design(flood_space, [[0.05, 1.0]])
        with pytest.raises(ValueError):
            edge_mask(d, [(0.5, 0.0), (0.0, 0.0)])


class TestDesignIO:
    def test_csv_roundtrip(self, flood_space, tmp_path):
        exp = maximin_lhs(flood_space, 6, seed=9, n_candidates=5)
        full = augment_cheap(exp, flood_space, extra=4, seed=10)
        path = tmp_path / "design.csv"
        write_design_csv(full, path)
        back = read_design_csv(path, flood_space)
        assert np.array_equal(back.points, full.points)
        assert list(back.fidelity) == list(full.fidelity)
        header = path.read_text().splitlines()[0]
        assert header == "theta_n_ch,theta_rwe,fidelity"

    def test_csv_deterministic(self, flood_space, tmp_path):
        exp = maximin_lhs(flood_space, 4, seed=9, n_candidates=5)
        write_design_csv(exp, tmp_path / "a.csv")
        write_design_csv(exp, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_out_of_bounds_points_rejected(self, flood_space):
        with pytest.raises(ValueError):
            Design(np.array([[0.2, 1.0]]), np.array(["expensive"], dtype=object), flood_space)

    def test_nan_points_rejected(self, flood_space):
        with pytest.raises(ValueError):
            Design(np.array([[0.05, np.nan]]), np.array(["expensive"], dtype=object), flood_space)
