import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodcal.errors import (
    LocationNotOnGrid,
    MalformedArtifact,
    NodataNeighbor,
    TargetOutOfBounds,
)
from floodcal.grid import (
    NODATA_VALUE,
    Grid,
    LocationSet,
    bilinear_interpolate,
    bilinear_stencil,
    flatten,
    grid_locations,
    read_ascii_grid,
    write_ascii_grid,
)


def square_grid(values, cell=1.0, origin=(0.0, 0.0), mask=None):
    return Grid(origin[0], origin[1], cell, np.asarray(values, dtype=float), mask)


class TestGridInvariants:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            square_grid([[-0.1, 0.0], [0.0, 0.0]])

    def test_negative_depth_allowed_under_nodata(self):
        mask = np.array([[True, False], [False, False]])
        g = square_grid([[-9999.0, 0.0], [0.0, 1.0]], mask=mask)
        assert g.nodata_mask[0, 0]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_non_finite_depth_rejected_unless_masked(self, n_rows, n_cols, seed, bad):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, 5.0, (n_rows, n_cols))
        cell = (rng.integers(n_rows), rng.integers(n_cols))
        vals[cell] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            square_grid(vals)
        mask = np.zeros(vals.shape, dtype=bool)
        mask[cell] = True
        assert square_grid(vals, mask=mask).nodata_mask[cell]

    def test_cell_size_positive(self):
        with pytest.raises(ValueError):
            square_grid([[0.0]], cell=0.0)

    def test_duplicate_locations_rejected(self):
        with pytest.raises(ValueError):
            LocationSet([[0.0, 0.0], [0.0, 0.0]])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(*[st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 1e-300, 2.0]),
                              st.floats(allow_nan=False, allow_infinity=False))] * 2),
        min_size=1, max_size=12,
    ))
    def test_duplicates_rejected_exactly_when_unique_finds_fewer_rows(self, rows):
        coords = np.array(rows, dtype=float)
        duplicated = len(np.unique(coords, axis=0)) < len(coords)
        if duplicated:
            with pytest.raises(ValueError, match="duplicate"):
                LocationSet(coords)
        else:
            assert len(LocationSet(coords)) == len(coords)

    def test_signed_zeros_are_one_location(self):
        with pytest.raises(ValueError, match="duplicate"):
            LocationSet([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]])
        with pytest.raises(ValueError, match="duplicate"):
            LocationSet([[1.0, -0.0], [1.0, 0.0]])
        assert len(LocationSet([[0.0, 1.0], [1.0, 0.0]])) == 2

    @pytest.mark.parametrize("make", [
        lambda: square_grid([[0.0, 1.0], [2.0, 3.0]]),
        lambda: LocationSet([[0.0, 1.0], [2.0, 3.0]]),
    ], ids=["grid", "location-set"])
    def test_compared_and_hashed_by_identity(self, make):
        # with array fields, value equality raised "truth value ... is ambiguous" and
        # hash() raised TypeError
        a, b = make(), make()
        assert (a == b) is False and a != b
        assert a == a
        assert hash(a) == hash(a) and hash(a) != hash(b)
        alive = weakref.WeakSet([a, b])
        assert len(alive) == 2
        del b
        assert list(alive) == [a]


class TestBilinear:
    def test_node_reproduction(self):
        g = square_grid([[1.0, 2.5], [3.0, 4.0]])
        out = bilinear_interpolate(g, LocationSet([[1.0, 0.0]]))
        assert out[0] == 2.5

    def test_cell_midpoint_average(self):
        # corner values 0,1,1,2 -> value 1.0 at the cell midpoint
        g = square_grid([[0.0, 1.0], [1.0, 2.0]])
        out = bilinear_interpolate(g, LocationSet([[0.5, 0.5]]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_exact_on_bilinear_function(self):
        # oracle: direct evaluation of f(x, y) = 3 + 2x - y + 0.5xy
        def f(x, y):
            return 3.0 + 2.0 * x - y + 0.5 * x * y

        cell = 0.75
        xs = np.arange(6) * cell + 1.0
        ys = np.arange(5) * cell + 2.0
        vals = f(xs[None, :], ys[:, None])
        g = Grid(1.0, 2.0, cell, vals)
        rng = np.random.default_rng(5)
        targets = np.column_stack(
            [rng.uniform(xs[0], xs[-1], 40), rng.uniform(ys[0], ys[-1], 40)]
        )
        out = bilinear_interpolate(g, LocationSet(targets))
        expected = f(targets[:, 0], targets[:, 1])
        assert np.max(np.abs(out - expected)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_within_neighbor_value_bounds(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, 5.0, (4, 5))
        g = Grid(0.0, 0.0, 1.0, vals)
        pts = np.column_stack([rng.uniform(0, 4, 10), rng.uniform(0, 3, 10)])
        out = bilinear_interpolate(g, LocationSet(pts))
        for (x, y), v in zip(pts, out):
            c0, r0 = min(int(x), 3), min(int(y), 2)
            corners = vals[r0 : r0 + 2, c0 : c0 + 2]
            assert corners.min() - 1e-12 <= v <= corners.max() + 1e-12

    def test_target_out_of_bounds(self):
        g = square_grid(np.zeros((3, 3)))
        with pytest.raises(TargetOutOfBounds):
            bilinear_interpolate(g, LocationSet([[-0.5, 1.0]]))
        with pytest.raises(TargetOutOfBounds):
            bilinear_interpolate(g, LocationSet([[1.0, 2.4]]))

    def test_shared_stencil_is_bitwise_per_grid_interpolation(self):
        rng = np.random.default_rng(8)
        targets = LocationSet(rng.uniform(0.0, 3.0, (40, 2)))
        stencil = bilinear_stencil(square_grid(np.zeros((4, 4))), targets)
        for _ in range(3):
            g = square_grid(rng.uniform(0.0, 2.0, (4, 4)))
            assert np.array_equal(bilinear_interpolate(g, targets, stencil),
                                  bilinear_interpolate(g, targets))

    def test_stencil_of_another_geometry_rejected(self):
        targets = LocationSet([[1.0, 1.0]])
        stencil = bilinear_stencil(square_grid(np.zeros((3, 3))), targets)
        with pytest.raises(ValueError, match="geometry"):
            bilinear_interpolate(square_grid(np.zeros((3, 3)), cell=1.5), targets, stencil)

    def test_nodata_neighbor(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        g = square_grid(np.ones((4, 4)), mask=mask)
        with pytest.raises(NodataNeighbor):
            bilinear_interpolate(g, LocationSet([[0.5, 0.5]]))
        # far corner cell does not touch the masked cell
        out = bilinear_interpolate(g, LocationSet([[2.5, 2.5]]))
        assert out[0] == pytest.approx(1.0)


class TestFlatten:
    def test_single_cell(self):
        g = square_grid([[0.0]])
        out = flatten(g, LocationSet([[0.0, 0.0]]))
        assert out.tolist() == [0.0]

    def test_row_major_order(self):
        g = square_grid([[1.0, 2.0], [3.0, 4.0]])
        out = flatten(g, grid_locations(g))
        assert out.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_subset_in_index_order(self):
        vals = np.arange(9.0).reshape(3, 3)
        g = square_grid(vals)
        # oracle: direct lookup of the requested centers
        locs = LocationSet([[2.0, 1.0], [0.0, 2.0]])
        out = flatten(g, locs)
        assert out.tolist() == [vals[1, 2], vals[2, 0]]

    def test_identity_roundtrip(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 2, (4, 6))
        g = Grid(10.0, -3.0, 2.5, vals)
        out = flatten(g, grid_locations(g))
        assert np.array_equal(out, vals.ravel())

    def test_off_grid_location(self):
        g = square_grid(np.zeros((2, 2)))
        with pytest.raises(LocationNotOnGrid):
            flatten(g, LocationSet([[0.5, 0.0]]))

    def test_nodata_cell_rejected(self):
        mask = np.array([[True, False], [False, False]])
        g = square_grid([[0.0, 1.0], [1.0, 1.0]], mask=mask)
        with pytest.raises(NodataNeighbor):
            flatten(g, LocationSet([[0.0, 0.0]]))


class TestAsciiFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.random((5, 4)) < 0.2
        vals = rng.uniform(0, 3, (5, 4))
        vals[mask] = 0.0
        g = Grid(100.0, 250.0, 10.0, vals, mask)
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        back = read_ascii_grid(path)
        assert back.same_geometry(g)
        assert np.array_equal(back.values, g.values)
        assert np.array_equal(back.nodata_mask, g.nodata_mask)

    def test_header_contract(self, tmp_path):
        g = square_grid([[1.0, 2.0], [3.0, 4.0]], cell=5.0, origin=(7.0, 9.0))
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        text = path.read_text().splitlines()
        assert text[0].split() == ["ncols", "2"]
        assert text[1].split() == ["nrows", "2"]
        assert text[2].split()[0] == "xllcenter"
        # rows are written north to south: first data row is the top row
        assert [float(v) for v in text[6].split()] == [3.0, 4.0]

    def test_write_deterministic(self, tmp_path):
        g = square_grid(np.linspace(0, 1, 12).reshape(3, 4))
        write_ascii_grid(g, tmp_path / "a.asc")
        write_ascii_grid(g, tmp_path / "b.asc")
        assert (tmp_path / "a.asc").read_bytes() == (tmp_path / "b.asc").read_bytes()

    @staticmethod
    def assert_bytes_match_per_value_formatter(path, g):
        assert write_ascii_grid(g, path) == hashlib.sha256(path.read_bytes()).digest()
        # reference: one f-string per value
        written = g.values.copy()
        written[g.nodata_mask] = NODATA_VALUE
        lines = [f"ncols {g.n_cols}", f"nrows {g.n_rows}", f"xllcenter {g.origin_x:.17g}",
                 f"yllcenter {g.origin_y:.17g}", f"cellsize {g.cell_size:.17g}",
                 f"nodata_value {NODATA_VALUE:.17g}"]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in written[::-1]]
        assert path.read_text() == "\n".join(lines) + "\n"
        back = read_ascii_grid(path)
        valid = ~g.nodata_mask
        assert back.values[valid].tobytes() == g.values[valid].tobytes()

    @pytest.mark.parametrize("shape", [(7, 5), (6, 1), (1, 1)])
    def test_bytes_match_per_value_formatter(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        vals = rng.uniform(0.0, 4.0, shape)
        specials = [0.0, 1e-300, 1e300, 5e-324, 0.1, 1.0 / 3.0, 2.0**53 + 2]
        vals.ravel()[: len(specials)] = specials[: vals.size]
        mask = np.zeros(shape, dtype=bool)
        if vals.size > 2:
            mask.ravel()[[1, -1]] = True
        g = Grid(-3.5, 1e6 + 0.1, 0.25, vals, mask)
        self.assert_bytes_match_per_value_formatter(tmp_path / "g.asc", g)

    @pytest.mark.parametrize("case", ["signed-zeros", "all-equal", "ridge"])
    def test_bytes_match_per_value_formatter_on_repeats(self, tmp_path, case):
        # the writer formats each distinct value once; these grids repeat values
        if case == "signed-zeros":  # equal as values, "-0" and "0" as text
            vals, mask = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0]]), None
        elif case == "all-equal":
            vals, mask = np.full((4, 6), 0.7), None
        else:  # depth depends on |row - col| only, like the synthetic model's ridge
            rows, cols = np.indices((24, 17))
            vals = np.maximum(0.9 - 0.1 * np.abs(rows - cols), 0.0) / 3.0
            mask = (rows + 2 * cols) % 11 == 0
        g = Grid(0.5, 0.5, 1.0, vals, mask)
        self.assert_bytes_match_per_value_formatter(tmp_path / "g.asc", g)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_roundtrip_bitwise(self, tmp_path_factory, data):
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        size = shape[0] * shape[1]
        depth = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308, 0.1]),
                          st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
        vals = np.reshape(data.draw(st.lists(depth, min_size=size, max_size=size)), shape)
        mask = np.reshape(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), shape)
        origin = data.draw(st.tuples(*[st.floats(-1e7, 1e7, allow_nan=False)] * 2))
        cell = data.draw(st.floats(1e-3, 1e4, allow_nan=False))
        g = Grid(origin[0], origin[1], cell, vals, mask)
        path = tmp_path_factory.mktemp("roundtrip") / "g.asc"
        write_ascii_grid(g, path)
        back = read_ascii_grid(path)
        assert (back.origin_x, back.origin_y, back.cell_size) == (g.origin_x, g.origin_y, cell)
        expected = np.where(mask, 0.0, vals)
        assert back.values.tobytes() == expected.tobytes()
        assert np.array_equal(back.nodata_mask, mask)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda lines: lines[:-1], id="truncated"),
        pytest.param(lambda lines: lines[:6] + ["nan 1 2"] + lines[7:], id="nan"),
        pytest.param(lambda lines: lines[:6] + ["0.5 x 2"] + lines[7:], id="non-numeric"),
        pytest.param(lambda lines: lines[:6] + ["0.5 -1 2"] + lines[7:], id="negative"),
        pytest.param(lambda lines: lines[1:], id="no-ncols"),
        pytest.param(lambda lines: lines[:4] + lines[5:], id="no-cellsize"),
        pytest.param(lambda lines: ["ncols two"] + lines[1:], id="non-numeric-header"),
        pytest.param(lambda lines: lines[:2] + ["xllcenter nan"] + lines[3:], id="nan-origin"),
        pytest.param(lambda lines: lines[:4] + ["cellsize inf"] + lines[5:], id="inf-cellsize"),
        pytest.param(lambda lines: [], id="empty"),
        pytest.param(lambda lines: lines[:6] + ["1_0 1 2"] + lines[7:], id="underscore"),
        pytest.param(lambda lines: ["ncols 0_3"] + lines[1:], id="underscore-header"),
    ])
    def test_malformed_file_raises_with_path(self, tmp_path, corrupt):
        path = tmp_path / "g.asc"
        write_ascii_grid(square_grid(np.arange(6.0).reshape(2, 3)), path)
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(MalformedArtifact, match="g.asc"):
            read_ascii_grid(path)

    def test_header_keys_in_any_case_and_order(self, tmp_path):
        g = square_grid([[1.0, 0.0], [3.0, 4.0]], cell=5.0, origin=(7.0, 9.0),
                        mask=[[False, True], [False, False]])
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        lines = path.read_text().splitlines()
        header = [line.split() for line in lines[:6]]
        header = [f"{key.upper() if i % 2 else key.title()} {value}"
                  for i, (key, value) in enumerate(header)]
        path.write_text("\n".join(header[::-1] + lines[6:]) + "\n")
        back = read_ascii_grid(path)
        assert back.same_geometry(g)
        assert np.array_equal(back.values, g.values)
        assert np.array_equal(back.nodata_mask, g.nodata_mask)
        path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")  # nodata_value optional
        assert np.array_equal(read_ascii_grid(path).nodata_mask, g.nodata_mask)
