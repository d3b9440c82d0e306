"""Raster sampling, buffer aggregation, and file round trips."""

import dataclasses
import gc
import hashlib
import math
import statistics
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from terralign import CrsMismatchError, RasterFormatError, RasterGrid, load_raster, write_raster
from terralign.config import DEFAULT_RADIUS_M
from terralign.raster import AggregationKind, aggregate_buffer_points, check_crs, sample_points
from terralign import esri_ascii, raster
from terralign.geotiff import read_geotiff, write_geotiff

from conftest import flat_grid, make_grid, ramp_grid


def sample_one(grid, x, y):
    """`sample_points` on a one-element batch."""
    return float(sample_points(grid, np.array([x]), np.array([y]))[0])


def aggregate_one(grid, cx, cy, radius, agg):
    """`aggregate_buffer_points` on a one-element batch."""
    return float(aggregate_buffer_points(grid, np.array([cx]), np.array([cy]), radius, agg)[0])


def test_sample_point_constant_grid():
    grid = flat_grid(8)
    assert sample_one(grid, 3.3, 4.7) == 100.0


def test_sample_point_outside_extent_is_nan():
    grid = flat_grid(8)
    assert math.isnan(sample_one(grid, 9.0, 4.0))
    assert math.isnan(sample_one(grid, 4.0, -0.5))


def test_sample_point_hand_indexed_2x2():
    # origin (0, 10), 5 m cells: (7.5, 7.5) falls in row 0, column 1
    grid = RasterGrid(0.0, 10.0, 5.0, -5.0, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert sample_one(grid, 7.5, 7.5) == 2.0


def test_sample_points_vector_matches_scalar(rng):
    grid = make_grid(rng.normal(100.0, 10.0, (32, 32)))
    xs = rng.uniform(-2.0, 34.0, 200)
    ys = rng.uniform(-2.0, 34.0, 200)
    batch = sample_points(grid, xs, ys)
    for i in range(xs.size):
        one = sample_one(grid, xs[i], ys[i])
        if math.isnan(one):
            assert math.isnan(batch[i])
        else:
            assert batch[i] == one


def test_aggregate_buffer_constant_field():
    grid = flat_grid(64)
    assert aggregate_one(grid, 30.0, 30.0, 12.5, AggregationKind.MEAN) == 100.0


def test_aggregate_buffer_linear_ramp_mean_near_center_value():
    grid = ramp_grid(200)
    got = aggregate_one(grid, 50.0, 100.0, 12.5, AggregationKind.MEAN)
    # a buffer mean of a linear field equals the center value up to cell quantization
    assert got == pytest.approx(50.0, abs=0.5)


def test_aggregate_buffer_empty_selection_is_nan():
    grid = flat_grid(16)
    assert math.isnan(aggregate_one(grid, 100.0, 100.0, 5.0, AggregationKind.MEAN))


def test_aggregate_buffer_nodata_region():
    values = np.full((32, 32), 100.0)
    values[:16, :] = np.nan
    grid = make_grid(values)
    # buffer fully inside the nodata half
    assert math.isnan(aggregate_one(grid, 16.0, 28.0, 3.0, AggregationKind.MEAN))
    # partially covered buffer aggregates the remaining cells
    assert aggregate_one(grid, 16.0, 16.0, 3.0, AggregationKind.MEAN) == 100.0


def test_aggregate_buffer_rejects_bad_radius():
    grid = flat_grid(8)
    with pytest.raises(ValueError):
        aggregate_one(grid, 4.0, 4.0, 0.0, AggregationKind.MEAN)
    with pytest.raises(ValueError):
        aggregate_one(grid, 4.0, 4.0, -1.0, AggregationKind.MEAN)


def test_aggregate_buffer_mean_within_member_range(rng):
    grid = make_grid(rng.normal(100.0, 25.0, (48, 48)))
    for _ in range(200):
        cx, cy = rng.uniform(5.0, 43.0, 2)
        radius = rng.uniform(0.8, 10.0)
        got = aggregate_one(grid, cx, cy, radius, AggregationKind.MEAN)
        if math.isnan(got):
            continue
        rows, cols = np.indices(grid.values.shape)
        ux = grid.origin_x + (cols + 0.5) * grid.cell_size_x
        uy = grid.origin_y + (rows + 0.5) * grid.cell_size_y
        member = (ux - cx) ** 2 + (uy - cy) ** 2 <= radius**2
        vals = grid.values[member]
        assert vals.size > 0
        assert vals.min() <= got <= vals.max()


def test_aggregate_buffer_median_matches_enumeration(rng):
    grid = make_grid(rng.normal(100.0, 25.0, (48, 48)))
    rows, cols = np.indices(grid.values.shape)
    ux = grid.origin_x + (cols + 0.5) * grid.cell_size_x
    uy = grid.origin_y + (rows + 0.5) * grid.cell_size_y
    for _ in range(1000):
        cx, cy = rng.uniform(2.0, 46.0, 2)
        radius = rng.uniform(0.8, 8.0)
        got = aggregate_one(grid, cx, cy, radius, AggregationKind.MEDIAN)
        member = (ux - cx) ** 2 + (uy - cy) ** 2 <= radius**2
        vals = grid.values[member]
        if vals.size == 0:
            assert math.isnan(got)
        else:
            assert got == pytest.approx(np.median(vals), rel=1e-12)


@pytest.mark.parametrize("nodata", [False, True])
def test_median_of_two_negative_zero_middles_is_positive_zero(nodata):
    """np.nanmedian gives +0.0 for a buffer whose middle pair is -0.0, -0.0
    (and for a lone -0.0 cell); the kernel's median must too."""
    values = np.full((4, 4), 5.0)
    values[1:3, 1:3] = [[-1.0, -0.0], [-0.0, 2.0]]
    values[0, 0] = -0.0
    if nodata:
        values[3, 3] = np.nan
    grid = make_grid(values)
    # four cells about (2, 2), and the lone -0.0 cell centred at (0.5, 3.5)
    got = aggregate_buffer_points(grid, np.array([2.0, 0.5]), np.array([2.0, 3.5]), 0.8, AggregationKind.MEDIAN)
    assert grid.has_nodata == nodata
    assert got.tobytes() == np.array([0.0, 0.0]).tobytes()


def test_tiny_radius_reduces_to_sample_point(rng):
    """With the radius below half a cell diagonal, a buffer centered near a
    cell center holds exactly that cell."""
    grid = make_grid(rng.normal(100.0, 10.0, (24, 24)))
    for _ in range(300):
        row = rng.integers(0, 24)
        col = rng.integers(0, 24)
        cx = grid.origin_x + (col + 0.5) * grid.cell_size_x + rng.uniform(-0.2, 0.2)
        cy = grid.origin_y + (row + 0.5) * grid.cell_size_y + rng.uniform(-0.2, 0.2)
        point = sample_one(grid, cx, cy)
        assert point == aggregate_one(grid, cx, cy, 0.45, AggregationKind.MEAN)


def test_aggregate_points_matches_scalar_loop(rng):
    grid = make_grid(rng.normal(100.0, 15.0, (40, 40)))
    xs = rng.uniform(0.0, 40.0, 500)
    ys = rng.uniform(0.0, 40.0, 500)
    batch = aggregate_buffer_points(grid, xs, ys, 4.0, AggregationKind.MEAN)
    for i in range(xs.size):
        one = aggregate_one(grid, xs[i], ys[i], 4.0, AggregationKind.MEAN)
        if math.isnan(one):
            assert math.isnan(batch[i])
        else:
            assert batch[i] == one


def reference_buffer(grid, cx, cy, radius):
    """MEAN and MEDIAN of the finite cells whose centers lie within
    `radius` of (cx, cy), by a plain loop over every cell."""
    members = []
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            ddx = grid.origin_x + (c + 0.5) * grid.cell_size_x - cx
            ddy = grid.origin_y + (r + 0.5) * grid.cell_size_y - cy
            v = float(grid.values[r, c])
            if ddx * ddx + ddy * ddy <= radius * radius and math.isfinite(v):
                members.append(v)
    if not members:
        return math.nan, math.nan
    return math.fsum(members) / len(members), statistics.median(members)


def kernel_scene(rng):
    """Anisotropic 3 m x 2 m grid with nodata cells, and buffer centers in the
    interior, on each edge, partly off-grid and fully off-grid."""
    values = np.round(rng.normal(100.0, 0.6, (23, 31)), 2)  # many repeated values
    values[rng.random(values.shape) < 0.08] = np.nan
    values[4:9, 20:26] = np.nan
    grid = RasterGrid(-50.0, 20.0, 3.0, -2.0, values, nodata=-9999.0)
    x0, y0, x1, y1 = grid.extent
    n = 12
    interior = np.column_stack([rng.uniform(x0 + 8, x1 - 8, n), rng.uniform(y0 + 8, y1 - 8, n)])
    along_x = rng.uniform(x0, x1, n)
    along_y = rng.uniform(y0, y1, n)
    edges = np.concatenate([
        np.column_stack([np.full(n, x0), along_y]),
        np.column_stack([np.full(n, x1), along_y]),
        np.column_stack([along_x, np.full(n, y0)]),
        np.column_stack([along_x, np.full(n, y1)]),
    ])
    partly = np.column_stack([np.full(n, x0 - 2.5), along_y])
    off = np.array([[x0 - 30.0, y0], [x1 + 30.0, y1], [(x0 + x1) / 2, y1 + 40.0]])
    centers = np.concatenate([interior, edges, partly, off])
    return grid, centers[:, 0], centers[:, 1]


SCENE_CELLS = ("nodata", "plain", "signed", "zero-block")


def recell(grid, cells):
    """A copy of `grid` with the cell values `cells` names; only "nodata"
    keeps its NaN cells. "plain" sets them to 100.0. "signed" subtracts 100,
    so that the values straddle 0, and sets every 9th cell to +0.0 and the
    NaN cells to -0.0. "zero-block" negates every cell and sets the NaN cells
    and a block two thirds of the grid wide and high to -0.0: a center inside
    it gathers -0.0 cells alone, so the MEAN kernel's product makes each
    masked slot -0.0 where the per-cell formula has +0.0, and the two agree
    only if the row sum starts from +0.0."""
    values = np.array(grid.values)
    hole = np.isnan(values)
    if cells == "plain":
        values[hole] = 100.0
    elif cells == "signed":
        values -= 100.0
        values.flat[::9] = 0.0
        values[hole] = -0.0
    elif cells == "zero-block":
        values = -values
        values[hole] = -0.0
        r, c = values.shape[0] // 6, values.shape[1] // 6
        values[r:-r, c:-c] = -0.0
    return dataclasses.replace(grid, values=values)


@pytest.mark.parametrize("radius", [1.2, 5.0, 9.5])
def test_aggregate_points_match_brute_force_reference(rng, radius):
    grid, xs, ys = kernel_scene(rng)
    want = np.array([reference_buffer(grid, x, y, radius) for x, y in zip(xs, ys)])
    assert np.isnan(want[-3:]).all()  # fully off-grid
    assert np.isfinite(want[:-3, 0]).any()
    for col, agg in enumerate(AggregationKind):
        got = aggregate_buffer_points(grid, xs, ys, radius, agg)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want[:, col]))
        np.testing.assert_allclose(got, want[:, col], rtol=1e-12, atol=1e-12)


def frozen_buffer_kernel(grid, xs, ys, radius, agg):
    """The per-cell buffer kernel that the separable one replaced, frozen with
    its stencil so that the output bits stay pinned: every (center, stencil
    cell) pair computes its own indices, bounds test and distances."""
    csx, csy = grid.cell_size_x, abs(grid.cell_size_y)
    kx = int(math.ceil(radius / csx)) + 1
    ky = int(math.ceil(radius / csy)) + 1
    dr, dc = np.meshgrid(np.arange(-ky, ky + 1), np.arange(-kx, kx + 1), indexing="ij")
    dr, dc = dr.ravel(), dc.ravel()
    min_dx = np.maximum(np.abs(dc) - 1, 0) * csx
    min_dy = np.maximum(np.abs(dr) - 1, 0) * csy
    keep = min_dx * min_dx + min_dy * min_dy <= radius * radius
    offs_r, offs_c = dr[keep], dc[keep]

    c0 = np.floor((xs - grid.origin_x) / grid.cell_size_x).astype(np.int64)
    r0 = np.floor((ys - grid.origin_y) / grid.cell_size_y).astype(np.int64)
    rows = r0[:, None] + offs_r[None, :]
    cols = c0[:, None] + offs_c[None, :]
    in_bounds = (rows >= 0) & (rows < grid.n_rows) & (cols >= 0) & (cols < grid.n_cols)
    ddx = grid.origin_x + (cols + 0.5) * grid.cell_size_x - xs[:, None]
    ddy = grid.origin_y + (rows + 0.5) * grid.cell_size_y - ys[:, None]
    within = ddx * ddx + ddy * ddy <= radius * radius
    vals = grid.values.ravel().take(np.where(in_bounds, rows * grid.n_cols + cols, 0))
    valid = in_bounds & within & np.isfinite(vals)
    counts = valid.sum(axis=1)
    out = np.full(xs.shape[0], np.nan)
    has = counts > 0
    if agg is AggregationKind.MEAN:
        out[has] = np.where(valid, vals, 0.0).sum(axis=1)[has] / counts[has]
    else:
        out[has] = np.nanmedian(np.where(valid, vals, np.nan)[has], axis=1)
    return out


def bit_exact_scene(rng):
    """`kernel_scene` plus centers on cell edges and corners, centers 0 to 3
    cells in from each edge that reach a cell centre off the grid when the
    stencil is that wide, centers about the middle of the grid, whose widest
    stencil stays inside the block of `recell`'s "zero-block", and centers far
    off the grid (|x| or |y| up to 1e9)."""
    grid, xs, ys = kernel_scene(rng)
    x0, y0, x1, y1 = grid.extent
    mid_x = (x0 + x1) / 2 + rng.uniform(-6.0, 6.0, 8)
    mid_y = (y0 + y1) / 2 + rng.uniform(-2.0, 2.0, 8)
    i = rng.integers(0, grid.n_cols + 1, 40)
    j = rng.integers(0, grid.n_rows, 40)
    # vertical cell edges at row centers, then cell corners
    edge_x = np.concatenate([x0 + 3.0 * i, x0 + 3.0 * i])
    edge_y = np.concatenate([y1 - 2.0 * j - 1.0, y1 - 2.0 * j])
    k = np.arange(4) + 0.02
    near_x = np.concatenate([x0 + 3.0 * k, x1 - 3.0 * k, np.full(16, (x0 + x1) / 2)])
    near_y = np.concatenate([np.full(16, (y0 + y1) / 2), y0 + 2.0 * k, y1 - 2.0 * k])
    far_x = np.array([1e9, -1e9, 0.0, 0.0, 1e9, -1e9, x0 + 1.0, 5e8])
    far_y = np.array([10.0, 10.0, 1e9, -1e9, 1e9, -1e9, -1e9, y1])
    xs = np.concatenate([xs, edge_x, near_x, mid_x, far_x])
    return grid, xs, np.concatenate([ys, edge_y, near_y, mid_y, far_y])


# 2.5 and 4.5 equal cell-center distances from the edge centers (1.5 m and
# 2 m, 4.5 m and 0 m), so they test ties at `<=`.
@pytest.mark.parametrize("radius", [1.2, 2.5, 4.5, 5.0, 9.5])
@pytest.mark.parametrize("agg", list(AggregationKind))
def test_aggregate_points_bit_exact_against_frozen_kernel(rng, monkeypatch, radius, agg):
    """On the scene with NaN cells and each of its NaN-free copies, at any
    chunk size, with and without slack: the kernel's bytes are the frozen
    kernel's."""
    scene, xs, ys = bit_exact_scene(rng)
    for cells in SCENE_CELLS:
        grid = recell(scene, cells)
        assert grid.has_nodata == (cells == "nodata")
        want = frozen_buffer_kernel(grid, xs, ys, radius, agg)
        assert np.isnan(want[-8:]).all() and np.isfinite(want).any()
        for chunk in (1, 64, raster._CHUNK_ELEMENTS):
            monkeypatch.setattr(raster, "_CHUNK_ELEMENTS", chunk)
            for slack in (None, np.empty(xs.size)):
                got = aggregate_buffer_points(grid, xs, ys, radius, agg, slack)
                assert got.tobytes() == want.tobytes(), (cells, chunk, slack is None)


@pytest.mark.parametrize("radius", [2.5, 4.5])
def test_bit_exact_scene_has_radius_ties(rng, radius):
    grid, xs, ys = bit_exact_scene(rng)
    at = frozen_buffer_kernel(grid, xs, ys, radius, AggregationKind.MEAN)
    below = frozen_buffer_kernel(grid, xs, ys, math.nextafter(radius, 0.0), AggregationKind.MEAN)
    assert (np.nan_to_num(at) != np.nan_to_num(below)).any()


def test_all_off_grid_batch_is_all_nan():
    grid = make_grid(np.ones((6, 5)), cell=4.0)
    xs = np.array([-1e9, 1e9, -30.0, 60.0, 2.0])
    ys = np.array([2.0, 2.0, -1e9, 1e9, -5.0])
    for agg in AggregationKind:
        assert np.isnan(aggregate_buffer_points(grid, xs, ys, 3.0, agg)).all()


def exact_event_distance(grid, x, y, radius):
    """Distance from (x, y) to the nearest edge of its anchor cell or to the
    nearest move that carries an on-grid cell centre across the radius, by a
    loop over every cell of the window around the anchor cell."""
    u = (x - grid.origin_x) / grid.cell_size_x
    v = (y - grid.origin_y) / grid.cell_size_y
    c0, r0 = math.floor(u), math.floor(v)
    best = min(min(u - c0, c0 + 1 - u) * grid.cell_size_x, min(v - r0, r0 + 1 - v) * abs(grid.cell_size_y))
    kx = math.ceil(radius / grid.cell_size_x) + 1
    ky = math.ceil(radius / abs(grid.cell_size_y)) + 1
    for r in range(max(r0 - ky, 0), min(r0 + ky + 1, grid.n_rows)):
        for c in range(max(c0 - kx, 0), min(c0 + kx + 1, grid.n_cols)):
            cx = grid.origin_x + (c + 0.5) * grid.cell_size_x
            cy = grid.origin_y + (r + 0.5) * grid.cell_size_y
            best = min(best, abs(math.hypot(cx - x, cy - y) - radius))
    return best


@pytest.mark.parametrize("agg", list(AggregationKind))
@pytest.mark.parametrize("origin", [(0.0, 0.0), (500_000.0, 4_500_000.0)], ids=["origin0", "utm"])
@pytest.mark.parametrize("cell", [4.0, 10.0, 30.0])
def test_buffer_slack_is_safe_and_tight(rng, cell, origin, agg):
    """Moves shorter than a center's slack keep the result bits, and the
    slack lies between half the exact event distance (less the margin) and
    that distance, at and over the edge of a grid with a nodata patch and of
    each of its NaN-free copies."""
    values = rng.normal(100.0, 5.0, (30, 30))
    values[10:16, 4:12] = np.nan
    scene = RasterGrid(origin[0], origin[1] + 30 * cell, cell, -cell, values)
    x0, y0, x1, y1 = scene.extent
    n = 300
    xs = np.concatenate([rng.uniform(x0 - 2 * cell, x1 + 2 * cell, n), [x0, x0 + 3 * cell, x0 + 3.5 * cell]])
    ys = np.concatenate([rng.uniform(y0 - 2 * cell, y1 + 2 * cell, n), [y0 + 5.5 * cell, y1, y0 + 7.5 * cell]])
    for cells in SCENE_CELLS:
        grid = recell(scene, cells)
        assert grid.has_nodata == (cells == "nodata")
        slack = np.empty(xs.size)
        base = aggregate_buffer_points(grid, xs, ys, DEFAULT_RADIUS_M, agg, slack)

        exact = np.array([exact_event_distance(grid, x, y, DEFAULT_RADIUS_M) for x, y in zip(xs, ys)])
        assert (slack <= exact).all()
        assert (slack >= exact / 2 - raster.SLACK_MARGIN_M).all()
        assert (slack[-3:-1] <= 0).all()  # on a cell edge no move is safe

        movable = np.flatnonzero(slack > 0)
        assert movable.size > n // 2
        reps = 8
        idx = np.repeat(movable, reps)
        angle = rng.uniform(0.0, 2.0 * math.pi, idx.size)
        length = slack[idx] * np.where(np.arange(idx.size) % reps == 0, 1.0, rng.random(idx.size))
        moved = aggregate_buffer_points(
            grid, xs[idx] + length * np.cos(angle), ys[idx] + length * np.sin(angle), DEFAULT_RADIUS_M, agg
        )
        assert moved.tobytes() == base[idx].tobytes()


def test_buffer_slack_beyond_coordinate_limit_is_never_safe():
    grid = make_grid(np.ones((6, 5)), cell=4.0)
    slack = np.empty(3)
    aggregate_buffer_points(grid, np.array([2.0, 2.0, 2e7]), np.array([2.0, -2e7, 2.0]), 3.0, slack=slack)
    assert slack[0] > 0 and (slack[1:] == -np.inf).all()
    far = RasterGrid(2e7, 0.0, 4.0, -4.0, np.ones((6, 5)))
    aggregate_buffer_points(far, np.array([2e7 + 2.0]), np.array([-2.0]), 3.0, slack=slack[:1])
    assert slack[0] == -np.inf


def test_stencil_offsets_cached_read_only():
    grid = make_grid(np.zeros((8, 8)), cell=2.0)
    aggregate_buffer_points(grid, np.array([4.0]), np.array([4.0]), 3.0)
    plan = raster._stencil_plan(2.0, 2.0, 3.0, 8)
    assert raster._stencil_plan(2.0, 2.0, 3.0, 8) is plan
    offs_r = plan.ddy_rows + plan.row_steps[0, 0]
    offs_c = plan.ddx_rows + plan.col_steps[0, 0]
    np.testing.assert_array_equal(plan.flat_offsets, offs_r * 8 + offs_c)
    for offs in plan:
        assert not offs.flags.writeable
        with pytest.raises(ValueError):
            offs[0] = 0


def test_concurrent_buffer_queries_match_serial_results(rng, monkeypatch):
    """The kernel's per-thread scratch: threads querying at once, with
    different centers, radii and stencil sizes, each get their serial result,
    and no returned array changes under later calls."""
    grid, xs, ys = bit_exact_scene(rng)
    jobs = [
        (xs, ys, 1.2, AggregationKind.MEAN),
        (xs[::-1], ys[::-1], 9.5, AggregationKind.MEDIAN),
        (xs[::2], ys[::2], 4.5, AggregationKind.MEAN),
        (ys[1::2] - 30.0, xs[1::2] + 40.0, 5.0, AggregationKind.MEDIAN),
    ]
    for chunk in (1, 64, raster._CHUNK_ELEMENTS):
        monkeypatch.setattr(raster, "_CHUNK_ELEMENTS", chunk)
        serial = [aggregate_buffer_points(grid, *job) for job in jobs]
        kept = [out.copy() for out in serial]
        mismatches = []

        def query(job, want):
            for _ in range(30):
                got = aggregate_buffer_points(grid, *job)
                if not np.array_equal(got, want, equal_nan=True):
                    mismatches.append(job[2])

        threads = [threading.Thread(target=query, args=pair) for pair in zip(jobs, kept)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == [], chunk
        for out, want in zip(serial, kept):
            np.testing.assert_array_equal(out, want)


def test_check_crs():
    check_crs("", "EPSG:32654")
    check_crs("EPSG:32654", "EPSG:32654")
    with pytest.raises(CrsMismatchError) as err:
        check_crs("EPSG:32654", "EPSG:4326", context="geoid vs DEM")
    assert "EPSG:32654" in str(err.value) and "EPSG:4326" in str(err.value)


def test_ascii_round_trip(tmp_path, rng):
    values = rng.normal(100.0, 20.0, (9, 13))
    values[2, 3] = np.nan
    grid = make_grid(values, cell=2.5)
    path = tmp_path / "grid.asc"
    write_raster(grid, path)
    back = load_raster(path)
    assert back.n_rows == 9 and back.n_cols == 13
    assert back.cell_size_x == 2.5 and back.cell_size_y == -2.5
    np.testing.assert_array_equal(back.values, grid.values)
    assert back.origin_x == grid.origin_x and back.origin_y == grid.origin_y


def test_ascii_nodata_cell_queries_as_nan(tmp_path):
    values = np.full((3, 3), 100.0)
    values[1, 1] = np.nan
    grid = make_grid(values)
    path = tmp_path / "grid.asc"
    write_raster(grid, path)
    back = load_raster(path)
    assert math.isnan(sample_one(back, 1.5, 1.5))
    assert sample_one(back, 0.5, 0.5) == 100.0


@pytest.mark.parametrize(
    ("key", "value"),
    [
        pytest.param("cellsize", "nan", id="nan"),
        pytest.param("cellsize", "inf", id="inf"),
        pytest.param("ncols", "nan", id="ncols-nan"),
        pytest.param("ncols", "inf", id="ncols-inf"),
        pytest.param("ncols", "2.5", id="ncols-fraction"),
        pytest.param("nrows", "inf", id="nrows-inf"),
    ],
)
def test_ascii_non_finite_cellsize_is_format_error(tmp_path, key, value):
    header = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0", "cellsize": "1", key: value}
    path = tmp_path / "grid.asc"
    path.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n3 4\n")
    with pytest.raises(RasterFormatError, match=key):
        load_raster(path)


ASCII_HEADER = "ncols 5\nnrows 4\nxllcorner 10\nyllcorner 20\ncellsize 2\n"
ASCII_VALUES = [-50.0 + 7.3125 * i for i in range(20)]  # exact in binary
ASCII_TOKENS = [repr(v) for v in ASCII_VALUES]
SEPARATORS = [" ", "\n", "\t", "  ", "\r\n", " \n\n"]


# A batch of 16 characters cuts values, but no line of ASCII_HEADER.
@pytest.mark.parametrize("chunk", [16, 23, esri_ascii._CHUNK_CHARS])
@pytest.mark.parametrize(
    "body",
    [
        pytest.param(
            "\n".join(" ".join(ASCII_TOKENS[i:i + 5]) for i in range(0, 20, 5)) + "\n",
            id="row-per-line",
        ),
        pytest.param("\n".join(ASCII_TOKENS) + "\n", id="row-over-lines"),
        pytest.param(" ".join(ASCII_TOKENS), id="rows-on-one-line"),
        pytest.param(
            "\n" + "".join(t + SEPARATORS[i % 6] for i, t in enumerate(ASCII_TOKENS)), id="ragged"
        ),
    ],
)
def test_ascii_values_may_wrap_over_lines(tmp_path, monkeypatch, chunk, body):
    monkeypatch.setattr(esri_ascii, "_CHUNK_CHARS", chunk)
    path = tmp_path / "grid.asc"
    path.write_text(ASCII_HEADER + body)
    grid = load_raster(path)
    np.testing.assert_array_equal(grid.values, np.reshape(ASCII_VALUES, (4, 5)))
    assert (grid.origin_x, grid.origin_y) == (10.0, 28.0)


@pytest.mark.parametrize("chunk", [32, esri_ascii._CHUNK_CHARS])
def test_ascii_round_trip_in_small_batches(tmp_path, rng, monkeypatch, chunk):
    values = rng.normal(100.0, 20.0, (37, 29))
    values[5, 7] = np.nan
    grid = make_grid(values, cell=2.5)
    path = tmp_path / "grid.asc"
    write_raster(grid, path)
    monkeypatch.setattr(esri_ascii, "_CHUNK_CHARS", chunk)
    np.testing.assert_array_equal(load_raster(path).values, grid.values)


@pytest.mark.parametrize(
    ("body", "found"),
    [
        pytest.param(" ".join(ASCII_TOKENS[:-1]), 19, id="too-few"),
        pytest.param("", 0, id="empty"),
        pytest.param(" ".join(ASCII_TOKENS + ["7"]), 21, id="too-many"),
        pytest.param("\n".join(ASCII_TOKENS * 3), 60, id="far-too-many"),
    ],
)
def test_ascii_value_count_mismatch_is_format_error(tmp_path, monkeypatch, body, found):
    monkeypatch.setattr(esri_ascii, "_CHUNK_CHARS", 16)
    path = tmp_path / "grid.asc"
    path.write_text(ASCII_HEADER + body)
    with pytest.raises(RasterFormatError, match=f"expected 20 values, found {found}$"):
        load_raster(path)


def test_ascii_non_numeric_cell_is_format_error(tmp_path):
    path = tmp_path / "grid.asc"
    path.write_text(ASCII_HEADER + " ".join(ASCII_TOKENS[:7] + ["x5"] + ASCII_TOKENS[8:]))
    with pytest.raises(RasterFormatError, match="non-numeric cell value.*'x5'"):
        load_raster(path)


def test_ascii_non_ascii_byte_deep_in_body_is_format_error(tmp_path, monkeypatch):
    monkeypatch.setattr(esri_ascii, "_CHUNK_CHARS", 1024)
    rows = [" ".join(["123.456"] * 100) for _ in range(100)]
    body = "\n".join(rows).encode("ascii")
    at = len(body) * 3 // 4  # past the first batches, so it is met mid-stream
    body = body[:at] + b"\xe9" + body[at + 1:]
    path = tmp_path / "grid.asc"
    path.write_bytes(b"ncols 100\nnrows 100\nxllcorner 0\nyllcorner 0\ncellsize 1\n" + body)
    with pytest.raises(RasterFormatError, match="cannot read ASCII grid"):
        load_raster(path)


def test_ascii_center_anchored_header(tmp_path):
    path = tmp_path / "grid.asc"
    path.write_text("NCOLS 3\nNROWS 2\nXLLCENTER 11\nYLLCENTER 21\nCELLSIZE 2\n1 2 3\n4 5 6\n")
    grid = load_raster(path)
    assert (grid.origin_x, grid.origin_y) == (10.0, 24.0)
    assert sample_one(grid, 11.0, 23.0) == 1.0
    assert sample_one(grid, 15.0, 21.0) == 6.0


@pytest.mark.parametrize(
    ("header", "match"),
    [
        pytest.param("ncols 2\nnrows 2\nNCOLS 3\n", "'ncols' is set twice", id="repeated-ncols"),
        pytest.param("ncols 3\nnrows 2\ncellsize 1\n", "'cellsize' is set twice", id="repeated-cellsize"),
        pytest.param("ncols 3\nnrows 2\nxllcenter 0.5\n", "xllcorner and xllcenter", id="x-corner-and-center"),
        pytest.param("ncols 3\nnrows 2\nyllcenter 9\n", "yllcorner and yllcenter", id="y-corner-and-center"),
    ],
)
def test_ascii_header_that_sets_a_value_twice_is_format_error(tmp_path, header, match):
    path = tmp_path / "grid.asc"
    path.write_text(header + "xllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n4 5 6\n")
    with pytest.raises(RasterFormatError, match=match):
        load_raster(path)


def test_ascii_huge_header_allocates_only_what_the_file_holds(tmp_path):
    path = tmp_path / "huge.asc"
    header = "ncols 100000\nnrows 100000\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
    path.write_text(header + " ".join(["1.5"] * 240) + "\n")
    assert path.stat().st_size <= 1024
    tracemalloc.start()
    try:
        with pytest.raises(RasterFormatError, match="expected 10000000000 values, found 240"):
            load_raster(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_geotiff_round_trip_bit_identical(tmp_path, rng):
    values = rng.normal(250.0, 40.0, (17, 11))
    values[0, 0] = np.nan
    grid = make_grid(values, origin_x=500000.0, origin_y=4_000_000.0, cell=30.0, crs="EPSG:32654")
    path = tmp_path / "grid.tif"
    write_geotiff(grid, path)
    back = read_geotiff(path)
    np.testing.assert_array_equal(back.values, grid.values)
    assert back.origin_x == grid.origin_x
    assert back.origin_y == grid.origin_y
    assert back.cell_size_x == grid.cell_size_x
    assert back.cell_size_y == grid.cell_size_y
    assert back.crs_tag == "EPSG:32654"


# What both writers write for a NaN-free grid with a sentinel: the sentinel is
# declared and no cell is replaced.
SENTINEL_NO_NAN_TIF_SHA256 = "7d85f3494118bdc8e4b67ddc0ed7d885065151fec5650e60a256b6cbfedb6ebf"
SENTINEL_NO_NAN_ASC = """\
ncols 3
nrows 2
xllcorner 500000.0
yllcorner 0.0
cellsize 30.0
NODATA_value -9999.0
1.5 -0.0 2.25
3.0 4.0 -7.125
"""


@pytest.mark.parametrize("suffix", [".asc", ".tif"])
def test_nan_free_grid_with_a_sentinel_round_trips_byte_for_byte(tmp_path, suffix):
    grid = make_grid([[1.5, -0.0, 2.25], [3.0, 4.0, -7.125]], origin_x=500000.0, cell=30.0, crs="EPSG:32654")
    assert grid.nodata == -9999.0 and not grid.has_nodata
    path = tmp_path / f"grid{suffix}"
    write_raster(grid, path)
    data = path.read_bytes()
    if suffix == ".asc":
        assert data.decode("ascii") == SENTINEL_NO_NAN_ASC
    else:
        assert hashlib.sha256(data).hexdigest() == SENTINEL_NO_NAN_TIF_SHA256
    back = load_raster(path)
    assert back.nodata == -9999.0 and not back.has_nodata
    assert back.values.tobytes() == grid.values.tobytes()
    write_raster(back, tmp_path / f"again{suffix}")
    assert (tmp_path / f"again{suffix}").read_bytes() == data


def test_load_raster_dispatches_on_magic(tmp_path):
    grid = flat_grid(4)
    tif = tmp_path / "a.tif"
    asc = tmp_path / "b.asc"
    write_geotiff(grid, tif)
    write_raster(grid, asc)
    np.testing.assert_array_equal(load_raster(tif).values, grid.values)
    np.testing.assert_array_equal(load_raster(asc).values, grid.values)


def test_load_raster_closes_every_file(tmp_path):
    grid = flat_grid(4)
    write_geotiff(grid, tmp_path / "a.tif")
    write_raster(grid, tmp_path / "b.asc")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_raster(tmp_path / "a.tif")
        load_raster(tmp_path / "b.asc")
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_geotiff_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tif"
    path.write_bytes(b"not a tiff at all")
    with pytest.raises(RasterFormatError):
        read_geotiff(path)


def test_synthetic_terrain_geotiff_round_trip(tmp_path):
    from terralign import TerrainSpec, gen_terrain

    terrain = gen_terrain(TerrainSpec(kind="fractal", n_rows=40, n_cols=56, cell_size=3.0, seed=42))
    path = tmp_path / "terrain.tif"
    write_geotiff(terrain, path)
    back = read_geotiff(path)
    np.testing.assert_array_equal(back.values, terrain.values)
