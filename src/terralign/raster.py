"""Georeferenced elevation grids with point and circular-buffer queries.

The :class:`RasterGrid` is the in-memory representation of a DEM or geoid
raster. Cell values are stored as float64 with NaN marking nodata; the
original on-disk sentinel is kept so grids can be written back out. Grids
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np


class RasterError(Exception):
    """Base class for raster loading and sampling errors."""


class RasterFormatError(RasterError):
    """File is not a raster format this package can read or write."""


class CrsMismatchError(RasterError):
    """Two datasets declare different coordinate reference systems."""


class AggregationKind(str, Enum):
    """Statistic applied to cell values inside a circular buffer."""

    MEAN = "mean"
    MEDIAN = "median"


# Cap on temporary array size in the vectorised buffer query. Each row is
# computed independently of the chunking, so this trades only speed and memory.
_CHUNK_ELEMENTS = 65_536

# Taken off every slack that `aggregate_buffer_points` reports, to cover the
# rounding between a moved center and the kernel's view of it. With center
# and origin coordinates up to _SLACK_COORD_LIMIT_M in magnitude (so
# |x - origin| < 2**25 m), each rounding of a coordinate, of an anchor
# fraction (in metres) or of a cell-centre offset is at most half an ulp of
# 2**25 m, 1.9e-9 m; those of the squared distances and their roots are
# relative, under 1e-15. Fewer than ten roundings separate two centers'
# views, so they differ by less than 2e-8 m, 1/50 of the margin. A center
# beyond the limit, or any center on a grid whose origin is, gets slack -inf.
SLACK_MARGIN_M = 1e-6
_SLACK_COORD_LIMIT_M = 1e7

@dataclass
class RasterGrid:
    """Single-band elevation grid with affine (axis-aligned) cell geometry.

    Attributes:
        origin_x: x coordinate of the grid's upper-left corner (m).
        origin_y: y coordinate of the grid's upper-left corner (m).
        cell_size_x: cell width (m), > 0.
        cell_size_y: cell height (m); negative for north-up grids.
        values: (n_rows, n_cols) float64 array, NaN where nodata.
        nodata: on-disk nodata sentinel, or None if the source had none.
        crs_tag: opaque CRS identifier (e.g. "EPSG:32654"); "" if unknown.
        has_nodata: whether any cell of `values` is NaN; set from `values`
            when the grid is built (not a field), never to be reassigned.
    """

    origin_x: float
    origin_y: float
    cell_size_x: float
    cell_size_y: float
    values: np.ndarray
    nodata: float | None = None
    crs_tag: str = ""

    def __post_init__(self) -> None:
        # contiguous, so the buffer kernel can gather from a flat view
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("values must be a non-empty 2-D array")
        if not (math.isfinite(self.cell_size_x) and self.cell_size_x > 0):
            raise ValueError(f"cell_size_x must be finite and > 0, got {self.cell_size_x}")
        if not math.isfinite(self.cell_size_y) or self.cell_size_y == 0:
            raise ValueError(f"cell_size_y must be finite and nonzero, got {self.cell_size_y}")
        finite = bool(np.isfinite(self.values).all())
        if not finite and np.isinf(self.values).any():
            raise ValueError("raster contains non-finite (inf) values")
        self.values.setflags(write=False)
        self.has_nodata = not finite

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) of the grid's outer edges."""
        x0 = self.origin_x
        x1 = self.origin_x + self.n_cols * self.cell_size_x
        y0 = self.origin_y
        y1 = self.origin_y + self.n_rows * self.cell_size_y
        return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


def check_crs(tag_a: str, tag_b: str, context: str = "") -> None:
    """Raise CrsMismatchError when two declared CRS tags disagree.

    An empty tag means "unknown" and is compatible with anything; the
    package never reprojects, it only refuses explicit mismatches.
    """
    if tag_a and tag_b and tag_a != tag_b:
        where = f" ({context})" if context else ""
        raise CrsMismatchError(f"CRS mismatch{where}: {tag_a!r} vs {tag_b!r}")


def sample_points(grid: RasterGrid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorised cell lookup; returns float64 with NaN where undefined."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    cols = np.floor((xs - grid.origin_x) / grid.cell_size_x).astype(np.int64)
    rows = np.floor((ys - grid.origin_y) / grid.cell_size_y).astype(np.int64)
    inside = (rows >= 0) & (rows < grid.n_rows) & (cols >= 0) & (cols < grid.n_cols)
    out = np.full(xs.shape, np.nan)
    out[inside] = grid.values[rows[inside], cols[inside]]
    return out


def aggregate_buffer_points(
    grid: RasterGrid,
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    agg: AggregationKind = AggregationKind.MEAN,
    slack: np.ndarray | None = None,
) -> np.ndarray:
    """Circular-buffer aggregation for many centers at once.

    Each center is scored over a cached stencil of cell offsets. Cell-center
    distances are computed once per axis and squared; rows and columns off
    the grid get an inf squared distance, so the `<= radius**2` test is also
    the bounds test. The sums and medians run over the same stencil layout
    and order as a per-cell computation, so the outputs are bit-identical to
    one that computes every (center, cell) distance and bounds test apart.

    Args:
        grid: source raster.
        xs, ys: 1-D arrays of buffer center coordinates (m).
        radius: buffer radius (m), > 0.
        agg: statistic over member cells.
        slack: optional float64 array of the same length, filled with each
            center's slack: a distance (m) it can move in any direction
            with the same result bits, because neither its anchor cell nor
            any stencil cell's in/out state changes. It is the least of the
            distances to the anchor cell's edges and of |d - radius| over
            the stencil's on-grid cell centres at distance d, less
            SLACK_MARGIN_M; not positive when no move is safe.

    Returns:
        float64 array of the same length; NaN marks empty buffers.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"buffer radius must be > 0, got {radius}")
    agg = AggregationKind(agg)
    xs = np.ascontiguousarray(xs, dtype=float).ravel()
    ys = np.ascontiguousarray(ys, dtype=float).ravel()
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have the same length")

    stencil = _stencil_plan(grid.cell_size_x, abs(grid.cell_size_y), radius, grid.n_cols)
    out = np.empty(xs.shape[0], dtype=np.float64)
    chunk = max(1, _CHUNK_ELEMENTS // stencil.flat_offsets.size)
    for start in range(0, xs.shape[0], chunk):
        stop = min(start + chunk, xs.shape[0])
        out[start:stop] = _buffer_stats_chunk(
            grid, xs[start:stop], ys[start:stop], radius, agg, stencil,
            None if slack is None else slack[start:stop],
        )
    if slack is not None:
        slack[(np.abs(xs) > _SLACK_COORD_LIMIT_M) | (np.abs(ys) > _SLACK_COORD_LIMIT_M)] = -np.inf
        if max(abs(grid.origin_x), abs(grid.origin_y)) > _SLACK_COORD_LIMIT_M:
            slack[:] = -np.inf
    return out


class _StencilPlan(NamedTuple):
    """Index arrays of one stencil on grids `n_cols` wide; all read-only."""

    col_steps: np.ndarray  # (2kx+1, 1) column offsets -kx..kx of the per-axis tables
    row_steps: np.ndarray  # (2ky+1, 1) row offsets -ky..ky
    ddx_rows: np.ndarray  # (S,) row of the squared x-distance table per stencil cell
    ddy_rows: np.ndarray  # (S,) row of the squared y-distance table per stencil cell
    flat_offsets: np.ndarray  # (S,) offset of each stencil cell in the flat grid


@functools.lru_cache(maxsize=64)
def _stencil_plan(csx: float, csy: float, radius: float, n_cols: int) -> _StencilPlan:
    """What every chunk of a buffer query needs of its stencil, computed once.

    The stencil holds the (row, col) offsets of the cells that could fall in
    the buffer. It is anchored at the cell containing the buffer center, so
    cells whose nearest possible center distance already exceeds the radius
    are pruned up front (roughly the square's corners). Keyed on the cell
    sizes (|cell_size_y| for csy) rather than the unhashable grid; the cached
    arrays are shared by every caller, hence read-only.
    """
    kx = int(math.ceil(radius / csx)) + 1
    ky = int(math.ceil(radius / csy)) + 1
    offs_r, offs_c = np.meshgrid(np.arange(-ky, ky + 1), np.arange(-kx, kx + 1), indexing="ij")
    # Anchor cell contains the center, so a stencil cell's center is at least
    # (|offset| - 1) cells away in each axis.
    min_dx = np.maximum(np.abs(offs_c) - 1, 0) * csx
    min_dy = np.maximum(np.abs(offs_r) - 1, 0) * csy
    keep = min_dx * min_dx + min_dy * min_dy <= radius * radius
    offs_r = offs_r[keep]
    offs_c = offs_c[keep]
    kx, ky = int(offs_c.max()), int(offs_r.max())  # the pruning can drop the outer ring
    plan = _StencilPlan(
        col_steps=np.arange(-kx, kx + 1)[:, None],
        row_steps=np.arange(-ky, ky + 1)[:, None],
        ddx_rows=offs_c + kx,
        ddy_rows=offs_r + ky,
        flat_offsets=offs_r * n_cols + offs_c,
    )
    for arr in plan:
        arr.setflags(write=False)
    return plan


# Per-thread work arrays of `_buffer_stats_chunk`, reused across chunks and
# calls: a fresh (centers x stencil) temporary per chunk would be up to 512 KB,
# which the allocator may map and unmap on every chunk.
_scratch = threading.local()


def _scratch_array(name: str, shape: tuple[int, int], dtype: type) -> np.ndarray:
    """A C-ordered view of this thread's `name` buffer, grown when too small.

    The view is valid until this thread's next request for `name`, so nothing
    returned to a caller may be a view of it.
    """
    n = shape[0] * shape[1]
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < n:
        buf = np.empty(n, dtype=dtype)
        setattr(_scratch, name, buf)
    return buf[:n].reshape(shape)


def _buffer_stats_chunk(
    grid: RasterGrid,
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    agg: AggregationKind,
    stencil: _StencilPlan,
    slack: np.ndarray | None,
) -> np.ndarray:
    c0 = np.floor((xs - grid.origin_x) / grid.cell_size_x).astype(np.int64)
    r0 = np.floor((ys - grid.origin_y) / grid.cell_size_y).astype(np.int64)

    # Squared cell-centre distances per axis, one row per offset (so stencil
    # gathers copy whole rows), inf off the grid so that the radius test
    # below is also the bounds test.
    cols = c0 + stencil.col_steps
    rows = r0 + stencil.row_steps
    ddx = grid.origin_x + (cols + 0.5) * grid.cell_size_x - xs
    ddy = grid.origin_y + (rows + 0.5) * grid.cell_size_y - ys
    ddx *= ddx
    ddy *= ddy
    # an interior chunk, whose stencil stays on the grid, has nothing to mask
    kx, ky = stencil.col_steps[-1, 0], stencil.row_steps[-1, 0]
    if c0.min() < kx or c0.max() >= grid.n_cols - kx:
        ddx[(cols < 0) | (cols >= grid.n_cols)] = np.inf
    if r0.min() < ky or r0.max() >= grid.n_rows - ky:
        ddy[(rows < 0) | (rows >= grid.n_rows)] = np.inf
    shape_t = (stencil.flat_offsets.size, xs.shape[0])
    # mode="raise" would gather through a hidden temporary; the indices are in
    # range. The ddy rows pass through the `vals` buffer, unused until later.
    dist = _scratch_array("dist", shape_t, np.float64)
    np.take(ddx, stencil.ddx_rows, axis=0, mode="clip", out=dist)
    dist += np.take(
        ddy, stencil.ddy_rows, axis=0, mode="clip", out=_scratch_array("vals", shape_t, np.float64)
    )
    # A slot counts when its cell centre is within the radius and its cell holds
    # data. `valid` is C-ordered like `vals`, so the MEAN's product is fast.
    within = dist <= radius * radius
    counts = np.count_nonzero(within, axis=0)
    valid = np.ascontiguousarray(within.T)
    if slack is not None:
        # fractions of the anchor cell, from the same quotients as c0 and r0;
        # `dist` is free from here on: turn it into |d - radius| in place
        fu = (xs - grid.origin_x) / grid.cell_size_x - c0
        fv = (ys - grid.origin_y) / grid.cell_size_y - r0
        np.minimum(fu, 1.0 - fu, out=fu)
        np.minimum(fv, 1.0 - fv, out=fv)
        np.minimum(fu * grid.cell_size_x, fv * abs(grid.cell_size_y), out=slack)
        np.sqrt(dist, out=dist)
        dist -= radius
        np.abs(dist, out=dist)
        np.minimum(slack, dist.min(axis=0), out=slack)
        slack -= SLACK_MARGIN_M

    # masked-out slots may gather any cell; `valid` drops them
    shape = shape_t[::-1]
    flat = np.add(
        (r0 * grid.n_cols + c0)[:, None], stencil.flat_offsets,
        out=_scratch_array("flat", shape, np.int64),
    )
    vals = grid.values.ravel().take(flat, mode="clip", out=_scratch_array("vals", shape, np.float64))
    if grid.has_nodata:
        nodata = np.isnan(vals)
        np.copyto(vals, 0.0, where=nodata)  # NaN * 0 is NaN
        nodata &= valid  # the slots counted above, cleared here
        valid ^= nodata
        counts -= np.bincount(np.flatnonzero(nodata) // shape[1], minlength=shape[0])

    # Reduce `vals` in place: it is C-ordered like the per-cell gather, so row
    # sums round the same way.
    if agg is AggregationKind.MEAN:
        # A masked slot of a negative cell is -0.0 here and +0.0 in the per-cell
        # formula. numpy's row sum starts from +0.0, so neither sum ends at -0.0
        # and their bits agree (tests/test_raster.py pins this).
        vals *= valid
        return np.where(counts > 0, vals.sum(axis=1) / np.maximum(counts, 1), np.nan)
    # MEDIAN: masked slots sort last, so a row's c counted values fill its
    # slots 0..c-1 and its middle pair sits at (c - 1) // 2 and c // 2.
    np.copyto(vals, np.inf, where=~valid)
    vals.sort(axis=1)
    out = np.full(xs.shape[0], np.nan)
    has = np.flatnonzero(counts)
    c = counts[has]
    pair = np.stack([vals[has, (c - 1) // 2], vals[has, c // 2]], axis=1)
    # A row sum, not `lo + hi`: numpy's row sum starts from +0.0, so two -0.0
    # middles give +0.0, as np.nanmedian does (tests/test_raster.py pins it).
    out[has] = pair.sum(axis=1) / 2.0
    return out


def load_raster(path: str | Path, kind: str = "raster") -> RasterGrid:
    """Load a GeoTIFF or ESRI ASCII grid from disk.

    Args:
        path: file to read.
        kind: label used in error messages ("dem", "geoid", ...).

    Raises:
        RasterFormatError: unreadable file, unsupported layout (multi-band,
            compressed, tiled), a non-raster file, or a cell size or cell
            value `RasterGrid` rejects.
    """
    path = Path(path)
    if not path.is_file():
        raise RasterFormatError(f"{kind} file not found: {path}")
    try:
        with path.open("rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise RasterFormatError(f"cannot read {kind} file {path}: {exc}") from exc
    if head[:2] in (b"II", b"MM"):
        from .geotiff import read_geotiff as read
    else:
        from .esri_ascii import read_ascii_grid as read
    try:
        return read(path)
    except ValueError as exc:  # e.g. RasterGrid rejecting the file's cell size or values
        raise RasterFormatError(f"{kind} file {path}: {exc}") from exc


def write_raster(grid: RasterGrid, path: str | Path) -> None:
    """Write a grid to GeoTIFF (.tif/.tiff) or ESRI ASCII (anything else)."""
    path = Path(path)
    if path.suffix.lower() in (".tif", ".tiff"):
        from .geotiff import write_geotiff

        write_geotiff(grid, path)
    else:
        from .esri_ascii import write_ascii_grid

        write_ascii_grid(grid, path)
