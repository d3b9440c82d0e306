"""The benchmark's own raster queries, written apart from `terralign.raster`.

They define the numbers the program's outputs are checked against: the
MEAN of every finite cell whose center lies within the radius of a point,
and the value of the cell containing a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_POINTS_PER_BLOCK = 2048


@dataclass(frozen=True)
class Grid:
    """North-up square-celled grid: `values[r, c]` covers x from x0 + c*cell."""

    x0: float
    y0: float  # top edge
    cell: float
    values: np.ndarray

    @classmethod
    def from_raster(cls, grid) -> "Grid":
        if grid.cell_size_x != -grid.cell_size_y:
            raise ValueError("reference queries expect square north-up cells")
        return cls(grid.origin_x, grid.origin_y, grid.cell_size_x, np.array(grid.values))


def sample(grid: Grid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Value of the cell containing each point; NaN outside the grid."""
    out = np.full(len(xs), np.nan)
    n_rows, n_cols = grid.values.shape
    for i, (x, y) in enumerate(zip(xs, ys)):
        c = math.floor((x - grid.x0) / grid.cell)
        r = math.floor((grid.y0 - y) / grid.cell)
        if 0 <= r < n_rows and 0 <= c < n_cols:
            out[i] = grid.values[r, c]
    return out


def _members(grid: Grid, xs: np.ndarray, ys: np.ndarray, radius: float):
    """Window values and a mask of the cells inside each point's circle."""
    k = int(math.ceil(radius / grid.cell)) + 1
    offs = np.arange(-k, k + 1)
    n_rows, n_cols = grid.values.shape
    c0 = np.floor((xs - grid.x0) / grid.cell).astype(np.int64)
    r0 = np.floor((grid.y0 - ys) / grid.cell).astype(np.int64)
    rows = r0[:, None, None] + offs[None, :, None]
    cols = c0[:, None, None] + offs[None, None, :]
    inside = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
    center_x = grid.x0 + (cols + 0.5) * grid.cell
    center_y = grid.y0 - (rows + 0.5) * grid.cell
    dx = center_x - xs[:, None, None]
    dy = center_y - ys[:, None, None]
    vals = grid.values[rows.clip(0, n_rows - 1), cols.clip(0, n_cols - 1)]
    member = inside & (dx * dx + dy * dy <= radius * radius) & np.isfinite(vals)
    n = len(xs)
    return vals.reshape(n, -1), member.reshape(n, -1)


def buffer_mean(grid: Grid, xs, ys, radius: float) -> np.ndarray:
    """MEAN over cells whose centers lie within `radius`; NaN if none."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.full(len(xs), np.nan)
    for start in range(0, len(xs), _POINTS_PER_BLOCK):
        stop = start + _POINTS_PER_BLOCK
        vals, member = _members(grid, xs[start:stop], ys[start:stop], radius)
        for i in range(vals.shape[0]):
            chosen = vals[i][member[i]]
            if chosen.size == 0:
                continue
            out[start + i] = float(np.mean(chosen))
    return out
