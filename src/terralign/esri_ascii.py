"""ESRI ASCII grid (.asc) reader and writer.

Header keys are case-insensitive; both xllcorner/yllcorner and
xllcenter/yllcenter anchors are accepted. The writer emits corner-anchored
headers and prints values with repr precision so a write/read round trip
reproduces the grid bit for bit.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .raster import RasterFormatError, RasterGrid

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "xllcenter", "yllcenter", "cellsize", "nodata_value")

DEFAULT_NODATA = -9999.0


def read_ascii_grid(path: str | Path) -> RasterGrid:
    path = Path(path)
    header: dict[str, float] = {}
    data_start = 0
    try:
        with path.open("r", encoding="ascii", errors="strict") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise RasterFormatError(f"cannot read ASCII grid {path}: {exc}") from exc

    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 2 and parts[0].lower() in _HEADER_KEYS:
            try:
                header[parts[0].lower()] = float(parts[1])
            except ValueError as exc:
                raise RasterFormatError(f"{path}: bad header line {line!r}") from exc
            data_start = i + 1
        else:
            break

    for key in ("ncols", "nrows", "cellsize"):
        if key not in header:
            raise RasterFormatError(f"{path}: missing required ASCII grid header {key!r}")
    for key in ("ncols", "nrows"):
        if not header[key].is_integer():  # also false for nan and inf
            raise RasterFormatError(f"{path}: {key} must be an integer, got {header[key]}")
    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])
    cellsize = header["cellsize"]
    if n_cols <= 0 or n_rows <= 0:
        raise RasterFormatError(f"{path}: non-positive grid dimensions")
    if not (0 < cellsize < math.inf):
        raise RasterFormatError(f"{path}: cellsize must be positive and finite, got {cellsize}")

    if "xllcorner" in header:
        xll = header["xllcorner"]
    elif "xllcenter" in header:
        xll = header["xllcenter"] - cellsize / 2.0
    else:
        raise RasterFormatError(f"{path}: missing xllcorner/xllcenter")
    if "yllcorner" in header:
        yll = header["yllcorner"]
    elif "yllcenter" in header:
        yll = header["yllcenter"] - cellsize / 2.0
    else:
        raise RasterFormatError(f"{path}: missing yllcorner/yllcenter")

    body = " ".join(lines[data_start:])
    try:
        flat = np.array(body.split(), dtype=np.float64)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: non-numeric cell value ({exc})") from exc
    if flat.size != n_rows * n_cols:
        raise RasterFormatError(
            f"{path}: expected {n_rows * n_cols} values, found {flat.size}"
        )
    values = flat.reshape(n_rows, n_cols)

    nodata = header.get("nodata_value")
    if nodata is not None:
        values = np.where(values == nodata, np.nan, values)

    return RasterGrid(
        origin_x=xll,
        origin_y=yll + n_rows * cellsize,
        cell_size_x=cellsize,
        cell_size_y=-cellsize,
        values=values,
        nodata=nodata,
        crs_tag="",
    )


def write_ascii_grid(grid: RasterGrid, path: str | Path) -> None:
    """Write a square-celled grid as corner-anchored ESRI ASCII."""
    if abs(grid.cell_size_x - abs(grid.cell_size_y)) > 1e-12 * grid.cell_size_x:
        raise RasterFormatError(
            "ESRI ASCII requires square cells; "
            f"got {grid.cell_size_x} x {grid.cell_size_y}"
        )
    if grid.cell_size_y > 0:
        raise RasterFormatError("ESRI ASCII writer expects a north-up grid (cell_size_y < 0)")
    values = grid.values
    has_nan = bool(np.isnan(values).any())
    nodata = grid.nodata if grid.nodata is not None else (DEFAULT_NODATA if has_nan else None)

    yll = grid.origin_y + grid.n_rows * grid.cell_size_y
    out = [
        f"ncols {grid.n_cols}",
        f"nrows {grid.n_rows}",
        f"xllcorner {grid.origin_x!r}",
        f"yllcorner {yll!r}",
        f"cellsize {grid.cell_size_x!r}",
    ]
    if nodata is not None:
        out.append(f"NODATA_value {nodata!r}")
        values = np.where(np.isnan(values), nodata, values)
    for row in values:
        out.append(" ".join(repr(v) for v in row.tolist()))
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")
