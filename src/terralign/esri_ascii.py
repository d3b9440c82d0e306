"""ESRI ASCII grid (.asc) reader and writer.

Header keys are case-insensitive, and each may be given once; an axis is
anchored by either xllcorner/yllcorner or xllcenter/yllcenter, not both. The
writer emits corner-anchored headers and prints values with repr precision
so a write/read round trip reproduces the grid bit for bit.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import TextIO

import numpy as np

from .raster import RasterFormatError, RasterGrid

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "xllcenter", "yllcenter", "cellsize", "nodata_value")

DEFAULT_NODATA = -9999.0

# Characters of the body read and parsed per batch (so at most half as many
# values), and the longest line read as a header line: memory beyond the grid
# itself is bounded however lines wrap.
_CHUNK_CHARS = 1 << 18


def read_ascii_grid(path: str | Path) -> RasterGrid:
    """Read an ESRI ASCII grid, streaming its body into one float64 array.

    Values may wrap over lines in any way. The body is parsed in batches of
    at most `_CHUNK_CHARS` characters, and the array is never larger than the
    file could fill, so peak memory stays near the grid's own size and a
    header that claims a huge grid cannot force a large allocation.
    """
    path = Path(path)
    header: dict[str, float] = {}
    try:
        with path.open("r", encoding="ascii", errors="strict") as fh:
            while True:
                line = fh.readline(_CHUNK_CHARS)
                parts = line.split()
                cut = len(line) == _CHUNK_CHARS and not line.endswith("\n")  # too long for a header
                key = parts[0].lower() if len(parts) == 2 else ""
                if cut or key not in _HEADER_KEYS:
                    break  # `line` starts the body
                if key in header:
                    raise RasterFormatError(f"{path}: header key {key!r} is set twice")
                try:
                    header[key] = float(parts[1])
                except ValueError as exc:
                    raise RasterFormatError(f"{path}: bad header line {line!r}") from exc
            n_rows, n_cols, xll, yll, cellsize = _grid_geometry(path, header)
            # each value takes at least one character and one separator
            max_values = os.fstat(fh.fileno()).st_size // 2 + 1
            flat = _read_values(fh, path, line, n_rows * n_cols, max_values)
    except (OSError, UnicodeDecodeError) as exc:
        raise RasterFormatError(f"cannot read ASCII grid {path}: {exc}") from exc

    values = flat.reshape(n_rows, n_cols)
    nodata = header.get("nodata_value")
    if nodata is not None:
        values[values == nodata] = np.nan

    return RasterGrid(
        origin_x=xll,
        origin_y=yll + n_rows * cellsize,
        cell_size_x=cellsize,
        cell_size_y=-cellsize,
        values=values,
        nodata=nodata,
        crs_tag="",
    )


def _grid_geometry(path: Path, header: dict[str, float]) -> tuple[int, int, float, float, float]:
    """(nrows, ncols, x and y of the lower-left corner, cellsize) of a parsed header."""
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

    anchors = []
    for axis in "xy":
        corner, center = header.get(f"{axis}llcorner"), header.get(f"{axis}llcenter")
        if corner is not None and center is not None:
            raise RasterFormatError(
                f"{path}: header keys {axis}llcorner and {axis}llcenter both set the {axis} anchor"
            )
        if corner is None and center is None:
            raise RasterFormatError(f"{path}: missing {axis}llcorner/{axis}llcenter")
        anchors.append(center - cellsize / 2.0 if corner is None else corner)
    xll, yll = anchors
    return n_rows, n_cols, xll, yll, cellsize


def _read_values(
    fh: TextIO, path: Path, text: str, n_values: int, max_values: int
) -> np.ndarray:
    """Parse the whitespace-separated values after the header into a flat array.

    `text` is the start of the body, already read. Past `n_values` the values
    are only counted, for the error message.
    """
    flat = np.empty(min(n_values, max_values), dtype=np.float64)
    found = 0
    while True:
        block = fh.read(_CHUNK_CHARS)
        text += block
        tokens = text.split()
        # a value cut at the end of the block continues in the next one
        text = tokens.pop() if block and tokens and not text[-1].isspace() else ""
        end = found + len(tokens)
        if end <= flat.size:
            try:
                flat[found:end] = np.array(tokens, dtype=np.float64)
            except ValueError as exc:
                raise RasterFormatError(f"{path}: non-numeric cell value ({exc})") from exc
        found = end
        if not block:
            break
    if found != n_values:
        raise RasterFormatError(f"{path}: expected {n_values} values, found {found}")
    return flat


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
    nodata = grid.nodata if grid.nodata is not None else (DEFAULT_NODATA if grid.has_nodata else None)

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
    if grid.has_nodata:
        values = np.where(np.isnan(values), nodata, values)
    for row in values:
        out.append(" ".join(repr(v) for v in row.tolist()))
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")
