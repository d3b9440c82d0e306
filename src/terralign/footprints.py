"""Footprint ingestion, quality filtering and shot-group assembly.

The processing order mirrors the acquisition pipeline: parse the footprint
table, keep high-quality shots, subtract the geoid undulation, partition
into shot groups, reject per-group elevation outliers with a rolling
window, then attach reference elevations sampled from the DEM. Each stage
runs once over the whole table and selects its rows with one keep mask
(`take`); the shot groups are slices of the final table, sorted by group
key, cut only after the last stage.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_RADIUS_M, QualityRules
from .raster import AggregationKind, RasterGrid, aggregate_buffer_points, check_crs, sample_points

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = (
    "shot_number",
    "beam",
    "x",
    "y",
    "elev_lowestmode",
    "degrade_flag",
    "quality_flag",
    "sensitivity",
    "rh100",
)

GROUP_PREFIX_LEN = 10
# correlation distance is undefined below 2 footprints and unstable at 2
MIN_GROUP_SIZE = 3

_NA_TOKENS = frozenset({"", "na", "nan", "null", "none"})
_NA_MAX_LEN = max(map(len, _NA_TOKENS))
_TREE_COVER = {"1": 1.0, "true": 1.0, "0": 0.0, "false": 0.0}


class FootprintError(ValueError):
    """Raised for malformed footprint tables or grouping violations."""


class InputCells(NamedTuple):
    """The header and the kept input rows, each cut or padded with "" to the header's length."""

    header: tuple[str, ...]
    rows: list[tuple[str, ...]]


@dataclass(frozen=True)
class FootprintTable:
    """Footprints as equal-length columns, one entry per footprint.

    Every column but `shot_number` (str objects), `row` and `group_id` is
    float64: `degrade_flag` and `quality_flag` hold the integer value of
    their cell, `tree_cover` is 1, 0 or NaN (not given) and `ref_elev` is
    NaN until `attach_reference`. `row[i]` indexes `cells.rows`, the input
    cells the footprint was parsed from, which every table taken from a
    parsed one shares; a table not read from a CSV has `cells` None.
    `group_id[i]` is the index of the footprint's group among the keys
    `group_by_shot` returned, and 0 in a table not yet grouped. Columns are
    never modified in place: each stage takes a new table.
    """

    x: np.ndarray
    y: np.ndarray
    elev_lowestmode: np.ndarray
    gedi_dem: np.ndarray
    ref_elev: np.ndarray
    degrade_flag: np.ndarray
    quality_flag: np.ndarray
    sensitivity: np.ndarray
    rh100: np.ndarray
    tree_cover: np.ndarray
    shot_number: np.ndarray
    row: np.ndarray
    group_id: np.ndarray
    cells: InputCells | None = None

    def __len__(self) -> int:
        return len(self.row)

    def take(self, index, **replaced: np.ndarray) -> FootprintTable:
        """The rows selected by `index` (a mask, indices or a slice), in that order.

        A keyword replaces that column by an array of this table's length.
        """
        columns = {name: replaced.get(name, getattr(self, name))[index] for name in COLUMNS}
        return FootprintTable(**columns, cells=self.cells)


COLUMNS = tuple(f.name for f in fields(FootprintTable) if f.name != "cells")


@dataclass(frozen=True)
class ShotGroup:
    """The footprints sharing one shot-number prefix; `group.x` reads `group.table.x`."""

    key: str
    table: FootprintTable

    def __len__(self) -> int:
        return len(self.table)

    def __getattr__(self, name: str) -> np.ndarray:
        if name in COLUMNS:
            return getattr(self.table, name)
        raise AttributeError(name)


@dataclass
class ParseStats:
    n_rows: int = 0
    n_dropped_na: int = 0
    n_dropped_bad_numeric: int = 0


@dataclass
class PipelineStats:
    """Footprint counts after each pipeline stage, for diagnostics."""

    n_input: int = 0
    n_after_quality: int = 0
    n_after_geoid: int = 0
    n_groups: int = 0
    n_after_outliers: int = 0
    n_after_attach: int = 0
    n_groups_ready: int = 0

    def empty_stage(self) -> str | None:
        """Name the first stage whose output dropped to zero footprints."""
        stages = (
            ("quality filters", self.n_after_quality),
            ("geoid sampling", self.n_after_geoid),
            ("rolling outlier rejection", self.n_after_outliers),
            ("reference attachment", self.n_after_attach),
        )
        if self.n_input == 0:
            return "parsing"
        for name, count in stages:
            if count == 0:
                return name
        return None


def _is_na(token: str) -> bool:
    return token.strip().lower() in _NA_TOKENS


def _csv_rows(lines: Iterable[str], source: str) -> Iterator[list[str]]:
    """The CSV rows of `lines`, with read errors raised as FootprintError naming `source`.

    The csv module rejects a cell longer than `csv.field_size_limit()`, and a
    file's decoder rejects bytes that are not text in its encoding.
    """
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise FootprintError(f"{source}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FootprintError(f"{source}: undecodable text after line {reader.line_num}: {exc}") from exc


def _na_mask(column: Sequence[str]) -> np.ndarray:
    """`_is_na` of every cell, tested only where the stripped cell is as
    short as an NA token: `lower` never shortens a string."""
    n = len(column)
    mask = np.zeros(n, dtype=bool)
    short = np.flatnonzero(np.fromiter(map(len, map(str.strip, column)), np.int64, n) <= _NA_MAX_LEN)
    mask[short] = [_is_na(column[i]) for i in short]
    return mask


def _floats(column: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """`float` of every cell, NaN where it raises, and where it raised."""
    n = len(column)
    try:
        return np.fromiter(map(float, column), np.float64, n), np.zeros(n, bool)
    except ValueError:
        pass
    values = np.full(n, math.nan)
    failed = np.zeros(n, bool)
    for i, cell in enumerate(column):
        try:
            values[i] = float(cell)
        except ValueError:
            failed[i] = True
    return values, failed


def parse_footprints(lines: Iterable[str], source: str = "<stream>") -> tuple[FootprintTable, ParseStats]:
    """Read a footprint CSV into a FootprintTable.

    Blank lines are skipped and not counted in `n_rows`. Each row is padded
    with "" or cut to the header's length, and kept as it is in the
    table's `cells`. Rows with missing/NA required fields or unparseable
    numerics are dropped and counted in the returned stats, not raised.
    `shot_number` is stripped of surrounding spaces. Each column is
    converted in one pass, and each drop rule is a mask over the rows.
    """
    rows = _csv_rows(lines, source)
    header = next(rows, None)
    if header is None:
        raise FootprintError(f"{source}: empty table, no header row")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise FootprintError(f"{source}: missing required columns: {', '.join(missing)}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise FootprintError(f"{source}: repeated column names: {', '.join(map(repr, repeated))}")
    width = len(header)
    # tuples of str: a collection untracks them, so the cyclic GC stops rescanning the rows
    cells = [tuple(r if len(r) == width else r[:width] + [""] * (width - len(r))) for r in rows if r]
    n = len(cells)
    columns = list(zip(*cells)) if n else [()] * width
    column = {name: columns[header.index(name)] for name in REQUIRED_COLUMNS}

    shots = [c.strip() for c in column["shot_number"]]
    na = _na_mask(column["shot_number"]) | _na_mask(column["beam"])
    bad = np.zeros(n, bool)
    values = {}
    for name in REQUIRED_COLUMNS[2:]:  # x to rh100, the numeric columns
        v, failed = _floats(column[name])
        # only a cell that float() rejects or reads as NaN can be an NA token
        maybe_na = np.flatnonzero(failed | np.isnan(v))
        na[maybe_na] |= _na_mask([column[name][i] for i in maybe_na])
        if name in ("x", "y", "elev_lowestmode"):
            bad |= ~np.isfinite(v)
        elif name in ("degrade_flag", "quality_flag"):
            bad |= ~np.isfinite(v)  # int() of an infinite flag raises
            v = np.trunc(v) + 0.0  # int(float(cell)), whose -0.5 gives +0.0
        else:
            bad |= failed
        values[name] = v
    tree_cover = np.full(n, math.nan)
    if "tree_cover" in header:
        tokens = [c.strip().lower() for c in columns[header.index("tree_cover")]]
        tree_cover = np.fromiter((_TREE_COVER.get(t, math.nan) for t in tokens), np.float64, n)
        bad |= np.fromiter((t not in _TREE_COVER and t not in _NA_TOKENS for t in tokens), bool, n)

    keep = ~(na | bad)
    stats = ParseStats(n_rows=n, n_dropped_na=int(na.sum()), n_dropped_bad_numeric=int((bad & ~na).sum()))
    if stats.n_dropped_na or stats.n_dropped_bad_numeric:
        logger.info(
            "%s: dropped %d NA rows and %d unparseable rows of %d",
            source, stats.n_dropped_na, stats.n_dropped_bad_numeric, stats.n_rows,
        )
    kept = list(itertools.compress(cells, keep))
    elev = values["elev_lowestmode"][keep]
    table = FootprintTable(
        x=values["x"][keep], y=values["y"][keep], elev_lowestmode=elev, gedi_dem=elev,
        ref_elev=np.full(len(kept), math.nan), degrade_flag=values["degrade_flag"][keep],
        quality_flag=values["quality_flag"][keep], sensitivity=values["sensitivity"][keep],
        rh100=values["rh100"][keep], tree_cover=tree_cover[keep],
        shot_number=np.array(list(itertools.compress(shots, keep)), dtype=object),
        row=np.arange(len(kept)), group_id=np.zeros(len(kept), np.int64),
        cells=InputCells(tuple(header), kept),
    )
    return table, stats


def filter_quality(table: FootprintTable, rules: QualityRules) -> FootprintTable:
    """Keep footprints passing every enabled quality predicate."""
    keep = (rules.min_elev < table.elev_lowestmode) & (table.elev_lowestmode < rules.max_elev)
    if rules.require_degrade_zero:
        keep &= table.degrade_flag == 0
    if rules.require_quality_one:
        keep &= table.quality_flag == 1
    keep &= ~(table.sensitivity < rules.min_sensitivity)
    if rules.require_positive_rh100:
        keep &= table.rh100 > 0
    if rules.require_tree_cover:
        keep &= table.tree_cover == 1
    return table.take(keep)


def flag_rolling_outliers(
    series: Sequence[float],
    window: int = QualityRules.outlier_window,
    k: float = QualityRules.outlier_k,
    starts: Sequence[int] = (0,),
) -> np.ndarray:
    """Flag elements deviating more than k local standard deviations.

    The window of `window` consecutive elements is centered at each index
    and truncated at the series ends. The standard deviation uses the
    sample (n-1) formula; windows with fewer than 3 elements or zero
    deviation never flag. `starts` cuts `series` into consecutive series at
    these ascending indices, the first 0: no window crosses a cut, and each
    piece is flagged exactly as it would be alone.
    """
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be odd and >= 3")
    if k <= 0:
        raise ValueError("k must be positive")
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    n = x.size
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1 or starts.size == 0 or starts[0] != 0 or np.any(np.diff(starts) < 0) or starts[-1] > n:
        raise ValueError("starts must ascend from 0 and stay within the series")
    if n == 0:
        return np.zeros(0, dtype=bool)

    # Piece p's running sums fill cum[a + p : b + p + 1] for its rows a..b-1,
    # from 0.0: each piece takes its own cumsum, which is sequential, so its
    # sums round as if the piece were alone.
    ends = np.append(starts[1:], n)
    xsq = x * x
    cum = np.zeros(n + starts.size)
    cum_sq = np.zeros(n + starts.size)
    for p, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        np.cumsum(x[a:b], out=cum[a + p + 1 : b + p + 1])
        np.cumsum(xsq[a:b], out=cum_sq[a + p + 1 : b + p + 1])

    # a window wider than 2n + 1 covers every piece whole, as 2n + 1 does
    half = min(window // 2, n)
    piece = np.repeat(np.arange(starts.size), ends - starts)
    idx = np.arange(n)
    lo = np.maximum(idx - half, starts[piece])
    hi = np.minimum(idx + half + 1, ends[piece])
    count = (hi - lo).astype(np.float64)
    wsum = cum[hi + piece] - cum[lo + piece]
    wsq = cum_sq[hi + piece] - cum_sq[lo + piece]
    mean = wsum / count
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a k near the float limit flags nothing
        var = (wsq - wsum * wsum / count) / (count - 1.0)
        var = np.where(np.isfinite(var), np.maximum(var, 0.0), 0.0)
        sd = np.sqrt(var)
        mask = np.abs(x - mean) > k * sd
    mask &= count >= 3
    mask &= sd > 0.0
    return mask


def apply_geoid(table: FootprintTable, geoid: RasterGrid | None) -> FootprintTable:
    """Set gedi_dem = elev_lowestmode minus the geoid undulation at (x, y).

    With no geoid grid, gedi_dem = elev_lowestmode. Footprints whose
    undulation query lands on nodata are dropped.
    """
    if geoid is None:
        return table.take(slice(None), gedi_dem=table.elev_lowestmode)
    und = sample_points(geoid, table.x, table.y)
    out = table.take(np.isfinite(und), gedi_dem=table.elev_lowestmode - und)
    n_dropped = len(table) - len(out)
    if n_dropped:
        logger.info("geoid sampling dropped %d footprints outside the geoid grid", n_dropped)
    return out


def group_by_shot(table: FootprintTable) -> tuple[FootprintTable, list[str]]:
    """Sort footprints by their GROUP_PREFIX_LEN-character shot-number prefix.

    Returns the sorted table, whose `group_id` indexes the second result:
    the distinct prefixes (the group keys), ascending. Input order is
    preserved within each group.
    """
    short = [s for s in table.shot_number if len(s) < GROUP_PREFIX_LEN]
    if short:
        raise FootprintError(
            f"shot_number {short[0]!r} shorter than the {GROUP_PREFIX_LEN}-character group prefix"
        )
    # Every prefix has GROUP_PREFIX_LEN characters, so as fixed-width numpy
    # strings they sort and compare as the Python strings do.
    prefixes = table.shot_number.astype(f"U{GROUP_PREFIX_LEN}")
    order = np.argsort(prefixes, kind="stable")
    prefixes = prefixes[order]
    new_key = np.ones(len(order), dtype=bool)
    new_key[1:] = prefixes[1:] != prefixes[:-1]
    group_id = np.empty(len(order), dtype=np.int64)
    group_id[order] = np.cumsum(new_key) - 1
    keys = [table.shot_number[i][:GROUP_PREFIX_LEN] for i in order[new_key]]
    return table.take(order, group_id=group_id), keys


def split_groups(table: FootprintTable, keys: Sequence[str]) -> list[ShotGroup]:
    """One ShotGroup per key, empty ones included, from a table sorted by `group_id`."""
    bounds = np.searchsorted(table.group_id, np.arange(len(keys) + 1))
    return [
        ShotGroup(key=key, table=table.take(slice(a, b)))
        for key, a, b in zip(keys, bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def remove_outliers(
    table: FootprintTable, window: int = QualityRules.outlier_window, k: float = QualityRules.outlier_k
) -> FootprintTable:
    """Drop footprints flagged by the rolling window on gedi_dem.

    Each run of equal `group_id` (a group, in a table from `group_by_shot`)
    is one series: no window crosses into the next run.
    """
    starts = np.flatnonzero(table.group_id[1:] != table.group_id[:-1]) + 1
    mask = flag_rolling_outliers(table.gedi_dem, window, k, np.concatenate(([0], starts)))
    return table.take(~mask)


def attach_reference(
    table: FootprintTable,
    dem: RasterGrid,
    radius: float = DEFAULT_RADIUS_M,
    agg: AggregationKind = AggregationKind.MEAN,
    max_dem_diff: float = QualityRules.max_dem_diff,
) -> FootprintTable:
    """Attach buffer-aggregated DEM elevations at uncorrected positions.

    Footprints with a nodata reference or |gedi_dem - ref_elev| above
    max_dem_diff are dropped; the result may be empty.
    """
    refs = aggregate_buffer_points(dem, table.x, table.y, radius, agg)
    keep = np.isfinite(refs) & (np.abs(table.gedi_dem - refs) <= max_dem_diff)
    return table.take(keep, ref_elev=refs)


def prepare_groups(
    table: FootprintTable,
    dem: RasterGrid,
    geoid: RasterGrid | None = None,
    rules: QualityRules | None = None,
    radius: float = DEFAULT_RADIUS_M,
    agg: AggregationKind = AggregationKind.MEAN,
    footprint_crs: str = "",
) -> tuple[list[ShotGroup], PipelineStats]:
    """Run the full preprocessing pipeline and report per-stage counts.

    `footprint_crs` is the CRS tag of the footprint coordinates. The DEM's
    and the geoid's tags are checked against it before the first stage, and
    a mismatch raises CrsMismatchError; an empty tag matches any. Groups
    are returned regardless of size (including empty ones) so the
    optimizer can account skips; callers enforce MIN_GROUP_SIZE.
    """
    check_crs(dem.crs_tag, footprint_crs, context="DEM vs footprints")
    if geoid is not None:
        check_crs(geoid.crs_tag, footprint_crs, context="geoid vs footprints")
    rules = rules or QualityRules()
    stats = PipelineStats(n_input=len(table))

    kept = filter_quality(table, rules)
    stats.n_after_quality = len(kept)
    logger.info("quality filters kept %d of %d footprints", len(kept), len(table))

    kept = apply_geoid(kept, geoid)
    stats.n_after_geoid = len(kept)

    kept, keys = group_by_shot(kept)
    stats.n_groups = len(keys)

    kept = remove_outliers(kept, rules.outlier_window, rules.outlier_k)
    stats.n_after_outliers = len(kept)

    kept = attach_reference(kept, dem, radius, agg, rules.max_dem_diff)
    stats.n_after_attach = len(kept)

    groups = split_groups(kept, keys)
    stats.n_groups_ready = sum(1 for g in groups if len(g) >= MIN_GROUP_SIZE)
    logger.info(
        "prepared %d groups (%d meet the minimum size of %d)",
        len(groups), stats.n_groups_ready, MIN_GROUP_SIZE,
    )
    return groups, stats
