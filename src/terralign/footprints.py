"""Footprint ingestion, quality filtering and shot-group assembly.

The processing order mirrors the acquisition pipeline: parse the footprint
table, keep high-quality shots, subtract the geoid undulation, partition
into shot groups, reject per-group elevation outliers with a rolling
window, then attach reference elevations sampled from the DEM. Each stage
selects rows of a FootprintTable with `take`; a shot group is a slice of
the table sorted by group key.
"""

from __future__ import annotations

import csv
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
_TREE_COVER = {"1": 1.0, "true": 1.0, "0": 0.0, "false": 0.0}


class FootprintError(ValueError):
    """Raised for malformed footprint tables or grouping violations."""


class InputCells(NamedTuple):
    """The header and the kept input rows, each cut or padded with "" to the header's length."""

    header: tuple[str, ...]
    rows: list[list[str]]


@dataclass(frozen=True)
class FootprintTable:
    """Footprints as equal-length columns, one entry per footprint.

    Every column but `shot_number` (str objects) and `row` is float64:
    `degrade_flag` and `quality_flag` hold the integer value of their cell,
    `tree_cover` is 1, 0 or NaN (not given) and `ref_elev` is NaN until
    `attach_reference`. `row[i]` indexes `cells.rows`, the input cells the
    footprint was parsed from, which every table taken from a parsed one
    shares; a table not read from a CSV has `cells` None. Columns are never
    modified in place: each stage takes a new table.
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


def parse_footprints(lines: Iterable[str], source: str = "<stream>") -> tuple[FootprintTable, ParseStats]:
    """Read a footprint CSV into a FootprintTable.

    Blank lines are skipped and not counted in `n_rows`. Each row is padded
    with "" or cut to the header's length, and kept as it is in the
    table's `cells`. Rows with missing/NA required fields or unparseable
    numerics are dropped and counted in the returned stats, not raised.
    `shot_number` is stripped of surrounding spaces.
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
    required = [header.index(c) for c in REQUIRED_COLUMNS]
    i_shot, _, i_x, i_y, i_elev, i_degrade, i_quality, i_sens, i_rh100 = required
    i_tree = header.index("tree_cover") if "tree_cover" in header else None

    kept: list[list[str]] = []
    shots: list[str] = []
    values: list[tuple[float, ...]] = []
    stats = ParseStats()
    for cells in rows:
        if not cells:
            continue
        stats.n_rows += 1
        if len(cells) != width:
            cells = cells[:width] + [""] * (width - len(cells))
        if any(_is_na(cells[i]) for i in required):
            stats.n_dropped_na += 1
            continue
        try:
            x = float(cells[i_x])
            y = float(cells[i_y])
            elev = float(cells[i_elev])
            degrade = int(float(cells[i_degrade]))
            quality = int(float(cells[i_quality]))
            sens = float(cells[i_sens])
            rh100 = float(cells[i_rh100])
        except (ValueError, OverflowError):  # OverflowError: int() of an infinite flag
            stats.n_dropped_bad_numeric += 1
            continue
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(elev)):
            stats.n_dropped_bad_numeric += 1
            continue
        tree_cover = math.nan
        if i_tree is not None and not _is_na(cells[i_tree]):
            tree_cover = _TREE_COVER.get(cells[i_tree].strip().lower())
            if tree_cover is None:
                stats.n_dropped_bad_numeric += 1
                continue
        kept.append(cells)
        shots.append(cells[i_shot].strip())
        values.append((x, y, elev, degrade, quality, sens, rh100, tree_cover))
    if stats.n_dropped_na or stats.n_dropped_bad_numeric:
        logger.info(
            "%s: dropped %d NA rows and %d unparseable rows of %d",
            source, stats.n_dropped_na, stats.n_dropped_bad_numeric, stats.n_rows,
        )
    numeric = np.array(values, dtype=np.float64).reshape(-1, 8).T.copy()
    x, y, elev, degrade, quality, sens, rh100, tree_cover = numeric
    table = FootprintTable(
        x=x, y=y, elev_lowestmode=elev, gedi_dem=elev, ref_elev=np.full(len(kept), math.nan),
        degrade_flag=degrade, quality_flag=quality, sensitivity=sens, rh100=rh100,
        tree_cover=tree_cover, shot_number=np.array(shots, dtype=object),
        row=np.arange(len(kept)), cells=InputCells(tuple(header), kept),
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
    series: Sequence[float], window: int = QualityRules.outlier_window, k: float = QualityRules.outlier_k
) -> np.ndarray:
    """Flag elements deviating more than k local standard deviations.

    The window of `window` consecutive elements is centered at each index
    and truncated at the series ends. The standard deviation uses the
    sample (n-1) formula; windows with fewer than 3 elements or zero
    deviation never flag.
    """
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be odd and >= 3")
    if k <= 0:
        raise ValueError("k must be positive")
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    n = x.size
    if n == 0:
        return np.zeros(0, dtype=bool)

    half = window // 2
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    count = (hi - lo).astype(np.float64)
    cum = np.concatenate(([0.0], np.cumsum(x)))
    cum_sq = np.concatenate(([0.0], np.cumsum(x * x)))
    wsum = cum[hi] - cum[lo]
    wsq = cum_sq[hi] - cum_sq[lo]
    mean = wsum / count
    with np.errstate(divide="ignore", invalid="ignore"):
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


def group_by_shot(table: FootprintTable) -> list[ShotGroup]:
    """Partition footprints by their GROUP_PREFIX_LEN-character shot-number
    prefix, sorted by group key.

    Input order is preserved within each group.
    """
    short = [s for s in table.shot_number if len(s) < GROUP_PREFIX_LEN]
    if short:
        raise FootprintError(
            f"shot_number {short[0]!r} shorter than the {GROUP_PREFIX_LEN}-character group prefix"
        )
    keys = np.array([s[:GROUP_PREFIX_LEN] for s in table.shot_number], dtype=object)
    order = np.argsort(keys, kind="stable")
    ordered = table.take(order)
    unique, starts = np.unique(keys[order], return_index=True)
    ends = np.append(starts[1:], len(keys))
    return [
        ShotGroup(key=key, table=ordered.take(slice(a, b)))
        for key, a, b in zip(unique, starts, ends)
    ]


def remove_outliers(
    group: ShotGroup, window: int = QualityRules.outlier_window, k: float = QualityRules.outlier_k
) -> ShotGroup:
    """Drop footprints flagged by the rolling window on gedi_dem."""
    mask = flag_rolling_outliers(group.gedi_dem, window, k)
    return ShotGroup(key=group.key, table=group.table.take(~mask))


def attach_reference(
    group: ShotGroup,
    dem: RasterGrid,
    radius: float = DEFAULT_RADIUS_M,
    agg: AggregationKind = AggregationKind.MEAN,
    max_dem_diff: float = QualityRules.max_dem_diff,
) -> ShotGroup:
    """Attach buffer-aggregated DEM elevations at uncorrected positions.

    Footprints with a nodata reference or |gedi_dem - ref_elev| above
    max_dem_diff are dropped; the pruned group may be empty.
    """
    refs = aggregate_buffer_points(dem, group.x, group.y, radius, agg)
    keep = np.isfinite(refs) & (np.abs(group.gedi_dem - refs) <= max_dem_diff)
    return ShotGroup(key=group.key, table=group.table.take(keep, ref_elev=refs))


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

    groups = group_by_shot(kept)
    stats.n_groups = len(groups)

    groups = [remove_outliers(g, rules.outlier_window, rules.outlier_k) for g in groups]
    stats.n_after_outliers = sum(len(g) for g in groups)

    groups = [attach_reference(g, dem, radius, agg, rules.max_dem_diff) for g in groups]
    stats.n_after_attach = sum(len(g) for g in groups)
    stats.n_groups_ready = sum(1 for g in groups if len(g) >= MIN_GROUP_SIZE)
    logger.info(
        "prepared %d groups (%d meet the minimum size of %d)",
        len(groups), stats.n_groups_ready, MIN_GROUP_SIZE,
    )
    return groups, stats
