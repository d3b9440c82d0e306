"""Footprint ingestion, quality filtering and shot-group assembly.

The processing order mirrors the acquisition pipeline: parse the footprint
table, keep high-quality shots, subtract the geoid undulation, partition
into shot groups, reject per-group elevation outliers with a rolling
window, then attach reference elevations sampled from the DEM.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .config import QualityRules
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


class FootprintError(ValueError):
    """Raised for malformed footprint tables or grouping violations."""


@dataclass
class Footprint:
    shot_number: str
    beam: str
    x: float
    y: float
    elev_lowestmode: float
    degrade_flag: int
    quality_flag: int
    sensitivity: float
    rh100: float
    tree_cover: bool | None = None
    gedi_dem: float | None = None
    ref_elev: float | None = None
    raw: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class ShotGroup:
    key: str
    footprints: list[Footprint]

    def __len__(self) -> int:
        return len(self.footprints)

    @property
    def elevations(self) -> np.ndarray:
        """Geoid-corrected elevation vector, one entry per footprint."""
        vals = [fp.gedi_dem for fp in self.footprints]
        if any(v is None for v in vals):
            raise FootprintError(f"group {self.key}: gedi_dem not set on every footprint")
        return np.asarray(vals, dtype=np.float64)

    @property
    def positions(self) -> np.ndarray:
        """(n, 2) array of footprint x/y coordinates."""
        return np.asarray([(fp.x, fp.y) for fp in self.footprints], dtype=np.float64)


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


def parse_footprints(lines: Iterable[str], source: str = "<stream>") -> tuple[list[Footprint], ParseStats]:
    """Read a footprint CSV into Footprint records.

    Rows with missing/NA required fields or unparseable numerics are
    dropped and counted in the returned stats, not raised.
    """
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        raise FootprintError(f"{source}: empty table, no header row")
    missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise FootprintError(f"{source}: missing required columns: {', '.join(missing)}")
    has_tree_cover = "tree_cover" in reader.fieldnames

    out: list[Footprint] = []
    stats = ParseStats()
    for row in reader:
        stats.n_rows += 1
        values = {c: (row.get(c) or "") for c in REQUIRED_COLUMNS}
        if any(_is_na(values[c]) for c in REQUIRED_COLUMNS):
            stats.n_dropped_na += 1
            continue
        try:
            x = float(values["x"])
            y = float(values["y"])
            elev = float(values["elev_lowestmode"])
            degrade = int(float(values["degrade_flag"]))
            quality = int(float(values["quality_flag"]))
            sens = float(values["sensitivity"])
            rh100 = float(values["rh100"])
        except ValueError:
            stats.n_dropped_bad_numeric += 1
            continue
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(elev)):
            stats.n_dropped_bad_numeric += 1
            continue
        tree_cover: bool | None = None
        if has_tree_cover:
            token = (row.get("tree_cover") or "").strip().lower()
            if not _is_na(token):
                if token in ("1", "true"):
                    tree_cover = True
                elif token in ("0", "false"):
                    tree_cover = False
                else:
                    stats.n_dropped_bad_numeric += 1
                    continue
        out.append(
            Footprint(
                shot_number=values["shot_number"].strip(),
                beam=values["beam"].strip(),
                x=x,
                y=y,
                elev_lowestmode=elev,
                degrade_flag=degrade,
                quality_flag=quality,
                sensitivity=sens,
                rh100=rh100,
                tree_cover=tree_cover,
                gedi_dem=elev,
                raw={k: (row.get(k) or "") for k in reader.fieldnames},
            )
        )
    if stats.n_dropped_na or stats.n_dropped_bad_numeric:
        logger.info(
            "%s: dropped %d NA rows and %d unparseable rows of %d",
            source, stats.n_dropped_na, stats.n_dropped_bad_numeric, stats.n_rows,
        )
    return out, stats


def filter_quality(fps: Sequence[Footprint], rules: QualityRules) -> list[Footprint]:
    """Keep footprints passing every enabled quality predicate."""

    def ok(fp: Footprint) -> bool:
        if not rules.min_elev < fp.elev_lowestmode < rules.max_elev:
            return False
        if rules.require_degrade_zero and fp.degrade_flag != 0:
            return False
        if rules.require_quality_one and fp.quality_flag != 1:
            return False
        if fp.sensitivity < rules.min_sensitivity:
            return False
        if rules.require_positive_rh100 and not fp.rh100 > 0:
            return False
        if rules.require_tree_cover and fp.tree_cover is not True:
            return False
        return True

    return [fp for fp in fps if ok(fp)]


def flag_rolling_outliers(series: Sequence[float], window: int = 7, k: float = 2.0) -> np.ndarray:
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


def apply_geoid(
    fps: Sequence[Footprint], geoid: RasterGrid | None, footprint_crs: str = ""
) -> list[Footprint]:
    """Set gedi_dem = elev_lowestmode minus the geoid undulation at (x, y).

    With no geoid grid the elevations pass through unchanged: footprints
    whose gedi_dem already equals elev_lowestmode (as `parse_footprints`
    sets it) are returned as they are, the rest as copies. Footprints whose
    undulation query lands on nodata are dropped.
    """
    if geoid is None:
        return [
            fp if fp.gedi_dem == fp.elev_lowestmode else replace(fp, gedi_dem=fp.elev_lowestmode)
            for fp in fps
        ]
    check_crs(geoid.crs_tag, footprint_crs, context="geoid vs footprints")
    if not fps:
        return []
    xs = np.asarray([fp.x for fp in fps], dtype=np.float64)
    ys = np.asarray([fp.y for fp in fps], dtype=np.float64)
    und = sample_points(geoid, xs, ys)
    out = [
        replace(fp, gedi_dem=fp.elev_lowestmode - float(u))
        for fp, u in zip(fps, und)
        if math.isfinite(u)
    ]
    n_dropped = len(fps) - len(out)
    if n_dropped:
        logger.info("geoid sampling dropped %d footprints outside the geoid grid", n_dropped)
    return out


def group_by_shot(fps: Sequence[Footprint], prefix_len: int = GROUP_PREFIX_LEN) -> list[ShotGroup]:
    """Partition footprints by shot-number prefix, sorted by group key.

    Input order is preserved within each group.
    """
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")
    buckets: dict[str, list[Footprint]] = {}
    for fp in fps:
        if len(fp.shot_number) < prefix_len:
            raise FootprintError(
                f"shot_number {fp.shot_number!r} shorter than the {prefix_len}-character group prefix"
            )
        buckets.setdefault(fp.shot_number[:prefix_len], []).append(fp)
    return [ShotGroup(key=k, footprints=buckets[k]) for k in sorted(buckets)]


def remove_outliers(group: ShotGroup, window: int = 7, k: float = 2.0) -> ShotGroup:
    """Drop footprints flagged by the rolling window on gedi_dem."""
    mask = flag_rolling_outliers(group.elevations, window, k)
    kept = [fp for fp, bad in zip(group.footprints, mask) if not bad]
    return ShotGroup(key=group.key, footprints=kept)


def attach_reference(
    group: ShotGroup,
    dem: RasterGrid,
    radius: float = 12.5,
    agg: AggregationKind = AggregationKind.MEAN,
    max_dem_diff: float = 50.0,
    footprint_crs: str = "",
) -> ShotGroup:
    """Attach buffer-aggregated DEM elevations at uncorrected positions.

    Footprints with a nodata reference or |gedi_dem - ref_elev| above
    max_dem_diff are dropped; the pruned group may be empty.
    """
    check_crs(dem.crs_tag, footprint_crs, context="DEM vs footprints")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not group.footprints:
        return ShotGroup(key=group.key, footprints=[])
    pos = group.positions
    elev = group.elevations
    refs = aggregate_buffer_points(dem, pos[:, 0], pos[:, 1], radius, agg)
    keep = np.isfinite(refs) & (np.abs(elev - refs) <= max_dem_diff)
    kept = [
        replace(fp, ref_elev=float(r))
        for fp, r, ok in zip(group.footprints, refs, keep)
        if ok
    ]
    return ShotGroup(key=group.key, footprints=kept)


def prepare_groups(
    fps: Sequence[Footprint],
    dem: RasterGrid,
    geoid: RasterGrid | None = None,
    rules: QualityRules | None = None,
    radius: float = 12.5,
    agg: AggregationKind = AggregationKind.MEAN,
    prefix_len: int = GROUP_PREFIX_LEN,
    footprint_crs: str = "",
) -> tuple[list[ShotGroup], PipelineStats]:
    """Run the full preprocessing pipeline and report per-stage counts.

    Groups are returned regardless of size (including empty ones) so the
    optimizer can account skips; callers enforce MIN_GROUP_SIZE.
    """
    rules = rules or QualityRules()
    stats = PipelineStats(n_input=len(fps))

    kept = filter_quality(fps, rules)
    stats.n_after_quality = len(kept)
    logger.info("quality filters kept %d of %d footprints", len(kept), len(fps))

    kept = apply_geoid(kept, geoid, footprint_crs)
    stats.n_after_geoid = len(kept)

    groups = group_by_shot(kept, prefix_len)
    stats.n_groups = len(groups)

    groups = [remove_outliers(g, rules.outlier_window, rules.outlier_k) for g in groups]
    stats.n_after_outliers = sum(len(g) for g in groups)

    groups = [
        attach_reference(g, dem, radius, agg, rules.max_dem_diff, footprint_crs)
        for g in groups
    ]
    stats.n_after_attach = sum(len(g) for g in groups)
    stats.n_groups_ready = sum(1 for g in groups if len(g) >= MIN_GROUP_SIZE)
    logger.info(
        "prepared %d groups (%d meet the minimum size of %d)",
        len(groups), stats.n_groups_ready, MIN_GROUP_SIZE,
    )
    return groups, stats
