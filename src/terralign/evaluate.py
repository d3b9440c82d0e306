"""Evaluation statistics and method-comparison tables.

Every report row comes from `report_rows`. Rows are comparable across
methods because every MAE is computed over the footprints that survive in
all compared results (their intersection), with an "original" row scoring
the uncorrected positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .footprints import MIN_GROUP_SIZE, ShotGroup

REPORT_COLUMNS = (
    "method",
    "metric",
    "mae_m",
    "mean_dx",
    "sd_dx",
    "mean_dy",
    "sd_dy",
    "mean_disp",
    "sd_disp",
    "n_groups",
    "n_footprints",
    "wall_time_s",
)

ORIGINAL_LABEL = "original"


def mae(elev: np.ndarray, ref: np.ndarray) -> float:
    """Mean absolute error between paired elevation vectors."""
    elev = np.asarray(elev, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if elev.ndim != 1 or ref.ndim != 1 or elev.shape[0] != ref.shape[0]:
        raise ValueError("mae needs two 1-D vectors of equal length")
    if elev.shape[0] == 0:
        raise ValueError("mae of empty vectors is undefined")
    if not np.all(np.isfinite(elev)) or not np.all(np.isfinite(ref)):
        raise ValueError("mae inputs must be finite")
    return float(np.mean(np.abs(elev - ref)))


@dataclass
class OffsetSummary:
    mean_dx: float
    sd_dx: float
    mean_dy: float
    sd_dy: float
    mean_disp: float
    sd_disp: float
    n_groups: int


def displacement_stats(solutions: Sequence) -> OffsetSummary:
    """Mean/sd of per-group offsets and unsigned displacement magnitudes.

    Sample (n-1) standard deviations; NaN marks statistics that are
    undefined for fewer than 2 groups.
    """
    n = len(solutions)
    if n == 0:
        nan = math.nan
        return OffsetSummary(nan, nan, nan, nan, nan, nan, 0)
    dxs = np.array([s.dx for s in solutions], dtype=np.float64)
    dys = np.array([s.dy for s in solutions], dtype=np.float64)
    disp = np.hypot(dxs, dys)

    def sd(v: np.ndarray) -> float:
        return float(np.std(v, ddof=1)) if n >= 2 else math.nan

    return OffsetSummary(
        mean_dx=float(np.mean(dxs)),
        sd_dx=sd(dxs),
        mean_dy=float(np.mean(dys)),
        sd_dy=sd(dys),
        mean_disp=float(np.mean(disp)),
        sd_disp=sd(disp),
        n_groups=n,
    )


@dataclass
class ReportRow:
    method: str
    metric: str
    mae_m: float
    offsets: OffsetSummary
    n_footprints: int
    wall_time_s: float = math.nan


@dataclass
class Combination:
    """One (method, metric) combination, indexed by footprint position.

    `ref_after` is NaN where the corrected position has no reference;
    `dx` and `dy` hold the offset of each footprint's group.
    """

    method: str
    metric: str
    ref_after: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    wall_time_s: float = math.nan


class _Offset(NamedTuple):
    dx: float
    dy: float


def report_rows(
    group_keys: Sequence[str],
    elev: np.ndarray,
    ref_before: np.ndarray,
    combinations: Sequence[Combination],
) -> list[ReportRow]:
    """The "original" row, then one row per combination.

    Every argument is indexed by footprint position. MAE and `n_footprints`
    cover the positions whose elevation, reference before correction and
    reference in every combination are all finite. A group is the
    footprints sharing a key: the original row counts every group, and a
    combination row summarises the offsets of the groups with at least
    MIN_GROUP_SIZE footprints, the ones the solvers ran on.
    """
    keep = np.isfinite(elev) & np.isfinite(ref_before)
    for combination in combinations:
        keep &= np.isfinite(combination.ref_after)
    n_kept = int(np.count_nonzero(keep))
    if n_kept == 0:
        raise ValueError("no footprints survive in every compared result")

    members: dict[str, list[int]] = {}
    for i, key in enumerate(group_keys):
        members.setdefault(key, []).append(i)
    solved = [idx[0] for idx in members.values() if len(idx) >= MIN_GROUP_SIZE]

    original = OffsetSummary(*[math.nan] * 6, len(members))
    entries = [(ORIGINAL_LABEL, "", ref_before, original, math.nan)]
    for c in combinations:
        offsets = displacement_stats([_Offset(c.dx[i], c.dy[i]) for i in solved])
        entries.append((c.method, c.metric, c.ref_after, offsets, c.wall_time_s))
    return [
        ReportRow(method, metric, mae(elev[keep], ref[keep]), offsets, n_kept, wall)
        for method, metric, ref, offsets, wall in entries
    ]


def _column(groups: Sequence[ShotGroup], name: str) -> np.ndarray:
    """One footprint field over `groups`, in order; None becomes NaN."""
    return np.array([getattr(fp, name) for g in groups for fp in g.footprints], dtype=np.float64)


def compare_methods(results: Sequence, groups: Sequence[ShotGroup]) -> list[ReportRow]:
    """Build one report row per result plus the leading "original" row.

    `groups` are the groups every result corrected; each result's groups
    must match them in keys and sizes, footprint for footprint. The rows
    are scored by `report_rows`.
    """
    base_keys = [g.key for g in groups]
    base_sizes = [len(g) for g in groups]
    for result in results:
        keys = [g.key for g in result.groups]
        if keys != base_keys:
            differing = sorted(set(keys).symmetric_difference(base_keys))
            raise ValueError(
                f"result {result.method!r} covers different shot groups; differing keys: "
                + ", ".join(differing)
            )
        if [len(g) for g in result.groups] != base_sizes:
            raise ValueError(f"result {result.method!r} has group sizes unlike the input groups")

    combinations = [
        Combination(
            result.method, result.metric, result.ref_after,
            dx=np.repeat([s.dx for s in result.solutions], base_sizes),
            dy=np.repeat([s.dy for s in result.solutions], base_sizes),
            wall_time_s=result.wall_time_s,
        )
        for result in results
    ]
    keys = [g.key for g in groups for _ in g.footprints]
    return report_rows(keys, _column(groups, "gedi_dem"), _column(groups, "ref_elev"), combinations)


def _cell(value, blank: str = "") -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None or not math.isfinite(value):
        return blank
    return f"{value:.6f}"


def _row_cells(row: ReportRow, with_timing: bool, blank: str = "") -> list[str]:
    o = row.offsets
    wall = row.wall_time_s if with_timing else math.nan
    return [
        row.method,
        row.metric,
        _cell(row.mae_m, blank),
        _cell(o.mean_dx, blank),
        _cell(o.sd_dx, blank),
        _cell(o.mean_dy, blank),
        _cell(o.sd_dy, blank),
        _cell(o.mean_disp, blank),
        _cell(o.sd_disp, blank),
        _cell(o.n_groups, blank),
        _cell(row.n_footprints, blank),
        _cell(wall, blank),
    ]


def rows_to_csv(rows: Sequence[ReportRow], with_timing: bool = True) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(_row_cells(row, with_timing)))
    return "\n".join(lines) + "\n"


def rows_to_text(rows: Sequence[ReportRow], with_timing: bool = True) -> str:
    """Aligned plain-text table; '-' marks undefined cells."""
    table = [list(REPORT_COLUMNS)]
    for row in rows:
        table.append(_row_cells(row, with_timing, blank="-"))
    widths = [max(len(line[i]) for line in table) for i in range(len(REPORT_COLUMNS))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def rows_to_json(rows: Sequence[ReportRow], with_timing: bool = True) -> str:
    def num(value):
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            return None
        return value

    payload = []
    for row in rows:
        o = row.offsets
        payload.append(
            {
                "method": row.method,
                "metric": row.metric,
                "mae_m": num(row.mae_m),
                "mean_dx": num(o.mean_dx),
                "sd_dx": num(o.sd_dx),
                "mean_dy": num(o.mean_dy),
                "sd_dy": num(o.sd_dy),
                "mean_disp": num(o.mean_disp),
                "sd_disp": num(o.sd_disp),
                "n_groups": o.n_groups,
                "n_footprints": row.n_footprints,
                "wall_time_s": num(row.wall_time_s if with_timing else None),
            }
        )
    return json.dumps(payload, indent=2) + "\n"
