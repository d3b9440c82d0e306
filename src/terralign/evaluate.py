"""Evaluation statistics and method-comparison tables.

Rows are comparable across methods because every MAE is computed over the
footprints that survive in all compared results (their intersection), with
an "original" row scoring the uncorrected positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .footprints import ShotGroup

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


def _has_ref(groups: Sequence[ShotGroup]) -> np.ndarray:
    return np.array([fp.ref_elev is not None for g in groups for fp in g.footprints], dtype=bool)


def _pairs(groups: Sequence[ShotGroup], keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    kept = list(compress((fp for g in groups for fp in g.footprints), keep))
    elev = np.asarray([fp.gedi_dem for fp in kept], dtype=np.float64)
    ref = np.asarray([fp.ref_elev for fp in kept], dtype=np.float64)
    return elev, ref


def compare_methods(results: Sequence, groups: Sequence[ShotGroup]) -> list[ReportRow]:
    """Build one report row per result plus the leading "original" row.

    `groups` are the groups every result corrected; each result's corrected
    groups must match them in keys and sizes, footprint for footprint. MAE
    and `n_footprints` count, by position, the footprints with a reference
    elevation before correction and in every result.
    """
    base_keys = [g.key for g in groups]
    base_sizes = [len(g) for g in groups]
    for result in results:
        keys = [g.key for g in result.corrected_groups]
        if keys != base_keys:
            differing = sorted(set(keys).symmetric_difference(base_keys))
            raise ValueError(
                f"result {result.method!r} covers different shot groups; differing keys: "
                + ", ".join(differing)
            )
        if [len(g) for g in result.corrected_groups] != base_sizes:
            raise ValueError(f"result {result.method!r} has group sizes unlike the input groups")

    keep = _has_ref(groups)
    for result in results:
        keep &= _has_ref(result.corrected_groups)
    n_kept = int(np.count_nonzero(keep))
    if n_kept == 0:
        raise ValueError("no footprints survive in every compared result")

    elev0, ref0 = _pairs(groups, keep)
    nan = math.nan
    rows = [
        ReportRow(
            method=ORIGINAL_LABEL,
            metric="",
            mae_m=mae(elev0, ref0),
            offsets=OffsetSummary(nan, nan, nan, nan, nan, nan, len(groups)),
            n_footprints=n_kept,
            wall_time_s=nan,
        )
    ]
    for result in results:
        elev, ref = _pairs(result.corrected_groups, keep)
        corrected_sols = [s for s in result.solutions if not s.skipped]
        rows.append(
            ReportRow(
                method=result.method,
                metric=result.metric,
                mae_m=mae(elev, ref),
                offsets=displacement_stats(corrected_sols),
                n_footprints=n_kept,
                wall_time_s=result.wall_time_s,
            )
        )
    return rows


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
