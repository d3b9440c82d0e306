"""Evaluation statistics and method-comparison tables.

Every report row comes from `report_rows`. Rows are comparable across
methods because every MAE is computed over the footprints that survive in
all compared results (their intersection), with an "original" row scoring
the uncorrected positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .footprints import MIN_GROUP_SIZE, ShotGroup

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


def displacement_stats(dx: Sequence[float], dy: Sequence[float]) -> dict[str, float]:
    """Mean/sd of per-group offsets and unsigned displacement magnitudes.

    `dx[i]` and `dy[i]` are the offset of group i. Returns the report cells
    `mean_dx` to `n_groups`, keyed by column. Sample (n-1) standard
    deviations; NaN marks statistics that are undefined for fewer than 2
    groups (the means, for none).
    """
    n = len(dx)
    dxs = np.asarray(dx, dtype=np.float64)
    dys = np.asarray(dy, dtype=np.float64)
    disp = np.hypot(dxs, dys)

    def mean(v: np.ndarray) -> float:
        return float(np.mean(v)) if n >= 1 else math.nan

    def sd(v: np.ndarray) -> float:
        return float(np.std(v, ddof=1)) if n >= 2 else math.nan

    return {
        "mean_dx": mean(dxs),
        "sd_dx": sd(dxs),
        "mean_dy": mean(dys),
        "sd_dy": sd(dys),
        "mean_disp": mean(disp),
        "sd_disp": sd(disp),
        "n_groups": n,
    }


@dataclass
class ReportRow:
    """One report line; its fields, in order, are the report columns."""

    method: str
    metric: str
    mae_m: float
    mean_dx: float
    sd_dx: float
    mean_dy: float
    sd_dy: float
    mean_disp: float
    sd_disp: float
    n_groups: int
    n_footprints: int
    wall_time_s: float = math.nan  # only `bench` sets it


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


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

    original = displacement_stats([], []) | {"n_groups": len(members)}
    rows = [ReportRow(ORIGINAL_LABEL, "", mae(elev[keep], ref_before[keep]), **original, n_footprints=n_kept)]
    for c in combinations:
        offsets = displacement_stats(c.dx[solved], c.dy[solved])
        after = mae(elev[keep], c.ref_after[keep])
        rows.append(ReportRow(c.method, c.metric, after, **offsets, n_footprints=n_kept))
    return rows


def compare_methods(results: Sequence, groups: Sequence[ShotGroup]) -> list[ReportRow]:
    """Build one report row per result plus the leading "original" row.

    `groups` are the groups every result corrected; each result is a
    `Combination` with `groups` that match them in keys and sizes,
    footprint for footprint. The rows are scored by `report_rows`.
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

    keys = [g.key for g in groups for _ in range(len(g))]
    elev = np.concatenate([g.gedi_dem for g in groups]) if groups else np.empty(0)
    ref_before = np.concatenate([g.ref_elev for g in groups]) if groups else np.empty(0)
    return report_rows(keys, elev, ref_before, results)


def _cell(value, blank: str = "") -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not math.isfinite(value):
        return blank
    return f"{value:.6f}"


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(value) for value in astuple(row)))
    return "\n".join(lines) + "\n"


def rows_to_text(rows: Sequence[ReportRow]) -> str:
    """Aligned plain-text table; '-' marks undefined cells."""
    table = [list(REPORT_COLUMNS)]
    for row in rows:
        table.append([_cell(value, blank="-") for value in astuple(row)])
    widths = [max(len(line[i]) for line in table) for i in range(len(REPORT_COLUMNS))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def rows_to_json(rows: Sequence[ReportRow]) -> str:
    """null marks undefined (non-finite) numbers."""

    def num(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    payload = [dict(zip(REPORT_COLUMNS, map(num, astuple(row)))) for row in rows]
    return json.dumps(payload, indent=2) + "\n"
