"""Checks of `terralign correct` outputs against the benchmark's own numbers.

Nothing here compares against a stored copy of earlier output: every
expected value is recomputed from the scene the benchmark generated.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from workloads import GRID_TOL_M, RADIUS_M, REQUIRED_COLUMNS, WINDOW_M, Scene, Workload

# metrics whose optimum is a point; `area` is |sum(e - r)|, a curve of optima
POINT_METRICS = ("euclidean", "manhattan", "correlation")
EXTRA_COLUMNS = (
    "group_key", "dx_m", "dy_m", "x_corrected", "y_corrected",
    "ref_elev_before", "ref_elev_after", "method", "metric",
)
REF_TOL_M = 1e-9
SAMPLE_ROWS = 64


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    # (method, metric) -> recovery error per group, in group-key order
    errors: dict[tuple[str, str], list[float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def recovery_err_m(self) -> float:
        pooled = [e for (_, metric), errs in self.errors.items() if metric in POINT_METRICS for e in errs]
        return float(np.median(pooled)) if pooled else math.nan


def output_digest(out_dir: Path) -> str:
    """Digest of every corrected CSV and report; equal runs give equal digests."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("corrected_*.csv")) + sorted(out_dir.glob("report.*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _float(text: str) -> float:
    return float(text) if text else math.nan


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REF_TOL_M


def check_outputs(w: Workload, scene: Scene, out_dir: Path, seed: int) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng([seed, 17])  # row sample, a stream apart from the scene's
    for method in w.methods:
        for metric in w.metrics:
            path = out_dir / f"corrected_{method}_{metric}.csv"
            if not path.is_file():
                outcome.fail(f"{path.name} missing")
                continue
            _check_file(w, scene, path, method, metric, rng, outcome)
    _check_recovery(w, outcome)
    return outcome


def _check_file(w, scene, path, method, metric, rng, outcome) -> None:
    name = path.name
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        records = list(reader)
    if header != list(REQUIRED_COLUMNS) + list(EXTRA_COLUMNS):
        outcome.fail(f"{name}: unexpected header {header}")
        return
    if not records:
        outcome.fail(f"{name}: no rows")
        return
    col = {c: i for i, c in enumerate(header)}
    n_base = len(REQUIRED_COLUMNS)

    offsets: dict[str, set] = {}
    for rec in records:
        if rec[:n_base] != scene.input_rows.get(rec[0]):
            outcome.fail(f"{name}: input columns of shot {rec[0]} not preserved")
            return
        if (rec[col["method"]], rec[col["metric"]]) != (method, metric):
            outcome.fail(f"{name}: row labelled {rec[col['method']]}/{rec[col['metric']]}")
            return
        dx, dy = float(rec[col["dx_m"]]), float(rec[col["dy_m"]])
        if float(rec[col["x_corrected"]]) != float(rec[col["x"]]) + dx or float(
            rec[col["y_corrected"]]
        ) != float(rec[col["y"]]) + dy:
            outcome.fail(f"{name}: shot {rec[0]} corrected position is not x + dx, y + dy")
            return
        offsets.setdefault(rec[col["group_key"]], set()).add((dx, dy))

    for key, offs in offsets.items():
        if len(offs) != 1:
            outcome.fail(f"{name}: group {key} has {len(offs)} different offsets")
            return
        (dx, dy), = offs
        if abs(dx) > WINDOW_M or abs(dy) > WINDOW_M:
            outcome.fail(f"{name}: group {key} offset ({dx}, {dy}) outside the window")
            return
    if set(offsets) - set(scene.planted):
        outcome.fail(f"{name}: unknown group keys")
        return
    outcome.errors[(method, metric)] = [
        math.hypot(dx + scene.planted[k][0], dy + scene.planted[k][1])
        for k in sorted(offsets)
        for (dx, dy) in offsets[k]
    ]

    x = np.array([float(r[col["x"]]) for r in records])
    y = np.array([float(r[col["y"]]) for r in records])
    xc = np.array([float(r[col["x_corrected"]]) for r in records])
    yc = np.array([float(r[col["y_corrected"]]) for r in records])
    before = reference.buffer_mean(scene.dem, x, y, RADIUS_M)
    after = reference.buffer_mean(scene.dem, xc, yc, RADIUS_M)

    sample = rng.choice(len(records), size=min(SAMPLE_ROWS, len(records)), replace=False)
    for i in sample:
        got_before = _float(records[i][col["ref_elev_before"]])
        got_after = _float(records[i][col["ref_elev_after"]])
        if not (_same(got_before, before[i]) and _same(got_after, after[i])):
            outcome.fail(
                f"{name}: shot {records[i][0]} reference ({got_before}, {got_after}) != "
                f"own MEAN ({before[i]!r}, {after[i]!r})"
            )
            return

    if metric in POINT_METRICS:
        elev = np.array([float(r[col["elev_lowestmode"]]) for r in records])
        if scene.geoid is not None:
            elev = elev - reference.sample(scene.geoid, x, y)
        ok = np.isfinite(elev) & np.isfinite(before) & np.isfinite(after)
        mae_before = float(np.mean(np.abs(elev[ok] - before[ok])))
        mae_after = float(np.mean(np.abs(elev[ok] - after[ok])))
        if not mae_after < mae_before:
            outcome.fail(f"{name}: MAE after {mae_after:.4f} m not below before {mae_before:.4f} m")


def _check_recovery(w: Workload, outcome: Outcome) -> None:
    point = {k: v for k, v in outcome.errors.items() if k[1] in POINT_METRICS}
    if w.min_share_within_grid_tol is not None:
        for (method, metric), errs in point.items():
            share = sum(e <= GRID_TOL_M for e in errs) / len(errs)
            if share < w.min_share_within_grid_tol:
                outcome.fail(
                    f"{method}/{metric}: {share:.1%} of groups within {GRID_TOL_M} m, "
                    f"need {w.min_share_within_grid_tol:.0%}"
                )
    if w.max_median_err_per_method_m is not None:
        for method in w.methods:
            errs = [e for (m, _), v in point.items() if m == method for e in v]
            if errs and float(np.median(errs)) > w.max_median_err_per_method_m:
                outcome.fail(
                    f"{method}: median recovery error {np.median(errs):.3f} m "
                    f"above {w.max_median_err_per_method_m} m"
                )
    if w.max_median_err_m is not None:
        med = outcome.recovery_err_m
        if not med <= w.max_median_err_m:
            outcome.fail(f"median recovery error {med:.3f} m above {w.max_median_err_m} m")
