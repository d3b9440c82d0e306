"""Command-line entry point: correct, evaluate, simulate and bench workflows.

Exit codes: 0 success, 1 usage/config error, 2 data error. Diagnostics go
to stderr; machine-readable output only ever lands in files under --out.
The `correct` reports blank the wall_time_s column so reruns with the same
seed are byte-identical; `bench` keeps real timings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from concurrent.futures import BrokenExecutor
from enum import Enum
from functools import partial
from pathlib import Path
from typing import get_origin

import numpy as np

from .config import ConfigError, RunConfig, config_from_dict, config_keys, dump_config, parse_toml
from .evaluate import (
    Combination,
    compare_methods,
    report_rows,
    rows_to_csv,
    rows_to_json,
    rows_to_text,
)
from .footprints import (
    REQUIRED_COLUMNS,
    FootprintError,
    parse_footprints,
    prepare_groups,
)
from .metrics import MetricError
from .optimize import correct_dataset
from .raster import (
    AggregationKind,
    RasterError,
    aggregate_buffer_points,
    check_crs,
    load_raster,
    sample_points,
    write_raster,
)
from .synthetic import (
    TERRAIN_KINDS,
    TerrainSpec,
    TrackError,
    TrackSpec,
    gen_terrain,
    gen_track,
    plant_offset,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

CORRECTED_EXTRA_COLUMNS = (
    "group_key",
    "dx_m",
    "dy_m",
    "x_corrected",
    "y_corrected",
    "ref_elev_before",
    "ref_elev_after",
    "method",
    "metric",
)

_AGG_NAMES = tuple(a.value for a in AggregationKind)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 for usage problems, not argparse's 2
        raise UsageError(message)


# flag names that differ from the config key's leaf name
_FLAG_NAMES = {
    "dem_path": "dem",
    "geoid_path": "geoid",
    "footprints_path": "footprints",
    "output_dir": "out",
    "max_abs_dx": "max_dx",
    "max_abs_dy": "max_dy",
}


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    """One flag per config key: `--<leaf>`, or `--<section>-<leaf>` in optimizer subsections."""
    p.add_argument("--config", help="TOML-style config file; flags override it")
    for key, tp, default in config_keys():
        section, _, leaf = key.rpartition(".")
        if tp is bool and default:
            continue  # a store-true flag cannot turn a default-on filter off
        prefix = section.split(".")[1] + "_" if "." in section else ""
        flag = "--" + (prefix + _FLAG_NAMES.get(leaf, leaf)).replace("_", "-")
        kwargs: dict = {"dest": key, "help": f"config key {key}"}
        if tp is bool:
            kwargs.update(action="store_const", const=True)
        elif get_origin(tp) is None and issubclass(tp, Enum):
            kwargs["choices"] = [e.value for e in tp]
        else:
            kwargs["metavar"] = flag[2:].upper().replace("-", "_")
            if get_origin(tp) is list:
                kwargs["type"] = _comma_list
            elif tp in (int, float):
                kwargs["type"] = tp
        p.add_argument(flag, **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="terralign",
        description="Correct horizontal geolocation errors of spaceborne LiDAR "
        "footprints by matching elevation profiles against a reference DEM.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_correct = sub.add_parser("correct", help="run the full correction pipeline")
    _add_common_run_flags(p_correct)
    p_correct.set_defaults(func=partial(_run, timed=False))

    p_eval = sub.add_parser("evaluate", help="recompute statistics from a corrected CSV")
    p_eval.add_argument("--corrected", required=True, help="corrected CSV from `correct`")
    p_eval.add_argument("--dem", required=True)
    p_eval.add_argument("--geoid")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--radius", type=float, default=12.5)
    p_eval.add_argument("--agg", choices=_AGG_NAMES, default="mean")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scene with planted offsets")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--terrain", choices=TERRAIN_KINDS, default="gaussian_hills")
    p_sim.add_argument("--rows", type=int, default=512)
    p_sim.add_argument("--cols", type=int, default=512)
    p_sim.add_argument("--cell-size", type=float, default=5.0)
    p_sim.add_argument("--relief", type=float, default=150.0)
    p_sim.add_argument("--terrain-seed", type=int, default=0)
    p_sim.add_argument("--n-groups", type=int, default=1)
    p_sim.add_argument("--n-footprints", type=int, default=20)
    p_sim.add_argument("--spacing", type=float, default=60.0)
    p_sim.add_argument("--heading", type=float, default=0.0)
    p_sim.add_argument("--noise-sd", type=float, default=0.0)
    p_sim.add_argument("--dx", type=float, default=0.0, help="planted x offset (m)")
    p_sim.add_argument("--dy", type=float, default=0.0, help="planted y offset (m)")
    p_sim.add_argument("--track-seed", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="method x metric sweep with wall-clock timings")
    _add_common_run_flags(p_bench)
    p_bench.set_defaults(func=partial(_run, timed=True))

    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            data = parse_toml(path.read_text())
        except ConfigError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    # flags left out are None; bool keys that default to true have no flag
    flags = {key: getattr(args, key, None) for key, _, _ in config_keys()}
    flags = {key: value for key, value in flags.items() if value is not None}
    try:
        cfg = config_from_dict(data, flags)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc

    if not cfg.dem_path:
        raise UsageError("a DEM is required (--dem or dem_path in the config)")
    if not cfg.footprints_path:
        raise UsageError("a footprint CSV is required (--footprints or footprints_path)")
    if not cfg.output_dir:
        raise UsageError("an output directory is required (--out or output_dir)")
    return cfg


def _fmt_float(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return ""
    return repr(float(value))


def _load_rasters(dem_path: str, geoid_path: str | None):
    """The DEM and the optional geoid, which must share the DEM's CRS."""
    dem_path = Path(dem_path)
    if not dem_path.exists():
        raise DataError(f"DEM not found: {dem_path}")
    dem = load_raster(dem_path)
    geoid = None
    if geoid_path:
        geoid_path = Path(geoid_path)
        if not geoid_path.exists():
            raise DataError(f"geoid raster not found: {geoid_path}")
        geoid = load_raster(geoid_path)
        check_crs(geoid.crs_tag, dem.crs_tag, context="geoid vs DEM")
    return dem, geoid


def _load_pipeline(cfg: RunConfig):
    dem, geoid = _load_rasters(cfg.dem_path, cfg.geoid_path)
    fps_path = Path(cfg.footprints_path)
    if not fps_path.exists():
        raise DataError(f"footprint CSV not found: {fps_path}")
    with fps_path.open(newline="") as fh:
        fps, parse_stats = parse_footprints(fh, source=str(fps_path))
    if not fps:
        raise DataError(
            f"{fps_path}: no parseable footprints "
            f"({parse_stats.n_dropped_na} NA rows, {parse_stats.n_dropped_bad_numeric} bad rows)"
        )

    groups, stats = prepare_groups(
        fps,
        dem,
        geoid=geoid,
        rules=cfg.quality,
        radius=cfg.radius,
        agg=cfg.agg,
        footprint_crs=dem.crs_tag,
    )
    if stats.n_after_attach == 0:
        raise DataError(f"no footprints left after preprocessing; {stats.empty_stage()} removed the last row")
    return dem, groups, stats


def _write_corrected_csv(path: Path, result) -> None:
    """One row per footprint of `result.groups`: its input columns, then the correction.

    Every footprint comes from `parse_footprints`, so `raw` holds every
    input column, in header order.
    """
    columns = list(next(fp for g in result.groups for fp in g.footprints).raw)
    rows = ((g, sol, fp) for g, sol in zip(result.groups, result.solutions) for fp in g.footprints)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns + list(CORRECTED_EXTRA_COLUMNS))
        for (group, sol, fp), ref_after in zip(rows, result.ref_after):
            writer.writerow(
                [fp.raw[c] for c in columns]
                + [
                    group.key,
                    _fmt_float(sol.dx),
                    _fmt_float(sol.dy),
                    _fmt_float(fp.x + sol.dx),
                    _fmt_float(fp.y + sol.dy),
                    _fmt_float(fp.ref_elev),
                    _fmt_float(ref_after),
                    result.method,
                    result.metric,
                ]
            )


def _write_reports(out_dir: Path, rows, with_timing: bool) -> None:
    (out_dir / "report.csv").write_text(rows_to_csv(rows, with_timing=with_timing))
    (out_dir / "report.json").write_text(rows_to_json(rows, with_timing=with_timing))
    (out_dir / "report.txt").write_text(rows_to_text(rows, with_timing=with_timing))


def _run(args: argparse.Namespace, timed: bool) -> int:
    """`correct` (timed=False) and `bench` (timed=True): the same pipeline and outputs."""
    cfg = _build_config(args)
    dem, groups, _ = _load_pipeline(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for method in cfg.methods:
        for metric in cfg.metrics:
            logger.info("correcting with method=%s metric=%s", method, metric)
            results.append(
                correct_dataset(groups, dem, method=method, metric=metric, cfg=cfg, workers=cfg.workers)
            )
    for result in results:
        name = f"corrected_{result.method}_{result.metric}.csv"
        _write_corrected_csv(out_dir / name, result)
        logger.info("wrote %s", out_dir / name)

    rows = compare_methods(results, groups)
    # only `bench` reports carry timings, so equal seeds give `correct` equal bytes
    _write_reports(out_dir, rows, with_timing=timed)
    (out_dir / "effective_config.toml").write_text(dump_config(cfg))
    if timed:
        sys.stderr.write(rows_to_text(rows, with_timing=True))
    logger.info("reports written to %s", out_dir)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    for name, value, low in (
        ("cell-size", args.cell_size, "positive"),
        ("spacing", args.spacing, "positive"),
        ("relief", args.relief, "non-negative"),
        ("noise-sd", args.noise_sd, "non-negative"),
        ("heading", args.heading, None),
        ("dx", args.dx, None),
        ("dy", args.dy, None),
    ):
        if not math.isfinite(value):
            raise UsageError(f"{name}: must be finite, got {value!r}")
        if (low == "positive" and value <= 0) or (low == "non-negative" and value < 0):
            raise UsageError(f"{name}: must be {low}, got {value!r}")
    if args.n_groups < 1:
        raise UsageError(f"n-groups: must be >= 1, got {args.n_groups!r}")
    try:
        terrain_spec = TerrainSpec(
            kind=args.terrain,
            n_rows=args.rows,
            n_cols=args.cols,
            cell_size=args.cell_size,
            relief=args.relief,
            seed=args.terrain_seed,
        )
        specs = [
            TrackSpec(
                n_footprints=args.n_footprints,
                spacing=args.spacing,
                heading=(args.heading + i * 360.0 / args.n_groups) % 360.0,
                noise_sd=args.noise_sd,
                planted_dx=args.dx,
                planted_dy=args.dy,
                seed=args.track_seed + i,
            )
            for i in range(args.n_groups)
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # every track is placed before any file is written, so a TrackError leaves --out as it was
    terrain = gen_terrain(terrain_spec)
    tracks = [gen_track(terrain, spec) for spec in specs]

    truth: dict = {"terrain": dataclasses.asdict(terrain_spec), "groups": {}}
    all_rows: list[list[str]] = []
    for spec, clean in zip(specs, tracks):
        observed = plant_offset(clean, spec)
        truth["groups"][clean.key] = {
            "planted_dx": spec.planted_dx,
            "planted_dy": spec.planted_dy,
            "heading": spec.heading,
            "seed": spec.seed,
            "true_positions": [[fp.x, fp.y] for fp in clean.footprints],
        }
        all_rows.extend([str(getattr(fp, c)) for c in REQUIRED_COLUMNS] for fp in observed.footprints)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_raster(terrain, out_dir / "terrain.asc")
    with (out_dir / "footprints.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(all_rows)
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2) + "\n")
    logger.info("synthetic scene written to %s", out_dir)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.radius) and args.radius > 0):
        raise UsageError(f"radius: must be positive and finite, got {args.radius!r}")
    corrected_path = Path(args.corrected)
    if not corrected_path.exists():
        raise DataError(f"corrected CSV not found: {corrected_path}")
    dem, geoid = _load_rasters(args.dem, args.geoid)
    agg = AggregationKind(args.agg)

    with corrected_path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{corrected_path}: empty file")
        needed = set(CORRECTED_EXTRA_COLUMNS) | {"x", "y", "elev_lowestmode"}
        missing = needed - set(reader.fieldnames)
        if missing:
            raise DataError(
                f"{corrected_path}: missing columns: {', '.join(sorted(missing))}"
            )
        records = list(reader)
    if not records:
        raise DataError(f"{corrected_path}: no data rows")

    try:
        columns = ("x", "y", "x_corrected", "y_corrected", "elev_lowestmode", "dx_m", "dy_m")
        x, y, xc, yc, elev, dx, dy = (np.array([float(r[c]) for r in records]) for c in columns)
    except ValueError as exc:
        raise DataError(f"{corrected_path}: unparseable numeric field: {exc}") from exc

    # the k-th row of every (method, metric) combination is one footprint
    combos: dict[tuple[str, str], list[int]] = {}
    for i, rec in enumerate(records):
        combos.setdefault((rec["method"], rec["metric"]), []).append(i)
    if len({len(idx) for idx in combos.values()}) > 1:
        counts = ", ".join(f"{m}/{k} {len(idx)}" for (m, k), idx in combos.items())
        raise DataError(
            f"{corrected_path}: (method, metric) combinations have different row counts: {counts}"
        )
    first = next(iter(combos.values()))
    keys = [records[i]["group_key"] for i in first]
    for (method, metric), idx in combos.items():
        if [records[i]["group_key"] for i in idx] != keys:
            raise DataError(f"{corrected_path}: group_key differs row by row in {method}/{metric}")

    if geoid is not None:
        elev = elev - sample_points(geoid, x, y)
    rows = report_rows(
        keys,
        elev[first],
        aggregate_buffer_points(dem, x[first], y[first], args.radius, agg),
        [
            Combination(
                method, metric, aggregate_buffer_points(dem, xc[idx], yc[idx], args.radius, agg),
                dx=dx[idx], dy=dy[idx],
            )
            for (method, metric), idx in combos.items()
        ],
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_reports(out_dir, rows, with_timing=False)
    logger.info("evaluation reports written to %s", out_dir)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # scipy, imported on the first L-BFGS-B solve, bundles an OpenBLAS whose
    # idle threads spin on a second core; parallelism comes from --workers
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return EXIT_USAGE
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        sys.stderr.write(parser.format_usage())
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    # BrokenExecutor: a worker process of --workers died
    except (DataError, RasterError, FootprintError, MetricError, TrackError, BrokenExecutor) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
