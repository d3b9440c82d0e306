"""Command-line entry point: correct, evaluate, simulate and bench workflows.

Exit codes: 0 success, 1 usage/config error, 2 data error or out of memory.
Diagnostics go to stderr; machine-readable output only ever lands in files
under --out, made after the report is scored. Only `bench` reads the clock, for the
wall_time_s column, so `correct` reruns with the same seed are byte-identical.
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
import time
from concurrent.futures import BrokenExecutor
from enum import Enum
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, get_origin

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
from .footprints import REQUIRED_COLUMNS, parse_footprints, prepare_groups
from .optimize import GroupPool, correct_dataset
from .raster import (
    RasterError,
    aggregate_buffer_points,
    check_crs,
    load_raster,
    sample_points,
    write_raster,
)
from .synthetic import (
    TERRAIN_KINDS,
    TRACK_BEAM,
    TerrainSpec,
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

# the config keys `evaluate` takes; it has no --config
_EVALUATE_KEYS = ("dem_path", "geoid_path", "output_dir", "radius", "agg")


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _add_config_flags(
    p: argparse.ArgumentParser, keys: tuple[str, ...] | None = None, required: tuple[str, ...] = ()
) -> None:
    """One flag per config key in `keys` (all by default): `--<leaf>`, or
    `--<section>-<leaf>` in optimizer subsections. A flag left out is None."""
    for key, tp, default in config_keys():
        if keys is not None and key not in keys:
            continue
        section, _, leaf = key.rpartition(".")
        if tp is bool and default:
            continue  # a store-true flag cannot turn a default-on filter off
        prefix = section.split(".")[1] + "_" if "." in section else ""
        flag = "--" + (prefix + _FLAG_NAMES.get(leaf, leaf)).replace("_", "-")
        kwargs: dict = {"dest": key, "help": f"config key {key}", "required": key in required}
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
    p_correct.add_argument("--config", help="TOML config file; flags override it")
    _add_config_flags(p_correct)
    p_correct.set_defaults(func=partial(_run, timed=False))

    p_eval = sub.add_parser("evaluate", help="recompute statistics from a corrected CSV")
    p_eval.add_argument("--corrected", required=True, help="corrected CSV from `correct`")
    _add_config_flags(p_eval, _EVALUATE_KEYS, required=("dem_path", "output_dir"))
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
    p_bench.add_argument("--config", help="TOML config file; flags override it")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=partial(_run, timed=True))

    return parser


def _flags_config(args: argparse.Namespace, data: dict) -> RunConfig:
    """Defaults, then the config file's `data`, then the flags given."""
    # a flag left out is None, and so is a key without a flag: a bool key that
    # defaults to true, or a key that `evaluate` does not take
    flags = {key: getattr(args, key, None) for key, _, _ in config_keys()}
    flags = {key: value for key, value in flags.items() if value is not None}
    try:
        return config_from_dict(data, flags)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


def _build_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            data = parse_toml(path.read_bytes().decode("utf-8"))
        except (OSError, UnicodeDecodeError, ConfigError) as exc:
            raise UsageError(f"{path}: {exc}") from exc
    cfg = _flags_config(args, data)
    if not cfg.dem_path:
        raise UsageError("a DEM is required (--dem or dem_path in the config)")
    if not cfg.footprints_path:
        raise UsageError("a footprint CSV is required (--footprints or footprints_path)")
    if not cfg.output_dir:
        raise UsageError("an output directory is required (--out or output_dir)")
    return cfg


def _fmt_floats(values: Iterable[float]) -> list[str]:
    """repr of each value as a float; "" for NaN and infinities."""
    return [repr(float(v)) if math.isfinite(v) else "" for v in values]


def _fmt_repeated(values: np.ndarray) -> list[str]:
    """`_fmt_floats` of a float64 column with few distinct values, each bit pattern formatted once."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(_fmt_floats(bits.view(np.float64).tolist()), dtype=object)[index].tolist()


def _load_rasters(dem_path: str, geoid_path: str):
    """The DEM and, unless `geoid_path` is "", the geoid, which must share the DEM's CRS."""
    dem = load_raster(dem_path, "dem")
    geoid = None
    if geoid_path:
        geoid = load_raster(geoid_path, "geoid")
        check_crs(geoid.crs_tag, dem.crs_tag, context="geoid vs DEM")
    return dem, geoid


def _read_footprints(path: Path, kind: str):
    """`parse_footprints` of the CSV at `path`, read past any UTF-8 BOM; `kind` names it if missing."""
    if not path.exists():
        raise DataError(f"{kind} not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        return parse_footprints(fh, source=str(path))


def _load_pipeline(cfg: RunConfig):
    dem, geoid = _load_rasters(cfg.dem_path, cfg.geoid_path)
    fps_path = Path(cfg.footprints_path)
    table, parse_stats = _read_footprints(fps_path, "footprint CSV")
    taken = [c for c in CORRECTED_EXTRA_COLUMNS if c in table.cells.header]
    if taken:
        raise DataError(f"{fps_path}: input columns that correct writes itself: {', '.join(taken)}")
    if not len(table):
        raise DataError(
            f"{fps_path}: no parseable footprints "
            f"({parse_stats.n_dropped_na} NA rows, {parse_stats.n_dropped_bad_numeric} bad rows)"
        )

    groups, stats = prepare_groups(table, dem, geoid=geoid, rules=cfg.quality, radius=cfg.radius, agg=cfg.agg)
    if stats.n_after_attach == 0:
        raise DataError(f"no footprints left after preprocessing; {stats.empty_stage()} removed the last row")
    return dem, groups


def _write_corrected(out_dir: Path, results) -> None:
    """One corrected CSV per result, each over the first result's groups.

    A row is a footprint's input cells, then CORRECTED_EXTRA_COLUMNS. The
    cells, `group_key` and `ref_elev_before` are the same in every file, so
    they are CSV-encoded once; only the columns that depend on the result
    are formatted per file, and those numbers are repr-formatted and never
    need CSV quoting. Every group comes from `parse_footprints`, so its
    `row` column indexes the input cells every group shares.
    """
    groups = results[0].groups
    cells = groups[0].table.cells
    lines: list[str] = []
    # csv.writer hands each encoded line, terminator included, to `write`
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow([*cells.header, *CORRECTED_EXTRA_COLUMNS])
    writer.writerows((*cells.rows[row], group.key) for group in groups for row in group.table.row.tolist())
    prefixes = [line[:-1] for line in lines[1:]]
    x, y, ref_before = (np.concatenate([getattr(g, c) for g in groups]) for c in ("x", "y", "ref_elev"))
    refs_before = _fmt_floats(ref_before.tolist())
    for result in results:
        columns = (
            prefixes,
            _fmt_repeated(result.dx),  # one offset per group
            _fmt_repeated(result.dy),
            _fmt_floats((x + result.dx).tolist()),
            _fmt_floats((y + result.dy).tolist()),
            refs_before,
            _fmt_floats(result.ref_after.tolist()),
        )
        tail = f",{result.method},{result.metric}\n"
        path = out_dir / f"corrected_{result.method}_{result.metric}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(lines[0])
            fh.writelines(",".join(row) + tail for row in zip(*columns))
        logger.info("wrote %s", path)


def _write_reports(out_dir: Path, rows) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(rows_to_csv(rows))
    (out_dir / "report.json").write_text(rows_to_json(rows))
    (out_dir / "report.txt").write_text(rows_to_text(rows))


def _run(args: argparse.Namespace, timed: bool) -> int:
    """`correct` (timed=False) and `bench` (timed=True): the same pipeline and outputs."""
    cfg = _build_config(args)
    dem, groups = _load_pipeline(cfg)

    results, walls = [], []
    # one pool serves every combination: workers are forked once per run
    with GroupPool(groups, dem, cfg) as pool:
        for method in cfg.methods:
            for metric in cfg.metrics:
                logger.info("correcting with method=%s metric=%s", method, metric)
                start = time.perf_counter() if timed else 0.0
                results.append(correct_dataset(
                    groups, dem, method=method, metric=metric, cfg=cfg, workers=cfg.workers, pool=pool
                ))
                if timed:
                    walls.append(time.perf_counter() - start)
    rows = compare_methods(results)
    for row, wall in zip(rows[1:], walls):  # rows[0] is the "original" row
        row.wall_time_s = wall
    # --out is made only now, after the report is scored, so a run that fails leaves none
    out_dir = Path(cfg.output_dir)
    _write_reports(out_dir, rows)
    _write_corrected(out_dir, results)
    (out_dir / "effective_config.toml").write_text(dump_config(cfg), encoding="utf-8")
    if timed:
        sys.stderr.write(rows_to_text(rows))
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
            "true_positions": np.column_stack([clean.x, clean.y]).tolist(),
        }
        columns = {c: getattr(observed, c).tolist() for c in REQUIRED_COLUMNS if c != "beam"}
        columns["beam"] = [TRACK_BEAM] * len(observed)
        for flag in ("degrade_flag", "quality_flag"):
            columns[flag] = [int(v) for v in columns[flag]]
        all_rows.extend(zip(*([str(v) for v in columns[c]] for c in REQUIRED_COLUMNS)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_raster(terrain, out_dir / "terrain.asc")
    with (out_dir / "footprints.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(all_rows)
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2) + "\n")
    logger.info("synthetic scene written to %s", out_dir)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _flags_config(args, {})
    corrected_path = Path(args.corrected)
    table, stats = _read_footprints(corrected_path, "corrected CSV")
    dem, geoid = _load_rasters(cfg.dem_path, cfg.geoid_path)
    header, cells = table.cells
    missing = [c for c in CORRECTED_EXTRA_COLUMNS if c not in header]
    if missing:
        raise DataError(f"{corrected_path}: missing columns: {', '.join(missing)}")
    # the k-th-row rule below pairs rows by position, so none may be dropped
    if stats.n_dropped_na or stats.n_dropped_bad_numeric:
        raise DataError(
            f"{corrected_path}: {stats.n_dropped_na} NA rows and "
            f"{stats.n_dropped_bad_numeric} unparseable rows that correct would drop"
        )
    if not cells:
        raise DataError(f"{corrected_path}: no data rows")
    col = {c: header.index(c) for c in CORRECTED_EXTRA_COLUMNS}
    try:
        xc, yc, dx, dy = (
            np.array([float(row[col[c]]) for row in cells])
            for c in ("x_corrected", "y_corrected", "dx_m", "dy_m")
        )
    except ValueError as exc:
        raise DataError(f"{corrected_path}: unparseable numeric field: {exc}") from exc
    x, y, elev = table.x, table.y, table.elev_lowestmode

    # the k-th row of every (method, metric) combination is one footprint
    combos: dict[tuple[str, str], list[int]] = {}
    for i, row in enumerate(cells):
        combos.setdefault((row[col["method"]], row[col["metric"]]), []).append(i)
    if len({len(idx) for idx in combos.values()}) > 1:
        counts = ", ".join(f"{m}/{k} {len(idx)}" for (m, k), idx in combos.items())
        raise DataError(
            f"{corrected_path}: (method, metric) combinations have different row counts: {counts}"
        )
    first = next(iter(combos.values()))
    order = [(cells[i][col["group_key"]], table.shot_number[i]) for i in first]
    for (method, metric), idx in combos.items():
        if [(cells[i][col["group_key"]], table.shot_number[i]) for i in idx] != order:
            raise DataError(f"{corrected_path}: group_key or shot_number differs row by row in {method}/{metric}")
    keys = [key for key, _ in order]

    if geoid is not None:
        elev = elev - sample_points(geoid, x, y)
    rows = report_rows(
        keys,
        elev[first],
        aggregate_buffer_points(dem, x[first], y[first], cfg.radius, cfg.agg),
        [
            Combination(
                method, metric, aggregate_buffer_points(dem, xc[idx], yc[idx], cfg.radius, cfg.agg),
                dx=dx[idx], dy=dy[idx],
            )
            for (method, metric), idx in combos.items()
        ],
    )

    out_dir = Path(cfg.output_dir)
    _write_reports(out_dir, rows)
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
    # ValueError covers FootprintError, MetricError and TrackError;
    # BrokenExecutor: a worker process of --workers died
    except (DataError, RasterError, BrokenExecutor, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except MemoryError as exc:  # a setting, such as a tiny --grid-step, that needs too large an array
        reason = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{reason}\n")
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
