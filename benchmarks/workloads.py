"""Workload definitions and seeded scene generation for the benchmark.

A scene is a DEM (and, on one workload, a geoid raster) plus a footprint
CSV whose reported positions carry a planted offset per shot group. The
terrain comes from `terralign.synthetic`; the tracks, elevations and
offsets are built here, with the benchmark's own buffer aggregate as the
"true" LiDAR elevation, so the program sees only the generated files.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference

GRID_STEP_M = 5.0
RADIUS_M = 12.5
WINDOW_M = 25.0
REQUIRED_COLUMNS = (
    "shot_number", "beam", "x", "y", "elev_lowestmode",
    "degrade_flag", "quality_flag", "sensitivity", "rh100",
)


@dataclass(frozen=True)
class Workload:
    name: str
    terrain: str
    n_rows: int  # square DEM, n_rows x n_rows cells
    cell_m: float
    relief_m: float
    dem_format: str  # "asc" or "tif"
    n_groups: int
    n_footprints: int
    spacing_m: float
    methods: tuple[str, ...]
    metrics: tuple[str, ...]
    noise_sd_m: float = 0.5
    workers: int = 1
    geoid: bool = False
    extra_flags: tuple[str, ...] = ()
    # recovery gates, checked on point-identifiable metrics only
    min_share_within_grid_tol: float | None = None
    max_median_err_per_method_m: float | None = None
    max_median_err_m: float | None = None


# Recovery tolerance of a 5 m lattice around an off-lattice optimum
# (half a diagonal, 3.54 m, rounded up as in the acceptance suite).
GRID_TOL_M = 3.6

# GA and PSO at 24 members x 20 generations (504 evaluations) instead of the
# default 50 x 100, so that one `correct` process takes seconds, not minutes.
SMALL_SWARMS = (
    "--ga-pop", "24", "--ga-generations", "20", "--pso-swarm", "24", "--pso-iterations", "20",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's method x metric comparison on complex terrain: solver
        # work and the ~60-cell MEAN stencil; ingestion and writing are small.
        Workload(
            name="hills-sweep", terrain="gaussian_hills", n_rows=400, cell_m=4.0, relief_m=150.0,
            dem_format="asc", n_groups=12, n_footprints=30, spacing_m=40.0,
            methods=("grid", "lbfgsb", "ga", "pso"), metrics=("euclidean", "area"),
            extra_flags=("--lbfgsb-starts", "5") + SMALL_SWARMS,
            max_median_err_per_method_m=GRID_TOL_M,
        ),
        # Many footprints, cheap solve: ASCII and CSV parsing, preprocessing,
        # the writers, the scipy import and 7k-center kernel batches dominate.
        Workload(
            name="wide-grid", terrain="fractal", n_rows=800, cell_m=5.0, relief_m=150.0,
            dem_format="asc", n_groups=100, n_footprints=60, spacing_m=50.0,
            methods=("grid",), metrics=("euclidean",), noise_sd_m=0.2,
            min_share_within_grid_tol=0.95,
        ),
        # Low relief (Landes-like): binary GeoTIFF reader, geoid stage, the
        # 21-cell stencil where per-call overhead dominates, correlation and
        # the thread pool. The ASCII parser is bypassed.
        Workload(
            name="flat-swarm", terrain="fractal", n_rows=400, cell_m=10.0, relief_m=25.0,
            dem_format="tif", n_groups=30, n_footprints=60, spacing_m=60.0,
            methods=("ga", "pso"), metrics=("correlation", "manhattan"), noise_sd_m=0.3,
            workers=2, geoid=True, extra_flags=SMALL_SWARMS, max_median_err_m=10.0,
        ),
    )
}


def small(w: Workload) -> Workload:
    """The same workload on a scene small enough for a quick smoke run."""
    return replace(
        w,
        n_rows=max(160, w.n_rows // 3),
        n_groups=max(4, w.n_groups // 4),
        n_footprints=max(12, w.n_footprints // 2),
        spacing_m=min(w.spacing_m, 25.0),
    )


@dataclass
class Scene:
    dem_path: Path
    footprints_path: Path
    dem: reference.Grid
    geoid: reference.Grid | None
    geoid_path: Path | None
    planted: dict[str, tuple[float, float]] = field(default_factory=dict)
    input_rows: dict[str, list[str]] = field(default_factory=dict)


def _planted_offsets(fixed: np.random.Generator, seeded: np.random.Generator, n: int) -> np.ndarray:
    """Planted (dx, dy) per group, off the 5 m lattice and within +/-15 m.

    Each group's lattice multiple and its stratum of the 5 m lattice cell
    (one of m x m) are fixed with its track; the seed jitters the offset
    within that stratum. Grid-search quantization error then has nearly
    the same distribution on every seed.
    """
    whole = fixed.integers(-3, 3, size=(n, 2)) * GRID_STEP_M
    m = int(math.ceil(math.sqrt(n)))
    strata = fixed.permutation(m * m)[:n]
    frac = np.column_stack([strata % m, strata // m]) + seeded.uniform(0.02, 0.98, size=(n, 2))
    return whole + frac * (GRID_STEP_M / m)


def build_scene(w: Workload, seed: int, out_dir: Path) -> Scene:
    """Write the DEM, optional geoid and footprint CSV for (workload, seed)."""
    from terralign import RasterGrid, TerrainSpec, gen_terrain, write_raster

    out_dir.mkdir(parents=True, exist_ok=True)
    # Only the sub-lattice part of the planted offsets follows the seed. The
    # terrain, geoid, tracks and elevation noise are fixed per scene, so the
    # recovery error compares the solvers on the same ground from seed to
    # seed; with fresh tracks it varied by more than any change to a solver
    # is meant to move it.
    scene_id = zlib.crc32(w.name.encode())
    fixed = np.random.default_rng(scene_id)
    terrain = gen_terrain(
        TerrainSpec(
            kind=w.terrain, n_rows=w.n_rows, n_cols=w.n_rows,
            cell_size=w.cell_m, relief=w.relief_m, seed=scene_id,
        )
    )
    dem_path = out_dir / f"dem.{w.dem_format}"
    write_raster(terrain, dem_path)
    dem = reference.Grid.from_raster(terrain)

    geoid = geoid_path = None
    if w.geoid:
        # a coarse, gently tilted undulation surface one cell wider than the DEM
        gcs = w.n_rows * w.cell_m / 8.0
        n = 10
        tilt = fixed.uniform(-2e-4, 2e-4, size=2)
        gx = (np.arange(n) - 0.5) * gcs
        gy = (n - 1 - np.arange(n) - 0.5) * gcs
        und = 30.0 + tilt[0] * gx[None, :] + tilt[1] * gy[:, None]
        grid = RasterGrid(
            origin_x=-gcs, origin_y=(n - 1) * gcs, cell_size_x=gcs,
            cell_size_y=-gcs, values=und,
        )
        geoid_path = out_dir / "geoid.tif"
        write_raster(grid, geoid_path)
        geoid = reference.Grid.from_raster(grid)

    extent = w.n_rows * w.cell_m
    half_len = (w.n_footprints - 1) * w.spacing_m / 2.0
    margin = 2 * WINDOW_M + RADIUS_M + 2 * w.cell_m
    if half_len / math.sqrt(2.0) + margin >= extent / 2.0:  # not even a diagonal fits
        raise ValueError(f"{w.name}: tracks of {2 * half_len} m do not fit a {extent} m DEM")
    offsets = _planted_offsets(fixed, np.random.default_rng([seed, scene_id]), w.n_groups)
    steps = (np.arange(w.n_footprints) - (w.n_footprints - 1) / 2.0) * w.spacing_m

    scene = Scene(
        dem_path=dem_path, footprints_path=out_dir / "footprints.csv",
        dem=dem, geoid=geoid, geoid_path=geoid_path,
    )
    rows: list[list[str]] = []
    for g in range(w.n_groups):
        key = f"{g + 1:010d}"
        while True:
            heading = fixed.uniform(0.0, 2.0 * math.pi)
            ux, uy = math.sin(heading), math.cos(heading)
            lo = np.array([abs(ux), abs(uy)]) * half_len + margin
            if np.all(lo < extent - lo):
                break
        cx, cy = fixed.uniform(lo, extent - lo)
        xs = cx + steps * ux
        ys = cy + steps * uy
        elev = reference.buffer_mean(dem, xs, ys, RADIUS_M)
        elev = elev + fixed.normal(0.0, w.noise_sd_m, size=xs.shape)
        if geoid is not None:
            elev = elev + reference.sample(geoid, xs, ys)
        pdx, pdy = (float(v) for v in offsets[g])
        scene.planted[key] = (pdx, pdy)
        for i in range(w.n_footprints):
            row = [
                f"{key}{i:05d}", "BEAM0101", repr(float(xs[i] + pdx)), repr(float(ys[i] + pdy)),
                repr(float(elev[i])), "0", "1", "0.98", "10.0",
            ]
            rows.append(row)
            scene.input_rows[row[0]] = row
    with scene.footprints_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(rows)
    return scene


def correct_argv(w: Workload, scene: Scene, out_dir: Path) -> list[str]:
    """Arguments of `terralign correct` for this workload."""
    argv = [
        "correct", "--dem", str(scene.dem_path), "--footprints", str(scene.footprints_path),
        "--out", str(out_dir), "--methods", ",".join(w.methods),
        "--metrics", ",".join(w.metrics), "--workers", str(w.workers),
        "--seed", "7", "--radius", str(RADIUS_M), "--grid-step", str(GRID_STEP_M),
        "--max-dx", str(WINDOW_M), "--max-dy", str(WINDOW_M),
    ]
    if scene.geoid_path is not None:
        argv += ["--geoid", str(scene.geoid_path)]
    return argv + list(w.extra_flags)
