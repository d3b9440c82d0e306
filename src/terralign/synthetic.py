"""Synthetic terrains and footprint tracks with planted geolocation offsets.

A planted offset shifts the reported footprint positions while keeping the
elevations sampled at the true positions, reproducing the real situation
of wrong coordinates over correct measurements. The ideal recovered
displacement is therefore the negated planted offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_RADIUS_M, DEFAULT_WINDOW_M, RunConfig, _check_finite
from .evaluate import ReportRow, compare_methods
from .footprints import GROUP_PREFIX_LEN, FootprintTable, ShotGroup, attach_reference
from .optimize import CorrectionResult, correct_dataset
from .raster import AggregationKind, RasterGrid, aggregate_buffer_points

BASE_ELEVATION_M = 100.0
TRACK_BEAM = "BEAM0101"  # the `beam` cell `simulate` writes for every footprint
TERRAIN_KINDS = ("flat", "ramp", "gaussian_hills", "fractal")

_N_HILLS = 10
_FRACTAL_OCTAVES = 5
_FRACTAL_PERSISTENCE = 0.5
_FRACTAL_BASE_FREQ = 4


class TrackError(ValueError):
    """Raised when a track cannot be placed inside the terrain."""


@dataclass
class TerrainSpec:
    kind: str
    n_rows: int = 256
    n_cols: int = 256
    cell_size: float = 1.0
    relief: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TERRAIN_KINDS:
            raise ValueError(f"unknown terrain kind {self.kind!r}; expected one of {TERRAIN_KINDS}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("terrain dimensions must be positive")
        _check_finite(self)
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.relief < 0:
            raise ValueError("relief must be non-negative")
        if self.seed < 0:
            raise ValueError(f"terrain seed must be non-negative, got {self.seed!r}")


@dataclass
class TrackSpec:
    n_footprints: int = 20
    spacing: float = 60.0
    heading: float = 0.0
    noise_sd: float = 0.0
    planted_dx: float = 0.0
    planted_dy: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_footprints < 3:
            raise ValueError("a track needs at least 3 footprints")
        _check_finite(self)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if abs(self.planted_dx) > DEFAULT_WINDOW_M or abs(self.planted_dy) > DEFAULT_WINDOW_M:
            raise ValueError(f"planted offsets must stay within the {DEFAULT_WINDOW_M:g} m window")
        if self.seed < 0:
            raise ValueError(f"track seed must be non-negative, got {self.seed!r}")


def _rescale(z: np.ndarray, relief: float) -> np.ndarray:
    """Map a raw field to [base - relief/2, base + relief/2] exactly."""
    z_min = float(z.min())
    z_max = float(z.max())
    if z_max == z_min or relief == 0.0:
        return np.full_like(z, BASE_ELEVATION_M)
    unit = (z - z_min) / (z_max - z_min)
    return BASE_ELEVATION_M + relief * (unit - 0.5)


def _smootherstep(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _value_noise(rng: np.random.Generator, n_rows: int, n_cols: int, freq: int) -> np.ndarray:
    """One octave of lattice value noise with smootherstep interpolation."""
    lattice = rng.uniform(-1.0, 1.0, size=(freq + 1, freq + 1))
    u = np.linspace(0.0, freq, n_cols) if n_cols > 1 else np.zeros(1)
    v = np.linspace(0.0, freq, n_rows) if n_rows > 1 else np.zeros(1)
    i0 = np.minimum(v.astype(np.int64), freq - 1)
    j0 = np.minimum(u.astype(np.int64), freq - 1)
    tv = _smootherstep(v - i0)[:, np.newaxis]
    tu = _smootherstep(u - j0)[np.newaxis, :]
    a = lattice[np.ix_(i0, j0)]
    b = lattice[np.ix_(i0, j0 + 1)]
    c = lattice[np.ix_(i0 + 1, j0)]
    d = lattice[np.ix_(i0 + 1, j0 + 1)]
    top = a + (b - a) * tu
    bottom = c + (d - c) * tu
    return top + (bottom - top) * tv


def gen_terrain(spec: TerrainSpec) -> RasterGrid:
    """Deterministic terrain for (kind, seed); grid origin at (0, height)."""
    rng = np.random.default_rng(spec.seed)
    rows, cols = spec.n_rows, spec.n_cols

    if spec.kind == "flat":
        values = np.full((rows, cols), BASE_ELEVATION_M)
    elif spec.kind == "ramp":
        if cols > 1:
            unit = np.arange(cols, dtype=np.float64) / (cols - 1)
        else:
            unit = np.zeros(1)
        values = np.broadcast_to(
            BASE_ELEVATION_M + spec.relief * (unit - 0.5), (rows, cols)
        ).copy()
    elif spec.kind == "gaussian_hills":
        width = cols * spec.cell_size
        height = rows * spec.cell_size
        # cell-center coordinates
        xs = (np.arange(cols, dtype=np.float64) + 0.5) * spec.cell_size
        ys = height - (np.arange(rows, dtype=np.float64) + 0.5) * spec.cell_size
        cx = rng.uniform(0.0, width, _N_HILLS)
        cy = rng.uniform(0.0, height, _N_HILLS)
        sigma = rng.uniform(0.05, 0.15, _N_HILLS) * min(width, height)
        amp = rng.uniform(0.5, 1.0, _N_HILLS)
        sign = np.where(rng.random(_N_HILLS) < 0.5, -1.0, 1.0)
        raw = np.zeros((rows, cols))
        gx = xs[np.newaxis, :]
        gy = ys[:, np.newaxis]
        for j in range(_N_HILLS):
            d2 = (gx - cx[j]) ** 2 + (gy - cy[j]) ** 2
            raw += sign[j] * amp[j] * np.exp(-d2 / (2.0 * sigma[j] ** 2))
        values = _rescale(raw, spec.relief)
    else:  # fractal
        raw = np.zeros((rows, cols))
        amplitude = 1.0
        for octave in range(_FRACTAL_OCTAVES):
            freq = _FRACTAL_BASE_FREQ * (2**octave)
            raw += amplitude * _value_noise(rng, rows, cols, freq)
            amplitude *= _FRACTAL_PERSISTENCE
        values = _rescale(raw, spec.relief)

    return RasterGrid(
        origin_x=0.0,
        origin_y=rows * spec.cell_size,
        cell_size_x=spec.cell_size,
        cell_size_y=-spec.cell_size,
        values=values,
        nodata=None,
        crs_tag="",
    )


def _group_key(seed: int) -> str:
    return f"{seed % 10**GROUP_PREFIX_LEN:0{GROUP_PREFIX_LEN}d}"


def gen_track(
    terrain: RasterGrid,
    spec: TrackSpec,
    radius: float = DEFAULT_RADIUS_M,
    agg: AggregationKind = AggregationKind.MEAN,
) -> ShotGroup:
    """Footprints along a straight track through the terrain center.

    Heading uses compass convention (0 = +y, 90 = +x). Elevations are the
    footprint-buffer aggregate at the true position plus seeded Gaussian
    noise; they double as elev_lowestmode so the group passes ingestion.
    """
    x_min, y_min, x_max, y_max = terrain.extent
    cx = (x_min + x_max) / 2.0
    cy = (y_min + y_max) / 2.0
    heading_rad = math.radians(spec.heading)
    ux = math.sin(heading_rad)
    uy = math.cos(heading_rad)
    n = spec.n_footprints
    s = (np.arange(n, dtype=np.float64) - (n - 1) / 2.0) * spec.spacing
    xs = cx + s * ux
    ys = cy + s * uy

    margin = DEFAULT_WINDOW_M
    if (
        xs.min() < x_min + margin
        or xs.max() > x_max - margin
        or ys.min() < y_min + margin
        or ys.max() > y_max - margin
    ):
        raise TrackError(
            f"track of {n} footprints at spacing {spec.spacing} m does not fit "
            f"inside the terrain with a {margin} m margin"
        )

    clean = aggregate_buffer_points(terrain, xs, ys, radius, agg)
    if not np.all(np.isfinite(clean)):
        raise TrackError("track crosses a nodata region of the terrain")
    rng = np.random.default_rng(spec.seed)
    noise = rng.normal(0.0, spec.noise_sd, n)
    elev = clean + noise

    prefix = _group_key(spec.seed)
    table = FootprintTable(
        x=xs, y=ys, elev_lowestmode=elev, gedi_dem=elev, ref_elev=np.full(n, math.nan),
        degrade_flag=np.zeros(n), quality_flag=np.ones(n), sensitivity=np.full(n, 0.98),
        rh100=np.full(n, 10.0), tree_cover=np.full(n, math.nan),
        shot_number=np.array([f"{prefix}{i:05d}" for i in range(n)], dtype=object), row=np.arange(n),
        group_id=np.zeros(n, dtype=np.int64),
    )
    return ShotGroup(key=prefix, table=table)


def plant_offset(group: ShotGroup, spec: TrackSpec) -> ShotGroup:
    """Shift reported positions by the planted offset; elevations stay put."""
    shifted = group.table.take(
        slice(None), x=group.x + spec.planted_dx, y=group.y + spec.planted_dy
    )
    return ShotGroup(key=group.key, table=shifted)


def run_recovery_experiment(
    terrain_spec: TerrainSpec,
    track_spec: TrackSpec,
    cfg: RunConfig | None = None,
) -> tuple[list[CorrectionResult], list[ReportRow]]:
    """Plant an offset and run every `cfg.methods` x `cfg.metrics` on the one track.

    Returns the `CorrectionResult`s in methods x metrics order and the
    `compare_methods` rows, "original" first: every MAE covers the
    footprints with a reference in all of them. The recovery error of a
    result is the distance from `solutions[0]` to the negated planted
    offset. Also reads `radius`, `agg`, `bounds`, `optimizer` and `seed`
    from `cfg`.
    """
    cfg = cfg or RunConfig()
    terrain = gen_terrain(terrain_spec)
    truth = gen_track(terrain, track_spec, cfg.radius, cfg.agg)
    observed = plant_offset(truth, track_spec)
    # no 50 m exclusion here: synthetic elevations are honest by construction
    observed = ShotGroup(
        observed.key, attach_reference(observed.table, terrain, cfg.radius, cfg.agg, max_dem_diff=math.inf)
    )
    results = [
        correct_dataset([observed], terrain, method=method, metric=metric, cfg=cfg)
        for method in cfg.methods
        for metric in cfg.metrics
    ]
    return results, compare_methods(results, [observed])
