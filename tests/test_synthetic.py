"""Synthetic terrain generators, tracks, planted offsets, recovery harness."""

import math

import numpy as np
import pytest

from terralign import MetricKind, RunConfig, TerrainSpec, TrackError, gen_terrain
from terralign.evaluate import rows_to_csv
from terralign.optimize import Objective, correct_group
from terralign.synthetic import TrackSpec, gen_track, plant_offset, run_recovery_experiment


def test_flat_terrain_constant_100():
    grid = gen_terrain(TerrainSpec(kind="flat", n_rows=20, n_cols=30, cell_size=2.0))
    assert grid.values.shape == (20, 30)
    assert np.all(grid.values == 100.0)


def test_ramp_relief_is_exact():
    grid = gen_terrain(TerrainSpec(kind="ramp", n_rows=10, n_cols=100, cell_size=1.0, relief=100.0))
    assert grid.values.max() - grid.values.min() == pytest.approx(100.0, abs=1e-9)


def test_hills_and_fractal_hit_relief_range():
    for kind in ("gaussian_hills", "fractal"):
        grid = gen_terrain(TerrainSpec(kind=kind, n_rows=80, n_cols=80, cell_size=2.0, relief=140.0, seed=4))
        assert grid.values.min() == pytest.approx(100.0 - 70.0, abs=1e-9)
        assert grid.values.max() == pytest.approx(100.0 + 70.0, abs=1e-9)


def test_gen_terrain_deterministic(rng):
    for _ in range(100):
        kind = ("flat", "ramp", "gaussian_hills", "fractal")[int(rng.integers(0, 4))]
        spec = TerrainSpec(
            kind=kind,
            n_rows=int(rng.integers(8, 60)),
            n_cols=int(rng.integers(8, 60)),
            cell_size=float(rng.uniform(0.5, 10.0)),
            relief=float(rng.uniform(0.0, 200.0)),
            seed=int(rng.integers(0, 1000)),
        )
        a = gen_terrain(spec)
        b = gen_terrain(spec)
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.origin_x, a.origin_y, a.cell_size_x, a.cell_size_y) == (
            b.origin_x, b.origin_y, b.cell_size_x, b.cell_size_y,
        )


def test_terrain_has_no_nodata():
    for kind in ("flat", "ramp", "gaussian_hills", "fractal"):
        grid = gen_terrain(TerrainSpec(kind=kind, n_rows=40, n_cols=40, seed=9))
        assert np.isfinite(grid.values).all()


def test_terrain_spec_validation():
    with pytest.raises(ValueError):
        TerrainSpec(kind="volcano")
    with pytest.raises(ValueError):
        TerrainSpec(kind="flat", n_rows=0)
    with pytest.raises(ValueError):
        TerrainSpec(kind="flat", relief=-5.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["cell_size", "relief"])
def test_terrain_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TerrainSpec(kind="flat", **{field: value})


def test_track_on_flat_terrain_reads_100():
    terrain = gen_terrain(TerrainSpec(kind="flat", n_rows=120, n_cols=120, cell_size=2.0))
    group = gen_track(terrain, TrackSpec(n_footprints=5, spacing=30.0, heading=10.0, seed=2))
    assert list(group.gedi_dem) == [100.0] * 5


def test_track_monotone_on_ramp_when_heading_east():
    terrain = gen_terrain(TerrainSpec(kind="ramp", n_rows=200, n_cols=200, cell_size=2.0, relief=100.0))
    group = gen_track(terrain, TrackSpec(n_footprints=8, spacing=25.0, heading=90.0, seed=0))
    elevs = list(group.gedi_dem)
    assert all(b > a for a, b in zip(elevs, elevs[1:]))


def test_track_noise_reproducible():
    terrain = gen_terrain(TerrainSpec(kind="flat", n_rows=120, n_cols=120, cell_size=2.0))
    spec = TrackSpec(n_footprints=6, spacing=25.0, noise_sd=1.5, seed=33)
    a = gen_track(terrain, spec)
    b = gen_track(terrain, spec)
    assert list(a.gedi_dem) == list(b.gedi_dem)
    assert any(a.gedi_dem != 100.0)


def test_track_margin_violation_raises():
    terrain = gen_terrain(TerrainSpec(kind="flat", n_rows=40, n_cols=40, cell_size=2.0))
    with pytest.raises(TrackError):
        gen_track(terrain, TrackSpec(n_footprints=10, spacing=30.0, heading=0.0))


def test_track_spec_validation():
    with pytest.raises(ValueError):
        TrackSpec(n_footprints=2)
    with pytest.raises(ValueError):
        TrackSpec(spacing=0.0)
    with pytest.raises(ValueError):
        TrackSpec(planted_dx=26.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["spacing", "heading", "noise_sd", "planted_dx", "planted_dy"])
def test_track_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrackSpec(**{field: value})


def test_plant_offset_zero_is_identity():
    terrain = gen_terrain(TerrainSpec(kind="flat", n_rows=120, n_cols=120, cell_size=2.0))
    spec = TrackSpec(n_footprints=5, spacing=30.0, seed=8)
    group = gen_track(terrain, spec)
    planted = plant_offset(group, spec)
    assert list(zip(planted.x, planted.y)) == list(zip(group.x, group.y))


def test_plant_offset_shifts_positions_not_elevations():
    terrain = gen_terrain(TerrainSpec(kind="ramp", n_rows=150, n_cols=150, cell_size=2.0, relief=80.0))
    spec = TrackSpec(n_footprints=5, spacing=25.0, planted_dx=7.0, planted_dy=-4.0, seed=8)
    group = gen_track(terrain, spec)
    planted = plant_offset(group, spec)
    assert list(planted.x) == [x + 7.0 for x in group.x]
    assert list(planted.y) == [y - 4.0 for y in group.y]
    assert list(planted.gedi_dem) == list(group.gedi_dem)


def test_plant_offset_double_application_is_additive():
    terrain = gen_terrain(TerrainSpec(kind="flat", n_rows=200, n_cols=200, cell_size=2.0))
    spec = TrackSpec(n_footprints=4, spacing=25.0, planted_dx=3.0, planted_dy=5.0, seed=8)
    group = gen_track(terrain, spec)
    twice = plant_offset(plant_offset(group, spec), spec)
    double = TrackSpec(n_footprints=4, spacing=25.0, planted_dx=6.0, planted_dy=10.0, seed=8)
    once = plant_offset(group, double)
    assert list(zip(twice.x, twice.y)) == list(zip(once.x, once.y))


def test_noiseless_ramp_objective_zero_at_negated_offset():
    """On a linear field the shifted-back buffers reproduce the sampled values."""
    terrain = gen_terrain(TerrainSpec(kind="ramp", n_rows=220, n_cols=220, cell_size=1.0, relief=100.0))
    spec = TrackSpec(n_footprints=10, spacing=15.0, heading=90.0, planted_dx=-8.0, planted_dy=0.0, seed=3)
    observed = plant_offset(gen_track(terrain, spec), spec)
    f = Objective(observed, terrain, metric=MetricKind.EUCLIDEAN)
    assert f(8.0, 0.0) <= 1e-6 * 100.0
    assert f(8.0, 0.0) < f(0.0, 0.0)


def test_recovery_error_shrinks_with_relief(rng):
    """Stronger terrain signal pins the noisy objective minimum more tightly."""
    reliefs = [10.0, 50.0, 100.0, 150.0, 200.0]
    mean_err = []
    for relief in reliefs:
        errors = []
        for seed in range(10):
            terrain = gen_terrain(
                TerrainSpec(kind="gaussian_hills", n_rows=200, n_cols=200, cell_size=2.0, relief=relief, seed=500 + seed)
            )
            spec = TrackSpec(
                n_footprints=10, spacing=22.0, heading=float(rng.uniform(0.0, 360.0)),
                noise_sd=1.5, planted_dx=7.0, planted_dy=-9.0, seed=seed,
            )
            observed = plant_offset(gen_track(terrain, spec), spec)
            sol = correct_group(observed, terrain, method="grid", metric="euclidean")
            errors.append(math.hypot(sol.dx + 7.0, sol.dy - 9.0))
        mean_err.append(float(np.mean(errors)))
    ranks_relief = np.argsort(np.argsort(reliefs))
    ranks_err = np.argsort(np.argsort(mean_err))
    rho = float(np.corrcoef(ranks_relief, ranks_err)[0, 1])
    assert rho < -0.5, (mean_err, rho)


def test_recovery_experiment_grid_euclidean_within_lattice_bound():
    results, (original, row) = run_recovery_experiment(
        TerrainSpec(kind="gaussian_hills", n_rows=250, n_cols=250, cell_size=2.0, relief=200.0, seed=6),
        TrackSpec(n_footprints=12, spacing=25.0, heading=120.0, planted_dx=8.0, planted_dy=-3.0, seed=6),
        RunConfig(methods=["grid"], metrics=["euclidean"]),
    )
    assert len(results) == 1
    (sol,) = results[0].solutions
    assert math.hypot(sol.dx + 8.0, sol.dy - 3.0) <= 5.0 * math.sqrt(2.0) / 2.0 + 1e-9
    assert row.mae_m < original.mae_m


def test_recovery_experiment_flat_mae_unchanged():
    _, (original, *rows) = run_recovery_experiment(
        TerrainSpec(kind="flat", n_rows=200, n_cols=200, cell_size=2.0, seed=1),
        TrackSpec(n_footprints=10, spacing=25.0, noise_sd=0.4, planted_dx=9.0, planted_dy=4.0, seed=1),
        RunConfig(methods=["grid", "lbfgsb", "ga", "pso"], metrics=["euclidean"]),
    )
    for row in rows:
        assert row.mae_m == pytest.approx(original.mae_m, abs=1e-12)


def test_recovery_experiment_report_bytes_deterministic():
    args = (
        TerrainSpec(kind="fractal", n_rows=220, n_cols=220, cell_size=2.0, relief=120.0, seed=12),
        TrackSpec(n_footprints=8, spacing=25.0, heading=200.0, planted_dx=-5.0, planted_dy=7.0, seed=12),
    )
    kwargs = dict(cfg=RunConfig(methods=["grid", "ga"], metrics=["euclidean", "area"], seed=5))

    def run_once():
        results, rows = run_recovery_experiment(*args, **kwargs)
        solutions = [(s.dx, s.dy, s.objective_value, s.evaluations) for r in results for s in r.solutions]
        return [(r.method, r.metric) for r in results], rows_to_csv(rows), solutions

    a = run_once()
    assert a == run_once()
    combinations = [("grid", "euclidean"), ("grid", "area"), ("ga", "euclidean"), ("ga", "area")]
    assert a[0] == combinations
    assert [tuple(line.split(",")[:2]) for line in a[1].splitlines()[2:]] == combinations
