"""Solver contracts: grid baseline, L-BFGS-B, GA, PSO, and group correction."""

import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import terralign.optimize
from terralign import MetricError, MetricKind, RasterGrid, RunConfig, TerrainSpec, correct_dataset, gen_terrain
from terralign.config import Bounds, ConfigError, GaConfig, LbfgsbConfig, OptimizerConfig
from terralign.footprints import ShotGroup
from terralign.metrics import distance_many
from terralign.optimize import (
    GroupPool,
    Objective,
    correct_group,
    derive_group_seed,
    five_point_starts,
    grid_search,
    lattice_points,
    optimize_ga,
    optimize_lbfgsb,
    optimize_pso,
)
from terralign.raster import aggregate_buffer_points
from terralign.synthetic import TrackSpec, gen_track, plant_offset

from conftest import flat_grid, make_grid, make_group, ramp_grid


class Recorder:
    """Wraps an objective and logs every evaluated point."""

    def __init__(self, f):
        self.f = f
        self.points = []

    def __call__(self, dx, dy):
        val = self.f(dx, dy)
        self.points.append((dx, dy, val))
        return val


def brute_force_lattice_min(f, bounds, step):
    """Independent dy-outer/dx-inner enumeration with first-wins ties."""

    def axis(max_abs):
        n = int(math.floor(2.0 * max_abs / step + 1e-9)) + 1
        return [-max_abs + step * i for i in range(n)]

    best = None
    for dy in axis(bounds.max_abs_dy):
        for dx in axis(bounds.max_abs_dx):
            val = f(dx, dy)
            if best is None or val < best[2]:
                best = (dx, dy, val)
    return best


def test_grid_default_is_121_evaluations():
    rec = Recorder(lambda dx, dy: dx * dx + dy * dy)
    sol = grid_search(rec)
    assert sol.evaluations == 121
    assert len(rec.points) == 121


def test_grid_lattice_aligned_quadratic():
    sol = grid_search(lambda dx, dy: (dx - 10.0) ** 2 + (dy + 5.0) ** 2)
    assert (sol.dx, sol.dy) == (10.0, -5.0)
    assert sol.objective_value == 0.0
    assert sol.converged


def test_grid_off_lattice_quadratic_takes_nearest_point():
    sol = grid_search(lambda dx, dy: (dx - 9.0) ** 2 + dy**2)
    assert (sol.dx, sol.dy) == (10.0, 0.0)


def test_grid_constant_objective_first_wins():
    sol = grid_search(lambda dx, dy: 7.0)
    assert (sol.dx, sol.dy) == (-25.0, -25.0)


def test_grid_nan_values_never_win():
    sol = grid_search(lambda dx, dy: math.nan if dx == -25.0 else (dx - 10.0) ** 2 + (dy + 5.0) ** 2)
    assert (sol.dx, sol.dy, sol.objective_value) == (10.0, -5.0, 0.0)


def test_grid_rejects_oversized_step():
    with pytest.raises(ValueError):
        grid_search(lambda dx, dy: 0.0, Bounds(10.0, 10.0), step=25.0)


def test_grid_scan_order_is_dy_outer_dx_inner():
    rec = Recorder(lambda dx, dy: 0.0)
    grid_search(rec, Bounds(5.0, 5.0), step=5.0)
    assert [(p[0], p[1]) for p in rec.points] == [
        (-5.0, -5.0), (0.0, -5.0), (5.0, -5.0),
        (-5.0, 0.0), (0.0, 0.0), (5.0, 0.0),
        (-5.0, 5.0), (0.0, 5.0), (5.0, 5.0),
    ]


def test_grid_matches_brute_force_on_1000_random_objectives(rng):
    """Criterion source: grid returns the exact lattice minimum every time."""
    bounds = Bounds()
    for _ in range(1000):
        a, b = rng.uniform(0.2, 3.0, 2)
        cx, cy = rng.uniform(-24.0, 24.0, 2)
        amp = float(rng.uniform(0.0, 40.0))
        px, py = rng.uniform(1.5, 9.0, 2)

        def f(dx, dy):
            return (
                a * (dx - cx) ** 2
                + b * (dy - cy) ** 2
                + amp * math.sin(dx / px) * math.cos(dy / py)
            )

        sol = grid_search(f, bounds)
        want = brute_force_lattice_min(f, bounds, 5.0)
        assert (sol.dx, sol.dy) == (want[0], want[1])
        assert sol.objective_value == want[2]


def test_lattice_points_cover_window():
    pts = lattice_points(Bounds(), 5.0)
    assert pts.shape == (121, 2)
    assert pts[:, 0].min() == -25.0 and pts[:, 0].max() == 25.0
    assert pts[0].tolist() == [-25.0, -25.0]
    assert pts[1].tolist() == [-20.0, -25.0]


def test_lattice_points_end_on_the_bounds():
    """-12.1 + 22 * 1.1 rounds to 12.100000000000003; the last column and
    row are clamped to the bound, so they stay in bounds and can win."""
    bounds = Bounds(12.1, 12.1)
    pts = lattice_points(bounds, 1.1)
    assert pts.shape == (23 * 23, 2)
    assert pts[:, 0].max() == 12.1 and pts[:, 1].max() == 12.1
    sol = grid_search(lambda dx, dy: -dx - dy, bounds, 1.1)
    assert (sol.dx, sol.dy) == (12.1, 12.1)


def test_lattice_whose_point_count_overflows_is_out_of_memory():
    """50 / 1e-320 is inf: reported like a lattice too large to allocate."""
    for step in (1e-320, 1e-300):
        with pytest.raises(MemoryError, match="points on an axis"):
            lattice_points(Bounds(), step)


def test_bounds_reject_a_window_whose_width_overflows():
    Bounds(8e307, 8e307)
    for bounds in ((1e308, 1.0), (1.0, 1e308)):
        with pytest.raises(ValueError, match="window width"):
            Bounds(*bounds)


def test_lbfgsb_minimum_at_start():
    sol = optimize_lbfgsb(lambda dx, dy: dx * dx + dy * dy)
    assert sol.dx == 0.0 and sol.dy == 0.0
    assert sol.objective_value == 0.0
    assert sol.converged


def test_lbfgsb_interior_quadratic():
    sol = optimize_lbfgsb(lambda dx, dy: (dx - 7.3) ** 2 + (dy + 2.6) ** 2)
    assert math.hypot(sol.dx - 7.3, sol.dy + 2.6) <= 1e-3


def test_lbfgsb_clamps_exterior_minimum():
    sol = optimize_lbfgsb(lambda dx, dy: (dx - 40.0) ** 2 + dy * dy)
    assert sol.dx == 25.0
    assert abs(sol.dy) <= 1e-6


def test_lbfgsb_quadratic_family(rng):
    for _ in range(50):
        a = float(rng.uniform(-20.0, 20.0))
        b = float(rng.uniform(-20.0, 20.0))
        sol = optimize_lbfgsb(lambda dx, dy: (dx - a) ** 2 + (dy - b) ** 2)
        assert math.hypot(sol.dx - a, sol.dy - b) <= 1e-3


def test_lbfgsb_probe_order_per_iterate():
    rec = Recorder(lambda dx, dy: (dx - 7.3) ** 2 + (dy + 2.6) ** 2)
    sol = optimize_lbfgsb(rec)
    h = 1.0  # no cell_size on the objective: the step floor applies
    assert rec.points[0][:2] == (0.0, 0.0)
    assert len(rec.points) == sol.evaluations and sol.evaluations % 5 == 0
    for i in range(0, len(rec.points), 5):
        (x, y, _), *probes = rec.points[i : i + 5]
        # value, +x, -x, +y, -y: the order first-wins ties depend on
        assert [p[:2] for p in probes] == [(x + h, y), (x - h, y), (x, y + h), (x, y - h)]


def test_five_point_starts_layout():
    starts = five_point_starts(Bounds())
    assert starts[0] == (0.0, 0.0)
    assert set(starts[1:]) == {(-12.5, -12.5), (-12.5, 12.5), (12.5, -12.5), (12.5, 12.5)}


def test_lbfgsb_multistart_escapes_poor_basin():
    # two basins; the origin start rolls into the shallow one at (-20, 0)
    def f(dx, dy):
        return min((dx + 20.0) ** 2 + dy**2 + 5.0, (dx - 20.0) ** 2 + dy**2)

    single = optimize_lbfgsb(f)
    multi = optimize_lbfgsb(f, cfg=OptimizerConfig(lbfgsb=LbfgsbConfig(starts=5)))
    assert multi.objective_value <= single.objective_value
    assert multi.objective_value <= 1e-3


def test_ga_bowl_seed_1():
    sol = optimize_ga(lambda dx, dy: dx * dx + dy * dy, rng=np.random.default_rng(1))
    assert sol.objective_value <= 0.1
    assert sol.converged


def test_ga_scores_no_child_that_copies_its_parent():
    cfg = OptimizerConfig(ga=GaConfig(pop=12, generations=5, crossover_rate=0.0, mutation_rate=0.0))
    rec = Recorder(lambda dx, dy: (dx - 3.0) ** 2 + dy**2)
    sol = optimize_ga(rec, Bounds(), cfg, rng=np.random.default_rng(1))
    # every child is a copy of a tournament winner: only the first population is scored
    assert sol.evaluations == len(rec.points) == 12
    assert sol.objective_value == min(v for _, _, v in rec.points)


def test_pso_bowl_seed_1():
    sol = optimize_pso(lambda dx, dy: dx * dx + dy * dy, rng=np.random.default_rng(1))
    assert sol.objective_value <= 0.1
    assert sol.converged


def test_ga_and_pso_bitwise_deterministic():
    f = lambda dx, dy: (dx - 3.7) ** 2 + (dy + 8.1) ** 2
    for solver in (optimize_ga, optimize_pso):
        a = solver(f, rng=np.random.default_rng(9))
        b = solver(f, rng=np.random.default_rng(9))
        assert (a.dx, a.dy, a.objective_value) == (b.dx, b.dy, b.objective_value)
        c = solver(f, rng=np.random.default_rng(10))
        assert (a.dx, a.dy) != (c.dx, c.dy)


def test_ga_pso_quadratic_family(rng):
    hits = {"ga": [], "pso": []}
    for trial in range(50):
        a = float(rng.uniform(-20.0, 20.0))
        b = float(rng.uniform(-20.0, 20.0))
        f = lambda dx, dy: (dx - a) ** 2 + (dy - b) ** 2
        for name, solver in (("ga", optimize_ga), ("pso", optimize_pso)):
            sol = solver(f, rng=np.random.default_rng(trial))
            hits[name].append(math.hypot(sol.dx - a, sol.dy - b))
    assert max(hits["ga"]) <= 0.5
    assert max(hits["pso"]) <= 0.5


def test_ga_best_monotone_in_budget():
    f = lambda dx, dy: (dx - 11.0) ** 2 + (dy - 4.0) ** 2 + 3.0 * math.sin(dx) * math.sin(dy)
    values = []
    for gens in (5, 10, 20, 40):
        cfg = OptimizerConfig()
        cfg.ga.generations = gens
        values.append(optimize_ga(f, cfg=cfg, rng=np.random.default_rng(2)).objective_value)
    # same seed means longer runs replay the shorter prefix, so best never worsens
    assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))


def test_pso_gbest_monotone_in_budget():
    f = lambda dx, dy: (dx - 11.0) ** 2 + (dy - 4.0) ** 2 + 3.0 * math.sin(dx) * math.sin(dy)
    values = []
    for iters in (5, 10, 20, 40):
        cfg = OptimizerConfig()
        cfg.pso.iterations = iters
        values.append(optimize_pso(f, cfg=cfg, rng=np.random.default_rng(2)).objective_value)
    assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))


def test_pso_recovers_the_minimum_when_its_first_particle_scores_nan():
    """A NaN never becomes the swarm's attractor; the best scored point does."""
    calls = []

    def bowl(dx, dy):
        calls.append((dx, dy))
        return math.nan if len(calls) == 1 else (dx - 7.0) ** 2 + (dy + 4.0) ** 2

    cfg = OptimizerConfig()
    cfg.pso.swarm, cfg.pso.iterations = 20, 60
    for seed in range(5):
        calls.clear()
        sol = optimize_pso(bowl, cfg=cfg, rng=np.random.default_rng(seed))
        assert math.hypot(sol.dx - 7.0, sol.dy + 4.0) < 1e-3, seed


def test_pso_particle_whose_first_score_is_nan_still_finds_its_best():
    """A NaN start is no particle's own best: the first particle drawn, scored
    NaN, ends at the minimum with the rest of the swarm."""
    calls = []

    def bowl(dx, dy):
        calls.append((dx, dy))
        return math.nan if len(calls) == 1 else (dx - 7.0) ** 2 + (dy + 4.0) ** 2

    cfg = OptimizerConfig()
    cfg.pso.swarm, cfg.pso.iterations = 20, 60
    optimize_pso(bowl, cfg=cfg, rng=np.random.default_rng(0))
    # a plain callable is scored point by point, in particle order
    final = calls[-cfg.pso.swarm:]
    assert max(math.hypot(dx - 7.0, dy + 4.0) for dx, dy in final) < 1e-2


def test_all_solvers_respect_bounds_exactly(rng):
    bounds = Bounds(7.0, 13.0)
    cfg = OptimizerConfig()
    for seed in range(10):
        a = float(rng.uniform(-40.0, 40.0))
        b = float(rng.uniform(-40.0, 40.0))
        f = lambda dx, dy: (dx - a) ** 2 + (dy - b) ** 2
        for sol in (
            grid_search(f, bounds, cfg.grid_step),
            optimize_lbfgsb(f, bounds, cfg),
            optimize_ga(f, bounds, cfg, rng=np.random.default_rng(seed)),
            optimize_pso(f, bounds, cfg, rng=np.random.default_rng(seed)),
        ):
            assert abs(sol.dx) <= bounds.max_abs_dx
            assert abs(sol.dy) <= bounds.max_abs_dy


def test_solution_not_worse_than_any_recorded_evaluation():
    bounds = Bounds()
    f = lambda dx, dy: (dx - 6.2) ** 2 + (dy + 9.9) ** 2 + 2.0 * math.cos(dx * dy / 7.0)
    cfg = OptimizerConfig()
    for solver in (
        lambda g: grid_search(g, bounds, cfg.grid_step),
        lambda g: optimize_lbfgsb(g, bounds, cfg),
        lambda g: optimize_ga(g, bounds, cfg, rng=np.random.default_rng(4)),
        lambda g: optimize_pso(g, bounds, cfg, rng=np.random.default_rng(4)),
    ):
        rec = Recorder(f)
        sol = solver(rec)
        in_bounds = [v for dx, dy, v in rec.points if abs(dx) <= 25.0 and abs(dy) <= 25.0]
        assert sol.objective_value <= min(in_bounds)
        assert sol.evaluations == len(rec.points)


def test_objective_flat_dem_is_zero_everywhere():
    dem = flat_grid(128)
    group = make_group([50.0, 60.0, 70.0], [60.0, 60.0, 60.0], [100.0] * 3)
    for metric in (MetricKind.EUCLIDEAN, MetricKind.MANHATTAN, MetricKind.AREA):
        f = Objective(group, dem, metric=metric)
        assert f(0.0, 0.0) == 0.0
        assert f(7.3, -12.1) == 0.0
    f_corr = Objective(group, dem, metric=MetricKind.CORRELATION)
    assert f_corr(3.0, 3.0) == 2.0  # zero-variance reference hits the worst case


def test_objective_rejects_bad_arguments():
    dem = flat_grid(16)
    group = make_group([5.0, 6.0], [5.0, 5.0], [100.0] * 2)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^radius must be finite and positive"):
            Objective(group, dem, radius=radius)
    with pytest.raises(ValueError, match="empty group"):
        Objective(make_group([], [], []), dem)
    with pytest.raises(ValueError, match="correlation"):
        Objective(make_group([5.0], [5.0], [100.0]), dem, metric="correlation")
    with pytest.raises(ValueError):
        Objective(group, dem, metric="cosine")


def test_objective_penalizes_off_dem_positions():
    dem = flat_grid(40)
    group = make_group([5.0, 10.0, 15.0], [20.0, 20.0, 20.0], [100.0] * 3)
    f = Objective(group, dem, metric=MetricKind.EUCLIDEAN)
    val = f(-25.0, 0.0)  # pushes the first buffers fully west of the raster
    assert val >= 1e9
    assert f(0.0, 0.0) == 0.0


def test_objective_batch_matches_scalar_bitwise(rng):
    from terralign import TerrainSpec, gen_terrain

    terrain = gen_terrain(TerrainSpec(kind="fractal", n_rows=120, n_cols=120, cell_size=4.0, relief=80.0, seed=5))
    xs = rng.uniform(150.0, 330.0, 8)
    ys = rng.uniform(150.0, 330.0, 8)
    elevs = rng.normal(100.0, 10.0, 8)
    group = make_group(xs, ys, elevs)
    f = Objective(group, terrain, metric=MetricKind.EUCLIDEAN)
    pts = rng.uniform(-25.0, 25.0, (64, 2))
    batch = f.batch(pts)
    for i, (dx, dy) in enumerate(pts):
        assert batch[i] == f(float(dx), float(dy))


def planted_scene(seed=11, planted=(8.0, -3.0), relief=120.0, cell=2.0):
    n = round(440.0 / cell)
    terrain = gen_terrain(
        TerrainSpec(kind="gaussian_hills", n_rows=n, n_cols=n, cell_size=cell, relief=relief, seed=seed)
    )
    spec = TrackSpec(
        n_footprints=12, spacing=25.0, heading=40.0, noise_sd=0.0,
        planted_dx=planted[0], planted_dy=planted[1], seed=seed,
    )
    observed = plant_offset(gen_track(terrain, spec), spec)
    return terrain, observed


def test_correct_group_grid_recovers_within_one_step():
    terrain, group = planted_scene()
    sol = correct_group(group, terrain, method="grid", metric="euclidean")
    assert abs(sol.dx - (-8.0)) <= 5.0
    assert abs(sol.dy - 3.0) <= 5.0
    result = correct_dataset([group], terrain, method="grid", metric="euclidean")
    assert result.solutions == [sol]
    expected = aggregate_buffer_points(terrain, group.x + sol.dx, group.y + sol.dy, 12.5)
    assert result.ref_after.dtype == np.float64
    np.testing.assert_array_equal(result.ref_after, expected)


def test_lbfgsb_differences_over_the_dem_cell(monkeypatch):
    """On an Objective over a 4 m DEM, each iterate's four probes sit at +/-4 m."""
    terrain, group = planted_scene(cell=4.0)
    f = Objective(group, terrain)
    assert f.cell_size == 4.0
    batches = []
    batch = terralign.optimize._Tracker.batch

    def recording_batch(self, points):
        batches.append(points)
        return batch(self, points)

    monkeypatch.setattr(terralign.optimize._Tracker, "batch", recording_batch)
    sol = optimize_lbfgsb(f, cfg=OptimizerConfig(lbfgsb=LbfgsbConfig(starts=5)))
    assert len(batches) > 5 and sol.evaluations <= 5 * len(batches)
    for (x, y), *probes in (b.tolist() for b in batches):
        assert probes == [[x + 4.0, y], [x - 4.0, y], [x, y + 4.0], [x, y - 4.0]]


def test_correct_group_lbfgsb_recovers_within_one_meter():
    terrain, group = planted_scene()
    sol = correct_group(group, terrain, method="lbfgsb", metric="euclidean")
    assert math.hypot(sol.dx - (-8.0), sol.dy - 3.0) <= 1.0


def scalar_probe_lbfgsb(f, cfg, bounds=Bounds()):
    """Reference L-BFGS-B: the value and each central-difference probe are
    separate scalar calls, and the first strictly better in-bounds value wins."""
    from scipy.optimize import minimize

    lb = cfg.lbfgsb
    h = max(f.cell_size, 1.0)
    seen = []

    def g(dx, dy):
        seen.append((f(float(dx), float(dy)), float(dx), float(dy)))
        return seen[-1][0]

    def best():
        inside = [
            s for s in seen if abs(s[1]) <= bounds.max_abs_dx and abs(s[2]) <= bounds.max_abs_dy
        ]
        return min(inside, key=lambda s: s[0], default=(math.inf, 0.0, 0.0))

    converged = False
    starts = five_point_starts(bounds) if lb.starts == 5 else [(0.0, 0.0)]
    for i, start in enumerate(starts):
        before = best()[0]
        res = minimize(
            lambda v: g(v[0], v[1]),
            np.asarray(start, dtype=np.float64),
            jac=lambda v: np.array([
                (g(v[0] + h, v[1]) - g(v[0] - h, v[1])) / (2.0 * h),
                (g(v[0], v[1] + h) - g(v[0], v[1] - h)) / (2.0 * h),
            ]),
            method="L-BFGS-B",
            bounds=[(-bounds.max_abs_dx, bounds.max_abs_dx), (-bounds.max_abs_dy, bounds.max_abs_dy)],
            options={"maxiter": lb.max_iter, "ftol": lb.tol, "gtol": lb.tol, "maxcor": lb.history},
        )
        if i == 0 or best()[0] < before:
            converged = res.status == 0
    value, dx, dy = best()
    return dx, dy, value, len(seen), converged


def test_lbfgsb_batched_probes_match_scalar_paths():
    """One 5-row batch per iterate gives the bits of five scalar calls, both
    through the tracker's fallback and against the scalar-probe reference.
    The Objective's slack memo scores fewer of those points, with the same
    result."""
    for seed, planted in ((11, (8.0, -3.0)), (5, (-14.0, 9.0)), (23, (2.5, 17.0))):
        terrain, group = planted_scene(seed=seed, planted=planted)
        f = Objective(group, terrain, metric=MetricKind.EUCLIDEAN)
        scalar = lambda dx, dy: f(dx, dy)  # no .batch: the tracker calls it row by row
        scalar.cell_size = f.cell_size
        for starts in (1, 5):
            cfg = OptimizerConfig(lbfgsb=LbfgsbConfig(starts=starts))
            dx, dy, value, probes, converged = scalar_probe_lbfgsb(f, cfg)
            s = optimize_lbfgsb(scalar, cfg=cfg)
            assert (s.dx, s.dy, s.objective_value, s.evaluations, s.converged) == (dx, dy, value, probes, converged)
            s = optimize_lbfgsb(f, cfg=cfg)
            assert (s.dx, s.dy, s.objective_value, s.converged) == (dx, dy, value, converged)
            assert s.evaluations < probes


class ScoredCount(Objective):
    """An Objective that counts the points it scores."""

    scored = 0

    def batch(self, points, slack=None):
        self.scored += len(points)
        return super().batch(points, slack)


class BatchOnly:
    """An objective's `batch` and `cell_size` alone: no slack, so no memo."""

    def __init__(self, f):
        self.batch = lambda points: f.batch(points)
        self.cell_size = f.cell_size


@pytest.mark.parametrize("metric", ["euclidean", "area", "correlation"])
def test_lbfgsb_slack_memo_keeps_the_result(metric):
    """The memo changes only how many points are scored: the best point, its
    value and the convergence flag equal an unmemoized run's."""
    scored = unmemoized = 0
    for seed, planted in ((3, (6.0, 4.0)), (17, (-9.0, -12.0)), (29, (15.0, -1.5))):
        terrain, group = planted_scene(seed=seed, planted=planted)
        for starts in (1, 5):
            cfg = OptimizerConfig(lbfgsb=LbfgsbConfig(starts=starts))
            f = ScoredCount(group, terrain, metric=metric)
            memo = optimize_lbfgsb(f, cfg=cfg)
            plain = optimize_lbfgsb(BatchOnly(Objective(group, terrain, metric=metric)), cfg=cfg)
            assert (memo.dx, memo.dy, memo.objective_value, memo.converged) == (
                plain.dx, plain.dy, plain.objective_value, plain.converged
            )
            assert memo.evaluations == f.scored <= plain.evaluations
            scored += memo.evaluations
            unmemoized += plain.evaluations
    assert scored < unmemoized


def holed_terrain():
    """A 600 m fractal DEM with 2 % scattered NaN cells and a NaN strip."""
    terrain = gen_terrain(TerrainSpec(kind="fractal", n_rows=150, n_cols=150, cell_size=4.0, relief=80.0, seed=8))
    values = terrain.values.copy()
    values[np.random.default_rng(8).random(values.shape) < 0.02] = np.nan
    values[60:64, 60:100] = np.nan
    return RasterGrid(terrain.origin_x, terrain.origin_y, terrain.cell_size_x, terrain.cell_size_y, values)


def bounded_scan_cases():
    """(group, DEM) pairs: groups of 3 to 60 footprints on the holed DEM, in
    its interior and within 30 m of its edges (so lattice rows and columns
    leave it), and on a flat DEM, where every on-DEM point ties."""
    holed = holed_terrain()
    flat = flat_grid(150, cell=4.0)
    rng = np.random.default_rng(31)
    for n in (3, 4, 5, 9, 16, 30, 60):
        for cx, cy in ((300.0, 300.0), (20.0, 300.0), (300.0, 580.0), (25.0, 25.0)):
            xs = np.clip(cx + rng.normal(0.0, 40.0, n), 1.0, 599.0)
            ys = np.clip(cy + rng.normal(0.0, 40.0, n), 1.0, 599.0)
            elev = aggregate_buffer_points(holed, xs, ys, 12.5)
            elev = np.where(np.isfinite(elev), elev, 50.0) + rng.normal(0.0, 0.5, n)
            yield make_group(xs - 6.5, ys + 3.5, elev), holed
            yield make_group(xs, ys, np.full(n, 103.0)), flat


@pytest.mark.parametrize("metric", [m.value for m in MetricKind])
def test_bounded_grid_scan_equals_the_full_scan(metric):
    """The bounded scan returns the full scan's point and value bits, ties
    included, and `correct_dataset` the same `ref_after` bytes. `BatchOnly`
    hides the Objective, so the reference scores every lattice point."""
    bounded = metric in ("euclidean", "manhattan", "hausdorff")
    evaluations = []
    for group, dem in bounded_scan_cases():
        f = Objective(group, dem, metric=metric)
        full = grid_search(BatchOnly(f))
        sol = grid_search(f)
        assert (sol.dx, sol.dy, sol.objective_value) == (full.dx, full.dy, full.objective_value)
        assert full.evaluations == 121 and (sol.evaluations <= 121 if bounded else sol.evaluations == 121)
        if dem.has_nodata:
            evaluations.append(sol.evaluations)
        ref_after = correct_dataset([group], dem, "grid", metric).ref_after
        expected = aggregate_buffer_points(dem, group.x + full.dx, group.y + full.dy, 12.5)
        assert ref_after.tobytes() == expected.tobytes()
    if bounded:  # the holed DEM's cases prune; on the flat DEM every point ties
        assert np.median(evaluations) < 60


def test_bounded_grid_scan_keeps_a_point_whose_bound_is_ulps_above_its_value():
    """Each footprint reads one cell (5 m cells, 1 m radius), so the terms
    are set cell by cell. Under manhattan, the point (0, 0) and the later
    point (5, 0) have the same value F on the whole group. At (0, 0) the
    terms sit on the bound's footprints 0, 4, 8 and 12, whose sum in
    another order rounds above F; at (5, 0) the one term F sits on footprint
    0. So (5, 0) has the lowest bound and is the incumbent, and (0, 0),
    the first minimum, survives only through the rounding margin."""
    n = 16
    subset = np.arange(0, n, 4)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        terms = np.zeros(n)
        terms[subset] = rng.uniform(0.0, 1.0, subset.size)
        value = distance_many("manhattan", np.zeros(n), -terms[np.newaxis])[0]
        if distance_many("manhattan", np.zeros(subset.size), -terms[np.newaxis, subset])[0] > value:
            break
    else:
        pytest.fail("no term vector whose subset sum rounds above its full sum")
    # footprint i sits at the centre of row 5, column 11i + 5 of its own 11 x 11 block
    values = np.full((11, 11 * n), 1000.0)
    values[5, 11 * np.arange(n) + 5] = -terms
    values[5, 11 * np.arange(n) + 6] = -np.where(np.arange(n) == 0, value, 0.0)
    dem = make_grid(values, cell=5.0)
    group = make_group((11 * np.arange(n) + 5.5) * 5.0, np.full(n, 27.5), np.zeros(n))
    f = Objective(group, dem, metric="manhattan", radius=1.0)
    assert f(0.0, 0.0) == f(5.0, 0.0) == value
    sol = grid_search(f)
    assert (sol.dx, sol.dy, sol.objective_value) == (0.0, 0.0, value)
    assert sol.evaluations == 2


@pytest.mark.parametrize("i", [4, 5])
def test_bounded_grid_scan_raises_the_full_scans_error_on_a_nan_elevation(i):
    """Footprint 4 is one the bound is taken on, footprint 5 is not."""
    terrain, group = planted_scene()
    elev = np.where(np.arange(len(group)) == i, np.nan, group.gedi_dem)
    f = Objective(ShotGroup(group.key, group.table.take(slice(None), gedi_dem=elev)), terrain)
    for scan in (f, BatchOnly(f)):
        with pytest.raises(MetricError, match="finite"):
            grid_search(scan)


def test_correct_group_flat_dem_keeps_mae():
    dem = flat_grid(128)
    group = make_group([50.0, 60.0, 70.0, 80.0], [60.0] * 4, [100.2, 99.9, 100.1, 99.8])
    for method in ("grid", "lbfgsb", "ga", "pso"):
        result = correct_dataset([group], dem, method=method, metric="euclidean")
        assert result.ref_after.tolist() == [100.0] * 4


def test_correct_dataset_empty_input():
    dem = flat_grid(16)
    result = correct_dataset([], dem)
    assert result.solutions == [] and result.n_skipped == 0


@pytest.mark.parametrize(
    "n_groups, kwargs, message",
    [
        (1, {"workers": 0}, "^workers: must be >= 1$"),
        (0, {"method": "annealing"}, "^methods: unknown name 'annealing'"),
        (1, {"method": "annealing"}, "^methods: unknown name 'annealing'"),
    ],
)
def test_one_shot_correct_dataset_checks_by_run_config_rules(monkeypatch, n_groups, kwargs, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a group was solved")

    monkeypatch.setattr(terralign.optimize, "correct_group", unreachable)
    groups = [make_group([30.0, 34.0, 38.0], [30.0] * 3, [100.0] * 3)][:n_groups]
    with pytest.raises(ConfigError, match=message):
        correct_dataset(groups, flat_grid(64), **kwargs)


def test_correct_dataset_skip_accounting():
    dem = flat_grid(128)
    good = make_group([40.0, 50.0, 60.0], [60.0] * 3, [100.0] * 3, key="0000000001")
    small = make_group([40.0, 50.0], [80.0] * 2, [100.0] * 2, key="0000000002")
    result = correct_dataset([good, small], dem, method="grid")
    assert result.n_skipped == 1
    assert result.solutions[1].skipped and not result.solutions[0].skipped


@pytest.mark.parametrize("workers", [1, 2])
def test_correct_dataset_ref_after_is_aggregate_at_shifted_positions(workers):
    dem = ramp_grid(128)
    groups = [
        make_group([40.0, 55.0, 70.0, 85.0], [60.0] * 4, [50.0, 60.0, 75.0, 90.0], key="0000000001"),
        # the last footprint is off the DEM at every candidate offset
        make_group([30.0, 45.0, 60.0, -500.0], [90.0] * 4, [40.0, 50.0, 60.0, 0.0], key="0000000002"),
        # below the minimum size: skipped, with stored references that are not the DEM's
        make_group([70.0, 80.0], [30.0] * 2, [70.0, 80.0], key="0000000003"),
        make_group([20.0, 30.0, 40.0], [100.0] * 3, [20.0, 30.0, 40.0], key="0000000004"),
    ]
    skipped = groups[2]
    groups[2] = ShotGroup(skipped.key, skipped.table.take(slice(None), ref_elev=np.array([71.25, math.nan])))
    result = correct_dataset(groups, dem, method="grid", metric="euclidean", workers=workers)
    assert result.groups is groups
    assert [s.skipped for s in result.solutions] == [False, False, True, False]
    assert result.n_skipped == 1
    skip = result.solutions[2]
    assert (skip.dx, skip.dy, skip.objective_value, skip.evaluations, skip.converged) == (0.0, 0.0, 0.0, 0, False)
    expected = np.concatenate([
        [71.25, math.nan] if s.skipped else aggregate_buffer_points(dem, g.x + s.dx, g.y + s.dy, 12.5)
        for g, s in zip(groups, result.solutions)
    ])
    dem_refs = aggregate_buffer_points(dem, skipped.x, skipped.y, 12.5)
    assert np.isfinite(dem_refs).all() and dem_refs[0] != 71.25  # the stored values are not the DEM's
    assert result.ref_after.tobytes() == expected.tobytes()
    assert np.flatnonzero(np.isnan(result.ref_after)).tolist() == [7, 9]
    # the Combination columns repeat each group's offset over its footprints
    np.testing.assert_array_equal(result.dx, np.repeat([s.dx for s in result.solutions], [4, 4, 2, 3]))
    np.testing.assert_array_equal(result.dy, np.repeat([s.dy for s in result.solutions], [4, 4, 2, 3]))


def test_correct_dataset_worker_count_invariant():
    terrain = gen_terrain(
        TerrainSpec(kind="gaussian_hills", n_rows=300, n_cols=300, cell_size=2.0, relief=130.0, seed=3)
    )
    groups = []
    for i in range(10):
        spec = TrackSpec(
            n_footprints=8, spacing=22.0, heading=36.0 * i, noise_sd=0.3,
            planted_dx=6.0, planted_dy=-4.0, seed=100 + i,
        )
        groups.append(plant_offset(gen_track(terrain, spec), spec))
    for method in ("grid", "lbfgsb", "ga", "pso"):
        cfg = RunConfig(seed=7)
        serial = correct_dataset(groups, terrain, method=method, metric="manhattan", cfg=cfg, workers=1)
        pooled = correct_dataset(groups, terrain, method=method, metric="manhattan", cfg=cfg, workers=8)
        assert len(pooled.solutions) == len(groups)
        for a, b in zip(serial.solutions, pooled.solutions):
            assert (a.dx, a.dy, a.objective_value, a.evaluations, a.converged) == (
                b.dx, b.dy, b.objective_value, b.evaluations, b.converged
            ), method
        assert serial.ref_after.tobytes() == pooled.ref_after.tobytes(), method
    assert multiprocessing.active_children() == []


def four_groups():
    return [
        make_group([40.0, 50.0, 60.0], [20.0 * k] * 3, [100.0] * 3, key=f"000000000{k}")
        for k in range(1, 5)
    ]


def fail_on(key, fail):
    """`correct_group`, except that group `key` calls `fail` first."""
    solve = correct_group

    def patched(group, *args, **kwargs):
        if group.key == key:
            fail()
        return solve(group, *args, **kwargs)

    return patched


def test_correct_dataset_worker_exception_reaches_caller(monkeypatch):
    def fail():
        raise ValueError("group 0000000003 is bad")

    monkeypatch.setattr(terralign.optimize, "correct_group", fail_on("0000000003", fail))
    with pytest.raises(ValueError, match="^group 0000000003 is bad$"):
        correct_dataset(four_groups(), flat_grid(128), method="grid", workers=2)
    assert multiprocessing.active_children() == []


def test_correct_dataset_dead_worker_raises_broken_pool(monkeypatch):
    monkeypatch.setattr(terralign.optimize, "correct_group", fail_on("0000000002", lambda: os._exit(1)))
    with pytest.raises(BrokenProcessPool):
        correct_dataset(four_groups(), flat_grid(128), method="grid", workers=2)
    assert multiprocessing.active_children() == []


def test_correct_dataset_in_an_open_pool_matches_one_shot_calls():
    dem = ramp_grid(128)
    groups = four_groups()
    cfg = RunConfig(seed=3, workers=2, methods=["grid", "ga"])
    combos = [(m, k) for m in ("grid", "ga") for k in ("euclidean", "area")]
    with GroupPool(groups, dem, cfg) as pool:
        pooled = [correct_dataset(groups, dem, m, k, cfg, workers=2, pool=pool) for m, k in combos]
        with pytest.raises(ValueError, match="pool was opened on other groups"):
            correct_dataset(groups[:2], dem, "grid", cfg=cfg, pool=pool)
    assert multiprocessing.active_children() == []
    for (m, k), result in zip(combos, pooled):
        alone = correct_dataset(groups, dem, m, k, cfg, workers=1)
        assert (result.method, result.metric) == (alone.method, alone.metric)
        assert [(s.dx, s.dy, s.objective_value, s.evaluations) for s in result.solutions] == [
            (s.dx, s.dy, s.objective_value, s.evaluations) for s in alone.solutions
        ]
        assert result.ref_after.tobytes() == alone.ref_after.tobytes()
        assert (result.dx.tobytes(), result.dy.tobytes()) == (alone.dx.tobytes(), alone.dy.tobytes())


def test_derive_group_seed_stable_and_distinct():
    assert derive_group_seed(0, "0000000001") == derive_group_seed(0, "0000000001")
    assert derive_group_seed(0, "0000000001") != derive_group_seed(1, "0000000001")
    assert derive_group_seed(0, "0000000001") != derive_group_seed(0, "0000000002")


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_step=0.0)
    with pytest.raises(ValueError):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GaConfig(pop=1)
    with pytest.raises(ValueError):
        LbfgsbConfig(tol=0.0)
    with pytest.raises(ValueError):
        LbfgsbConfig(starts=3)
    with pytest.raises(ValueError):
        Bounds(0.0, 10.0)


def test_unknown_method_raises():
    dem = flat_grid(64)
    group = make_group([30.0, 34.0, 38.0], [30.0] * 3, [100.0] * 3)
    with pytest.raises(ValueError):
        correct_group(group, dem, method="annealing")
