"""Acceptance gate: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. The recovery corpus (criteria 3 and 4) builds 100 seeded scenes
plus a 0.5 m brute-force reference surface per scene and takes a few
minutes; everything else is seconds.
"""

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from terralign import MetricKind, QualityRules, RunConfig, TerrainSpec, correct_dataset, gen_terrain
from terralign.cli import main as cli_main
from terralign.config import Bounds, LbfgsbConfig, OptimizerConfig
from terralign.footprints import filter_quality, flag_rolling_outliers
from terralign.metrics import distance, distance_many
from terralign.optimize import correct_group, grid_search, lattice_points
from terralign.raster import AggregationKind, aggregate_buffer_points
from terralign.synthetic import TrackSpec, gen_track, plant_offset, run_recovery_experiment

from conftest import make_footprint, make_table

RECOVERY_METRICS = (MetricKind.EUCLIDEAN, MetricKind.MANHATTAN, MetricKind.AREA)
N_SCENES = 100


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def naive_distance(kind, e, r):
    """Pure-python metric reference, written independently of the library."""
    n = len(e)
    diffs = [e[i] - r[i] for i in range(n)]
    if kind == "euclidean":
        return math.sqrt(sum(d * d for d in diffs))
    if kind == "manhattan":
        return sum(abs(d) for d in diffs)
    if kind == "hausdorff":
        return max(abs(d) for d in diffs)
    if kind == "area":
        return abs(sum(diffs))
    me = sum(e) / n
    mr = sum(r) / n
    se = math.sqrt(sum((v - me) ** 2 for v in e))
    sr = math.sqrt(sum((v - mr) ** 2 for v in r))
    if se == 0.0 or sr == 0.0:
        return 2.0
    rho = sum((e[i] - me) * (r[i] - mr) for i in range(n)) / (se * sr)
    return min(2.0, max(0.0, 1.0 - rho))


def naive_rolling_mask(series, window, k):
    """Centered window, truncated ends, sample std, tiny windows never flag."""
    n = len(series)
    half = window // 2
    mask = [False] * n
    for i in range(n):
        chunk = [series[j] for j in range(max(0, i - half), min(n, i + half + 1))]
        if len(chunk) < 3:
            continue
        mean = sum(chunk) / len(chunk)
        var = sum((v - mean) ** 2 for v in chunk) / (len(chunk) - 1)
        sd = math.sqrt(var)
        if sd > 0 and abs(series[i] - mean) > k * sd:
            mask[i] = True
    return mask


# ---------------------------------------------------------------------------
# shared recovery corpus (criteria 3 and 4)
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    target: tuple[float, float]
    valid: dict = field(default_factory=dict)       # metric -> oracle min near target
    oracle_value: dict = field(default_factory=dict)  # metric -> 0.5 m lattice minimum
    solutions: dict = field(default_factory=dict)   # (method, metric) -> solution


@pytest.fixture(scope="module")
def corpus():
    """100 seeded hill scenes, each with a 0.5 m brute-force surface and
    grid / 5-start L-BFGS-B / GA / PSO runs for three metrics."""
    t0 = time.perf_counter()
    bounds = Bounds()
    lattice = lattice_points(bounds, 0.5)
    cfg5 = RunConfig(optimizer=OptimizerConfig(lbfgsb=LbfgsbConfig(starts=5)))
    rng = np.random.default_rng(777)
    scenes = []
    for i in range(N_SCENES):
        planted = rng.uniform(-15.0, 15.0, size=2)
        heading = rng.uniform(0.0, 360.0)
        terrain = gen_terrain(
            TerrainSpec("gaussian_hills", 760, 760, 4.0, 150.0, seed=1000 + i)
        )
        # long tracks sample decorrelated relief, which is what keeps the
        # 5 m lattice from aliasing onto a distant spurious minimum
        spec = TrackSpec(
            n_footprints=30, spacing=100.0, heading=heading,
            planted_dx=float(planted[0]), planted_dy=float(planted[1]), seed=2000 + i,
        )
        observed = plant_offset(gen_track(terrain, spec), spec)
        scene = Scene(target=(-planted[0], -planted[1]))

        # one raster pass covers every lattice offset for every footprint
        sx = (observed.x[np.newaxis, :] + lattice[:, 0:1]).ravel()
        sy = (observed.y[np.newaxis, :] + lattice[:, 1:2]).ravel()
        refs = aggregate_buffer_points(terrain, sx, sy, 12.5, AggregationKind.MEAN)
        refs = refs.reshape(lattice.shape[0], len(observed))
        assert np.all(np.isfinite(refs)), "oracle lattice must stay on the DEM"

        for metric in RECOVERY_METRICS:
            surface = distance_many(metric, observed.gedi_dem, refs)
            idx = int(np.argmin(surface))
            scene.oracle_value[metric] = float(surface[idx])
            scene.valid[metric] = (
                math.hypot(lattice[idx, 0] - scene.target[0],
                           lattice[idx, 1] - scene.target[1]) <= 0.5 + 1e-9
            )
            for method, cfg in (
                ("grid", None), ("lbfgsb", cfg5), ("ga", None), ("pso", None),
            ):
                sol = correct_group(observed, terrain, method=method, metric=metric, cfg=cfg)
                scene.solutions[(method, metric)] = sol
        scenes.append(scene)
    return {"scenes": scenes, "elapsed_s": time.perf_counter() - t0}


def recovery_rate(scenes, method, metric, tol):
    hits = 0
    for s in scenes:
        sol = s.solutions[(method, metric)]
        hits += math.hypot(sol.dx - s.target[0], sol.dy - s.target[1]) <= tol
    return hits


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c1_metric_correctness():
    t0 = time.perf_counter()
    e1, r1 = np.array([0.0, 3.0]), np.array([4.0, 0.0])
    analytic = [
        (MetricKind.EUCLIDEAN, e1, r1, 5.0),
        (MetricKind.MANHATTAN, e1, r1, 7.0),
        (MetricKind.HAUSDORFF, e1, r1, 4.0),
        (MetricKind.AREA, e1, r1, 1.0),
        (MetricKind.AREA, np.array([1.0, 2.0]), np.array([-1.0, 1.0]), 3.0),
        (MetricKind.AREA, np.array([0.0, 2.0]), np.array([1.0, 1.0]), 0.0),
        (MetricKind.CORRELATION, np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]), 2.0),
        (MetricKind.CORRELATION, np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]), 0.0),
        (MetricKind.CORRELATION, np.array([1.0, 2.0]), np.array([5.0, 5.0]), 2.0),
    ]
    for kind, e, r, expected in analytic:
        got = distance(kind, e, r)
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12), (kind, got, expected)
    for kind in MetricKind:
        e = np.array([4.0, 7.0, 9.5])
        assert distance(kind, e, e) == 0.0

    rng = np.random.default_rng(20240501)
    kinds = list(MetricKind)
    for case in range(10000):
        n = int(rng.integers(2, 24))
        e = rng.uniform(-50.0, 150.0, n)
        r = e + rng.uniform(-30.0, 30.0, n)
        kind = kinds[case % len(kinds)]
        got = distance(kind, e, r)
        want = naive_distance(kind.value, e.tolist(), r.tolist())
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (kind, case)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"metric checks took {elapsed:.2f}s"


def test_c2_grid_search_exactness():
    t0 = time.perf_counter()
    bounds = Bounds()
    axis = [round(-25.0 + 5.0 * j, 10) for j in range(11)]
    rng = np.random.default_rng(909)
    for case in range(1000):
        table = {}
        for dy in axis:
            for dx in axis:
                v = float(rng.uniform(0.0, 100.0))
                table[(dx, dy)] = round(v, 1) if case % 2 else v

        calls = []

        def f(dx, dy):
            key = (round(dx, 10), round(dy, 10))
            calls.append(key)
            return table[key]

        sol = grid_search(f, bounds, 5.0)
        assert sol.evaluations == 121 and len(calls) == 121

        best = None
        for dy in axis:  # same scan order: slow axis dy, fast axis dx
            for dx in axis:
                v = table[(dx, dy)]
                if best is None or v < best[2]:
                    best = (dx, dy, v)
        assert (sol.dx, sol.dy, sol.objective_value) == best, case
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"grid oracle took {elapsed:.2f}s"


def test_c3_planted_offset_recovery(corpus):
    scenes = corpus["scenes"]
    lines = []
    failures = []
    for metric in RECOVERY_METRICS:
        survivors = [s for s in scenes if s.valid[metric]]
        n = len(survivors)
        if n == 0:
            lines.append(f"{metric.value}: 0/{N_SCENES} scenes non-degenerate; nothing to score")
            continue
        ga = recovery_rate(survivors, "ga", metric, 1.0)
        pso = recovery_rate(survivors, "pso", metric, 1.0)
        grid = recovery_rate(survivors, "grid", metric, 3.6)
        lines.append(
            f"{metric.value}: {n}/{N_SCENES} scenes valid, ga {ga}/{n}, pso {pso}/{n}, grid {grid}/{n}"
        )
        if ga < 0.90 * n:
            failures.append(f"ga+{metric.value} recovered {ga}/{n} (< 90%)")
        if pso < 0.90 * n:
            failures.append(f"pso+{metric.value} recovered {pso}/{n} (< 90%)")
        if grid < 0.95 * n:
            failures.append(f"grid+{metric.value} recovered {grid}/{n} (< 95%)")
    summary = "; ".join(lines)
    print(f"recovery: {summary}")
    # the validation step must leave a meaningful corpus for the point-like metrics
    for metric in (MetricKind.EUCLIDEAN, MetricKind.MANHATTAN):
        assert sum(s.valid[metric] for s in scenes) >= N_SCENES // 2, summary
    assert corpus["elapsed_s"] < 600.0, f"corpus took {corpus['elapsed_s']:.0f}s"
    assert not failures, f"{'; '.join(failures)} || {summary}"


def test_c4_continuous_solvers_dominate_grid_oracle(corpus):
    scenes = corpus["scenes"]
    for metric in RECOVERY_METRICS:
        ok = 0
        for s in scenes:
            best = min(
                s.solutions[("lbfgsb", metric)].objective_value,
                s.solutions[("ga", metric)].objective_value,
                s.solutions[("pso", metric)].objective_value,
            )
            ok += best <= s.oracle_value[metric] + 1e-6
        print(f"dominance {metric.value}: {ok}/{N_SCENES}")
        assert ok >= 0.95 * N_SCENES, f"{metric.value}: {ok}/{N_SCENES}"


def test_c5_correction_improves_mae_on_noisy_scenes():
    rng = np.random.default_rng(888)
    improved = 0
    for i in range(N_SCENES):
        r = rng.uniform(5.0, 15.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        heading = rng.uniform(0.0, 360.0)
        _, (original, row) = run_recovery_experiment(
            TerrainSpec("ramp", 160, 160, 4.0, 150.0, seed=3000 + i),
            TrackSpec(
                n_footprints=20, spacing=25.0, heading=heading, noise_sd=0.5,
                planted_dx=r * math.sin(theta), planted_dy=r * math.cos(theta),
                seed=4000 + i,
            ),
            RunConfig(methods=["lbfgsb"], metrics=[MetricKind.AREA]),
        )
        improved += row.mae_m < original.mae_m
    print(f"mae improved on {improved}/{N_SCENES} noisy scenes")
    assert improved >= 0.95 * N_SCENES, f"improved {improved}/{N_SCENES}"


def test_c6_flat_terrain_keeps_mae_unchanged():
    noise_sd, n = 0.5, 20
    bound = 2.0 * noise_sd / math.sqrt(n)
    for seed in range(5):
        _, (original, *rows) = run_recovery_experiment(
            TerrainSpec("flat", 160, 160, 4.0, 150.0, seed=seed),
            TrackSpec(n_footprints=n, spacing=25.0, heading=37.0 * seed,
                      noise_sd=noise_sd, planted_dx=6.0, planted_dy=-9.0, seed=6000 + seed),
            RunConfig(methods=["grid", "lbfgsb", "ga", "pso"], metrics=[MetricKind.EUCLIDEAN]),
        )
        for row in rows:
            assert abs(row.mae_m - original.mae_m) <= bound, (seed, row.method)


def test_c7_preprocessing_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    for case in range(1000):
        n = int(rng.integers(1, 40))
        series = rng.normal(100.0, 5.0, n)
        spikes = rng.random(n) < 0.15
        series[spikes] += rng.choice([-1.0, 1.0], int(spikes.sum())) * rng.uniform(20.0, 80.0, int(spikes.sum()))
        if case % 7 == 0:
            series = np.round(series)  # provoke zero-deviation windows
        got = flag_rolling_outliers(series, window=7, k=2.0)
        assert got.tolist() == naive_rolling_mask(series.tolist(), 7, 2.0), case

    def fp(sensitivity=0.98, elev=100.0):
        return make_table([make_footprint(
            1, key="0000000001", x=0.0, y=0.0, elev=elev, degrade=0, quality=1,
            sensitivity=sensitivity, rh100=10.0,
        )])

    rules = QualityRules()
    assert len(filter_quality(fp(sensitivity=0.95), rules)) == 1
    assert len(filter_quality(fp(sensitivity=0.949), rules)) == 0
    assert len(filter_quality(fp(elev=2500.0), rules)) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"preprocessing checks took {elapsed:.2f}s"


def test_c8_correct_runs_are_byte_identical_across_workers(tmp_path):
    scene = tmp_path / "scene"
    rc = cli_main([
        "simulate", "--out", str(scene), "--terrain", "gaussian_hills",
        "--rows", "128", "--cols", "128", "--cell-size", "4", "--relief", "150",
        "--n-groups", "6", "--n-footprints", "12", "--spacing", "20",
        "--dx", "7", "--dy", "-4", "--noise-sd", "0.3", "--track-seed", "17",
    ])
    assert rc == 0
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"run_w{workers}"
        rc = cli_main([
            "correct", "--dem", str(scene / "terrain.asc"),
            "--footprints", str(scene / "footprints.csv"), "--out", str(out),
            "--methods", "ga,pso", "--metrics", "euclidean,area",
            "--seed", "7", "--workers", str(workers),
        ])
        assert rc == 0
        outputs[workers] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name.startswith("corrected_") or p.name.startswith("report.")
        }
    assert set(outputs[1]) == set(outputs[8])
    assert len([n for n in outputs[1] if n.startswith("corrected_")]) == 4
    for name in outputs[1]:
        assert outputs[1][name] == outputs[8][name], f"{name} differs across worker counts"


def test_c9_throughput_10k_footprints():
    t0 = time.perf_counter()
    terrain = gen_terrain(TerrainSpec("gaussian_hills", 1000, 1000, 10.0, 150.0, seed=77))
    groups = []
    for i in range(100):
        spec = TrackSpec(n_footprints=100, spacing=60.0, heading=i * 3.6, seed=5000 + i)
        groups.append(plant_offset(gen_track(terrain, spec), spec))
    assert sum(len(g) for g in groups) == 10000
    assert len({g.key for g in groups}) == 100
    for method in ("grid", "lbfgsb"):
        result = correct_dataset(
            groups, terrain, method=method, metric=MetricKind.EUCLIDEAN, workers=1,
        )
        assert result.n_skipped == 0
        assert len(result.solutions) == 100
    elapsed = time.perf_counter() - t0
    print(f"throughput run took {elapsed:.1f}s")
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
