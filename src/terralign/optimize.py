"""Displacement search over the bounded correction window.

One shot group gets one horizontal displacement (dx, dy). The objective
aggregates the reference DEM in a footprint-sized buffer at shifted
positions and scores the result against the LiDAR elevations with a
configurable distance metric. Four solvers share that objective: an
exhaustive lattice scan, bound-constrained quasi-Newton (L-BFGS-B), a
real-coded genetic algorithm, and global-best particle swarm.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .footprints import MIN_GROUP_SIZE, ShotGroup
from .metrics import MetricKind, distance_many
from .raster import AggregationKind, RasterGrid, aggregate_buffer_points

logger = logging.getLogger(__name__)

DEFAULT_WINDOW_M = 25.0
DEFAULT_GRID_STEP_M = 5.0
DEFAULT_OOB_PENALTY = 1e9

METHOD_NAMES = ("grid", "lbfgsb", "ga", "pso")


@dataclass(frozen=True)
class Bounds:
    max_abs_dx: float = DEFAULT_WINDOW_M
    max_abs_dy: float = DEFAULT_WINDOW_M

    def __post_init__(self) -> None:
        if self.max_abs_dx <= 0 or self.max_abs_dy <= 0:
            raise ValueError("bounds must be positive")

    def contains(self, dx: float, dy: float) -> bool:
        return abs(dx) <= self.max_abs_dx and abs(dy) <= self.max_abs_dy


class Objective:
    """Objective f(dx, dy) of one shot group, with a vectorized batch path.

    batch() scores many candidate displacements in one raster pass; its
    per-row results are bitwise-identical to scalar calls.
    """

    def __init__(
        self,
        group: ShotGroup,
        dem: RasterGrid,
        metric: MetricKind | str = MetricKind.EUCLIDEAN,
        radius: float = 12.5,
        agg: AggregationKind = AggregationKind.MEAN,
        oob_penalty: float = DEFAULT_OOB_PENALTY,
    ) -> None:
        self.metric = MetricKind(metric)
        if radius <= 0:
            raise ValueError("radius must be positive")
        if not math.isfinite(oob_penalty) or oob_penalty <= 0:
            raise ValueError("oob_penalty must be a positive finite value")
        n = len(group.footprints)
        if n < 1:
            raise ValueError(f"group {group.key}: empty group has no objective")
        if self.metric == MetricKind.CORRELATION and n < 2:
            raise ValueError(f"group {group.key}: correlation needs >= 2 footprints")
        pos = group.positions
        self.xs = pos[:, 0]
        self.ys = pos[:, 1]
        self.elev = group.elevations
        self.dem = dem
        self.radius = radius
        self.agg = agg
        self.oob_penalty = oob_penalty
        self.cell_size = max(dem.cell_size_x, abs(dem.cell_size_y))
        self.n_footprints = self.elev.shape[0]

    def __call__(self, dx: float, dy: float) -> float:
        return float(self.batch(np.array([[dx, dy]], dtype=np.float64))[0])

    def batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (m, 2)")
        m = points.shape[0]
        if m == 0:
            return np.zeros(0, dtype=np.float64)
        shifted_x = (self.xs[np.newaxis, :] + points[:, 0:1]).ravel()
        shifted_y = (self.ys[np.newaxis, :] + points[:, 1:2]).ravel()
        refs = aggregate_buffer_points(self.dem, shifted_x, shifted_y, self.radius, self.agg)
        refs = refs.reshape(m, self.n_footprints)
        n_nodata = np.sum(~np.isfinite(refs), axis=1)
        out = np.empty(m, dtype=np.float64)
        clean = n_nodata == 0
        if np.any(clean):
            out[clean] = distance_many(self.metric, self.elev, refs[clean])
        # keep the surface finite and deterministically ranked off-DEM
        out[~clean] = self.oob_penalty + n_nodata[~clean]
        return out


@dataclass
class DisplacementSolution:
    dx: float
    dy: float
    objective_value: float
    evaluations: int
    converged: bool
    method: str
    skipped: bool = False


@dataclass
class LbfgsbConfig:
    max_iter: int = 100
    tol: float = 1e-6
    fd_step: float | None = None  # None: max(DEM cell size, 1.0 m)
    starts: int = 1  # 1 = origin only, 5 = origin + half-window corners
    history: int = 10

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.fd_step is not None and self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if self.starts not in (1, 5):
            raise ValueError("starts must be 1 or 5")
        if self.history < 1:
            raise ValueError("history must be positive")


@dataclass
class GaConfig:
    pop: int = 50
    generations: int = 100
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    tournament_size: int = 3
    blend_alpha: float = 0.5
    mutation_sigma: float = 2.5
    elitism: int = 1

    def __post_init__(self) -> None:
        if self.pop < 2 or self.generations < 1 or self.tournament_size < 1:
            raise ValueError("population, generations and tournament size must be positive")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
        if self.blend_alpha < 0 or self.mutation_sigma < 0:
            raise ValueError("blend_alpha and mutation_sigma must be non-negative")
        if not 0 <= self.elitism < self.pop:
            raise ValueError("elitism must be in [0, pop)")


@dataclass
class PsoConfig:
    swarm: int = 50
    iterations: int = 100
    cognitive: float = 1.5
    social: float = 1.5
    inertia: float = 0.5

    def __post_init__(self) -> None:
        if self.swarm < 1 or self.iterations < 1:
            raise ValueError("swarm and iterations must be positive")
        if self.cognitive < 0 or self.social < 0 or self.inertia < 0:
            raise ValueError("coefficients must be non-negative")


@dataclass
class OptimizerConfig:
    # first, so that [optimizer] precedes its subsections in effective_config.toml
    grid_step: float = DEFAULT_GRID_STEP_M
    lbfgsb: LbfgsbConfig = field(default_factory=LbfgsbConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    pso: PsoConfig = field(default_factory=PsoConfig)
    seed: int = 0  # not a config key: RunConfig copies its top-level seed here

    def __post_init__(self) -> None:
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")


class _Tracker:
    """Wrap an objective to count evaluations and track the in-bounds best.

    Ties never displace an earlier best, so every solver inherits
    first-wins determinism from its own evaluation order.
    """

    def __init__(self, f: Callable, bounds: Bounds) -> None:
        self._f = f
        self._batch = getattr(f, "batch", None)
        self.bounds = bounds
        self.n = 0
        self.best_f = math.inf
        self.best_x = (0.0, 0.0)

    def batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if self._batch is not None:
            values = np.asarray(self._batch(points), dtype=np.float64)
        else:
            values = np.array([self._f(float(p[0]), float(p[1])) for p in points])
        self.n += points.shape[0]
        in_bounds = (np.abs(points[:, 0]) <= self.bounds.max_abs_dx) & (
            np.abs(points[:, 1]) <= self.bounds.max_abs_dy
        )
        if np.any(in_bounds):
            # NaN never wins, as in a scalar `value < best_f` test
            masked = np.where(in_bounds & ~np.isnan(values), values, math.inf)
            i = int(np.argmin(masked))  # first occurrence on ties
            if masked[i] < self.best_f:
                self.best_f = float(masked[i])
                self.best_x = (float(points[i, 0]), float(points[i, 1]))
        return values

    def solution(self, method: str, converged: bool) -> DisplacementSolution:
        return DisplacementSolution(
            dx=self.best_x[0],
            dy=self.best_x[1],
            objective_value=self.best_f,
            evaluations=self.n,
            converged=converged,
            method=method,
        )


def lattice_points(bounds: Bounds, step: float) -> np.ndarray:
    """Enumerate the search lattice in scan order: dy outer, dx inner, ascending."""
    if step <= 0:
        raise ValueError("step must be positive")

    def axis(max_abs: float) -> np.ndarray:
        n = int(math.floor(2.0 * max_abs / step + 1e-9)) + 1
        return -max_abs + step * np.arange(n, dtype=np.float64)

    dxs = axis(bounds.max_abs_dx)
    dys = axis(bounds.max_abs_dy)
    grid_dx, grid_dy = np.meshgrid(dxs, dys)  # row index = dy, column = dx
    return np.column_stack([grid_dx.ravel(), grid_dy.ravel()])


def grid_search(f: Callable, bounds: Bounds = Bounds(), step: float = DEFAULT_GRID_STEP_M) -> DisplacementSolution:
    """Exhaustive scan of the displacement lattice; first minimum wins ties."""
    if step > 2.0 * min(bounds.max_abs_dx, bounds.max_abs_dy):
        raise ValueError("step must not exceed the window size")
    tracker = _Tracker(f, bounds)
    tracker.batch(lattice_points(bounds, step))
    return tracker.solution("grid", converged=True)


def five_point_starts(bounds: Bounds) -> list[tuple[float, float]]:
    """Origin plus the four half-window diagonal corners."""
    hx = bounds.max_abs_dx / 2.0
    hy = bounds.max_abs_dy / 2.0
    return [(0.0, 0.0), (-hx, -hy), (-hx, hy), (hx, -hy), (hx, hy)]


def optimize_lbfgsb(
    f: Callable, bounds: Bounds = Bounds(), cfg: OptimizerConfig | None = None
) -> DisplacementSolution:
    """Bound-constrained quasi-Newton descent with finite-difference gradients.

    Each iterate (x, y) costs one batched call of 5 evaluations, in the
    order (x, y), (x+h, y), (x-h, y), (x, y+h), (x, y-h): the value and the
    four probes of a two-sided difference gradient. `evaluations` counts the
    gradient probes. The returned point is the best in-bounds evaluation
    across all starts, probes included (the best iterate even without
    convergence). The objective is piecewise constant at raster-cell
    granularity, so the default differencing step spans at least one cell
    to recover a usable secant slope.
    """
    from scipy.optimize import minimize  # deferred: costs most of `import terralign`

    cfg = cfg or OptimizerConfig()
    lb = cfg.lbfgsb
    tracker = _Tracker(f, bounds)
    h = lb.fd_step if lb.fd_step is not None else max(getattr(f, "cell_size", 1.0), 1.0)
    starts = five_point_starts(bounds) if lb.starts == 5 else [(0.0, 0.0)]

    def value_and_gradient(v: np.ndarray) -> tuple[float, np.ndarray]:
        x, y = v
        values = tracker.batch(np.array([[x, y], [x + h, y], [x - h, y], [x, y + h], [x, y - h]]))
        grad = np.array([(values[1] - values[2]) / (2.0 * h), (values[3] - values[4]) / (2.0 * h)])
        return float(values[0]), grad

    converged = False
    for start_idx, start in enumerate(starts):
        best_before = tracker.best_f
        res = minimize(
            fun=value_and_gradient,
            x0=np.asarray(start, dtype=np.float64),
            jac=True,
            method="L-BFGS-B",
            bounds=[
                (-bounds.max_abs_dx, bounds.max_abs_dx),
                (-bounds.max_abs_dy, bounds.max_abs_dy),
            ],
            options={
                "maxiter": lb.max_iter,
                "ftol": lb.tol,
                "gtol": lb.tol,
                "maxcor": lb.history,
            },
        )
        # the convergence flag follows whichever start owns the current best
        if start_idx == 0 or tracker.best_f < best_before:
            converged = res.status == 0
    return tracker.solution("lbfgsb", converged=converged)


def optimize_ga(
    f: Callable,
    bounds: Bounds = Bounds(),
    cfg: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> DisplacementSolution:
    """Real-coded genetic algorithm on (dx, dy); returns the best ever seen.

    Per generation the random draws are consumed in a fixed order
    (tournament indices, crossover coins, blend uniforms, mutation coins,
    mutation noise) regardless of which branches fire, so a seed pins the
    whole trajectory.
    """
    cfg = cfg or OptimizerConfig()
    g = cfg.ga
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    tracker = _Tracker(f, bounds)
    lo = np.array([-bounds.max_abs_dx, -bounds.max_abs_dy])
    hi = np.array([bounds.max_abs_dx, bounds.max_abs_dy])

    pop = rng.uniform(lo, hi, size=(g.pop, 2))
    fit = tracker.batch(pop)

    n_children = g.pop - g.elitism
    n_pairs = (n_children + 1) // 2
    for _ in range(g.generations):
        cand = rng.integers(0, g.pop, size=(n_pairs, 2, g.tournament_size))
        cand_fit = fit[cand]
        winner_slot = np.argmin(cand_fit, axis=2)
        winners = np.take_along_axis(cand, winner_slot[:, :, np.newaxis], axis=2)[:, :, 0]
        p1 = pop[winners[:, 0]]
        p2 = pop[winners[:, 1]]

        do_cross = rng.random(n_pairs) < g.crossover_rate
        u = rng.uniform(size=(n_pairs, 2, 2))
        gene_lo = np.minimum(p1, p2)
        gene_hi = np.maximum(p1, p2)
        span = gene_hi - gene_lo
        ext_lo = gene_lo - g.blend_alpha * span
        ext_width = (1.0 + 2.0 * g.blend_alpha) * span
        c1 = np.where(do_cross[:, np.newaxis], ext_lo + u[:, 0, :] * ext_width, p1)
        c2 = np.where(do_cross[:, np.newaxis], ext_lo + u[:, 1, :] * ext_width, p2)
        children = np.empty((2 * n_pairs, 2), dtype=np.float64)
        children[0::2] = c1
        children[1::2] = c2
        children = children[:n_children]

        mutate = rng.random((n_children, 2)) < g.mutation_rate
        noise = rng.normal(0.0, g.mutation_sigma, size=(n_children, 2))
        children = np.where(mutate, children + noise, children)
        children = np.clip(children, lo, hi)
        child_fit = tracker.batch(children)

        elite_idx = np.argsort(fit, kind="stable")[: g.elitism]
        pop = np.concatenate([pop[elite_idx], children])
        fit = np.concatenate([fit[elite_idx], child_fit])
    return tracker.solution("ga", converged=True)


def optimize_pso(
    f: Callable,
    bounds: Bounds = Bounds(),
    cfg: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> DisplacementSolution:
    """Global-best particle swarm with velocity clamping.

    Positions start uniform in bounds with zero velocities; clamped
    position components get their velocity zeroed.
    """
    cfg = cfg or OptimizerConfig()
    p = cfg.pso
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    tracker = _Tracker(f, bounds)
    lo = np.array([-bounds.max_abs_dx, -bounds.max_abs_dy])
    hi = np.array([bounds.max_abs_dx, bounds.max_abs_dy])
    v_max = hi - lo  # one full window width per axis

    x = rng.uniform(lo, hi, size=(p.swarm, 2))
    v = np.zeros_like(x)
    fx = tracker.batch(x)
    pbest = x.copy()
    pbest_f = fx.copy()
    g_idx = int(np.argmin(pbest_f))
    gbest = pbest[g_idx].copy()
    gbest_f = float(pbest_f[g_idx])

    for _ in range(p.iterations):
        r1 = rng.random((p.swarm, 2))
        r2 = rng.random((p.swarm, 2))
        v = p.inertia * v + p.cognitive * r1 * (pbest - x) + p.social * r2 * (gbest - x)
        v = np.clip(v, -v_max, v_max)
        moved = x + v
        clamped = (moved < lo) | (moved > hi)
        x = np.clip(moved, lo, hi)
        v = np.where(clamped, 0.0, v)
        fx = tracker.batch(x)
        improved = fx < pbest_f
        pbest[improved] = x[improved]
        pbest_f[improved] = fx[improved]
        g_idx = int(np.argmin(pbest_f))
        if pbest_f[g_idx] < gbest_f:
            gbest = pbest[g_idx].copy()
            gbest_f = float(pbest_f[g_idx])
    return tracker.solution("pso", converged=True)


def derive_group_seed(seed: int, group_key: str) -> int:
    """Stable per-group RNG seed; independent of worker scheduling."""
    digest = hashlib.sha256(f"{seed}:{group_key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class CorrectionResult:
    method: str
    metric: str
    solutions: list[DisplacementSolution]
    original_groups: list[ShotGroup]
    corrected_groups: list[ShotGroup]
    n_skipped: int
    wall_time_s: float


def correct_group(
    group: ShotGroup,
    dem: RasterGrid,
    method: str = "grid",
    metric: MetricKind | str = MetricKind.EUCLIDEAN,
    cfg: OptimizerConfig | None = None,
    bounds: Bounds = Bounds(),
    radius: float = 12.5,
    agg: AggregationKind = AggregationKind.MEAN,
    min_group_size: int = MIN_GROUP_SIZE,
) -> tuple[DisplacementSolution, ShotGroup]:
    """Solve one group's displacement and shift its footprints.

    Undersized groups are skipped with a zero offset. Corrected footprints
    get ref_elev recomputed at the shifted position; None where the shifted
    buffer has no DEM coverage.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    cfg = cfg or OptimizerConfig()
    if len(group) < min_group_size:
        sol = DisplacementSolution(
            dx=0.0, dy=0.0, objective_value=0.0, evaluations=0,
            converged=False, method=method, skipped=True,
        )
        return sol, ShotGroup(key=group.key, footprints=list(group.footprints))

    f = Objective(group, dem, metric=metric, radius=radius, agg=agg)
    if method == "grid":
        sol = grid_search(f, bounds, cfg.grid_step)
    elif method == "lbfgsb":
        sol = optimize_lbfgsb(f, bounds, cfg)
    else:
        rng = np.random.default_rng(derive_group_seed(cfg.seed, group.key))
        solver = optimize_ga if method == "ga" else optimize_pso
        sol = solver(f, bounds, cfg, rng)

    pos = group.positions
    new_x = pos[:, 0] + sol.dx
    new_y = pos[:, 1] + sol.dy
    refs = aggregate_buffer_points(dem, new_x, new_y, radius, agg)
    corrected = [
        replace(fp, x=float(x), y=float(y), ref_elev=float(r) if math.isfinite(r) else None)
        for fp, x, y, r in zip(group.footprints, new_x, new_y, refs)
    ]
    return sol, ShotGroup(key=group.key, footprints=corrected)


def correct_dataset(
    groups: Sequence[ShotGroup],
    dem: RasterGrid,
    method: str = "grid",
    metric: MetricKind | str = MetricKind.EUCLIDEAN,
    cfg: OptimizerConfig | None = None,
    bounds: Bounds = Bounds(),
    radius: float = 12.5,
    agg: AggregationKind = AggregationKind.MEAN,
    workers: int = 1,
    min_group_size: int = MIN_GROUP_SIZE,
) -> CorrectionResult:
    """Correct every group; output is schedule-independent for a fixed seed."""
    cfg = cfg or OptimizerConfig()

    def work(group: ShotGroup) -> tuple[DisplacementSolution, ShotGroup]:
        return correct_group(
            group, dem, method=method, metric=metric, cfg=cfg,
            bounds=bounds, radius=radius, agg=agg, min_group_size=min_group_size,
        )

    start = time.perf_counter()
    if workers <= 1:
        outcomes = [work(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(work, groups))
    wall = time.perf_counter() - start

    solutions = [sol for sol, _ in outcomes]
    corrected = [grp for _, grp in outcomes]
    n_skipped = sum(1 for sol in solutions if sol.skipped)
    if n_skipped:
        logger.info("skipped %d of %d groups below the minimum size", n_skipped, len(groups))
    return CorrectionResult(
        method=method,
        metric=str(MetricKind(metric).value),
        solutions=solutions,
        original_groups=list(groups),
        corrected_groups=corrected,
        n_skipped=n_skipped,
        wall_time_s=wall,
    )
