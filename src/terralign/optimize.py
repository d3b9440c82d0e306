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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_GRID_STEP_M, METHOD_NAMES, Bounds, OptimizerConfig, RunConfig
from .footprints import MIN_GROUP_SIZE, ShotGroup
from .metrics import MetricKind, distance_many
from .raster import AggregationKind, RasterGrid, aggregate_buffer_points

logger = logging.getLogger(__name__)

# value of a candidate whose buffers leave the DEM, plus one per such footprint
OOB_PENALTY = 1e9


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
    ) -> None:
        self.metric = MetricKind(metric)
        if radius <= 0:
            raise ValueError("radius must be positive")
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
        out[~clean] = OOB_PENALTY + n_nodata[~clean]
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
    *,
    rng: np.random.Generator,
) -> DisplacementSolution:
    """Real-coded genetic algorithm on (dx, dy); returns the best ever seen.

    Per generation the random draws are consumed in a fixed order
    (tournament indices, crossover coins, blend uniforms, mutation coins,
    mutation noise) regardless of which branches fire, so a seed pins the
    whole trajectory.
    """
    cfg = cfg or OptimizerConfig()
    g = cfg.ga
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
    *,
    rng: np.random.Generator,
) -> DisplacementSolution:
    """Global-best particle swarm with velocity clamping.

    Positions start uniform in bounds with zero velocities; clamped
    position components get their velocity zeroed.
    """
    cfg = cfg or OptimizerConfig()
    p = cfg.pso
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
    """One method x metric over `groups`, the caller's sequence.

    `solutions` holds one entry per group. `ref_after` holds one reference
    elevation per footprint, in group order, at the corrected position; it
    is NaN where the shifted buffer has no DEM coverage.
    """

    method: str
    metric: str
    solutions: list[DisplacementSolution]
    groups: Sequence[ShotGroup]
    ref_after: np.ndarray
    wall_time_s: float

    @property
    def n_skipped(self) -> int:
        return sum(1 for sol in self.solutions if sol.skipped)


def correct_group(
    group: ShotGroup,
    dem: RasterGrid,
    method: str = "grid",
    metric: MetricKind | str = MetricKind.EUCLIDEAN,
    cfg: RunConfig | None = None,
) -> tuple[DisplacementSolution, np.ndarray]:
    """Solve one group's displacement and score its shifted footprints.

    Reads `radius`, `agg`, `bounds`, `optimizer` and `seed` from `cfg`. GA
    and PSO draw from a generator seeded by `derive_group_seed(cfg.seed,
    group.key)`. Returns the solution and the reference elevation of each
    footprint at its shifted position, NaN where the shifted buffer has no
    DEM coverage. Groups below MIN_GROUP_SIZE are skipped with a zero
    offset and keep their stored `ref_elev` values.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    cfg = cfg or RunConfig()
    if len(group) < MIN_GROUP_SIZE:
        sol = DisplacementSolution(
            dx=0.0, dy=0.0, objective_value=0.0, evaluations=0,
            converged=False, method=method, skipped=True,
        )
        return sol, np.array([fp.ref_elev for fp in group.footprints], dtype=np.float64)

    f = Objective(group, dem, metric=metric, radius=cfg.radius, agg=cfg.agg)
    if method == "grid":
        sol = grid_search(f, cfg.bounds, cfg.optimizer.grid_step)
    elif method == "lbfgsb":
        sol = optimize_lbfgsb(f, cfg.bounds, cfg.optimizer)
    else:
        rng = np.random.default_rng(derive_group_seed(cfg.seed, group.key))
        solver = optimize_ga if method == "ga" else optimize_pso
        sol = solver(f, cfg.bounds, cfg.optimizer, rng=rng)
    return sol, aggregate_buffer_points(dem, f.xs + sol.dx, f.ys + sol.dy, cfg.radius, cfg.agg)


# What a forked worker solves: the bound `correct_group` and the groups,
# set once per worker process by `_init_worker` and never in the parent.
_worker_task: tuple[Callable, Sequence[ShotGroup]] | None = None


def _init_worker(solve: Callable, groups: Sequence[ShotGroup]) -> None:
    global _worker_task
    _worker_task = (solve, groups)


def _solve_index(i: int) -> tuple[DisplacementSolution, np.ndarray]:
    solve, groups = _worker_task
    return solve(groups[i])


def correct_dataset(
    groups: Sequence[ShotGroup],
    dem: RasterGrid,
    method: str = "grid",
    metric: MetricKind | str = MetricKind.EUCLIDEAN,
    cfg: RunConfig | None = None,
    workers: int = 1,
) -> CorrectionResult:
    """Correct every group with `correct_group`, in up to `workers` forked processes.

    With `min(workers, len(groups))` below 2 the groups are solved in this
    process, one after another. Otherwise that many worker processes are
    forked (POSIX `fork` start method only): each inherits the DEM and the
    groups, receives group indices and sends back `(solution, ref_after)`.
    No worker outlives the call. An exception raised in a worker reaches
    the caller with its type and message; a worker that dies raises
    `concurrent.futures.process.BrokenProcessPool`.

    `cfg.workers` is not read here: the caller passes `workers`. Output is
    byte-identical at any worker count for a fixed `cfg.seed`.
    """
    solve = partial(correct_group, dem=dem, method=method, metric=metric, cfg=cfg)
    processes = min(workers, len(groups))
    start = time.perf_counter()
    if processes < 2:
        outcomes = [solve(g) for g in groups]
    else:
        # deferred: a serial run does not pay ~15 ms of multiprocessing imports
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if method == "lbfgsb":
            # imported once before the fork, not once in every worker
            import scipy.optimize  # noqa: F401
        # fork: workers inherit the DEM and the groups instead of unpickling them
        pool = ProcessPoolExecutor(
            processes,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(solve, groups),
        )
        try:
            outcomes = list(pool.map(_solve_index, range(len(groups))))
        finally:
            pool.shutdown(cancel_futures=True)
    wall = time.perf_counter() - start

    result = CorrectionResult(
        method=method,
        metric=str(MetricKind(metric).value),
        solutions=[sol for sol, _ in outcomes],
        groups=groups,
        ref_after=np.concatenate([refs for _, refs in outcomes]) if outcomes else np.empty(0),
        wall_time_s=wall,
    )
    if result.n_skipped:
        logger.info("skipped %d of %d groups below the minimum size", result.n_skipped, len(groups))
    return result
