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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_GRID_STEP_M, DEFAULT_RADIUS_M, METHOD_NAMES, Bounds, OptimizerConfig, RunConfig
from .evaluate import Combination
from .footprints import MIN_GROUP_SIZE, ShotGroup
from .metrics import SUBSET_BOUNDED, MetricKind, distance_many
from .raster import AggregationKind, RasterGrid, aggregate_buffer_points

logger = logging.getLogger(__name__)

# value of a candidate whose buffers leave the DEM, plus one per such footprint
OOB_PENALTY = 1e9

# the bounded grid scan's subset: every 4th footprint of a group, from the first
_BOUND_STRIDE = 4


class Objective:
    """Objective f(dx, dy) of one shot group, with a vectorized batch path.

    batch() scores many candidate displacements in one raster pass; its
    per-row results are bitwise-identical to scalar calls. Asked for, it
    also gives each displacement's slack: a distance the displacement can
    move with the same value bits, the least slack of its footprints'
    buffer centers (see `aggregate_buffer_points`).
    """

    def __init__(
        self,
        group: ShotGroup,
        dem: RasterGrid,
        metric: MetricKind | str = MetricKind.EUCLIDEAN,
        radius: float = DEFAULT_RADIUS_M,
        agg: AggregationKind = AggregationKind.MEAN,
    ) -> None:
        self.metric = MetricKind(metric)
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be finite and positive, got {radius!r}")
        n = len(group)
        if n < 1:
            raise ValueError(f"group {group.key}: empty group has no objective")
        if self.metric == MetricKind.CORRELATION and n < 2:
            raise ValueError(f"group {group.key}: correlation needs >= 2 footprints")
        self.group = group
        self.xs = group.x
        self.ys = group.y
        self.elev = group.gedi_dem
        self.dem = dem
        self.radius = radius
        self.agg = agg
        self.cell_size = max(dem.cell_size_x, abs(dem.cell_size_y))
        self.n_footprints = n

    def __call__(self, dx: float, dy: float) -> float:
        return float(self.batch(np.array([[dx, dy]], dtype=np.float64))[0])

    def batch(self, points: np.ndarray, slack: np.ndarray | None = None) -> np.ndarray:
        """Values of the (m, 2) `points`; `slack`, if given, an (m,) array
        that receives each point's slack."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must have shape (m, 2)")
        m = points.shape[0]
        if m == 0:
            return np.zeros(0, dtype=np.float64)
        shifted_x = (self.xs[np.newaxis, :] + points[:, 0:1]).ravel()
        shifted_y = (self.ys[np.newaxis, :] + points[:, 1:2]).ravel()
        center_slack = None if slack is None else np.empty(shifted_x.shape[0])
        refs = aggregate_buffer_points(self.dem, shifted_x, shifted_y, self.radius, self.agg, center_slack)
        refs = refs.reshape(m, self.n_footprints)
        if slack is not None:
            np.min(center_slack.reshape(m, self.n_footprints), axis=1, out=slack)
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
    skipped: bool = False


class _Tracker:
    """Wrap an objective to count evaluations and track the in-bounds best.

    Ties never displace an earlier best, so every solver inherits
    first-wins determinism from its own evaluation order. With `memo` and
    an `Objective`, every scored point is remembered with its slack and
    value, and a later point within an earlier one's slack takes that
    value (the same bits) unscored. `n` counts the points actually scored.
    """

    def __init__(self, f: Callable, bounds: Bounds, memo: bool = False) -> None:
        self._f = f
        self._batch = getattr(f, "batch", None)
        self.bounds = bounds
        self.n = 0
        self.best_f = math.inf
        self.best_x = (0.0, 0.0)
        # one column per scored point: x, y, squared slack (-1 where the slack
        # is not positive) and value; a plain callable reports no slack
        self._memo = np.empty((4, 0)) if memo and isinstance(f, Objective) else None

    def score(self, points: np.ndarray) -> np.ndarray:
        """Values of `points`, counted in `n`; the best is not updated."""
        self.n += points.shape[0]
        if self._batch is not None:
            return np.asarray(self._batch(points), dtype=np.float64)
        return np.array([self._f(float(p[0]), float(p[1])) for p in points])

    def _recall_or_score(self, points: np.ndarray) -> np.ndarray:
        memo = self._memo
        m = points.shape[0]
        values = np.empty(m)
        hit = np.zeros(m, dtype=bool)
        if memo.shape[1]:
            near = (points[:, 0:1] - memo[0]) ** 2 + (points[:, 1:2] - memo[1]) ** 2 <= memo[2]
            first = near.argmax(axis=1)  # the earliest near point, 0 if none
            hit = near[np.arange(m), first]
            values[hit] = memo[3, first[hit]]
        miss = points[~hit]
        if miss.shape[0]:
            slack = np.empty(miss.shape[0])
            self.n += miss.shape[0]
            values[~hit] = self._batch(miss, slack=slack)
            reach = np.where(slack > 0, slack * slack, -1.0)
            self._memo = np.concatenate([memo, np.vstack([miss.T, reach, values[~hit]])], axis=1)
        return values

    def batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        values = self.score(points) if self._memo is None else self._recall_or_score(points)
        self.offer(points, values)
        return values

    def offer(self, points: np.ndarray, values: np.ndarray) -> None:
        """Let the first in-bounds minimum of `values` become the best."""
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

    def solution(self, converged: bool) -> DisplacementSolution:
        return DisplacementSolution(
            dx=self.best_x[0],
            dy=self.best_x[1],
            objective_value=self.best_f,
            evaluations=self.n,
            converged=converged,
        )


def lattice_points(bounds: Bounds, step: float) -> np.ndarray:
    """Enumerate the search lattice in scan order: dy outer, dx inner, ascending."""
    if step <= 0:
        raise ValueError("step must be positive")

    def axis(max_abs: float) -> np.ndarray:
        count = 2.0 * max_abs / step + 1e-9  # inf when the step is subnormal
        if not count < np.iinfo(np.intp).max:  # reported like an array too large to allocate
            raise MemoryError(f"a {step!r} m grid step puts {count:.3g} points on an axis")
        n = int(math.floor(count)) + 1
        # the last value can round a few ulps past max_abs, out of bounds
        return np.minimum(-max_abs + step * np.arange(n, dtype=np.float64), max_abs)

    dxs = axis(bounds.max_abs_dx)
    dys = axis(bounds.max_abs_dy)
    grid_dx, grid_dy = np.meshgrid(dxs, dys)  # row index = dy, column = dx
    return np.column_stack([grid_dx.ravel(), grid_dy.ravel()])


def grid_search(f: Callable, bounds: Bounds = Bounds(), step: float = DEFAULT_GRID_STEP_M) -> DisplacementSolution:
    """The first minimum, in scan order, of `f` over the displacement lattice.

    A plain callable, or an `Objective` whose metric is not in
    `SUBSET_BOUNDED`, is scored at every lattice point, and `evaluations`
    is the lattice size. Otherwise the scan is bounded (branch and bound):
    1. Every lattice point is scored on every 4th footprint of the group.
       That value, capped at OOB_PENALTY + 1, is a lower bound of the
       point's value on the whole group.
    2. The whole group is scored at the lowest-bound point, the incumbent.
    3. It is scored, in one batch, at every other point whose bound is
       within a rounding margin of the incumbent's value.
    A point left out has a value above the incumbent's, so the first
    minimum among the points scored is the full scan's answer, ties
    included. `evaluations` counts the points scored on the whole group;
    the bound pass of step 1 is not counted.
    """
    if step > 2.0 * min(bounds.max_abs_dx, bounds.max_abs_dy):
        raise ValueError("step must not exceed the window size")
    tracker = _Tracker(f, bounds)
    points = lattice_points(bounds, step)
    if not (isinstance(f, Objective) and f.metric in SUBSET_BOUNDED):
        tracker.batch(points)
        return tracker.solution(converged=True)
    g = f.group
    subset = ShotGroup(g.key, g.table.take(slice(None, None, _BOUND_STRIDE)))
    lower = np.minimum(Objective(subset, f.dem, f.metric, f.radius, f.agg).batch(points), OOB_PENALTY + 1.0)
    first = int(np.argmin(lower))
    incumbent = tracker.score(points[first : first + 1])[0]
    # A footprint's term has the same bits in both objectives, and the exact
    # subset value is at most the whole group's. Any summation order of n
    # non-negative terms errs by at most (n - 1)u relative (u = 2**-53), so
    # the rounded subset value exceeds the rounded group value by a factor
    # of at most about 1 + 2nu (a square root halves that and adds 2u; a
    # max is exact). The threshold's product rounds by u more. So a bound
    # above incumbent * (1 + 8nu), 8nu = 4n * 2**-52, about 4 times that
    # worst case, means a value above the incumbent's. A NaN bound is kept.
    survivor = ~(lower > incumbent * (1.0 + 4 * f.n_footprints * 2.0**-52))
    survivor[first] = False
    values = np.empty(points.shape[0])
    values[first] = incumbent
    values[survivor] = tracker.score(points[survivor])
    survivor[first] = True
    tracker.offer(points[survivor], values[survivor])
    return tracker.solution(converged=True)


def five_point_starts(bounds: Bounds) -> list[tuple[float, float]]:
    """Origin plus the four half-window diagonal corners."""
    hx = bounds.max_abs_dx / 2.0
    hy = bounds.max_abs_dy / 2.0
    return [(0.0, 0.0), (-hx, -hy), (-hx, hy), (hx, -hy), (hx, hy)]


def optimize_lbfgsb(
    f: Callable, bounds: Bounds = Bounds(), cfg: OptimizerConfig | None = None
) -> DisplacementSolution:
    """Bound-constrained quasi-Newton descent with finite-difference gradients.

    Each iterate (x, y) needs 5 values, in the order (x, y), (x+h, y),
    (x-h, y), (x, y+h), (x, y-h): the value and the four probes of a
    two-sided difference gradient. The returned point is the best in-bounds
    probe across all starts (the best iterate even without convergence).
    The objective is piecewise constant at raster-cell granularity, so the
    differencing step h is max(`f.cell_size`, 1 m), 1 m for an objective
    without `cell_size`: a step inside one cell would read a zero gradient.

    The line search often stalls on that surface, probing points a
    micrometre apart. So an `Objective` reports each scored point's slack,
    and one memo per call, shared by the starts, gives a probe within an
    earlier point's slack that point's value: the same bits, so the
    trajectory and the result are unchanged. `evaluations` counts the
    points actually scored.
    """
    from scipy.optimize import minimize  # deferred: costs most of `import terralign`

    cfg = cfg or OptimizerConfig()
    lb = cfg.lbfgsb
    tracker = _Tracker(f, bounds, memo=True)
    h = max(getattr(f, "cell_size", 1.0), 1.0)
    starts = five_point_starts(bounds)[: lb.starts]

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
    return tracker.solution(converged=converged)


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
    whole trajectory. A child bitwise equal to the parent it was bred from
    (no crossover and no mutation, or a parent crossed with itself) takes
    that parent's fitness instead of being scored again; a repeated point
    cannot beat its earlier evaluation, so the best is the same either way.
    `evaluations` counts the points actually scored.
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
        # child 2k is bred from p1[k], child 2k+1 from p2[k]
        parent_idx = winners.ravel()[:n_children]

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
        child_fit = fit[parent_idx]
        changed = np.any(children.view(np.uint64) != pop[parent_idx].view(np.uint64), axis=1)
        if np.any(changed):
            child_fit[changed] = tracker.batch(children[changed])

        elite_idx = np.argsort(fit, kind="stable")[: g.elitism]
        pop = np.concatenate([pop[elite_idx], children])
        fit = np.concatenate([fit[elite_idx], child_fit])
    return tracker.solution(converged=True)


def optimize_pso(
    f: Callable,
    bounds: Bounds = Bounds(),
    cfg: OptimizerConfig | None = None,
    *,
    rng: np.random.Generator,
) -> DisplacementSolution:
    """Global-best particle swarm with velocity clamping.

    Positions start uniform in bounds with zero velocities; clamped
    position components get their velocity zeroed. The social term pulls
    toward the tracker's best point, the best any particle has scored; a
    NaN value never becomes it, nor a particle's own best.
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
    pbest_f = np.where(np.isnan(fx), np.inf, fx)  # a NaN start is beaten by any score

    for _ in range(p.iterations):
        r1 = rng.random((p.swarm, 2))
        r2 = rng.random((p.swarm, 2))
        v = p.inertia * v + p.cognitive * r1 * (pbest - x) + p.social * r2 * (np.array(tracker.best_x) - x)
        v = np.clip(v, -v_max, v_max)
        moved = x + v
        clamped = (moved < lo) | (moved > hi)
        x = np.clip(moved, lo, hi)
        v = np.where(clamped, 0.0, v)
        fx = tracker.batch(x)
        improved = fx < pbest_f
        pbest[improved] = x[improved]
        pbest_f[improved] = fx[improved]
    return tracker.solution(converged=True)


def derive_group_seed(seed: int, group_key: str) -> int:
    """Stable per-group RNG seed; independent of worker scheduling."""
    digest = hashlib.sha256(f"{seed}:{group_key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class CorrectionResult(Combination):
    """One method x metric over `groups`, the caller's sequence.

    The `Combination` fields are per footprint, in group order: `dx` and
    `dy` repeat each group's offset over its footprints, and `ref_after` is
    NaN where the shifted buffer has no DEM coverage (a skipped group keeps
    its stored `ref_elev`). `solutions` holds one entry per group.
    """

    solutions: list[DisplacementSolution]
    groups: Sequence[ShotGroup]

    @property
    def n_skipped(self) -> int:
        return sum(1 for sol in self.solutions if sol.skipped)


def correct_group(
    group: ShotGroup,
    dem: RasterGrid,
    method: str = "grid",
    metric: MetricKind | str = MetricKind.EUCLIDEAN,
    cfg: RunConfig | None = None,
) -> DisplacementSolution:
    """Solve one group's displacement.

    Reads `radius`, `agg`, `bounds`, `optimizer` and `seed` from `cfg`. GA
    and PSO draw from a generator seeded by `derive_group_seed(cfg.seed,
    group.key)`. Groups below MIN_GROUP_SIZE are skipped with a zero offset.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    cfg = cfg or RunConfig()
    if len(group) < MIN_GROUP_SIZE:
        return DisplacementSolution(dx=0.0, dy=0.0, objective_value=0.0, evaluations=0, converged=False, skipped=True)

    f = Objective(group, dem, metric=metric, radius=cfg.radius, agg=cfg.agg)
    if method == "grid":
        return grid_search(f, cfg.bounds, cfg.optimizer.grid_step)
    if method == "lbfgsb":
        return optimize_lbfgsb(f, cfg.bounds, cfg.optimizer)
    rng = np.random.default_rng(derive_group_seed(cfg.seed, group.key))
    solver = optimize_ga if method == "ga" else optimize_pso
    return solver(f, cfg.bounds, cfg.optimizer, rng=rng)


# What a forked worker solves from: the groups, the DEM and the config,
# set once per worker process by `_init_worker` and never in the parent.
_worker_state: tuple[Sequence[ShotGroup], RasterGrid, RunConfig | None] | None = None


def _init_worker(groups: Sequence[ShotGroup], dem: RasterGrid, cfg: RunConfig | None) -> None:
    global _worker_state
    _worker_state = (groups, dem, cfg)


def _solve_task(method: str, metric: MetricKind | str, i: int) -> DisplacementSolution:
    groups, dem, cfg = _worker_state
    return correct_group(groups[i], dem, method, metric, cfg)


class GroupPool:
    """Solves `groups` on `dem` under `cfg` for any method x metric.

    Opened once, it serves every combination of a run. With
    `min(cfg.workers, len(groups))` below 2 it solves in this process, one
    group after another. Otherwise that many worker processes are forked
    (POSIX `fork` start method only) at the first `solve`: each inherits the
    groups, the DEM and the config, receives `(method, metric, group index)`
    tasks and sends back only a `DisplacementSolution`. When "lbfgsb" is in
    `cfg.methods`, `scipy.optimize` is imported once, before the fork.
    Closing the pool, or leaving its `with` block, shuts the workers down,
    so none outlives it.
    """

    def __init__(self, groups: Sequence[ShotGroup], dem: RasterGrid, cfg: RunConfig) -> None:
        self.groups = groups
        self.dem = dem
        self.cfg = cfg
        self._executor = None
        processes = min(cfg.workers, len(groups))
        if processes >= 2:
            # deferred: a serial run does not pay ~15 ms of multiprocessing imports
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "lbfgsb" in cfg.methods:
                # imported once before the fork, not once in every worker
                import scipy.optimize  # noqa: F401
            # fork: workers inherit the DEM and the groups instead of unpickling them
            self._executor = ProcessPoolExecutor(
                processes,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(groups, dem, cfg),
            )

    def solve(self, method: str, metric: MetricKind | str) -> CorrectionResult:
        """Every group solved with `correct_group`, in group order, then `ref_after` in one kernel call."""
        n = len(self.groups)
        if self._executor is None:
            solutions = [correct_group(g, self.dem, method, metric, self.cfg) for g in self.groups]
        else:
            solutions = list(self._executor.map(_solve_task, [method] * n, [metric] * n, range(n)))
        sizes = [len(g) for g in self.groups]
        dx = np.repeat([sol.dx for sol in solutions], sizes)
        dy = np.repeat([sol.dy for sol in solutions], sizes)
        solved = np.repeat([not sol.skipped for sol in solutions], sizes).astype(bool)
        x, y, ref_after = (
            np.concatenate([getattr(g, c) for g in self.groups] or [np.empty(0)]) for c in ("x", "y", "ref_elev")
        )
        # a skipped group keeps its stored reference
        ref_after[solved] = aggregate_buffer_points(
            self.dem, x[solved] + dx[solved], y[solved] + dy[solved], self.cfg.radius, self.cfg.agg
        )
        result = CorrectionResult(
            method=method, metric=str(MetricKind(metric).value), ref_after=ref_after, dx=dx, dy=dy,
            solutions=solutions, groups=self.groups,
        )
        if result.n_skipped:
            logger.info("skipped %d of %d groups below the minimum size", result.n_skipped, n)
        return result

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def __enter__(self) -> GroupPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def correct_dataset(
    groups: Sequence[ShotGroup],
    dem: RasterGrid,
    method: str = "grid",
    metric: MetricKind | str = MetricKind.EUCLIDEAN,
    cfg: RunConfig | None = None,
    workers: int = 1,
    pool: GroupPool | None = None,
) -> CorrectionResult:
    """Correct every group with `correct_group`, in a `GroupPool`.

    `pool` must have been opened on these `groups`, `dem` and `cfg`; a
    caller that runs several combinations opens one and passes it to every
    call. Without it, the call opens a pool on `cfg` with `workers` and
    `method` in place of `cfg.workers` and `cfg.methods`, so `RunConfig`'s
    rules check both before any group is solved, and closes it before
    returning: no worker outlives the call. An exception raised in a worker
    reaches the caller with its type and message; a worker that dies raises
    `concurrent.futures.process.BrokenProcessPool`.

    `cfg.workers` is not read here: the caller passes `workers`, which an
    open `pool` overrides. Output is byte-identical at any worker count for a
    fixed `cfg.seed`.
    """
    if pool is not None:
        if pool.groups is not groups or pool.dem is not dem or pool.cfg is not cfg:
            raise ValueError("pool was opened on other groups, DEM or config")
        return pool.solve(method, metric)
    with GroupPool(groups, dem, replace(cfg or RunConfig(), workers=workers, methods=[method])) as pool:
        return pool.solve(method, metric)
