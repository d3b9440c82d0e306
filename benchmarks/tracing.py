"""Spans around calls into terralign's modules, recorded from outside.

The program is not edited: `Tracer.install` replaces module attributes
(the names each caller looks up) with wrappers that record a span per call
and restores them on `uninstall`. Spans stay in memory; `layer_metrics`
folds them into the per-layer metrics once the traced run is over.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

# (module, attribute path, span name). A caller that binds a function by
# name gets its own hook, so every call site below is covered exactly once.
HOOKS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_raster", "raster.load"),
    ("cli", "parse_footprints", "footprints.parse"),
    ("cli", "prepare_groups", "footprints.prepare"),
    ("cli", "correct_dataset", "optimize.correct_dataset"),
    ("cli", "compare_methods", "evaluate.compare"),
    ("footprints", "filter_quality", "footprints.quality"),
    ("footprints", "apply_geoid", "footprints.geoid"),
    ("footprints", "group_by_shot", "footprints.group"),
    ("footprints", "remove_outliers", "footprints.outliers"),
    ("footprints", "attach_reference", "footprints.attach"),
    ("footprints", "aggregate_buffer_points", "raster.aggregate"),
    ("optimize", "aggregate_buffer_points", "raster.aggregate"),
    ("optimize", "distance_many", "metrics.distance"),
    ("optimize", "Objective.batch", "optimize.objective"),
    ("optimize", "correct_group", "optimize.correct_group"),
)

# Full-size float64/int64 temporaries per (centers x stencil) block in the
# current MEAN kernel: rows, cols, two cell centers, two deltas, values and
# the masked values.
_KERNEL_TEMPORARIES = 8

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("raster.load_s", "s", "lower"),
    ("raster.load_mb_per_s", "MB/s", "higher"),
    ("footprints.parse_s", "s", "lower"),
    ("footprints.quality_s", "s", "lower"),
    ("footprints.geoid_s", "s", "lower"),
    ("footprints.group_s", "s", "lower"),
    ("footprints.outliers_s", "s", "lower"),
    ("footprints.attach_s", "s", "lower"),
    ("raster.aggregate_s", "s", "lower"),
    ("raster.aggregate_calls", "count", "lower"),
    ("raster.aggregate_centers", "count", "lower"),
    ("raster.ns_per_center", "ns", "lower"),
    ("raster.cell_visits", "count", "lower"),
    ("raster.chunk_bytes_computed", "B", "lower"),
    ("metrics.distance_s", "s", "lower"),
    ("metrics.distance_rows", "count", "lower"),
    ("optimize.objective_s", "s", "lower"),
    ("optimize.batch_calls", "count", "lower"),
    ("optimize.evaluations", "count", "lower"),
    ("optimize.points_per_batch", "count", "higher"),
    ("optimize.grid_s", "s", "lower"),
    ("optimize.lbfgsb_s", "s", "lower"),
    ("optimize.ga_s", "s", "lower"),
    ("optimize.pso_s", "s", "lower"),
    ("optimize.solver_overhead_s", "s", "lower"),
    ("optimize.lbfgsb_converged", "count", "higher"),
    ("optimize.parallel_efficiency", "ratio", "higher"),
    ("evaluate.compare_s", "s", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    info: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _describe(name: str, args: tuple, kwargs: dict, result: Any) -> dict:
    """Work counts of one call, taken from its arguments and result."""
    if name == "raster.load":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    if name == "raster.aggregate":
        grid = _arg(args, kwargs, 0, "grid")
        return {
            "centers": len(_arg(args, kwargs, 1, "xs")),
            "radius": float(_arg(args, kwargs, 3, "radius")),
            "cell_x": grid.cell_size_x,
            "cell_y": abs(grid.cell_size_y),
        }
    if name == "metrics.distance":
        return {"rows": len(_arg(args, kwargs, 2, "refs"))}
    if name == "optimize.objective":
        return {"points": len(_arg(args, kwargs, 1, "points"))}
    if name == "optimize.correct_dataset":
        method = _arg(args, kwargs, 2, "method", "grid")
        sols = [s for s in result.solutions if not s.skipped]
        return {
            "method": method,
            "workers": max(1, int(_arg(args, kwargs, 8, "workers", 1))),
            "converged": sum(1 for s in sols if s.converged) if method == "lbfgsb" else 0,
        }
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(Span(span_id, name, parent, start, end, _describe(name, args, kwargs, result)))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr_path, span_name in HOOKS:
            owner: Any = sys.modules[f"terralign.{module_name}"]
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"terralign.{module_name}.{attr_path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


@functools.lru_cache(maxsize=None)
def stencil_cells(radius: float, cell_x: float, cell_y: float) -> int:
    """Cells the MEAN kernel visits per center: the square window around the
    anchor cell minus the corners no center within `radius` can reach."""
    kx = int(math.ceil(radius / cell_x)) + 1
    ky = int(math.ceil(radius / cell_y)) + 1
    n = 0
    for dr in range(-ky, ky + 1):
        for dc in range(-kx, kx + 1):
            mx = max(abs(dc) - 1, 0) * cell_x
            my = max(abs(dr) - 1, 0) * cell_y
            n += mx * mx + my * my <= radius * radius
    return n


def layer_metrics(spans: list[Span], chunk_elements: int | None) -> dict[str, float]:
    """Per-layer metrics of one traced `correct` run (cli.import_s excluded)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    main_ids = {s.id for s in by_name.get("cli.main", ())}
    child_s = sum(s.seconds for s in spans if s.parent in main_ids)
    out["cli.write_s"] = total("cli.main") - child_s

    loads = by_name.get("raster.load", ())
    out["raster.load_s"] = total("raster.load")
    load_mb = sum(s.info["bytes"] for s in loads) / 1e6
    out["raster.load_mb_per_s"] = load_mb / out["raster.load_s"] if out["raster.load_s"] else 0.0

    for stage in ("parse", "quality", "geoid", "group", "outliers", "attach"):
        out[f"footprints.{stage}_s"] = total(f"footprints.{stage}")

    aggs = by_name.get("raster.aggregate", ())
    centers = sum(s.info["centers"] for s in aggs)
    visits = 0
    chunk_bytes = 0
    for s in aggs:
        cells = stencil_cells(s.info["radius"], s.info["cell_x"], s.info["cell_y"])
        visits += s.info["centers"] * cells
        per_chunk = s.info["centers"]
        if chunk_elements is not None:
            per_chunk = min(per_chunk, max(1, chunk_elements // cells))
        chunk_bytes = max(chunk_bytes, per_chunk * cells * 8 * _KERNEL_TEMPORARIES)
    out["raster.aggregate_s"] = total("raster.aggregate")
    out["raster.aggregate_calls"] = len(aggs)
    out["raster.aggregate_centers"] = centers
    out["raster.ns_per_center"] = out["raster.aggregate_s"] / centers * 1e9 if centers else 0.0
    out["raster.cell_visits"] = visits
    out["raster.chunk_bytes_computed"] = chunk_bytes

    out["metrics.distance_s"] = total("metrics.distance")
    out["metrics.distance_rows"] = sum(s.info["rows"] for s in by_name.get("metrics.distance", ()))

    batches = by_name.get("optimize.objective", ())
    out["optimize.objective_s"] = total("optimize.objective")
    out["optimize.batch_calls"] = len(batches)
    out["optimize.evaluations"] = sum(s.info["points"] for s in batches)
    out["optimize.points_per_batch"] = out["optimize.evaluations"] / len(batches) if batches else 0.0

    datasets = by_name.get("optimize.correct_dataset", ())
    for method in ("grid", "lbfgsb", "ga", "pso"):
        out[f"optimize.{method}_s"] = sum(s.seconds for s in datasets if s.info["method"] == method)
    # summed over worker threads, like the objective time it is compared to
    out["optimize.solver_overhead_s"] = total("optimize.correct_group") - out["optimize.objective_s"]
    out["optimize.lbfgsb_converged"] = sum(s.info["converged"] for s in datasets)
    capacity = sum(s.seconds * s.info["workers"] for s in datasets)
    out["optimize.parallel_efficiency"] = total("optimize.correct_group") / capacity if capacity else 0.0

    out["evaluate.compare_s"] = total("evaluate.compare")
    return out
