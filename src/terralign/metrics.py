"""Distance metrics between footprint elevations and reference elevations.

Each metric maps two aligned elevation vectors (one LiDAR-derived value and
one reference-surface value per footprint) to a single non-negative score
that the offset optimizers minimize.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class MetricKind(str, Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    HAUSDORFF = "hausdorff"
    AREA = "area"
    CORRELATION = "correlation"


# Each of these is a sum of non-negative per-footprint terms (under a square
# root for euclidean) or their max, so its value on a subset of a group's
# footprints is a lower bound of its value on the whole group: the bounded
# grid scan (`optimize.grid_search`) prunes lattice points with it. Area's
# signed terms cancel and correlation is not separable, so neither is here.
SUBSET_BOUNDED = frozenset({MetricKind.EUCLIDEAN, MetricKind.MANHATTAN, MetricKind.HAUSDORFF})


class MetricError(ValueError):
    """Raised for invalid metric inputs (length mismatch, non-finite values)."""


def distance(kind: MetricKind | str, elev: np.ndarray, ref: np.ndarray) -> float:
    """Score one candidate offset from paired elevation vectors.

    euclidean   sqrt(sum((e - r)^2))
    manhattan   sum(|e - r|)
    hausdorff   max(|e_i - r_i|) over the index-paired vectors
    area        |sum(e - r)|, signed differences may cancel
    correlation 1 - Pearson(e, r), clamped to [0, 2]; 2.0 when either
                vector has zero variance (no linear structure to match)
    """
    ref = np.asarray(ref, dtype=np.float64)
    if ref.ndim != 1:
        raise MetricError("metric inputs must be 1-D vectors")
    return float(distance_many(kind, elev, ref[np.newaxis, :])[0])


def distance_many(kind: MetricKind | str, elev: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Score many candidate offsets at once.

    `refs` has shape (m, n): one row of reference elevations per candidate,
    all scored against the same length-n `elev`. Returns shape (m,). Row i
    is bitwise-identical to distance(kind, elev, refs[i]).
    """
    kind = MetricKind(kind)
    elev = np.asarray(elev, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    if elev.ndim != 1 or refs.ndim != 2:
        raise MetricError("expected a 1-D elevation vector and a 2-D reference matrix")
    if refs.shape[1] != elev.shape[0]:
        raise MetricError(
            f"length mismatch: {elev.shape[0]} elevations vs "
            f"{refs.shape[1]} reference values per candidate"
        )
    if elev.shape[0] == 0:
        raise MetricError("metric inputs must be non-empty")
    if not np.all(np.isfinite(elev)) or not np.all(np.isfinite(refs)):
        raise MetricError("metric inputs must be finite")
    if kind == MetricKind.CORRELATION and elev.shape[0] < 2:
        raise MetricError("correlation distance needs at least 2 footprints")

    diff = elev[np.newaxis, :] - refs
    if kind == MetricKind.EUCLIDEAN:
        return np.sqrt(np.sum(diff * diff, axis=1))
    if kind == MetricKind.MANHATTAN:
        return np.sum(np.abs(diff), axis=1)
    if kind == MetricKind.HAUSDORFF:
        return np.max(np.abs(diff), axis=1)
    if kind == MetricKind.AREA:
        return np.abs(np.sum(diff, axis=1))
    if kind == MetricKind.CORRELATION:
        return _correlation_rows(elev, refs)
    raise MetricError(f"unknown metric: {kind}")


def _correlation_rows(elev: np.ndarray, refs: np.ndarray) -> np.ndarray:
    e = elev - elev.mean()
    r = refs - refs.mean(axis=1, keepdims=True)
    e_ss = float(np.sum(e * e))
    r_ss = np.sum(r * r, axis=1)
    out = np.full(refs.shape[0], 2.0)
    if e_ss > 0.0:
        ok = r_ss > 0.0
        if np.any(ok):
            # row-wise sum, not BLAS matmul: reduction order must not depend
            # on how many candidate rows are scored together
            cov = np.sum(r[ok] * e, axis=1)
            rho = cov / np.sqrt(r_ss[ok] * e_ss)
            out[ok] = np.clip(1.0 - rho, 0.0, 2.0)
    return out
