"""Distance metric formulas, invariants, and naive-reference equivalence."""

import math

import numpy as np
import pytest

from terralign import MetricError, MetricKind
from terralign.metrics import distance, distance_many

ALL_KINDS = list(MetricKind)
SHIFT_KINDS = [
    MetricKind.EUCLIDEAN,
    MetricKind.MANHATTAN,
    MetricKind.HAUSDORFF,
    MetricKind.AREA,
]


def naive(kind, e, r):
    e = np.asarray(e, dtype=float)
    r = np.asarray(r, dtype=float)
    if kind == MetricKind.EUCLIDEAN:
        return math.sqrt(float(np.sum((e - r) ** 2)))
    if kind == MetricKind.MANHATTAN:
        return float(np.sum(np.abs(e - r)))
    if kind == MetricKind.HAUSDORFF:
        return float(np.max(np.abs(e - r)))
    if kind == MetricKind.AREA:
        return abs(float(np.sum(e - r)))
    ec = e - e.mean()
    rc = r - r.mean()
    denom = math.sqrt(float(np.sum(ec**2)) * float(np.sum(rc**2)))
    if denom == 0.0:
        return 2.0
    rho = float(np.sum(ec * rc)) / denom
    return min(2.0, max(0.0, 1.0 - rho))


def test_identity_pair_is_zero_distance():
    e = [3.0, 7.0, 1.0]
    for kind in ALL_KINDS:
        assert distance(kind, e, e) == 0.0


def test_hand_worked_pairs():
    e, r = [0.0, 3.0], [4.0, 0.0]
    assert distance(MetricKind.EUCLIDEAN, e, r) == pytest.approx(5.0, rel=1e-12)
    assert distance(MetricKind.MANHATTAN, e, r) == pytest.approx(7.0, rel=1e-12)
    assert distance(MetricKind.HAUSDORFF, e, r) == pytest.approx(4.0, rel=1e-12)
    assert distance(MetricKind.AREA, e, r) == pytest.approx(1.0, rel=1e-12)


def test_anticorrelated_pair_hits_max():
    assert distance(MetricKind.CORRELATION, [1, 2, 3], [3, 2, 1]) == pytest.approx(2.0, rel=1e-12)


def test_area_signed_cancellation():
    assert distance(MetricKind.AREA, [1.0, 2.0], [-1.0, 1.0]) == pytest.approx(3.0, rel=1e-12)
    # area vanishes on equal sums even when the vectors differ
    assert distance(MetricKind.AREA, [0.0, 2.0], [1.0, 1.0]) == 0.0


def test_correlation_zero_variance_rule():
    assert distance(MetricKind.CORRELATION, [5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == 2.0
    assert distance(MetricKind.CORRELATION, [1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) == 2.0


def test_correlation_perfect_positive_is_zero():
    assert distance(MetricKind.CORRELATION, [1, 2, 3], [10, 20, 30]) == pytest.approx(0.0, abs=1e-12)


def test_length_mismatch_raises():
    with pytest.raises(MetricError):
        distance(MetricKind.EUCLIDEAN, [1.0, 2.0], [1.0])


def test_empty_input_raises():
    with pytest.raises(MetricError):
        distance(MetricKind.MANHATTAN, [], [])


def test_correlation_rejects_single_element():
    with pytest.raises(MetricError):
        distance(MetricKind.CORRELATION, [1.0], [2.0])


def test_non_finite_input_raises():
    with pytest.raises(MetricError):
        distance(MetricKind.EUCLIDEAN, [1.0, float("nan")], [1.0, 2.0])


def test_unknown_kind_raises():
    with pytest.raises((MetricError, ValueError)):
        distance("chebyshev", [1.0], [2.0])


def test_non_negativity(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        e = rng.normal(0.0, 50.0, n)
        r = rng.normal(0.0, 50.0, n)
        for kind in ALL_KINDS:
            assert distance(kind, e, r) >= 0.0


def test_shift_invariance(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        e = rng.normal(100.0, 20.0, n)
        r = rng.normal(100.0, 20.0, n)
        c = float(rng.normal(0.0, 500.0))
        for kind in SHIFT_KINDS:
            assert distance(kind, e + c, r + c) == pytest.approx(distance(kind, e, r), rel=1e-9, abs=1e-9)


def test_bound_chain_hausdorff_and_area_below_manhattan(rng):
    for _ in range(500):
        n = int(rng.integers(1, 30))
        e = rng.normal(0.0, 30.0, n)
        r = rng.normal(0.0, 30.0, n)
        manh = distance(MetricKind.MANHATTAN, e, r)
        assert distance(MetricKind.HAUSDORFF, e, r) <= manh + 1e-12
        assert distance(MetricKind.AREA, e, r) <= manh + 1e-12


def test_correlation_scale_invariance(rng):
    for _ in range(200):
        n = int(rng.integers(3, 30))
        e = rng.normal(0.0, 10.0, n)
        r = rng.normal(0.0, 10.0, n)
        a = float(rng.uniform(0.1, 50.0))
        b = float(rng.normal(0.0, 100.0))
        assert distance(MetricKind.CORRELATION, a * e + b, r) == pytest.approx(
            distance(MetricKind.CORRELATION, e, r), abs=1e-9
        )


def test_zero_conditions(rng):
    for _ in range(100):
        n = int(rng.integers(1, 20))
        e = rng.normal(0.0, 10.0, n)
        r = e + rng.normal(0.0, 1.0, n)
        for kind in (MetricKind.EUCLIDEAN, MetricKind.MANHATTAN, MetricKind.HAUSDORFF):
            assert (distance(kind, e, r) == 0.0) == bool(np.all(e == r))


def test_naive_reference_equivalence_10000(rng):
    """Criterion source: each metric tracks a one-line reference to 1e-12."""
    for _ in range(10_000):
        n = int(rng.integers(2, 60))
        e = rng.normal(0.0, 100.0, n)
        r = rng.normal(0.0, 100.0, n)
        kind = ALL_KINDS[int(rng.integers(0, len(ALL_KINDS)))]
        got = distance(kind, e, r)
        want = naive(kind, e, r)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_batch_rows_bitwise_equal_scalar(rng):
    """distance_many row values must not depend on how many rows are scored."""
    for _ in range(50):
        n = int(rng.integers(2, 25))
        e = rng.normal(100.0, 10.0, n)
        refs = rng.normal(100.0, 10.0, (17, n))
        for kind in ALL_KINDS:
            many = distance_many(kind, e, refs)
            for i in range(refs.shape[0]):
                assert many[i] == distance(kind, e, refs[i])
            # a sub-batch gives the same bits as the full batch
            sub = distance_many(kind, e, refs[3:9])
            np.testing.assert_array_equal(sub, many[3:9])


def test_correlation_clamped_to_range(rng):
    for _ in range(500):
        n = int(rng.integers(2, 10))
        e = rng.normal(0.0, 1.0, n)
        r = rng.normal(0.0, 1.0, n)
        d = distance(MetricKind.CORRELATION, e, r)
        assert 0.0 <= d <= 2.0
