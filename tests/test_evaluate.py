"""MAE, displacement statistics, and the cross-method comparison table."""

import json
import math

import numpy as np
import pytest

from terralign import MetricKind, correct_dataset
from terralign.evaluate import (
    REPORT_COLUMNS,
    ReportRow,
    compare_methods,
    displacement_stats,
    mae,
    rows_to_csv,
    rows_to_json,
    rows_to_text,
)
from terralign.footprints import ShotGroup
from terralign.metrics import distance

from conftest import attach_group, flat_grid, make_group, ramp_grid


def test_mae_identity():
    assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mae_hand_example():
    assert mae([0.0, 10.0], [3.0, 4.0]) == 4.5


def test_mae_rejects_bad_input():
    with pytest.raises(ValueError):
        mae([], [])
    with pytest.raises(ValueError):
        mae([1.0], [1.0, 2.0])


def test_mae_times_n_equals_manhattan(rng):
    for _ in range(300):
        n = int(rng.integers(1, 40))
        e = rng.normal(100.0, 15.0, n)
        r = rng.normal(100.0, 15.0, n)
        assert mae(e, r) * n == pytest.approx(distance(MetricKind.MANHATTAN, e, r), rel=1e-12)


def test_mae_shift_and_scale(rng):
    e = rng.normal(0.0, 10.0, 20)
    r = rng.normal(0.0, 10.0, 20)
    base = mae(e, r)
    assert mae(e + 55.0, r + 55.0) == pytest.approx(base, rel=1e-12)
    assert mae(3.0 * e, 3.0 * r) == pytest.approx(3.0 * base, rel=1e-12)


def test_displacement_stats_single_three_four_five():
    got = displacement_stats([3.0], [4.0])
    assert got["mean_disp"] == 5.0
    assert got["n_groups"] == 1
    assert math.isnan(got["sd_disp"]) and math.isnan(got["sd_dx"])


def test_displacement_stats_all_zero():
    got = displacement_stats([0.0, 0.0], [0.0, 0.0])
    assert got["mean_dx"] == 0.0 and got["mean_dy"] == 0.0
    assert got["mean_disp"] == 0.0 and got["sd_disp"] == 0.0


def test_displacement_stats_unsigned_magnitudes():
    got = displacement_stats([1.0, -1.0], [0.0, 0.0])
    assert got["mean_dx"] == 0.0
    assert got["mean_disp"] == 1.0


def test_displacement_stats_empty():
    got = displacement_stats([], [])
    assert got["n_groups"] == 0
    assert math.isnan(got["mean_disp"]) and math.isnan(got["mean_dx"])


def test_displacement_stats_jensen_bound(rng):
    for _ in range(300):
        n = int(rng.integers(1, 30))
        dx, dy = rng.normal(0.0, 10.0, (2, n))
        got = displacement_stats(dx, dy)
        assert got["mean_disp"] + 1e-12 >= math.hypot(got["mean_dx"], got["mean_dy"])


def groups_on_flat(n_groups=3, n_fps=4):
    dem = flat_grid(256)
    groups = [
        make_group(
            [40.0 + 30 * g + 6 * i for i in range(n_fps)],
            [60.0 + 20 * g] * n_fps,
            [100.0 + 0.1 * i for i in range(n_fps)],
            key=f"{g + 1:010d}",
        )
        for g in range(n_groups)
    ]
    return dem, [attach_group(g, dem) for g in groups]


def test_compare_methods_row_accounting():
    dem, groups = groups_on_flat()
    results = [
        correct_dataset(groups, dem, method="grid", metric=m)
        for m in ("euclidean", "manhattan")
    ]
    rows = compare_methods(results)
    assert len(rows) == 1 + 2
    assert rows[0].method == "original"
    assert [(r.method, r.metric) for r in rows[1:]] == [
        ("grid", "euclidean"), ("grid", "manhattan"),
    ]


def test_compare_methods_identity_result_matches_original_mae():
    dem, groups = groups_on_flat()
    result = correct_dataset(groups, dem, method="grid", metric="euclidean")
    rows = compare_methods([result])
    # flat field: any offset leaves the reference unchanged, so MAE is unchanged
    assert rows[1].mae_m == pytest.approx(rows[0].mae_m, rel=1e-12)


def test_compare_methods_corrected_beats_original_on_planted_scene():
    from terralign import TerrainSpec, gen_terrain
    from terralign.synthetic import TrackSpec, gen_track, plant_offset

    terrain = gen_terrain(TerrainSpec(kind="gaussian_hills", n_rows=220, n_cols=220, cell_size=2.0, relief=140.0, seed=21))
    spec = TrackSpec(n_footprints=10, spacing=25.0, heading=75.0, planted_dx=9.0, planted_dy=-6.0, seed=21)
    observed = plant_offset(gen_track(terrain, spec), spec)
    group = attach_group(observed, terrain, max_dem_diff=math.inf)
    result = correct_dataset([group], terrain, method="grid", metric="euclidean")
    rows = compare_methods([result])
    assert rows[1].mae_m < rows[0].mae_m


def test_compare_methods_mismatched_groups_error():
    dem, groups = groups_on_flat()
    results = [
        correct_dataset(groups, dem, method="grid", metric="euclidean"),
        correct_dataset(groups[:2], dem, method="grid", metric="manhattan"),
    ]
    with pytest.raises(ValueError) as err:
        compare_methods(results)
    assert "0000000003" in str(err.value)


def test_compare_methods_needs_a_result():
    with pytest.raises(ValueError, match="at least one result"):
        compare_methods([])


def test_compare_methods_counts_duplicate_shot_numbers_by_position():
    dem, (group,) = groups_on_flat(n_groups=1, n_fps=6)
    shots = group.shot_number.copy()
    shots[5] = shots[4]
    group = ShotGroup(group.key, group.table.take(slice(None), shot_number=shots))
    result = correct_dataset([group], dem, method="grid", metric="euclidean")
    rows = compare_methods([result])
    # elevations 100.0 .. 100.5 over a flat 100 m DEM: MAE 0.25 over all 6 pairs
    assert [r.n_footprints for r in rows] == [6, 6]
    assert [r.mae_m for r in rows] == pytest.approx([0.25, 0.25], rel=1e-12)


def test_compare_methods_rejects_resized_groups():
    dem, groups = groups_on_flat()
    shrunk = [groups[0], ShotGroup(groups[1].key, groups[1].table.take(slice(None, -1))), groups[2]]
    results = [
        correct_dataset(groups, dem, method="grid", metric="euclidean"),
        correct_dataset(shrunk, dem, method="grid", metric="manhattan"),
    ]
    with pytest.raises(ValueError, match="group sizes"):
        compare_methods(results)


def test_compare_methods_byte_stable():
    dem, groups = groups_on_flat()
    results = [correct_dataset(groups, dem, method="grid", metric="area")]
    rows_a = compare_methods(results)
    rows_b = compare_methods(results)
    assert rows_to_csv(rows_a) == rows_to_csv(rows_b)
    assert rows_to_text(rows_a) == rows_to_text(rows_b)


def test_serializers_shape_and_timing_blank():
    dem, groups = groups_on_flat()
    results = [correct_dataset(groups, dem, method="grid", metric="euclidean")]
    rows = compare_methods(results)

    csv_text = rows_to_csv(rows)
    header = csv_text.splitlines()[0].split(",")
    assert header == list(REPORT_COLUMNS)
    blank = csv_text.splitlines()[2].split(",")
    assert blank[-1] == ""  # library rows carry no time

    rows[1].wall_time_s = 0.25  # as `bench` sets it
    timed = rows_to_csv(rows).splitlines()[2].split(",")
    assert timed[-1] == "0.250000"
    rows[1].wall_time_s = math.nan

    payload = json.loads(rows_to_json(rows))
    assert payload[0]["method"] == "original"
    assert payload[0]["mean_dx"] is None
    assert payload[1]["wall_time_s"] is None
    assert payload[1]["n_footprints"] == 12

    text = rows_to_text(rows)
    lines = text.splitlines()
    assert lines[0].split() == list(REPORT_COLUMNS)
    assert len(lines) == 1 + len(rows)


def test_compare_methods_skipped_groups_do_not_enter_offsets():
    dem = flat_grid(256)
    big = attach_group(
        make_group([60.0, 70.0, 80.0, 90.0], [80.0] * 4, [100.0] * 4, key="0000000001"), dem
    )
    small = attach_group(
        make_group([120.0, 130.0], [120.0] * 2, [100.0] * 2, key="0000000002"), dem
    )
    result = correct_dataset([big, small], dem, method="grid", metric="euclidean")
    rows = compare_methods([result])
    assert result.n_skipped == 1
    assert rows[1].n_groups == 1  # only the optimized group counts
    assert rows[1].n_footprints == 6  # but every surviving footprint is scored
