"""Footprint parsing, quality filters, outlier rejection, grouping, attachment."""

import io
import math

import numpy as np
import pytest

from terralign import FootprintError, QualityRules, parse_footprints, prepare_groups
from terralign.footprints import (
    Footprint,
    ShotGroup,
    apply_geoid,
    attach_reference,
    filter_quality,
    flag_rolling_outliers,
    group_by_shot,
    remove_outliers,
)

from conftest import flat_grid, make_footprint, make_group

CSV_HEADER = "shot_number,beam,x,y,elev_lowestmode,degrade_flag,quality_flag,sensitivity,rh100\n"


def row(shot="00000000010001", x=5.0, y=5.0, elev=100.0, degrade=0, quality=1, sens=0.98, rh=10.0):
    return f"{shot},BEAM0101,{x},{y},{elev},{degrade},{quality},{sens},{rh}\n"


def test_parse_well_formed_rows():
    text = CSV_HEADER + row("00000000010001") + row("00000000010002") + row("00000000020001")
    fps, stats = parse_footprints(io.StringIO(text))
    assert len(fps) == 3
    assert stats.n_rows == 3
    assert stats.n_dropped_na == 0
    assert fps[0].shot_number == "00000000010001"
    assert fps[0].x == 5.0 and fps[0].elev_lowestmode == 100.0


def test_parse_drops_na_rows_and_counts():
    text = CSV_HEADER + row() + "00000000010002,BEAM0101,5.0,5.0,,0,1,0.98,10.0\n"
    fps, stats = parse_footprints(io.StringIO(text))
    assert len(fps) == 1
    assert stats.n_dropped_na == 1


def test_parse_counts_bad_numeric_rows():
    text = CSV_HEADER + row() + "00000000010002,BEAM0101,oops,5.0,100.0,0,1,0.98,10.0\n"
    fps, stats = parse_footprints(io.StringIO(text))
    assert len(fps) == 1
    assert stats.n_dropped_bad_numeric == 1


def test_parse_missing_column_raises():
    text = "shot_number,beam,x,y\n00000000010001,BEAM0101,1,2\n"
    with pytest.raises(FootprintError) as err:
        parse_footprints(io.StringIO(text))
    assert "elev_lowestmode" in str(err.value)


def test_parse_preserves_raw_columns():
    text = "extra," + CSV_HEADER[:-1] + "\nfoo," + row()[:-1] + "\n"
    fps, _ = parse_footprints(io.StringIO(text))
    assert fps[0].raw["extra"] == "foo"
    assert fps[0].raw["x"] == "5.0"


def test_quality_filter_boundaries():
    rules = QualityRules()
    keep = make_footprint(0, sensitivity=0.95)
    drop_sens = make_footprint(1, sensitivity=0.949)
    drop_elev = make_footprint(2, elev=2500.0)
    keep_elev = make_footprint(3, elev=2499.9)
    drop_zero = make_footprint(4, elev=0.0)
    out = filter_quality([keep, drop_sens, drop_elev, keep_elev, drop_zero], rules)
    assert out == [keep, keep_elev]


def test_quality_filter_flags_and_rh100():
    rules = QualityRules()
    assert filter_quality([make_footprint(0, degrade=1)], rules) == []
    assert filter_quality([make_footprint(0, quality=0)], rules) == []
    assert filter_quality([make_footprint(0, rh100=0.0)], rules) == []
    assert filter_quality([make_footprint(0, rh100=-3.0)], rules) == []


def test_quality_filter_tree_cover_rule():
    fp_none = make_footprint(0)
    fp_true = make_footprint(1, tree_cover=True)
    fp_false = make_footprint(2, tree_cover=False)
    default = filter_quality([fp_none, fp_true, fp_false], QualityRules())
    assert default == [fp_none, fp_true, fp_false]
    strict = filter_quality([fp_none, fp_true, fp_false], QualityRules(require_tree_cover=True))
    assert strict == [fp_true]


def test_quality_filter_idempotent(rng):
    fps = [
        make_footprint(
            i,
            elev=float(rng.uniform(-100.0, 3000.0)),
            degrade=int(rng.integers(0, 2)),
            quality=int(rng.integers(0, 2)),
            sensitivity=float(rng.uniform(0.8, 1.0)),
            rh100=float(rng.uniform(-5.0, 40.0)),
        )
        for i in range(300)
    ]
    rules = QualityRules()
    once = filter_quality(fps, rules)
    assert filter_quality(once, rules) == once


def test_quality_rules_validation():
    with pytest.raises(ValueError):
        QualityRules(min_elev=100.0, max_elev=50.0)
    with pytest.raises(ValueError):
        QualityRules(outlier_window=4)
    with pytest.raises(ValueError):
        QualityRules(outlier_window=1)
    with pytest.raises(ValueError):
        QualityRules(outlier_k=0.0)
    with pytest.raises(ValueError):
        QualityRules(max_dem_diff=-1.0)


def test_rolling_outliers_constant_series():
    mask = flag_rolling_outliers(np.full(7, 5.0), window=7, k=2.0)
    assert not mask.any()


def test_rolling_outliers_single_spike():
    series = np.array([10.0, 10.0, 10.0, 100.0, 10.0, 10.0, 10.0])
    mask = flag_rolling_outliers(series, window=7, k=2.0)
    assert list(np.nonzero(mask)[0]) == [3]


def test_rolling_outliers_rejects_bad_window():
    with pytest.raises(ValueError):
        flag_rolling_outliers(np.zeros(5), window=4, k=2.0)
    with pytest.raises(ValueError):
        flag_rolling_outliers(np.zeros(5), window=1, k=2.0)


def naive_rolling_mask(series, window, k):
    half = window // 2
    n = len(series)
    mask = np.zeros(n, dtype=bool)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        win = series[lo:hi]
        if win.size < 3:
            continue
        sd = float(np.std(win, ddof=1))
        if sd == 0.0:
            continue
        mask[i] = abs(series[i] - float(np.mean(win))) > k * sd
    return mask


def test_rolling_outliers_match_naive_reference(rng):
    for _ in range(300):
        n = int(rng.integers(1, 80))
        series = rng.normal(100.0, 5.0, n)
        if rng.random() < 0.5 and n > 2:
            series[rng.integers(0, n)] += float(rng.uniform(20.0, 80.0))
        window = int(rng.choice([3, 5, 7, 9, 11]))
        k = float(rng.uniform(0.5, 3.0))
        got = flag_rolling_outliers(series, window=window, k=k)
        np.testing.assert_array_equal(got, naive_rolling_mask(series, window, k))


def test_apply_geoid_arithmetic():
    geoid = flat_grid(16, value=40.0)
    fps = [make_footprint(0, x=8.0, y=8.0, elev=120.0, gedi_dem=None)]
    out = apply_geoid(fps, geoid)
    assert out[0].gedi_dem == 80.0


def test_apply_geoid_zero_grid_is_identity():
    geoid = flat_grid(16, value=0.0)
    fps = [make_footprint(i, x=4.0 + i, y=8.0, elev=100.0 + i, gedi_dem=None) for i in range(5)]
    out = apply_geoid(fps, geoid)
    assert [fp.gedi_dem for fp in out] == [fp.elev_lowestmode for fp in out]


def test_apply_geoid_drops_outside_extent():
    geoid = flat_grid(16, value=0.0)
    inside = make_footprint(0, x=8.0, y=8.0, gedi_dem=None)
    outside = make_footprint(1, x=99.0, y=8.0, gedi_dem=None)
    out = apply_geoid([inside, outside], geoid)
    assert len(out) == 1 and out[0].shot_number == inside.shot_number


def test_apply_geoid_none_passthrough():
    fps = [make_footprint(0, elev=123.0, gedi_dem=None)]
    out = apply_geoid(fps, None)
    assert out[0].gedi_dem == 123.0
    assert fps[0].gedi_dem is None  # a copy, never the caller's object


def test_apply_geoid_none_passes_parsed_footprints_through():
    fps, _ = parse_footprints(io.StringIO(CSV_HEADER + row(elev=101.5) + row(elev=99.0)))
    assert [fp.gedi_dem for fp in fps] == [101.5, 99.0]
    out = apply_geoid(fps, None)
    assert all(a is b for a, b in zip(out, fps)) and len(out) == 2
    with_geoid = apply_geoid(fps, flat_grid(16, value=1.0))
    assert [fp.gedi_dem for fp in with_geoid] == [100.5, 98.0]
    assert [fp.gedi_dem for fp in fps] == [101.5, 99.0]


def test_group_by_shot_prefix_partition():
    fps = [
        make_footprint(1, key="ABCDEFGHIJ"),
        make_footprint(2, key="ABCDEFGHIJ"),
        make_footprint(1, key="KLMNOPQRST"),
    ]
    groups = group_by_shot(fps)
    assert [g.key for g in groups] == ["ABCDEFGHIJ", "KLMNOPQRST"]
    assert [len(g) for g in groups] == [2, 1]


def test_group_by_shot_empty():
    assert group_by_shot([]) == []


def test_group_by_shot_short_key_raises():
    fp = make_footprint(0)
    fp.shot_number = "SHORT"
    with pytest.raises(FootprintError):
        group_by_shot([fp])


def test_group_by_shot_is_partition(rng):
    fps = [
        make_footprint(int(rng.integers(0, 99999)), key=f"{rng.integers(0, 20):010d}")
        for _ in range(1000)
    ]
    groups = group_by_shot(fps)
    merged = [fp for g in groups for fp in g.footprints]
    assert sorted(id(fp) for fp in merged) == sorted(id(fp) for fp in fps)
    for g in groups:
        assert all(fp.shot_number[:10] == g.key for fp in g.footprints)
    # within-group order preserves input order
    pos = {id(fp): i for i, fp in enumerate(fps)}
    for g in groups:
        idx = [pos[id(fp)] for fp in g.footprints]
        assert idx == sorted(idx)


def test_attach_reference_constant_dem():
    dem = flat_grid(64)
    group = make_group([30.0, 32.0, 34.0], [30.0, 30.0, 30.0], [100.0, 100.0, 100.0])
    out = attach_reference(group, dem)
    assert len(out) == 3
    assert all(fp.ref_elev == 100.0 for fp in out.footprints)


def test_attach_reference_dem_diff_threshold():
    dem = flat_grid(64, value=151.0)
    group = make_group([30.0], [30.0], [100.0])
    assert len(attach_reference(group, dem)) == 0

    dem_close = flat_grid(64, value=149.9)
    assert len(attach_reference(group, dem_close)) == 1


def test_attach_reference_drops_uncovered():
    dem = flat_grid(32)
    group = make_group([16.0, 500.0], [16.0, 500.0], [100.0, 100.0])
    out = attach_reference(group, dem)
    assert len(out) == 1 and out.footprints[0].x == 16.0


def test_remove_outliers_prunes_gedi_dem_spike():
    elevs = [10.0, 10.0, 10.0, 100.0, 10.0, 10.0, 10.0]
    group = make_group(list(range(7)), [0.0] * 7, elevs)
    out = remove_outliers(group, window=7, k=2.0)
    assert len(out) == 6
    assert all(fp.gedi_dem == 10.0 for fp in out.footprints)


def test_prepare_groups_end_to_end():
    dem = flat_grid(128)
    fps = []
    for i in range(6):
        fps.append(make_footprint(i, key="0000000001", x=30.0 + 4 * i, y=40.0, elev=100.0, gedi_dem=None))
    for i in range(2):
        fps.append(make_footprint(i, key="0000000002", x=60.0, y=60.0 + 4 * i, elev=100.0, gedi_dem=None))
    fps.append(make_footprint(0, key="0000000003", x=30.0, y=30.0, elev=2600.0, gedi_dem=None))
    groups, stats = prepare_groups(fps, dem)
    assert stats.n_input == 9
    assert stats.n_after_quality == 8
    assert stats.n_groups == 2
    assert stats.n_groups_ready == 1
    by_key = {g.key: g for g in groups}
    assert len(by_key["0000000001"]) == 6
    assert len(by_key["0000000002"]) == 2
    assert all(fp.ref_elev == 100.0 for fp in by_key["0000000001"].footprints)


def test_pipeline_stats_empty_stage_naming():
    dem = flat_grid(16)
    bad = [make_footprint(0, sensitivity=0.3, gedi_dem=None)]
    _, stats = prepare_groups(bad, dem)
    assert stats.n_after_attach == 0
    assert stats.empty_stage() == "quality filters"

    off_dem = [make_footprint(0, x=900.0, y=900.0, gedi_dem=None)]
    _, stats2 = prepare_groups(off_dem, dem)
    assert stats2.empty_stage() == "reference attachment"


def test_parse_round_trip_from_synthetic(tmp_path):
    from terralign import TerrainSpec, gen_terrain
    from terralign.synthetic import TrackSpec, gen_track
    from terralign.cli import main

    main(["simulate", "--out", str(tmp_path), "--rows", "96", "--cols", "96",
          "--cell-size", "8", "--n-footprints", "8", "--spacing", "30",
          "--dx", "3", "--dy", "-2"])
    text = (tmp_path / "footprints.csv").read_text()
    fps, stats = parse_footprints(io.StringIO(text))
    assert stats.n_dropped_na == 0 and stats.n_dropped_bad_numeric == 0
    assert len(fps) == 8

    terrain = gen_terrain(TerrainSpec(kind="gaussian_hills", n_rows=96, n_cols=96, cell_size=8.0, relief=150.0, seed=0))
    spec = TrackSpec(n_footprints=8, spacing=30.0, heading=0.0, planted_dx=3.0, planted_dy=-2.0, seed=1)
    clean = gen_track(terrain, spec)
    from terralign.synthetic import plant_offset

    observed = plant_offset(clean, spec)
    for got, want in zip(fps, observed.footprints):
        assert got.shot_number == want.shot_number
        assert got.x == want.x and got.y == want.y
        assert got.elev_lowestmode == want.elev_lowestmode
