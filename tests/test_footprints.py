"""Footprint parsing, quality filters, outlier rejection, grouping, attachment."""

import csv
import gc
import io
import math
import tracemalloc

import numpy as np
import pytest

from terralign import CrsMismatchError, FootprintError, QualityRules, parse_footprints, prepare_groups
from terralign.footprints import (
    _TREE_COVER,
    COLUMNS,
    MIN_GROUP_SIZE,
    REQUIRED_COLUMNS,
    FootprintTable,
    ParseStats,
    PipelineStats,
    _is_na,
    apply_geoid,
    attach_reference,
    filter_quality,
    flag_rolling_outliers,
    group_by_shot,
    remove_outliers,
    split_groups,
)

from terralign.raster import AggregationKind, aggregate_buffer_points

from conftest import flat_grid, make_footprint, make_grid, make_group, make_table

CSV_HEADER = "shot_number,beam,x,y,elev_lowestmode,degrade_flag,quality_flag,sensitivity,rh100\n"


def row(shot="00000000010001", x=5.0, y=5.0, elev=100.0, degrade=0, quality=1, sens=0.98, rh=10.0):
    return f"{shot},BEAM0101,{x},{y},{elev},{degrade},{quality},{sens},{rh}\n"


def test_parse_well_formed_rows():
    text = CSV_HEADER + row("00000000010001") + row("00000000010002") + row("00000000020001")
    fps, stats = parse_footprints(io.StringIO(text))
    assert len(fps) == 3
    assert stats.n_rows == 3
    assert stats.n_dropped_na == 0
    assert fps.shot_number[0] == "00000000010001"
    assert fps.x[0] == 5.0 and fps.elev_lowestmode[0] == 100.0


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


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
@pytest.mark.parametrize("flag", ["degrade", "quality"])
def test_parse_counts_infinite_flags_as_bad_numeric(flag, value):
    text = CSV_HEADER + row() + row("00000000010002", **{flag: value})
    fps, stats = parse_footprints(io.StringIO(text))
    assert len(fps) == 1 and fps.shot_number.tolist() == ["00000000010001"]
    assert stats.n_dropped_bad_numeric == 1


def test_parse_missing_column_raises():
    text = "shot_number,beam,x,y\n00000000010001,BEAM0101,1,2\n"
    with pytest.raises(FootprintError) as err:
        parse_footprints(io.StringIO(text))
    assert "elev_lowestmode" in str(err.value)


def test_parse_preserves_raw_columns():
    text = "extra," + CSV_HEADER[:-1] + "\nfoo," + row()[:-1] + "\n"
    fps, _ = parse_footprints(io.StringIO(text))
    assert fps.cells.header == ("extra",) + tuple(CSV_HEADER[:-1].split(","))
    cells = dict(zip(fps.cells.header, fps.cells.rows[fps.row[0]]))
    assert cells["extra"] == "foo"
    assert cells["x"] == "5.0"


def test_parse_keeps_rows_the_cyclic_gc_untracks():
    """The kept rows hold only strings, so a collection stops tracking them
    and later collections do not rescan a large table's rows."""
    text = CSV_HEADER[:-1] + ",note\n" + row()[:-1] + ",a\n" + row("00000000010002")  # the last row is padded
    fps, _ = parse_footprints(io.StringIO(text))
    gc.collect()
    assert [r[-1] for r in fps.cells.rows] == ["a", ""]
    assert not any(gc.is_tracked(r) for r in fps.cells.rows)


def test_parse_skips_blank_lines_without_counting_them():
    text = CSV_HEADER + row("00000000010001") + "\n" + row("00000000010002") + "\n\n"
    fps, stats = parse_footprints(io.StringIO(text))
    assert len(fps) == 2
    assert stats.n_rows == 2


def test_parse_rejects_a_repeated_column():
    text = CSV_HEADER[:-1] + ",x\n" + row()[:-1] + ",55.5\n"
    with pytest.raises(FootprintError, match="repeated column.*'x'"):
        parse_footprints(io.StringIO(text))
    text = "note,note," + CSV_HEADER + "a,b," + row()
    with pytest.raises(FootprintError, match="'note'"):
        parse_footprints(io.StringIO(text))


def test_parse_undecodable_text_is_footprint_error(tmp_path):
    path = tmp_path / "fps.csv"
    path.write_bytes((CSV_HEADER + row()).encode() + b"\xff\xfe" + row().encode())
    with path.open(newline="", encoding="utf-8") as fh:
        with pytest.raises(FootprintError, match=f"^{path}: undecodable text after line"):
            parse_footprints(fh, source=str(path))


def test_quality_filter_boundaries():
    rules = QualityRules()
    keep = make_footprint(0, sensitivity=0.95)
    drop_sens = make_footprint(1, sensitivity=0.949)
    drop_elev = make_footprint(2, elev=2500.0)
    keep_elev = make_footprint(3, elev=2499.9)
    drop_zero = make_footprint(4, elev=0.0)
    out = filter_quality(make_table([keep, drop_sens, drop_elev, keep_elev, drop_zero]), rules)
    assert list(out.shot_number) == [keep["shot_number"], keep_elev["shot_number"]]


def test_quality_filter_flags_and_rh100():
    rules = QualityRules()
    assert len(filter_quality(make_table([make_footprint(0)]), rules)) == 1
    assert len(filter_quality(make_table([make_footprint(0, degrade=1)]), rules)) == 0
    assert len(filter_quality(make_table([make_footprint(0, quality=0)]), rules)) == 0
    assert len(filter_quality(make_table([make_footprint(0, rh100=0.0)]), rules)) == 0
    assert len(filter_quality(make_table([make_footprint(0, rh100=-3.0)]), rules)) == 0


def test_quality_filter_tree_cover_rule():
    fp_none = make_footprint(0)
    fp_true = make_footprint(1, tree_cover=True)
    fp_false = make_footprint(2, tree_cover=False)
    table = make_table([fp_none, fp_true, fp_false])
    np.testing.assert_array_equal(table.tree_cover, [np.nan, 1.0, 0.0])
    default = filter_quality(table, QualityRules())
    assert list(default.row) == [0, 1, 2]
    strict = filter_quality(table, QualityRules(require_tree_cover=True))
    assert list(strict.row) == [1]


def test_quality_filter_idempotent(rng):
    fps = make_table([
        make_footprint(
            i,
            elev=float(rng.uniform(-100.0, 3000.0)),
            degrade=int(rng.integers(0, 2)),
            quality=int(rng.integers(0, 2)),
            sensitivity=float(rng.uniform(0.8, 1.0)),
            rh100=float(rng.uniform(-5.0, 40.0)),
        )
        for i in range(300)
    ])
    rules = QualityRules()
    once = filter_quality(fps, rules)
    assert 0 < len(once) < len(fps)
    np.testing.assert_array_equal(filter_quality(once, rules).row, once.row)


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
    for starts in ([], [1], [0, 6], [0, 3, 2]):
        with pytest.raises(ValueError, match="starts"):
            flag_rolling_outliers(np.zeros(5), starts=starts)


def test_rolling_outliers_window_wider_than_any_index():
    # 10**20 // 2 does not fit an int64 index; any window of 2n + 1 or more covers every piece
    series = np.array([10.0, 10.5, 9.5, 10.0, 60.0, 10.0, 10.2, 3.0, 3.1, 2.9, 3.0, -40.0, 3.0])
    starts = [0, 7]
    wide = flag_rolling_outliers(series, window=10**20 + 1, k=1.5, starts=starts)
    whole = flag_rolling_outliers(series, window=2 * series.size + 1, k=1.5, starts=starts)
    np.testing.assert_array_equal(wide, whole)
    assert list(np.flatnonzero(whole)) == [4, 11]


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
    fps = make_table([make_footprint(0, x=8.0, y=8.0, elev=120.0, gedi_dem=None)])
    out = apply_geoid(fps, geoid)
    assert out.gedi_dem[0] == 80.0


def test_apply_geoid_zero_grid_is_identity():
    geoid = flat_grid(16, value=0.0)
    fps = make_table([make_footprint(i, x=4.0 + i, y=8.0, elev=100.0 + i, gedi_dem=None) for i in range(5)])
    out = apply_geoid(fps, geoid)
    assert list(out.gedi_dem) == list(out.elev_lowestmode)


def test_apply_geoid_drops_outside_extent():
    geoid = flat_grid(16, value=0.0)
    inside = make_footprint(0, x=8.0, y=8.0, gedi_dem=None)
    outside = make_footprint(1, x=99.0, y=8.0, gedi_dem=None)
    out = apply_geoid(make_table([inside, outside]), geoid)
    assert len(out) == 1 and out.shot_number[0] == inside["shot_number"]


def test_apply_geoid_none_passthrough():
    fps = make_table([make_footprint(0, elev=123.0, gedi_dem=None)])
    out = apply_geoid(fps, None)
    assert out.gedi_dem[0] == 123.0
    assert np.isnan(fps.gedi_dem[0])  # a new table, never the caller's


def test_apply_geoid_none_passes_parsed_footprints_through():
    fps, _ = parse_footprints(io.StringIO(CSV_HEADER + row(elev=101.5) + row(elev=99.0)))
    assert list(fps.gedi_dem) == [101.5, 99.0]
    out = apply_geoid(fps, None)
    assert list(out.gedi_dem) == [101.5, 99.0] and out.cells is fps.cells
    with_geoid = apply_geoid(fps, flat_grid(16, value=1.0))
    assert list(with_geoid.gedi_dem) == [100.5, 98.0]
    assert list(fps.gedi_dem) == [101.5, 99.0]


def test_group_by_shot_prefix_partition():
    fps = make_table([
        make_footprint(1, key="KLMNOPQRST"),
        make_footprint(1, key="ABCDEFGHIJ"),
        make_footprint(2, key="ABCDEFGHIJ"),
    ])
    groups = split_groups(*group_by_shot(fps))
    assert [g.key for g in groups] == ["ABCDEFGHIJ", "KLMNOPQRST"]
    assert [len(g) for g in groups] == [2, 1]


def test_group_by_shot_empty():
    table, keys = group_by_shot(make_table([]))
    assert keys == [] and len(table) == 0 and split_groups(table, keys) == []


def test_group_by_shot_short_key_raises():
    fp = make_footprint(0)
    fp["shot_number"] = "SHORT"
    with pytest.raises(FootprintError, match="'SHORT'"):
        group_by_shot(make_table([make_footprint(1), fp]))


def test_group_by_shot_is_partition(rng):
    fps = make_table([
        make_footprint(int(rng.integers(0, 99999)), key=f"{rng.integers(0, 20):010d}")
        for _ in range(1000)
    ])
    groups = split_groups(*group_by_shot(fps))
    merged = np.concatenate([g.row for g in groups])
    assert sorted(merged) == list(range(1000))
    assert [g.key for g in groups] == sorted(g.key for g in groups)
    for g in groups:
        assert all(shot[:10] == g.key for shot in g.shot_number)
        # within-group order preserves input order
        assert list(g.row) == sorted(g.row)
        np.testing.assert_array_equal(g.x, fps.x[g.row])


def test_attach_reference_constant_dem():
    dem = flat_grid(64)
    group = make_group([30.0, 32.0, 34.0], [30.0, 30.0, 30.0], [100.0, 100.0, 100.0])
    out = attach_reference(group.table, dem)
    assert len(out) == 3
    assert list(out.ref_elev) == [100.0] * 3


def test_attach_reference_dem_diff_threshold():
    dem = flat_grid(64, value=151.0)
    group = make_group([30.0], [30.0], [100.0])
    assert len(attach_reference(group.table, dem)) == 0

    dem_close = flat_grid(64, value=149.9)
    assert len(attach_reference(group.table, dem_close)) == 1


def test_attach_reference_drops_uncovered():
    dem = flat_grid(32)
    group = make_group([16.0, 500.0], [16.0, 500.0], [100.0, 100.0])
    out = attach_reference(group.table, dem)
    assert len(out) == 1 and out.x[0] == 16.0


def test_remove_outliers_prunes_gedi_dem_spike():
    elevs = [10.0, 10.0, 10.0, 100.0, 10.0, 10.0, 10.0]
    group = make_group(list(range(7)), [0.0] * 7, elevs)
    out = remove_outliers(group.table, window=7, k=2.0)
    assert len(out) == 6
    assert list(out.gedi_dem) == [10.0] * 6


def test_prepare_groups_end_to_end():
    dem = flat_grid(128)
    fps = []
    for i in range(6):
        fps.append(make_footprint(i, key="0000000001", x=30.0 + 4 * i, y=40.0, elev=100.0, gedi_dem=None))
    for i in range(2):
        fps.append(make_footprint(i, key="0000000002", x=60.0, y=60.0 + 4 * i, elev=100.0, gedi_dem=None))
    fps.append(make_footprint(0, key="0000000003", x=30.0, y=30.0, elev=2600.0, gedi_dem=None))
    groups, stats = prepare_groups(make_table(fps), dem)
    assert stats.n_input == 9
    assert stats.n_after_quality == 8
    assert stats.n_groups == 2
    assert stats.n_groups_ready == 1
    by_key = {g.key: g for g in groups}
    assert len(by_key["0000000001"]) == 6
    assert len(by_key["0000000002"]) == 2
    assert list(by_key["0000000001"].ref_elev) == [100.0] * 6


def test_pipeline_stats_empty_stage_naming():
    dem = flat_grid(16)
    bad = make_table([make_footprint(0, sensitivity=0.3, gedi_dem=None)])
    _, stats = prepare_groups(bad, dem)
    assert stats.n_after_attach == 0
    assert stats.empty_stage() == "quality filters"

    off_dem = make_table([make_footprint(0, x=900.0, y=900.0, gedi_dem=None)])
    _, stats2 = prepare_groups(off_dem, dem)
    assert stats2.empty_stage() == "reference attachment"


def crs_grid(tag, value):
    grid = flat_grid(64, value=value)
    grid.crs_tag = tag
    return grid


def crs_table(degrade=0):
    return make_table([make_footprint(i, x=20.0 + 4 * i, y=30.0, degrade=degrade, gedi_dem=None) for i in range(4)])


@pytest.mark.parametrize("degrade", [0, 1])  # 1: the quality filters drop every row
@pytest.mark.parametrize(
    ("dem_tag", "geoid_tag", "context"),
    [
        ("EPSG:4326", "", "DEM vs footprints"),
        ("", "EPSG:4326", "geoid vs footprints"),
        ("EPSG:4326", "EPSG:4326", "DEM vs footprints"),
    ],
)
def test_prepare_groups_rejects_a_crs_unlike_the_footprints(dem_tag, geoid_tag, context, degrade):
    dem, geoid = crs_grid(dem_tag, 100.0), crs_grid(geoid_tag, 0.0)
    with pytest.raises(CrsMismatchError, match=rf"^CRS mismatch \({context}\): 'EPSG:4326' vs 'EPSG:32654'$"):
        prepare_groups(crs_table(degrade), dem, geoid=geoid, footprint_crs="EPSG:32654")


@pytest.mark.parametrize(
    ("dem_tag", "geoid_tag", "footprint_crs"),
    [
        ("", "", "EPSG:32654"),
        ("EPSG:32654", "", "EPSG:32654"),
        ("", "EPSG:32654", "EPSG:32654"),
        ("EPSG:32654", "EPSG:32654", ""),
        ("EPSG:4326", "EPSG:32654", ""),
    ],
)
def test_prepare_groups_empty_crs_tag_matches_any(dem_tag, geoid_tag, footprint_crs):
    dem, geoid = crs_grid(dem_tag, 100.0), crs_grid(geoid_tag, 0.0)
    groups, stats = prepare_groups(crs_table(), dem, geoid=geoid, footprint_crs=footprint_crs)
    assert stats.n_groups_ready == 1 and len(groups[0]) == 4


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
    assert list(fps.shot_number) == list(observed.shot_number)
    np.testing.assert_array_equal(fps.x, observed.x)
    np.testing.assert_array_equal(fps.y, observed.y)
    np.testing.assert_array_equal(fps.elev_lowestmode, observed.elev_lowestmode)


def reference_parse(text):
    """The per-row parser that `parse_footprints` replaced, kept as its reference.

    Returns the header, the kept rows, their stripped shot numbers, one
    float64 column per numeric field (x, y, elev, degrade, quality,
    sensitivity, rh100, tree_cover) and the ParseStats.
    """
    rows = csv.reader(io.StringIO(text))
    header = next(rows)
    width = len(header)
    required = [header.index(c) for c in REQUIRED_COLUMNS]
    i_shot, _, i_x, i_y, i_elev, i_degrade, i_quality, i_sens, i_rh100 = required
    i_tree = header.index("tree_cover") if "tree_cover" in header else None
    kept, shots, values = [], [], []
    stats = ParseStats()
    for cells in rows:
        if not cells:
            continue
        stats.n_rows += 1
        if len(cells) != width:
            cells = cells[:width] + [""] * (width - len(cells))
        if any(_is_na(cells[i]) for i in required):
            stats.n_dropped_na += 1
            continue
        try:
            x = float(cells[i_x])
            y = float(cells[i_y])
            elev = float(cells[i_elev])
            degrade = int(float(cells[i_degrade]))
            quality = int(float(cells[i_quality]))
            sens = float(cells[i_sens])
            rh100 = float(cells[i_rh100])
        except (ValueError, OverflowError):
            stats.n_dropped_bad_numeric += 1
            continue
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(elev)):
            stats.n_dropped_bad_numeric += 1
            continue
        tree_cover = math.nan
        if i_tree is not None and not _is_na(cells[i_tree]):
            tree_cover = _TREE_COVER.get(cells[i_tree].strip().lower())
            if tree_cover is None:
                stats.n_dropped_bad_numeric += 1
                continue
        kept.append(cells)
        shots.append(cells[i_shot].strip())
        values.append((x, y, elev, degrade, quality, sens, rh100, tree_cover))
    columns = np.array(values, dtype=np.float64).reshape(-1, 8).T.copy()
    return header, kept, shots, columns, stats


NA_CELLS = ["", " ", "NA", " na ", "nan", "NaN", "nAN", " nan　", "NULL", "null", "None", " NONE\t"]
NUMERIC_CELLS = [
    "-nan", "+nan", " -NaN ", "inf", "-inf", "Infinity", "1e400", "-1e400", "1_0", "-0.5", "0.5", "-0.0",
    "0", "1", "2.9", "-3.7", " 12.25 ", " 4.5 ", "oops", "1.2.3", "0x10", "nana", "İ", "K",
]
TREE_CELLS = ["1", "0", "true", "FALSE", " True ", "tRuE", "yes", "2", "1.0"]


def random_cell(rng, column):
    """A cell of `column`: mostly valid, often NA or odd."""
    u = rng.random()
    if u < 0.08:
        return str(rng.choice(NA_CELLS))
    if column == "shot_number":
        return f"{int(rng.integers(0, 4)):010d}{int(rng.integers(0, 10**5)):05d}" + (" " if u < 0.2 else "")
    if column == "beam":
        return "BEAM0101" if u < 0.9 else "N/A"
    if column == "tree_cover":
        return str(rng.choice(TREE_CELLS))
    if column == "note":
        return "a,b" if u < 0.5 else "x"
    if u < 0.25:
        return str(rng.choice(NUMERIC_CELLS))
    if column in ("degrade_flag", "quality_flag"):
        return str(int(rng.integers(0, 2)))
    return repr(float(rng.normal(100.0, 50.0)))


def random_footprint_csv(rng):
    """A footprint CSV with shuffled columns, ragged rows and blank lines."""
    header = list(REQUIRED_COLUMNS)
    if rng.random() < 0.6:
        header.append("tree_cover")
    if rng.random() < 0.5:
        header.append("note")
    header = [header[i] for i in rng.permutation(len(header))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for _ in range(int(rng.integers(0, 30))):
        if rng.random() < 0.05:
            buf.write("\n")
            continue
        row = [random_cell(rng, c) for c in header]
        u = rng.random()
        if u < 0.05:
            row = row[: int(rng.integers(1, len(row)))]
        elif u < 0.1:
            row += ["extra"] * int(rng.integers(1, 3))
        writer.writerow(row)
    return buf.getvalue()


def test_columnar_parse_matches_the_per_row_parser_bit_for_bit():
    rng = np.random.default_rng(2026)
    fields = ("x", "y", "elev_lowestmode", "degrade_flag", "quality_flag", "sensitivity", "rh100", "tree_cover")
    for _ in range(600):
        text = random_footprint_csv(rng)
        header, kept, shots, columns, stats = reference_parse(text)
        table, got_stats = parse_footprints(io.StringIO(text))
        assert got_stats == stats, text
        assert table.cells.header == tuple(header) and table.cells.rows == [tuple(r) for r in kept], text
        assert table.shot_number.tolist() == shots and table.row.tolist() == list(range(len(kept)))
        for name, want in zip(fields, columns):
            assert getattr(table, name).tobytes() == want.tobytes(), (name, text)
        assert table.gedi_dem.tobytes() == columns[2].tobytes()
        assert np.isnan(table.ref_elev).all() and not table.group_id.any()


def per_group_prepare(table, dem, geoid, rules, radius, agg):
    """`prepare_groups` as the composition of its stages, applied one group at
    a time: the outlier rule on each group's series alone, and the reference
    from one kernel call per group."""
    kept = apply_geoid(filter_quality(table, rules), geoid)
    stats = PipelineStats(n_input=len(table), n_after_quality=len(filter_quality(table, rules)))
    stats.n_after_geoid = len(kept)
    prefixes = [s[:10] for s in kept.shot_number]
    keys = sorted(set(prefixes))
    groups = []
    for key in keys:
        group = kept.take(np.array([i for i, p in enumerate(prefixes) if p == key], dtype=np.int64))
        group = group.take(~flag_rolling_outliers(group.gedi_dem, rules.outlier_window, rules.outlier_k))
        stats.n_after_outliers += len(group)
        refs = aggregate_buffer_points(dem, group.x, group.y, radius, agg)
        group = group.take(np.isfinite(refs) & (np.abs(group.gedi_dem - refs) <= rules.max_dem_diff), ref_elev=refs)
        stats.n_after_attach += len(group)
        groups.append((key, group))
    stats.n_groups = len(keys)
    stats.n_groups_ready = sum(1 for _, g in groups if len(g) >= MIN_GROUP_SIZE)
    return groups, stats


def ragged_scene(rng):
    """A 2 m DEM near 100 m with some nodata cells, and up to 12 groups of 0
    to 60 footprints, shuffled together. Each group has its own level, so a
    window that crossed into the next group would flag other footprints, and
    elevation spikes; some lie off the DEM or 80 m above it, so a stage
    empties them."""
    values = rng.normal(100.0, 2.0, (60, 60))
    values[rng.random(values.shape) < 0.03] = np.nan
    dem = make_grid(values, cell=2.0)
    fps = []
    for g in range(int(rng.integers(1, 13))):
        n = int(rng.choice([0, 1, 2, 3, 5, 17, 60]))
        x0, y0 = rng.uniform(10.0, 110.0, 2)
        base = 180.0 if rng.random() < 0.15 else float(rng.uniform(75.0, 125.0))
        if rng.random() < 0.1:
            x0 = 500.0  # off the DEM: every reference is NaN
        for i in range(n):
            elev = base + float(rng.normal(0.0, 1.0)) + (15.0 if rng.random() < 0.1 else 0.0)
            fps.append(make_footprint(
                i, key=f"{g:010d}", x=x0 + 0.7 * i, y=y0 + 0.3 * i, elev=elev, gedi_dem=None,
                sensitivity=0.9 if rng.random() < 0.05 else 0.98,
            ))
    table = make_table([fps[i] for i in rng.permutation(len(fps))]) if fps else make_table([])
    geoid = make_grid(np.full((8, 8), 1.5), cell=20.0) if rng.random() < 0.5 else None
    return table, dem, geoid


@pytest.mark.parametrize("agg", list(AggregationKind))
def test_prepare_groups_matches_the_per_group_stages_bit_for_bit(agg):
    rng = np.random.default_rng(7)
    rules = QualityRules()
    emptied = flagged = 0
    for _ in range(60):
        table, dem, geoid = ragged_scene(rng)
        groups, stats = prepare_groups(table, dem, geoid=geoid, rules=rules, radius=3.0, agg=agg)
        want, want_stats = per_group_prepare(table, dem, geoid, rules, 3.0, agg)
        assert stats == want_stats
        assert [g.key for g in groups] == [key for key, _ in want]
        for i, (group, (_, ref)) in enumerate(zip(groups, want)):
            assert group.group_id.tolist() == [i] * len(group)
            for name in COLUMNS:
                if name != "group_id":
                    assert getattr(group, name).tobytes() == getattr(ref, name).tobytes(), name
        emptied += sum(1 for g in groups if len(g) == 0)
        flagged += stats.n_after_geoid - stats.n_after_outliers
    assert emptied > 0 and flagged > 0  # the scenes exercise both dropping stages


def test_prepare_groups_memory_stays_linear_in_the_footprints():
    """One group of 50,000 footprints beside 5,000 groups of 3: the peak stays
    a small multiple of the table, where a (groups x longest group) layout
    would need about 2 GB."""
    sizes = [50_000] + [3] * 5_000
    n = sum(sizes)
    shots = np.array([f"{g:010d}{i:05d}" for g, size in enumerate(sizes) for i in range(size)], dtype=object)
    rng = np.random.default_rng(3)
    elev = np.full(n, 100.0)
    table = FootprintTable(
        x=rng.uniform(10.0, 50.0, n), y=rng.uniform(10.0, 50.0, n), elev_lowestmode=elev, gedi_dem=elev,
        ref_elev=np.full(n, np.nan), degrade_flag=np.zeros(n), quality_flag=np.ones(n),
        sensitivity=np.full(n, 0.98), rh100=np.full(n, 10.0), tree_cover=np.full(n, np.nan),
        shot_number=shots, row=np.arange(n), group_id=np.zeros(n, dtype=np.int64),
    )
    table_bytes = sum(getattr(table, name).nbytes for name in COLUMNS)
    dem = flat_grid(64)
    tracemalloc.start()
    try:
        groups, stats = prepare_groups(table, dem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.n_groups == 5_001 and stats.n_after_attach == n
    assert [len(g) for g in groups[:2]] == [50_000, 3]
    assert peak < 6 * table_bytes, (peak, table_bytes)
