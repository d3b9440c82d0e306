"""End-to-end CLI workflows and exit-code contracts."""

import argparse
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import terralign
import terralign.optimize
from terralign.cli import build_parser, main
from terralign.geotiff import write_geotiff
from terralign.raster import aggregate_buffer_points, load_raster

from conftest import flat_grid, make_grid


def run(args):
    return main([str(a) for a in args])


def write_flat_scene(tmp_path, crs_dem="", crs_geoid=None, sensitivity=0.98):
    dem = flat_grid(64, value=100.0)
    dem.crs_tag = crs_dem
    dem_path = tmp_path / "dem.tif"
    write_geotiff(dem, dem_path)
    rows = ["shot_number,beam,x,y,elev_lowestmode,degrade_flag,quality_flag,sensitivity,rh100"]
    for i in range(4):
        rows.append(f"000000000100{i:03d},BEAM0101,{26.0 + 4 * i},30.0,100.0,0,1,{sensitivity},10.0")
    fps_path = tmp_path / "fps.csv"
    fps_path.write_text("\n".join(rows) + "\n")
    geoid_path = None
    if crs_geoid is not None:
        geoid = flat_grid(64, value=0.0)
        geoid.crs_tag = crs_geoid
        geoid_path = tmp_path / "geoid.tif"
        write_geotiff(geoid, geoid_path)
    return dem_path, fps_path, geoid_path


def test_cli_import_defers_scipy_optimize():
    src = str(Path(terralign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, terralign.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "correct" in capsys.readouterr().out


def test_run_flags_keep_their_option_strings():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    expected = [
        "--agg", "--config", "--dem", "--footprints", "--ga-blend-alpha", "--ga-crossover-rate",
        "--ga-elitism", "--ga-generations", "--ga-mutation-rate", "--ga-mutation-sigma", "--ga-pop",
        "--ga-tournament-size", "--geoid", "--grid-step", "--help", "--lbfgsb-fd-step",
        "--lbfgsb-history", "--lbfgsb-max-iter", "--lbfgsb-starts", "--lbfgsb-tol", "--max-dem-diff",
        "--max-dx", "--max-dy", "--max-elev", "--methods", "--metrics", "--min-elev",
        "--min-sensitivity", "--out", "--outlier-k", "--outlier-window", "--pso-cognitive",
        "--pso-inertia", "--pso-iterations", "--pso-social", "--pso-swarm", "--radius",
        "--require-tree-cover", "--seed", "--workers", "-h",
    ]
    for command in ("correct", "bench"):
        actions = sub.choices[command]._actions
        assert sorted(s for a in actions for s in a.option_strings) == expected


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run(["correct", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_method_is_usage_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    rc = run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "o", "--methods", "sgd"])
    assert rc == 1
    assert "sgd" in capsys.readouterr().err


def test_missing_required_inputs_is_usage_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    assert run(["correct", "--footprints", fps, "--out", tmp_path / "o"]) == 1
    assert run(["correct", "--dem", dem, "--out", tmp_path / "o"]) == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    rc = run(["correct", "--dem", tmp_path / "nope.tif", "--footprints", fps, "--out", tmp_path / "o"])
    assert rc == 2


def test_dead_worker_is_data_error(tmp_path, capsys, monkeypatch):
    scene = tmp_path / "scene"
    assert run(["simulate", "--out", scene, "--rows", 96, "--cols", 96, "--cell-size", 4,
                "--n-groups", 2, "--n-footprints", 8, "--spacing", 20]) == 0
    solve = terralign.optimize.correct_group

    def die_in_worker(group, *args, **kwargs):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return solve(group, *args, **kwargs)

    monkeypatch.setattr(terralign.optimize, "correct_group", die_in_worker)
    capsys.readouterr()
    rc = run(["correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
              "--out", tmp_path / "o", "--workers", 2])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("error:")]) == 1
    assert "Traceback" not in "\n".join(err)
    assert multiprocessing.active_children() == []


def test_crs_mismatch_is_data_error_naming_tags(tmp_path, capsys):
    dem, fps, geoid = write_flat_scene(tmp_path, crs_dem="EPSG:32654", crs_geoid="EPSG:4326")
    rc = run([
        "correct", "--dem", dem, "--geoid", geoid, "--footprints", fps, "--out", tmp_path / "o",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "EPSG:32654" in err and "EPSG:4326" in err


def test_empty_pipeline_names_the_filter(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path, sensitivity=0.5)
    rc = run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "o"])
    assert rc == 2
    assert "quality filters" in capsys.readouterr().err


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text("not a config\n")
    assert run(["correct", "--config", cfg]) == 1
    cfg.write_text("unknown_key = 1\n")
    assert run(["correct", "--config", cfg]) == 1


def test_simulate_writes_scene(tmp_path):
    out = tmp_path / "scene"
    rc = run([
        "simulate", "--out", out, "--terrain", "gaussian_hills", "--rows", 128, "--cols", 128,
        "--cell-size", 4, "--relief", 120, "--n-groups", 3, "--n-footprints", 8,
        "--spacing", 25, "--dx", -6, "--dy", 2, "--track-seed", 5,
    ])
    assert rc == 0
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["groups"]) == 3
    with (out / "footprints.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    keys = {r["shot_number"][:10] for r in rows}
    assert keys == set(truth["groups"])
    assert (out / "terrain.asc").exists()


SIMULATE_FLOAT_FLAGS = ("cell-size", "spacing", "relief", "noise-sd", "heading", "dx", "dy")


@pytest.mark.parametrize(
    ("flag", "value"),
    [(flag, value) for flag in SIMULATE_FLOAT_FLAGS for value in ("nan", "inf", "-inf")]
    + [("cell-size", "0"), ("cell-size", "-4"), ("spacing", "0"), ("relief", "-1"), ("noise-sd", "-0.5")],
)
def test_simulate_bad_float_flag_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "scene"
    assert run(["simulate", "--out", out, "--rows", 32, "--cols", 32, f"--{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: must be ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    ("flag", "value"),
    [("dx", "30"), ("dy", "-26"), ("n-footprints", "2"), ("rows", "0"), ("cols", "-3"), ("n-groups", "0")],
)
def test_simulate_bad_spec_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "scene"
    assert run(["simulate", "--out", out, "--rows", 32, "--cols", 32, f"--{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_simulate_track_that_does_not_fit_writes_nothing(tmp_path, capsys):
    out = tmp_path / "scene"
    # 20 footprints 60 m apart cannot cross 32 cells of 5 m
    assert run(["simulate", "--out", out, "--rows", 32, "--cols", 32]) == 2
    assert "does not fit" in capsys.readouterr().err
    assert not out.exists()


def test_correct_recovers_simulated_offsets(tmp_path):
    scene = tmp_path / "scene"
    out = tmp_path / "run"
    assert run([
        "simulate", "--out", scene, "--terrain", "gaussian_hills", "--rows", 256, "--cols", 256,
        "--cell-size", 2.5, "--relief", 150, "--n-groups", 2, "--n-footprints", 10,
        "--spacing", 25, "--dx", 7, "--dy", -4, "--track-seed", 3,
    ]) == 0
    assert run([
        "correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
        "--out", out, "--methods", "grid,lbfgsb", "--metrics", "euclidean",
    ]) == 0

    truth = json.loads((scene / "truth.json").read_text())
    for name, tol in (("corrected_grid_euclidean.csv", 3.6), ("corrected_lbfgsb_euclidean.csv", 1.5)):
        with (out / name).open() as fh:
            rows = list(csv.DictReader(fh))
        by_group = {}
        for r in rows:
            by_group.setdefault(r["group_key"], r)
        assert set(by_group) == set(truth["groups"])
        for key, r in by_group.items():
            planted = truth["groups"][key]
            err = math.hypot(
                float(r["dx_m"]) + planted["planted_dx"],
                float(r["dy_m"]) + planted["planted_dy"],
            )
            assert err <= tol, (name, key, err)


def test_corrected_csv_appends_columns_and_preserves_input(tmp_path):
    dem, fps, _ = write_flat_scene(tmp_path)
    out = tmp_path / "run"
    assert run(["correct", "--dem", dem, "--footprints", fps, "--out", out]) == 0
    with (out / "corrected_grid_euclidean.csv").open() as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames
        rows = list(reader)
    assert fields[:9] == [
        "shot_number", "beam", "x", "y", "elev_lowestmode",
        "degrade_flag", "quality_flag", "sensitivity", "rh100",
    ]
    assert fields[9:] == [
        "group_key", "dx_m", "dy_m", "x_corrected", "y_corrected",
        "ref_elev_before", "ref_elev_after", "method", "metric",
    ]
    for r in rows:
        assert float(r["x_corrected"]) == float(r["x"]) + float(r["dx_m"])
        assert float(r["y_corrected"]) == float(r["y"]) + float(r["dy_m"])
        assert r["method"] == "grid" and r["metric"] == "euclidean"
        assert r["sensitivity"] == "0.98"  # input text preserved verbatim


def test_report_files_and_effective_config(tmp_path):
    dem, fps, _ = write_flat_scene(tmp_path)
    out = tmp_path / "run"
    assert run([
        "correct", "--dem", dem, "--footprints", fps, "--out", out,
        "--metrics", "euclidean,area", "--seed", 9, "--grid-step", 2.5,
    ]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 1 + 1 + 2  # header, original, two metric rows
    assert report[0].split(",")[0] == "method"
    assert all(line.endswith(",") for line in report[1:])  # timing blanked
    payload = json.loads((out / "report.json").read_text())
    assert [r["metric"] for r in payload] == ["", "euclidean", "area"]
    eff = (out / "effective_config.toml").read_text()
    assert "seed = 9" in eff
    assert "grid_step = 2.5" in eff
    assert (out / "report.txt").exists()

    from terralign.config import load_config

    cfg = load_config(eff)
    assert cfg.seed == 9 and cfg.optimizer.grid_step == 2.5


def test_config_file_with_cli_override(tmp_path):
    dem, fps, _ = write_flat_scene(tmp_path)
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(
        f'dem_path = "{dem}"\nfootprints_path = "{fps}"\nseed = 4\nworkers = 2\n'
        '[optimizer.ga]\npop = 20\n'
    )
    out = tmp_path / "run"
    assert run(["correct", "--config", cfg_path, "--out", out, "--seed", 11]) == 0
    eff = (out / "effective_config.toml").read_text()
    assert "seed = 11" in eff  # flag beats file
    assert "workers = 2" in eff  # file value survives
    assert "pop = 20" in eff


REPORT_FILES = ("report.csv", "report.json", "report.txt")


def edit_group_rows(path, key, edit):
    """Rewrite the footprint CSV rows of group `key` with `edit(rows)`."""
    header, *rows = path.read_text().splitlines()
    group = [r for r in rows if r.startswith(key)]
    rest = [r for r in rows if not r.startswith(key)]
    path.write_text("\n".join([header] + rest + edit(group)) + "\n")


def raise_elevations(rows, by=100.0):
    out = []
    for row in rows:
        cells = row.split(",")
        cells[4] = repr(float(cells[4]) + by)
        out.append(",".join(cells))
    return out


# (simulated groups, edit of group 0000000002, (original, grid) n_groups)
EVALUATE_SCENES = {
    "one-group": (1, None, ("1", "1")),
    # two footprints: the group is skipped, so its zero offset is not summarised
    "group-below-min-size": (3, lambda rows: rows[:2], ("3", "2")),
    # 100 m above the DEM: the 50 m max_dem_diff rule drops every footprint
    "group-emptied-by-max-dem-diff": (3, raise_elevations, ("2", "2")),
}


@pytest.mark.parametrize("scene_name", sorted(EVALUATE_SCENES))
def test_evaluate_matches_correct_report(tmp_path, scene_name):
    n_groups, edit, expected_groups = EVALUATE_SCENES[scene_name]
    scene = tmp_path / "scene"
    out = tmp_path / "run"
    eval_out = tmp_path / "eval"
    assert run([
        "simulate", "--out", scene, "--rows", 192, "--cols", 192, "--cell-size", 3,
        "--relief", 130, "--n-footprints", 9, "--spacing", 25, "--dx", 5, "--dy", -3,
        "--n-groups", n_groups,
    ]) == 0
    if edit is not None:
        edit_group_rows(scene / "footprints.csv", "0000000002", edit)
    assert run([
        "correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
        "--out", out, "--methods", "grid", "--metrics", "euclidean",
    ]) == 0
    assert run([
        "evaluate", "--corrected", out / "corrected_grid_euclidean.csv",
        "--dem", scene / "terrain.asc", "--out", eval_out,
    ]) == 0
    report = list(csv.DictReader((out / "report.csv").read_text().splitlines()))
    assert tuple(r["n_groups"] for r in report) == expected_groups
    if scene_name == "group-below-min-size":
        rows = csv.DictReader((out / "corrected_grid_euclidean.csv").read_text().splitlines())
        skipped = [r for r in rows if r["group_key"] == "0000000002"]
        assert [(r["dx_m"], r["dy_m"]) for r in skipped] == [("0.0", "0.0")] * 2
        assert all(r["ref_elev_after"] == r["ref_elev_before"] != "" for r in skipped)
    for name in REPORT_FILES:
        assert (eval_out / name).read_bytes() == (out / name).read_bytes(), name


def two_combination_csv(tmp_path):
    """Simulated scene, plus the grid/euclidean and grid/area corrected CSVs
    of one `correct` run joined into one file's header and rows."""
    scene = tmp_path / "scene"
    out = tmp_path / "run"
    assert run([
        "simulate", "--out", scene, "--rows", 192, "--cols", 192, "--cell-size", 3,
        "--relief", 130, "--n-footprints", 9, "--spacing", 25, "--dx", 5, "--dy", -3,
    ]) == 0
    assert run([
        "correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
        "--out", out, "--methods", "grid", "--metrics", "euclidean,area",
    ]) == 0
    header, *rows = (out / "corrected_grid_euclidean.csv").read_text().splitlines()
    rows += (out / "corrected_grid_area.csv").read_text().splitlines()[1:]
    return scene / "terrain.asc", header, rows


def test_evaluate_joined_csv_reproduces_correct_reports(tmp_path):
    dem_path, header, rows = two_combination_csv(tmp_path)
    corrected = tmp_path / "joined.csv"
    corrected.write_text("\n".join([header] + rows) + "\n")
    assert run(["evaluate", "--corrected", corrected, "--dem", dem_path, "--out", tmp_path / "eval"]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "eval" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def test_evaluate_counts_footprints_usable_in_every_combination(tmp_path):
    dem_path, header, rows = two_combination_csv(tmp_path)
    n = len(rows) // 2
    columns = header.split(",")
    # footprint 2 loses DEM coverage in the grid/area combination only
    cells = rows[n + 2].split(",")
    cells[columns.index("x_corrected")] = "-1000000.0"
    rows[n + 2] = ",".join(cells)
    corrected = tmp_path / "joined.csv"
    corrected.write_text("\n".join([header] + rows) + "\n")
    assert run(["evaluate", "--corrected", corrected, "--dem", dem_path, "--out", tmp_path / "eval"]) == 0

    with (tmp_path / "eval" / "report.csv").open(newline="") as fh:
        report = list(csv.DictReader(fh))
    assert [(r["method"], r["metric"]) for r in report] == [
        ("original", ""), ("grid", "euclidean"), ("grid", "area"),
    ]
    assert {r["n_footprints"] for r in report} == {str(n - 1)}
    table = list(csv.DictReader([header] + rows[:n]))
    del table[2]
    x = np.array([float(r["x"]) for r in table])
    y = np.array([float(r["y"]) for r in table])
    elev = np.array([float(r["elev_lowestmode"]) for r in table])
    ref = aggregate_buffer_points(load_raster(dem_path), x, y, 12.5)
    assert report[0]["mae_m"] == f"{np.mean(np.abs(elev - ref)):.6f}"


def test_evaluate_rejects_combinations_of_different_sizes(tmp_path, capsys):
    dem_path, header, rows = two_combination_csv(tmp_path)
    corrected = tmp_path / "joined.csv"
    corrected.write_text("\n".join([header] + rows[:-1]) + "\n")
    assert run(["evaluate", "--corrected", corrected, "--dem", dem_path, "--out", tmp_path / "eval"]) == 2
    assert "different row counts" in capsys.readouterr().err


def test_evaluate_rejects_combinations_with_different_group_keys(tmp_path, capsys):
    dem_path, header, rows = two_combination_csv(tmp_path)
    columns = header.split(",")
    cells = rows[-1].split(",")
    cells[columns.index("group_key")] = "0000000099"
    rows[-1] = ",".join(cells)
    corrected = tmp_path / "joined.csv"
    corrected.write_text("\n".join([header] + rows) + "\n")
    assert run(["evaluate", "--corrected", corrected, "--dem", dem_path, "--out", tmp_path / "eval"]) == 2
    assert "group_key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["correct", "bench", "evaluate"])
def test_agg_mode_is_usage_error(tmp_path, capsys, command):
    dem, fps, _ = write_flat_scene(tmp_path)
    inputs = ["--corrected", fps] if command == "evaluate" else ["--footprints", fps]
    assert run([command, "--dem", dem, *inputs, "--out", tmp_path / "o", "--agg", "mode"]) == 1
    err = capsys.readouterr().err
    assert "--agg" in err and "'mode'" in err
    assert not (tmp_path / "o").exists()


def test_evaluate_rejects_bad_radius_as_usage_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "run"]) == 0
    corrected = tmp_path / "run" / "corrected_grid_euclidean.csv"
    for radius in ("0", "-2", "nan", "inf"):
        capsys.readouterr()
        rc = run([
            "evaluate", "--corrected", corrected, "--dem", dem, "--out", tmp_path / "eval",
            f"--radius={radius}",
        ])
        assert rc == 1, radius
        err = capsys.readouterr().err
        assert err.startswith("error: radius: ") and err.count("\n") == 1, err
    assert not (tmp_path / "eval").exists()


def test_bench_reports_timings(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    out = tmp_path / "bench"
    assert run([
        "bench", "--dem", dem, "--footprints", fps, "--out", out, "--methods", "grid",
    ]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert not lines[2].endswith(",")  # real wall time present
    assert float(lines[2].split(",")[-1]) >= 0.0
    assert (out / "corrected_grid_euclidean.csv").exists()
    assert "wall_time_s" in capsys.readouterr().err
