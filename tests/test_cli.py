"""End-to-end CLI workflows and exit-code contracts."""

import argparse
import csv
import io
import json
import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import terralign
import terralign.optimize
from terralign.cli import CORRECTED_EXTRA_COLUMNS, _write_corrected, build_parser, main
from terralign.evaluate import REPORT_COLUMNS
from terralign.footprints import group_by_shot, parse_footprints, split_groups
from terralign.geotiff import write_geotiff
from terralign.raster import RasterFormatError, aggregate_buffer_points, load_raster

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


def test_serial_correct_defers_multiprocessing_and_scipy_optimize(tmp_path):
    scene = tmp_path / "scene"
    assert run(["simulate", "--out", scene, "--rows", 96, "--cols", 96, "--cell-size", 4,
                "--n-groups", 2, "--n-footprints", 8, "--spacing", 20]) == 0
    src = str(Path(terralign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["correct", "--dem", str(scene / "terrain.asc"), "--footprints", str(scene / "footprints.csv"),
            "--out", str(tmp_path / "o"), "--methods", "grid,ga", "--workers", "1",
            "--ga-pop", "4", "--ga-generations", "2"]
    code = (
        f"import sys, terralign.cli; rc = terralign.cli.main({argv!r}); "
        "print(rc, 'multiprocessing' in sys.modules, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 False False", out.stderr


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "correct" in capsys.readouterr().out


def test_run_flags_keep_their_option_strings():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    expected = [
        "--agg", "--config", "--dem", "--footprints", "--ga-blend-alpha", "--ga-crossover-rate",
        "--ga-elitism", "--ga-generations", "--ga-mutation-rate", "--ga-mutation-sigma", "--ga-pop",
        "--ga-tournament-size", "--geoid", "--grid-step", "--help",
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
    missing = tmp_path / "nope.tif"
    rc = run(["correct", "--dem", missing, "--footprints", fps, "--out", tmp_path / "o"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: dem file not found: {missing}\n", err


@pytest.mark.parametrize("command", ["correct", "evaluate"])
def test_missing_geoid_is_data_error(tmp_path, capsys, command):
    dem, fps, _ = write_flat_scene(tmp_path)
    if command == "evaluate":
        assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "run"]) == 0
    inputs = (
        ["--corrected", tmp_path / "run" / "corrected_grid_euclidean.csv"]
        if command == "evaluate" else ["--footprints", fps]
    )
    missing = tmp_path / "nope.tif"
    capsys.readouterr()
    assert run([command, "--dem", dem, "--geoid", missing, *inputs, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: geoid file not found: {missing}\n", err


@pytest.mark.parametrize("dem_kind", ["tif-scale-nan", "tif-scale-zero", "asc-inf-cell"])
def test_dem_the_grid_rejects_is_format_error_naming_the_file(tmp_path, capsys, dem_kind):
    dem, fps, _ = write_flat_scene(tmp_path)  # a 1 m GeoTIFF, values 100
    if dem_kind == "asc-inf-cell":
        dem = tmp_path / "dem.asc"
        dem.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 32\n100 inf\n100 100\n")
    else:
        scale = math.nan if dem_kind == "tif-scale-nan" else 0.0
        pixel_scale = struct.pack("<3d", 1.0, 1.0, 0.0)
        data = dem.read_bytes()
        assert data.count(pixel_scale) == 1
        dem.write_bytes(data.replace(pixel_scale, struct.pack("<3d", scale, scale, 0.0)))
    with pytest.raises(RasterFormatError, match=re.escape(str(dem))):
        load_raster(dem)
    assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: dem file {dem}: ") and err.count("\n") == 1, err


_ASC = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 32\n100 100\n100 100\n"


@pytest.mark.parametrize(
    "case, rc, named, message",
    [
        ("missing-config", 1, "missing.toml", "config file not found"),
        ("no-out", 1, "--out", "an output directory is required"),
        ("missing-footprints", 2, "nope.csv", "footprint CSV not found"),
        ("all-na-footprints", 2, "na.csv", "no parseable footprints (3 NA rows, 0 bad rows)"),
        ("evaluate-missing", 2, "nope.csv", "corrected CSV not found"),
        ("evaluate-plain-csv", 2, "fps.csv", "missing columns"),
        ("evaluate-header-only", 2, "header.csv", "no data rows"),
        ("asc-cellsize-x", 2, "dem.asc", "bad header line"),
        ("asc-no-cellsize", 2, "dem.asc", "'cellsize'"),
        ("asc-ncols-0", 2, "dem.asc", "non-positive grid dimensions"),
        ("asc-no-yll", 2, "dem.asc", "yllcorner/yllcenter"),
        ("tiff-4-bytes", 2, "dem.tif", "too short to be a TIFF"),
    ],
)
def test_error_exit_names_the_file_or_flag(tmp_path, capsys, case, rc, named, message):
    dem, fps, _ = write_flat_scene(tmp_path)
    out = tmp_path / "o"
    inputs = ["--footprints", fps]
    if case == "missing-config":
        inputs += ["--config", tmp_path / "missing.toml"]
    elif case == "missing-footprints":
        inputs = ["--footprints", tmp_path / "nope.csv"]
    elif case == "all-na-footprints":
        header = fps.read_text().splitlines()[0]
        na_rows = [f"000000000100{i:03d},BEAM0101,NA,30.0,100.0,0,1,0.98,10.0" for i in range(3)]
        (tmp_path / "na.csv").write_text("\n".join([header, *na_rows]) + "\n")
        inputs = ["--footprints", tmp_path / "na.csv"]
    elif case.startswith("evaluate"):
        assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "run"]) == 0
        header = (tmp_path / "run" / "corrected_grid_euclidean.csv").read_text().splitlines()[0]
        (tmp_path / "header.csv").write_text(header + "\n")
        corrected = {"evaluate-missing": "nope.csv", "evaluate-plain-csv": "fps.csv"}.get(case, "header.csv")
        inputs = ["--corrected", tmp_path / corrected]
    elif case.startswith("asc"):
        dem = tmp_path / "dem.asc"
        dem.write_text({
            "asc-cellsize-x": _ASC.replace("cellsize 32", "cellsize x"),
            "asc-no-cellsize": _ASC.replace("cellsize 32\n", ""),
            "asc-ncols-0": _ASC.replace("ncols 2", "ncols 0"),
            "asc-no-yll": _ASC.replace("yllcorner 0\n", ""),
        }[case])
    elif case == "tiff-4-bytes":
        dem.write_bytes(b"II*\0")
    command = "evaluate" if case.startswith("evaluate") else "correct"
    capsys.readouterr()
    assert run([command, "--dem", dem, *inputs] + ([] if case == "no-out" else ["--out", out])) == rc
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and named in errors[0] and message in errors[0], err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_one_pool_serves_every_combination(tmp_path, monkeypatch):
    scene = tmp_path / "scene"
    assert run(["simulate", "--out", scene, "--rows", 96, "--cols", 96, "--cell-size", 4,
                "--n-groups", 3, "--n-footprints", 8, "--spacing", 20]) == 0
    solve = terralign.optimize.correct_group
    log = tmp_path / "solved.txt"

    def record_pid(group, *args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(group, *args, **kwargs)

    monkeypatch.setattr(terralign.optimize, "correct_group", record_pid)
    assert run(["correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
                "--out", tmp_path / "o", "--workers", 2, "--methods", "grid,ga",
                "--metrics", "euclidean,area", "--ga-pop", 4, "--ga-generations", 2]) == 0
    assert multiprocessing.active_children() == []
    pids = log.read_text().split()
    assert len(pids) == 2 * 2 * 3  # every group of every method x metric
    assert len(set(pids)) <= 2 and str(os.getpid()) not in pids


def test_input_column_named_like_an_output_column_is_data_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "first"]) == 0
    capsys.readouterr()
    corrected = tmp_path / "first" / "corrected_grid_euclidean.csv"
    assert run(["correct", "--dem", dem, "--footprints", corrected, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].endswith(
        "group_key, dx_m, dy_m, x_corrected, y_corrected, ref_elev_before, ref_elev_after, method, metric"
    )
    assert "Traceback" not in "\n".join(err)
    assert not (tmp_path / "o").exists()


def reference_corrected_csv(result) -> str:
    """The corrected CSV as one csv.writer row per footprint."""
    def fmt(value):
        return repr(float(value)) if math.isfinite(value) else ""

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = result.groups[0].table.cells
    writer.writerow([*cells.header, *CORRECTED_EXTRA_COLUMNS])
    refs_after = iter(result.ref_after.tolist())
    for group, sol in zip(result.groups, result.solutions):
        for row, x, y, ref in zip(group.row, group.x, group.y, group.ref_elev):
            writer.writerow([
                *cells.rows[row], group.key, fmt(sol.dx), fmt(sol.dy), fmt(x + sol.dx), fmt(y + sol.dy),
                fmt(ref), fmt(next(refs_after)), result.method, result.metric,
            ])
    return buf.getvalue()


def test_corrected_csv_writer_matches_csv_writer_reference(tmp_path):
    text = (
        "shot_number,beam,x,y,elev_lowestmode,degrade_flag,quality_flag,sensitivity,rh100,\"a,note\"\n"
        '"00000,0001000",BEAM0101,1.5,2.0,100.0,0,1,0.98,10.0,"comma, here"\n'
        '"00000,0001001",BEAM0101,2.5,2.0,100.0,0,1,0.98,10.0,"quote "" here"\n'
        '"00000""000200",BEAM0101,3.5,2.0,100.0,0,1,0.98,10.0,"line\nbreak"\n'
        '"00000""000201",BEAM0101,4.5,2.0,100.0,0,1,0.98,10.0,\n'
        "0000000003000,BEAM0101,5.5,2.0,100.0,0,1,0.98,10.0, spaced \n"
    )
    table, _ = parse_footprints(io.StringIO(text))
    table = table.take(slice(None), ref_elev=np.array([99.5, math.nan, math.inf, -math.inf, 1e-300]))
    groups = split_groups(*group_by_shot(table))
    assert [g.key for g in groups] == ['00000"0002', "00000,0001", "0000000003"]
    solutions = [SimpleNamespace(dx=-2.5, dy=0.1), SimpleNamespace(dx=0.0, dy=-0.0),
                 SimpleNamespace(dx=1e-17, dy=3.0)]
    sizes = [len(g) for g in groups]
    result = SimpleNamespace(
        method="ga", metric="area", groups=groups, solutions=solutions,
        ref_after=np.array([math.nan, 101.25, -math.inf, 7.0, math.inf]),
        dx=np.repeat([s.dx for s in solutions], sizes), dy=np.repeat([s.dy for s in solutions], sizes),
    )
    _write_corrected(tmp_path, [result])
    written = (tmp_path / "corrected_ga_area.csv").read_bytes()
    assert written == reference_corrected_csv(result).encode()
    assert b'"00000,0001"' in written and b'"quote "" here"' in written and b'"line\nbreak"' in written


ROW_RULES_HEADER = "shot_number,beam,x,y,elev_lowestmode,degrade_flag,quality_flag,sensitivity,rh100,note"
ROW_RULES_ROWS = [
    # shot_number and x padded with spaces, a quoted note holding a comma
    ' 000000000100000 ,BEAM0101, 26.0 ,30.0,100.0,0,1,0.98,10.0,"a,b"',
    # short: no note cell
    "000000000100001,BEAM0101,30.0,30.0,100.0,0,1,0.98,10.0",
    "",
    # two cells beyond the header
    "000000000100002,BEAM0101,34.0,30.0,100.0,0,1,0.98,10.0,plain,extra1,extra2",
    "000000000100003,BEAM0101,38.0,30.0,100.0,0,1,0.98,10.0,z",
]


def test_corrected_csv_keeps_the_input_cells_by_the_row_rules(tmp_path):
    dem, fps, _ = write_flat_scene(tmp_path)
    fps.write_text("\n".join([ROW_RULES_HEADER] + ROW_RULES_ROWS) + "\n")
    out = tmp_path / "o"
    assert run(["correct", "--dem", dem, "--footprints", fps, "--out", out,
                "--methods", "grid", "--metrics", "euclidean"]) == 0
    text = (out / "corrected_grid_euclidean.csv").read_text()
    header, *rows = list(csv.reader(text.splitlines()))
    n_input = len(ROW_RULES_HEADER.split(","))
    assert header[:n_input] == ROW_RULES_HEADER.split(",")
    assert len(rows) == 4 and all(len(r) == len(header) for r in rows)
    assert [r[n_input:][0] for r in rows] == ["0000000001"] * 4  # group_key of the stripped shot
    assert rows[0][:n_input] == [
        " 000000000100000 ", "BEAM0101", " 26.0 ", "30.0", "100.0", "0", "1", "0.98", "10.0", "a,b",
    ]
    assert rows[1][n_input - 1] == ""
    assert rows[2][n_input - 1] == "plain" and "extra1" not in text
    record = dict(zip(header, rows[0]))
    assert record["x_corrected"] == repr(26.0 + float(record["dx_m"]))
    assert text.splitlines()[1].startswith(' 000000000100000 ,BEAM0101, 26.0 ,')
    assert text.splitlines()[1].split(",0000000001,")[0].endswith(',"a,b"')


def test_repeated_header_column_is_data_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    header, *rows = fps.read_text().splitlines()
    fps.write_text("\n".join([header + ",x"] + [r + ",55.5" for r in rows]) + "\n")
    capsys.readouterr()
    assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        line for line in err if "repeated column" in line
    ] != []
    assert "Traceback" not in "\n".join(err)
    assert not (tmp_path / "o").exists()


def test_crs_mismatch_is_data_error_naming_tags(tmp_path, capsys):
    dem, fps, geoid = write_flat_scene(tmp_path, crs_dem="EPSG:32654", crs_geoid="EPSG:4326")
    rc = run([
        "correct", "--dem", dem, "--geoid", geoid, "--footprints", fps, "--out", tmp_path / "o",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "EPSG:32654" in err and "EPSG:4326" in err


# the address space a child of the test below allows itself, as in tests/test_fuzz.py
ADDRESS_SPACE_CAP = 1536 * 2**20


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid-step", "0.0001"],
        ["--radius", "1e6"],
        ["--methods", "ga", "--ga-pop", "1000000000"],
        ["--max-dx", "1e9", "--max-dy", "1e9"],
        ["--grid-step", "1e-320"],  # a subnormal step: the lattice's point count overflows to inf
    ],
)
def test_setting_that_needs_too_much_memory_is_data_error(tmp_path, flags):
    """Each of these settings asks for an array of terabytes or more.

    `correct` runs in a child process that caps its own address space, so the
    allocation fails there instead of drawing on the machine's memory.
    """
    dem, fps, _ = write_flat_scene(tmp_path)
    src = str(Path(terralign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["correct", "--dem", str(dem), "--footprints", str(fps), "--out", str(tmp_path / "o"), *flags]
    code = (
        "import resource, sys, terralign.cli\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))\n"
        f"sys.exit(terralign.cli.main({argv!r}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2, out.stderr
    errors = [line for line in out.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: out of memory: "), out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["grid", "ga", "pso"])
def test_window_whose_width_overflows_is_usage_error(tmp_path, capsys, method):
    """2 * 1e308 is inf: the lattice and the uniform draws of GA and PSO
    would span an infinite window."""
    dem, fps, _ = write_flat_scene(tmp_path)
    rc = run([
        "correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "o",
        "--methods", method, "--max-dx", "1e308", "--max-dy", "1e308",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: bounds: the window width 2 * max_abs must be finite"], err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_correct_that_fails_while_solving_leaves_no_out(tmp_path, capsys, monkeypatch):
    scene = tmp_path / "scene"
    assert run(["simulate", "--out", scene, "--rows", 96, "--cols", 96, "--cell-size", 4,
                "--n-groups", 2, "--n-footprints", 8, "--spacing", 20, "--dx", 4, "--dy", -2]) == 0
    solve = terralign.optimize.correct_group

    def failing(group, dem, method, *args, **kwargs):
        if method == "ga":  # every grid solve has succeeded by then
            raise ValueError(f"group {group.key} is bad")
        return solve(group, dem, method, *args, **kwargs)

    monkeypatch.setattr(terralign.optimize, "correct_group", failing)
    capsys.readouterr()
    rc = run([
        "correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
        "--out", tmp_path / "o", "--methods", "grid,ga", "--workers", 1,
    ])
    assert rc == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: group ") and errors[0].endswith(" is bad")
    assert not (tmp_path / "o").exists()


NO_SURVIVORS = ["error: no footprints survive in every compared result"]


@pytest.mark.parametrize(
    "flags, rc, errors",
    [
        (["--methods", "ga", "--max-dx", "1e9", "--max-dy", "1e9"], 2, NO_SURVIVORS),
        (["--methods", "pso", "--max-dx", "8e307", "--max-dy", "8e307"], 2, NO_SURVIVORS),
        (["--methods", "ga,pso", "--max-dx", "8e307", "--max-dy", "8e307", "--workers", "2"], 2, NO_SURVIVORS),
        (["--outlier-k", "1e308"], 0, []),
    ],
)
def test_settings_near_the_float_limit(tmp_path, flags, rc, errors):
    """A window so wide that every solution leaves the DEM leaves no
    footprint to score: one error line, and no --out, since it is made after
    the report is scored. GA's blend widths, PSO's velocities, the kernel's
    squared distances and the outlier rule's k * sd overflow to inf on the
    way, which the code handles: no RuntimeWarning reaches stderr, from
    this process or a forked worker."""
    scene = tmp_path / "scene"
    assert run(["simulate", "--out", scene, "--rows", 96, "--cols", 96, "--cell-size", 4,
                "--n-groups", 2, "--n-footprints", 8, "--spacing", 20, "--dx", 4, "--dy", -2]) == 0
    src = str(Path(terralign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["correct", "--dem", str(scene / "terrain.asc"), "--footprints", str(scene / "footprints.csv"),
            "--out", str(tmp_path / "o"), *flags]
    out = subprocess.run([sys.executable, "-W", "default::RuntimeWarning", "-m", "terralign.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == rc, out.stderr
    assert [line for line in out.stderr.splitlines() if line.startswith("error:")] == errors, out.stderr
    assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr, out.stderr
    assert (tmp_path / "o").exists() == (rc == 0)


def test_outlier_window_wider_than_an_index_covers_whole_groups(tmp_path):
    """A window of 10**20 + 1 rows, whose half does not fit an int64 index,
    runs as the window of 2n + 1 rows over the n footprints does."""
    scene = tmp_path / "scene"
    assert run(["simulate", "--out", scene, "--rows", 96, "--cols", 96, "--cell-size", 4,
                "--n-groups", 2, "--n-footprints", 8, "--spacing", 20, "--dx", 4, "--dy", -2]) == 0
    n = len((scene / "footprints.csv").read_text().splitlines()) - 1
    outputs = []
    for window in (2 * n + 1, 10**20 + 1):
        out = tmp_path / f"w{window}"
        assert run(["correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
                    "--out", out, "--outlier-window", window, "--outlier-k", 1.5]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "effective_config.toml"})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 4
    # the rule drops footprints here, so the two windows agree on a flagged set
    assert outputs[0]["corrected_grid_euclidean.csv"].count(b"\n") < n + 1


def test_grid_step_wider_than_the_window_is_usage_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    for dem_path in (dem, tmp_path / "missing.tif"):  # the rule is checked before any file is read
        rc = run([
            "correct", "--dem", dem_path, "--footprints", fps, "--out", tmp_path / "o",
            "--methods", "lbfgsb,grid", "--grid-step", 60,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: optimizer.grid_step: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()
    assert run([
        "correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "o",
        "--methods", "ga", "--ga-pop", 4, "--ga-generations", 2, "--grid-step", 60,
    ]) == 0


def test_name_listed_twice_is_usage_error(tmp_path, capsys):
    dem, fps, _ = write_flat_scene(tmp_path)
    for dem_path in (dem, tmp_path / "missing.tif"):  # the rule is checked before any file is read
        rc = run([
            "correct", "--dem", dem_path, "--footprints", fps, "--out", tmp_path / "o",
            "--methods", "grid,grid",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: methods: 'grid' is listed twice\n", err
        assert not (tmp_path / "o").exists()


def test_footprint_csv_with_a_byte_order_mark_gives_the_same_outputs(tmp_path):
    dem, fps, _ = write_flat_scene(tmp_path)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + fps.read_bytes())
    flags = ["--dem", dem, "--metrics", "euclidean,area"]
    assert run(["correct", *flags, "--footprints", fps, "--out", tmp_path / "plain"]) == 0
    assert run(["correct", *flags, "--footprints", bom, "--out", tmp_path / "bom"]) == 0
    names = ["corrected_grid_euclidean.csv", "corrected_grid_area.csv", "report.csv", "report.json", "report.txt"]
    for name in names:
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name
    corrected = tmp_path / "bom" / "corrected_grid_euclidean.csv"
    assert run(["evaluate", "--dem", dem, "--corrected", corrected, "--out", tmp_path / "eval_plain"]) == 0
    bom_corrected = tmp_path / "bom_corrected.csv"
    bom_corrected.write_bytes(b"\xef\xbb\xbf" + corrected.read_bytes())
    assert run(["evaluate", "--dem", dem, "--corrected", bom_corrected, "--out", tmp_path / "eval_bom"]) == 0
    for name in ("report.csv", "report.json", "report.txt"):
        assert (tmp_path / "eval_bom" / name).read_bytes() == (tmp_path / "eval_plain" / name).read_bytes(), name


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
    [("dx", "30"), ("dy", "-26"), ("n-footprints", "2"), ("rows", "0"), ("cols", "-3"), ("n-groups", "0"),
     ("terrain-seed", "-3"), ("track-seed", "-1")],
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

    from terralign.config import config_from_dict, parse_toml

    cfg = config_from_dict(parse_toml(eff))
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


def test_evaluate_rejects_a_combination_that_lists_its_footprints_in_another_order(tmp_path, capsys):
    """The grid/area rows reversed inside each group, as a run on a reordered
    input writes them: the group keys still agree row by row, the shots not."""
    dem_path, header, rows = two_combination_csv(tmp_path)
    n = len(rows) // 2
    key = header.split(",").index("group_key")
    groups: dict[str, list[str]] = {}
    for row in rows[n:]:
        groups.setdefault(row.split(",")[key], []).append(row)
    reordered = [row for members in groups.values() for row in reversed(members)]
    assert [r.split(",")[key] for r in reordered] == [r.split(",")[key] for r in rows[:n]]
    assert reordered != rows[n:]
    corrected = tmp_path / "joined.csv"
    corrected.write_text("\n".join([header] + rows[:n] + reordered) + "\n")
    assert run(["evaluate", "--corrected", corrected, "--dem", dem_path, "--out", tmp_path / "eval"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "shot_number differs row by row in grid/area" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("defect", ["cell-over-the-field-limit", "undecodable-bytes"])
@pytest.mark.parametrize("command", ["correct", "evaluate"])
def test_unreadable_csv_line_is_data_error_naming_file_and_line(tmp_path, capsys, command, defect):
    dem, fps, _ = write_flat_scene(tmp_path)
    if command == "evaluate":
        assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "run"]) == 0
        fps = tmp_path / "run" / "corrected_grid_euclidean.csv"
    lines = fps.read_bytes().splitlines()
    if defect == "undecodable-bytes":
        lines[2] = lines[2].replace(b"BEAM0101", b"BEAM\xff\xfe")
        expected = f"error: {fps}: undecodable text after line "
    else:
        lines[2] = lines[2].replace(b"BEAM0101", b"B" * (csv.field_size_limit() + 1))
        expected = f"error: {fps}: line 3: field larger than field limit ({csv.field_size_limit()})\n"
    fps.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    inputs = ["--corrected", fps] if command == "evaluate" else ["--footprints", fps]
    assert run([command, "--dem", dem, *inputs, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(expected) and err.count("\n") == 1, err


def _cut_before_x_corrected(header, rows):
    rows[-1] = rows[-1][:header.index("x_corrected")]


def _repeat_dx(header, rows):
    header.append("dx_m")
    for row in rows:
        row.append("0.0")


def _na_beam(header, rows):
    rows[1][header.index("beam")] = "NA"


def _drop_beam(header, rows):
    i = header.index("beam")
    for cells in (header, *rows):
        del cells[i]


# each edit of a corrected CSV, and the text its error line must hold
EVALUATE_MALFORMED = {
    "row-cut-before-x_corrected": (_cut_before_x_corrected, "unparseable numeric field"),
    "repeated-column": (_repeat_dx, "repeated column names: 'dx_m'"),
    "na-in-required-column": (_na_beam, "1 NA rows"),
    "missing-beam-column": (_drop_beam, "missing required columns: beam"),
}


@pytest.mark.parametrize("defect", sorted(EVALUATE_MALFORMED))
def test_evaluate_malformed_csv_is_data_error_naming_file(tmp_path, capsys, defect):
    edit, expected = EVALUATE_MALFORMED[defect]
    dem, fps, _ = write_flat_scene(tmp_path)
    assert run(["correct", "--dem", dem, "--footprints", fps, "--out", tmp_path / "run"]) == 0
    corrected = tmp_path / "run" / "corrected_grid_euclidean.csv"
    header, *rows = [line.split(",") for line in corrected.read_text().splitlines()]
    edit(header, rows)
    corrected.write_text("\n".join(",".join(cells) for cells in [header, *rows]) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--corrected", corrected, "--dem", dem, "--out", tmp_path / "eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corrected}: ") and err.count("\n") == 1, err
    assert expected in err, err


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


def read_report_files(out):
    """(report.json records, report.csv cells, report.txt cells) of one run."""
    records = json.loads((out / "report.json").read_text())
    csv_cells = list(csv.reader((out / "report.csv").read_text().splitlines()))
    header, *lines = (out / "report.txt").read_text().splitlines()
    starts = [m.start() for m in re.finditer(r"\S+", header)] + [None]
    text_cells = [[line[a:b].strip() for a, b in zip(starts, starts[1:])] for line in [header, *lines]]
    return records, csv_cells, text_cells


def csv_cell(value):
    """The report.csv cell of a report.json value: null is blank, floats have 6 decimals."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.6f}"


def test_report_writers_agree_and_bench_differs_only_in_timings(tmp_path):
    scene = tmp_path / "scene"
    assert run(["simulate", "--out", scene, "--rows", 96, "--cols", 96, "--cell-size", 4,
                "--n-groups", 2, "--n-footprints", 8, "--spacing", 20, "--dx", 4, "--dy", -2]) == 0
    reports = {}
    for command in ("correct", "bench"):
        out = tmp_path / command
        assert run([
            command, "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
            "--out", out, "--methods", "grid,ga", "--metrics", "euclidean,area", "--seed", 3,
        ]) == 0
        records, csv_cells, text_cells = reports[command] = read_report_files(out)
        assert csv_cells[0] == text_cells[0] == list(REPORT_COLUMNS)
        assert len(records) == len(csv_cells) - 1 == len(text_cells) - 1 == 5
        for record, cells, text in zip(records, csv_cells[1:], text_cells[1:]):
            assert list(record) == list(REPORT_COLUMNS)
            assert [csv_cell(value) for value in record.values()] == cells
            assert text == ["-" if value is None else csv_cell(value) for value in record.values()]

    (correct_records, *correct_cells), (bench_records, *bench_cells) = reports["correct"], reports["bench"]
    assert [r["wall_time_s"] for r in correct_records] == [None] * 5
    assert [r["wall_time_s"] is None for r in bench_records] == [True, False, False, False, False]
    for a, b in zip(correct_records, bench_records):
        assert {**a, "wall_time_s": None} == {**b, "wall_time_s": None}
    for a, b in zip(correct_cells, bench_cells):  # csv, then text: every column but the last
        assert [cells[:-1] for cells in a] == [cells[:-1] for cells in b]


def test_evaluate_flags_keep_their_option_strings():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = sub.choices["evaluate"]._actions
    assert sorted(s for a in actions for s in a.option_strings) == [
        "--agg", "--corrected", "--dem", "--geoid", "--help", "--out", "--radius", "-h",
    ]
    assert sorted(a.option_strings[0] for a in actions if a.required) == ["--corrected", "--dem", "--out"]


@pytest.mark.parametrize("kind", ["latin-1", "directory"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "run.toml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes('dem_path = "dém.asc"\n'.encode("latin-1"))
    assert run(["correct", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


def test_effective_config_reproduces_the_run(tmp_path):
    scene = tmp_path / "scene"
    assert run([
        "simulate", "--out", scene, "--rows", 128, "--cols", 128, "--cell-size", 4,
        "--relief", 120, "--n-groups", 2, "--n-footprints", 8, "--spacing", 20, "--dx", 4, "--dy", -2,
    ]) == 0
    first, second = tmp_path / "run", tmp_path / "run2"
    assert run([
        "correct", "--dem", scene / "terrain.asc", "--footprints", scene / "footprints.csv",
        "--out", first, "--methods", "grid,ga", "--metrics", "euclidean,area", "--seed", 5,
        "--ga-pop", 12, "--ga-generations", 8,
    ]) == 0
    assert run(["correct", "--config", first / "effective_config.toml", "--out", second]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len([n for n in names if n.startswith("corrected_")]) == 4
    for name in names:
        if name.startswith(("corrected_", "report.")):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    config = (first / "effective_config.toml").read_text()
    assert (second / "effective_config.toml").read_text() == config.replace(
        f'output_dir = "{first}"', f'output_dir = "{second}"'
    )


def test_correct_without_config_does_not_import_tomllib(tmp_path):
    dem, fps, _ = write_flat_scene(tmp_path)
    src = str(Path(terralign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["correct", "--dem", str(dem), "--footprints", str(fps), "--out", str(tmp_path / "run")]
    code = f"import sys, terralign.cli; rc = terralign.cli.main({argv!r}); print(rc, 'tomllib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
