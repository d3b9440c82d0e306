"""Byte identity of `simulate`, `correct` and `evaluate` on fixed golden scenes.

One `fractal` scene is simulated (its bytes do not depend on numpy's SIMD
dispatch, unlike `gaussian_hills`), then edited: extra input columns, a
quoted cell holding a comma, an NA row, one group cut below
MIN_GROUP_SIZE and one raised 100 m above the DEM so `max_dem_diff`
empties it. `correct` runs grid, GA and PSO x euclidean, area and
correlation on the ASCII DEM, and on a GeoTIFF copy of it with a ramp
geoid, at 1 and 2 workers and once more at 1 worker with `--agg median`,
and 5-start L-BFGS-B x euclidean and area once per scene; `evaluate` runs
on each scene's joined grid, GA and PSO corrected CSVs. Every output's
sha256 must equal the digest recorded in `golden/digests.json`, beside the
numpy and scipy versions it was recorded with.

Paths are relative to the run directory, so `effective_config.toml` is
the same wherever the test runs.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy

from terralign import RasterGrid, load_raster, write_raster
from terralign.cli import main

DIGESTS_PATH = Path(__file__).parent / "golden" / "digests.json"

SIMULATE = [
    "simulate", "--out", "scene", "--terrain", "fractal", "--rows", "100", "--cols", "100",
    "--cell-size", "4", "--relief", "80", "--terrain-seed", "3", "--n-groups", "4",
    "--n-footprints", "9", "--spacing", "22", "--noise-sd", "0.3", "--dx", "4", "--dy", "-3",
    "--track-seed", "5",
]
SOLVE = [
    "--methods", "grid,ga,pso", "--metrics", "euclidean,area,correlation", "--seed", "7",
    "--ga-pop", "8", "--ga-generations", "3", "--pso-swarm", "8", "--pso-iterations", "3",
]
MEDIAN = [*SOLVE, "--agg", "median"]
LBFGSB = ["--methods", "lbfgsb", "--lbfgsb-starts", "5", "--metrics", "euclidean,area"]
# DEM (and geoid) flags of each golden scene
SCENES = {
    "asc": ["--dem", "scene/terrain.asc"],
    "tif": ["--dem", "scene/terrain.tif", "--geoid", "scene/geoid.tif"],
}
CUT_GROUP = "0000000006"  # keeps 2 footprints, below MIN_GROUP_SIZE
RAISED_GROUP = "0000000007"  # 100 m above the DEM, emptied by max_dem_diff


def edit_footprints(src: Path, dst: Path) -> None:
    """Add two input columns, an NA row, and cut and raise one group each."""
    header, *rows = src.read_text().splitlines()
    out = [header + ",tree_cover,note"]
    kept_cut = 0
    for i, row in enumerate(rows):
        cells = row.split(",")
        key = cells[0][:10]
        if key == CUT_GROUP:
            kept_cut += 1
            if kept_cut > 2:
                continue
        if key == RAISED_GROUP:
            cells[4] = repr(float(cells[4]) + 100.0)
        cells.append(("1", "0", "")[i % 3])
        cells.append(f'"row {i}, group {key}"')
        out.append(",".join(cells))
    na_row = rows[0].split(",")
    na_row[4] = "NA"
    out.append(",".join(na_row) + ",1,dropped")
    dst.write_text("\n".join(out) + "\n")


def build_scene() -> None:
    """The golden scene under ./scene: simulate outputs plus edited inputs."""
    assert main(SIMULATE) == 0
    scene = Path("scene")
    edit_footprints(scene / "footprints.csv", scene / "edited.csv")
    dem = load_raster(scene / "terrain.asc")
    write_raster(dem, scene / "terrain.tif")
    # a ramp of 1..2 m undulation over the DEM's extent, in 20 m cells
    cols = (np.arange(20) + 0.5) / 20.0
    geoid = RasterGrid(
        origin_x=0.0, origin_y=400.0, cell_size_x=20.0, cell_size_y=-20.0,
        values=np.tile(1.0 + cols, (20, 1)), nodata=None, crs_tag="",
    )
    write_raster(geoid, scene / "geoid.tif")


def run_golden() -> dict[str, str]:
    """Run every golden command in the working directory; sha256 per output file."""
    build_scene()
    for name, dem_flags in SCENES.items():
        for workers in (1, 2):
            argv = ["correct", *dem_flags, "--footprints", "scene/edited.csv",
                    "--out", f"{name}_w{workers}", "--workers", str(workers), *SOLVE]
            assert main(argv) == 0, argv
        for out, flags in ((f"{name}_median", MEDIAN), (f"{name}_lbfgsb", LBFGSB)):
            argv = ["correct", *dem_flags, "--footprints", "scene/edited.csv", "--out", out, *flags]
            assert main(argv) == 0, argv
        corrected = sorted(Path(f"{name}_w1").glob("corrected_*.csv"))
        header = corrected[0].read_text().splitlines()[0]
        joined = [header] + [line for p in corrected for line in p.read_text().splitlines()[1:]]
        Path(f"{name}_joined.csv").write_text("\n".join(joined) + "\n")
        argv = ["evaluate", "--corrected", f"{name}_joined.csv", *dem_flags, "--out", f"{name}_eval"]
        assert main(argv) == 0, argv
    return {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").rglob("*"))
        if p.is_file()
    }


def test_golden_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(DIGESTS_PATH.read_text())
    got = run_golden()
    want = recorded["sha256"]
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"golden outputs differ: changed {changed}, missing {missing}, new {extra}; "
        f"digests recorded with numpy {recorded['numpy']} and scipy {recorded['scipy']}, "
        f"running numpy {np.__version__} and scipy {scipy.__version__}"
    )


if __name__ == "__main__":
    # Rewrite golden/digests.json from a fresh run, for a change that alters
    # outputs on purpose, and list what changed: `python tests/test_golden.py`
    # with the package importable (installed, or PYTHONPATH=src).
    import logging
    import os
    import tempfile

    logging.basicConfig(level=logging.WARNING)
    want = json.loads(DIGESTS_PATH.read_text())["sha256"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            got = run_golden()
        finally:
            os.chdir(cwd)
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    DIGESTS_PATH.write_text(json.dumps({**versions, "sha256": got}, indent=2) + "\n")
    print(f"wrote {DIGESTS_PATH} with numpy {np.__version__} and scipy {scipy.__version__}")
    for label, names in (
        ("changed", sorted(k for k in want.keys() & got.keys() if want[k] != got[k])),
        ("missing", sorted(want.keys() - got.keys())),
        ("new", sorted(got.keys() - want.keys())),
    ):
        print(f"{label}: {len(names)}", *names, sep="\n  ")
