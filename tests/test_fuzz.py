"""Seeded mutation fuzzing of the three readers of outside input.

Each reader gets `MUTATIONS` copies of a small valid file, each with 1-6
random bytes overwritten and one in five also cut short. Every copy must
load or fail with the reader's own error type: `RasterError` for a GeoTIFF
or ESRI ASCII grid through `load_raster`, `FootprintError` for a footprint
CSV through `parse_footprints`. Anything else, `MemoryError` included, is
an escape. The copies are read in a child process that caps its own
address space, so a reader that trusts a size field fails the test with
`MemoryError` instead of exhausting the machine.

Run this file as a script (`python tests/test_fuzz.py [seed] [mutations]`,
with `src` on `PYTHONPATH`) to print the escapes as JSON.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 11
MUTATIONS = 3000
ADDRESS_SPACE_CAP = 1536 * 2**20


def _seed_files(root: Path) -> dict[str, Path]:
    import numpy as np

    from terralign import RasterGrid, write_raster

    values = np.linspace(90.0, 140.0, 256).reshape(16, 16)
    values[3, 5] = np.nan
    grid = RasterGrid(500_000.0, 4_000_016.0, 1.0, -1.0, values, nodata=-9999.0, crs_tag="EPSG:32654")
    write_raster(grid, root / "seed.tif")
    write_raster(grid, root / "seed.asc")
    rows = ["shot_number,beam,x,y,elev_lowestmode,degrade_flag,quality_flag,sensitivity,rh100"]
    rows += [f"00000000010{i:04d},BEAM0101,{500_002.0 + 0.5 * i},4000008.0,1{i:02d}.5,0,1,0.98,10.0" for i in range(24)]
    (root / "seed.csv").write_text("\n".join(rows) + "\n")
    return {"geotiff": root / "seed.tif", "ascii": root / "seed.asc", "footprints": root / "seed.csv"}


def _mutate(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 6)):
        out[rng.randrange(len(out))] = rng.randrange(256)
    if rng.random() < 0.2:
        del out[rng.randrange(len(out)) :]
    return bytes(out)


def fuzz(seed: int = SEED, mutations: int = MUTATIONS) -> dict:
    """Mutate and read every seed file; return the counts and the escapes."""
    import resource

    from terralign import FootprintError, RasterError, load_raster, parse_footprints

    def read_csv(path):
        with path.open(newline="", encoding="utf-8") as fh:
            parse_footprints(fh, source=str(path))

    readers = {
        "geotiff": (lambda path: load_raster(path, "dem"), RasterError),
        "ascii": (lambda path: load_raster(path, "dem"), RasterError),
        "footprints": (read_csv, FootprintError),
    }
    # after the imports, so only what the readers allocate counts against it
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    rng = random.Random(seed)
    counts, escapes = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, source in _seed_files(root).items():
            read, expected = readers[name]
            data = source.read_bytes()
            path = root / f"mutant{source.suffix}"
            path.touch()
            # rewritten in place: a truncating open can cost a disk flush per mutant
            with path.open("r+b", buffering=0) as fh:
                for i in range(mutations):
                    fh.seek(0)
                    fh.write(_mutate(data, rng))
                    fh.truncate()
                    try:
                        read(path)
                    except expected:
                        pass
                    except Exception as exc:  # any other type is an escape
                        escapes.append([name, i, type(exc).__name__, str(exc)[:200]])
            counts[name] = mutations
    return {"counts": counts, "escapes": escapes}


def test_no_reader_escapes_its_error_type():
    import terralign

    src = str(Path(terralign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, __file__, str(SEED), str(MUTATIONS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["counts"] == {"geotiff": MUTATIONS, "ascii": MUTATIONS, "footprints": MUTATIONS}
    assert result["escapes"] == []


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    print(json.dumps(fuzz(*args)))
