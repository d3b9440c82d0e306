"""The GeoTIFF subset `read_geotiff` reads and rejects, and `write_geotiff`'s bytes.

Each file here is built from its tag list with `struct`, independently of
`terralign.geotiff`, so the tests pin the reader against the TIFF layout
itself rather than against the package's own writer.
"""

import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from terralign.geotiff import read_geotiff, write_geotiff
from terralign.raster import RasterFormatError, load_raster

from conftest import make_grid

BYTE, ASCII, SHORT, LONG, RATIONAL, SLONG, FLOAT, DOUBLE = 1, 2, 3, 4, 5, 9, 11, 12
_CODES = {BYTE: "B", SHORT: "H", LONG: "I", RATIONAL: "I", SLONG: "i", FLOAT: "f", DOUBLE: "d"}

WIDTH, LENGTH, BITS, COMPRESSION, STRIP_OFFSETS, SPP = 256, 257, 258, 259, 273, 277
ROWS_PER_STRIP, STRIP_COUNTS, PLANAR, TILE_WIDTH, SAMPLE_FORMAT = 278, 279, 284, 322, 339
PIXEL_SCALE, TIEPOINT, TRANSFORMATION, GEOKEYS, NODATA = 33550, 33922, 34264, 34735, 42113


def tiff_bytes(entries, pixels, bo="<", magic=42):
    """A one-IFD TIFF: the header, `pixels` from offset 8, then the IFD and
    its out-of-line values. `entries` holds (tag, type, values) triples;
    values of type ASCII (or an unknown type) are bytes, a RATIONAL's values
    are its LONG halves."""
    ifd_offset = 8 + len(pixels) + len(pixels) % 2
    extra_offset = ifd_offset + 2 + 12 * len(entries) + 4
    ifd, extra = struct.pack(bo + "H", len(entries)), b""
    for tag, ftype, values in sorted(entries, key=lambda e: e[0]):
        if isinstance(values, bytes):
            packed, count = values, len(values)
        else:
            packed = struct.pack(bo + _CODES[ftype] * len(values), *values)
            count = len(values) // 2 if ftype == RATIONAL else len(values)
        if len(packed) <= 4:
            ifd += struct.pack(bo + "HHI", tag, ftype, count) + packed.ljust(4, b"\x00")
        else:
            ifd += struct.pack(bo + "HHII", tag, ftype, count, extra_offset + len(extra))
            extra += packed + b"\x00" * (len(packed) % 2)
    head = struct.pack(bo + "2sHI", b"II" if bo == "<" else b"MM", magic, ifd_offset)
    return head + pixels + b"\x00" * (len(pixels) % 2) + ifd + struct.pack(bo + "I", 0) + extra


def layout(values, bo="<", dtype="f8", rows_per_strip=None, strip_type=LONG, georef=None, extra=()):
    """Tags and pixel bytes of a north-up single-band float grid in strips of
    `rows_per_strip` rows (all rows by default), written after the header."""
    n_rows, n_cols = values.shape
    rows_per_strip = rows_per_strip or n_rows
    pixels = values.astype(bo + dtype).tobytes()
    row_bytes = n_cols * np.dtype(dtype).itemsize
    starts = range(0, n_rows, rows_per_strip)
    offsets = [8 + r * row_bytes for r in starts]
    counts = [min(rows_per_strip, n_rows - r) * row_bytes for r in starts]
    if georef is None:
        georef = [(PIXEL_SCALE, DOUBLE, (2.0, 3.0, 0.0)), (TIEPOINT, DOUBLE, (0, 0, 0, 1000.0, 5000.0, 0))]
    tags = [
        (WIDTH, LONG, (n_cols,)),
        (LENGTH, SHORT, (n_rows,)),
        (BITS, SHORT, (8 * np.dtype(dtype).itemsize,)),
        (COMPRESSION, SHORT, (1,)),
        (STRIP_OFFSETS, strip_type, offsets),
        (SPP, SHORT, (1,)),
        (ROWS_PER_STRIP, SHORT, (rows_per_strip,)),
        (STRIP_COUNTS, strip_type, counts),
        (PLANAR, SHORT, (1,)),
        (SAMPLE_FORMAT, SHORT, (3,)),
        *georef,
        *extra,
    ]
    return tags, pixels


def geokeys(key_id, code):
    return (GEOKEYS, SHORT, (1, 1, 0, 2, 1024, 0, 1, 1, key_id, 0, 1, code))


VALUES = np.arange(35, dtype=np.float64).reshape(5, 7) * 1.25 - 3.0

# name -> (layout keywords, expected values, (origin_x, origin_y, cell_x, cell_y), nodata, crs_tag)
READ_CASES = {
    "big-endian-float64-projected-epsg": (
        dict(bo=">", extra=[geokeys(3072, 32654)]),
        VALUES, (1000.0, 5000.0, 2.0, -3.0), None, "EPSG:32654",
    ),
    "float32-three-strips-short-strip-tags": (
        dict(dtype="f4", rows_per_strip=2, strip_type=SHORT),
        VALUES.astype(np.float32).astype(np.float64), (1000.0, 5000.0, 2.0, -3.0), None, "",
    ),
    "big-endian-float32-one-row-strips": (
        dict(bo=">", dtype="f4", rows_per_strip=1),
        VALUES, (1000.0, 5000.0, 2.0, -3.0), None, "",
    ),
    "tiepoint-off-the-corner": (
        dict(georef=[(PIXEL_SCALE, DOUBLE, (2.0, 3.0, 0.0)), (TIEPOINT, DOUBLE, (2, 1, 0, 1000.0, 5000.0, 0))]),
        VALUES, (996.0, 5003.0, 2.0, -3.0), None, "",
    ),
    "model-transformation": (
        dict(georef=[(TRANSFORMATION, DOUBLE, (2.5, 0, 0, 700.0, 0, -4.0, 0, 900.0, 0, 0, 0, 0, 0, 0, 0, 1))]),
        VALUES, (700.0, 900.0, 2.5, -4.0), None, "",
    ),
    "geographic-epsg-key": (
        dict(extra=[geokeys(2048, 4326)]),
        VALUES, (1000.0, 5000.0, 2.0, -3.0), None, "EPSG:4326",
    ),
    "gdal-nodata": (
        dict(extra=[(NODATA, ASCII, b"-3.0\x00")]),
        np.where(VALUES == -3.0, np.nan, VALUES), (1000.0, 5000.0, 2.0, -3.0), -3.0, "",
    ),
    "unknown-field-type-counts-as-absent": (
        dict(extra=[(NODATA, 7, b"-3.0\x00")]),  # 7 is UNDEFINED
        VALUES, (1000.0, 5000.0, 2.0, -3.0), None, "",
    ),
}


@pytest.mark.parametrize("case", READ_CASES)
def test_reads_layout(tmp_path, case):
    kwargs, expected, (ox, oy, csx, csy), nodata, crs = READ_CASES[case]
    path = tmp_path / "grid.tif"
    path.write_bytes(tiff_bytes(*layout(VALUES, **kwargs), bo=kwargs.get("bo", "<")))
    grid = read_geotiff(path)
    assert grid.values.dtype == np.float64
    np.testing.assert_array_equal(grid.values, expected)
    assert (grid.origin_x, grid.origin_y, grid.cell_size_x, grid.cell_size_y) == (ox, oy, csx, csy)
    assert grid.nodata == nodata or (nodata is None and grid.nodata is None)
    assert grid.crs_tag == crs


ROTATED = [(TRANSFORMATION, DOUBLE, (2.0, 0.5, 0, 700.0, 0, -4.0, 0, 900.0, 0, 0, 0, 0, 0, 0, 0, 1))]

# name -> (layout keywords, TIFF magic, message pattern)
REJECT_CASES = {
    "tiled": (dict(extra=[(TILE_WIDTH, SHORT, (16,))]), 42, "tiled TIFFs are not supported"),
    "compressed": (
        dict(extra=[(COMPRESSION, SHORT, (5,))]), 42,
        re.escape("compressed TIFFs are not supported (compression=5)"),
    ),
    "multi-band": (
        dict(extra=[(SPP, SHORT, (3,))]), 42,
        re.escape("multi-band rasters are not supported (3 samples/pixel)"),
    ),
    "planar-2": (dict(extra=[(PLANAR, SHORT, (2,))]), 42, "planar configuration 2 is not supported"),
    "integer-samples": (
        dict(extra=[(SAMPLE_FORMAT, SHORT, (1,))]), 42,
        re.escape("only float32/float64 samples are supported (sample format 1, 64 bits)"),
    ),
    "rotated": (dict(georef=ROTATED), 42, "rotated rasters are not supported"),
    "no-georeferencing": (dict(georef=[]), 42, "no georeferencing tags"),
    "bigtiff": ({}, 43, "BigTIFF is not supported"),
    "bad-magic": ({}, 41, re.escape("not a TIFF (magic=41)")),
}


@pytest.mark.parametrize("case", REJECT_CASES)
def test_rejects_layout(tmp_path, case):
    kwargs, magic, message = REJECT_CASES[case]
    tags, pixels = layout(VALUES, **kwargs)
    tags = list({tag: (tag, ftype, v) for tag, ftype, v in tags}.values())  # a later entry replaces a tag
    path = tmp_path / "grid.tif"
    path.write_bytes(tiff_bytes(tags, pixels, magic=magic))
    with pytest.raises(RasterFormatError, match=message):
        read_geotiff(path)


def test_rejects_truncated_pixel_data_and_a_bad_byte_order_mark(tmp_path):
    tags, pixels = layout(VALUES)
    data = tiff_bytes(tags, pixels)
    path = tmp_path / "grid.tif"
    path.write_bytes(data.replace(struct.pack("<HHII", STRIP_COUNTS, LONG, 1, len(pixels)),
                                  struct.pack("<HHII", STRIP_COUNTS, LONG, 1, len(pixels) - 8)))
    with pytest.raises(RasterFormatError, match="truncated pixel data"):
        read_geotiff(path)
    path.write_bytes(b"XX" + data[2:])
    with pytest.raises(RasterFormatError, match="bad byte-order mark"):
        read_geotiff(path)


# Files whose counts, offsets or sizes do not fit the file or the layout: each
# case is a typed error, never an IndexError, struct error or large allocation.
def _malformed(case):
    tags, pixels = layout(VALUES)
    by_tag = {t[0]: t for t in tags}
    data = tiff_bytes(tags, pixels)
    ifd = 8 + len(pixels)
    if case == "cut-inside-ifd":
        return data[: ifd + 2 + 12 * 5]
    if case == "ifd-offset-past-end":
        return data[:4] + struct.pack("<I", len(data) + 100) + data[8:]
    if case == "strip-counts-claims-2**32-1-values":
        entry = struct.pack("<HHI", STRIP_COUNTS, LONG, 1)
        assert data.count(entry) == 1
        return data.replace(entry, struct.pack("<HHI", STRIP_COUNTS, LONG, 2**32 - 1))
    if case == "tiepoint-values-past-end":
        by_tag[TIEPOINT] = (TIEPOINT, DOUBLE, tuple(range(6)))
        data = tiff_bytes(list(by_tag.values()), pixels)
        return data[: len(data) - 8]  # the tiepoint's values are stored last
    if case == "width-with-no-values":
        by_tag[WIDTH] = (WIDTH, LONG, ())
    if case == "width-typed-double":
        by_tag[WIDTH] = (WIDTH, DOUBLE, (7.0,))
    if case == "negative-strip-offset":
        by_tag[STRIP_OFFSETS] = (STRIP_OFFSETS, SLONG, (-len(pixels),))
    if case == "short-tiepoint":
        by_tag[TIEPOINT] = (TIEPOINT, DOUBLE, (0.0, 0.0, 0.0))
    if case == "short-transformation":
        del by_tag[PIXEL_SCALE]
        by_tag[TRANSFORMATION] = (TRANSFORMATION, DOUBLE, (2.0, 0.0, 0.0, 1.0))
    if case == "overlapping-strips-larger-than-file":
        # 1000 strips that all point at the same 280 bytes claim 280 kB of pixels
        by_tag[LENGTH] = (LENGTH, LONG, (5000,))
        by_tag[STRIP_OFFSETS] = (STRIP_OFFSETS, LONG, (8,) * 1000)
        by_tag[STRIP_COUNTS] = (STRIP_COUNTS, LONG, (len(pixels),) * 1000)
    return tiff_bytes(list(by_tag.values()), pixels)


MALFORMED = [
    "cut-inside-ifd", "ifd-offset-past-end", "strip-counts-claims-2**32-1-values",
    "tiepoint-values-past-end", "width-with-no-values", "width-typed-double",
    "negative-strip-offset", "short-tiepoint", "short-transformation",
    "overlapping-strips-larger-than-file",
]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_file_is_format_error(tmp_path, case):
    path = tmp_path / "dem.tif"
    path.write_bytes(_malformed(case))
    with pytest.raises(RasterFormatError, match=re.escape(str(path))):
        load_raster(path, "dem")


def _pinned_grid(nodata, crs):
    values = np.linspace(-12.5, 880.25, 7 * 9).reshape(7, 9)
    values[2, 3] = np.nan
    grid = make_grid(values, origin_x=350_000.0, origin_y=4_100_000.0, cell=30.0, crs=crs)
    grid.nodata = nodata
    return grid


# sha256 of `write_geotiff` output: a change to any byte the writer emits must update these
WRITER_DIGESTS = {
    (-9999.0, "EPSG:32654"): "17270272092bd4f6232effedf24b01bd6f7bea47f90297500e687d9071322ec1",
    (-9999.0, ""): "94b26227ceda2e3dd9d9d1c205d8fbebc7e348ea9d56dfdce5f208e6a31bd379",
    (None, "EPSG:4326"): "47a5ce272263b0c1cd850c61c727c98d4663f0226aac73150cb4451718ebc56f",
    (None, ""): "0565bd763fa4c48130d32edeca883c3cb66961e76077a63a73a21422f310ee7d",
    (math.nan, "EPSG:32654"): "d23e7175abc498bb2b5f252d7df4efc1215ae3a81ff7cc5d23008f348ba8bda8",
}


@pytest.mark.parametrize("nodata, crs", WRITER_DIGESTS)
def test_writer_bytes_are_pinned(tmp_path, nodata, crs):
    path = tmp_path / "grid.tif"
    write_geotiff(_pinned_grid(nodata, crs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITER_DIGESTS[nodata, crs]


@pytest.mark.parametrize("nodata", [-9999.0, None], ids=["sentinel", "no-sentinel"])
def test_reader_holds_the_file_and_the_grid_not_copies(tmp_path, nodata):
    """Peak memory of a read is the file's bytes plus the grid's, not a copy per step."""
    values = np.random.default_rng(0).normal(100.0, 5.0, (1024, 1024))  # 8 MB of float64
    values[::7, ::5] = np.nan
    grid = make_grid(values)
    grid.nodata = nodata
    path = tmp_path / "big.tif"
    write_geotiff(grid, path)
    tracemalloc.start()
    try:
        got = read_geotiff(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got.values, values)
    assert peak <= path.stat().st_size + values.nbytes + 2 * 2**20, peak
