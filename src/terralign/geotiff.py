"""Minimal single-band floating-point GeoTIFF reader and writer.

Covers exactly what this package needs: classic (non-Big) TIFF, one band,
uncompressed strips, IEEE float32/float64 samples, georeferencing via
ModelPixelScale + ModelTiepoint (or an axis-aligned ModelTransformation),
GDAL's ASCII nodata tag, and the ProjectedCSType geo-key for an EPSG tag.
Anything else is rejected with a clear error rather than guessed at.

The reader decodes only the tags it uses, each as a numpy view of the file
whose end is checked against the file's length first, and it assembles no
more pixel bytes than the file holds. So a malformed file fails with
`RasterFormatError`, using memory in proportion to the file's size.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .raster import RasterFormatError, RasterGrid

# TIFF tag ids
_IMAGE_WIDTH = 256
_IMAGE_LENGTH = 257
_BITS_PER_SAMPLE = 258
_COMPRESSION = 259
_PHOTOMETRIC = 262
_STRIP_OFFSETS = 273
_SAMPLES_PER_PIXEL = 277
_ROWS_PER_STRIP = 278
_STRIP_BYTE_COUNTS = 279
_PLANAR_CONFIG = 284
_TILE_WIDTH = 322
_SAMPLE_FORMAT = 339
_MODEL_PIXEL_SCALE = 33550
_MODEL_TIEPOINT = 33922
_MODEL_TRANSFORMATION = 34264
_GEOKEY_DIRECTORY = 34735
_GDAL_NODATA = 42113

# TIFF field type id -> little-endian dtype of one value. The reader swaps the
# byte order for big-endian files; the writer looks a type id up by its
# array's dtype. A tag of any other field type counts as absent.
_FIELD_TYPES = {
    1: np.dtype("u1"),  # BYTE
    2: np.dtype("S1"),  # ASCII
    3: np.dtype("<u2"),  # SHORT
    4: np.dtype("<u4"),  # LONG
    5: np.dtype(("<u4", (2,))),  # RATIONAL (pair of LONGs)
    6: np.dtype("i1"),  # SBYTE
    8: np.dtype("<i2"),  # SSHORT
    9: np.dtype("<i4"),  # SLONG
    11: np.dtype("<f4"),  # FLOAT
    12: np.dtype("<f8"),  # DOUBLE
}
_TYPE_IDS = {dtype: ftype for ftype, dtype in _FIELD_TYPES.items()}

# one 12-byte IFD entry; `value` holds the values themselves when they fit in
# its 4 bytes, else their offset in the file
_ENTRY = np.dtype([("tag", "<u2"), ("type", "<u2"), ("count", "<u4"), ("value", "<u4")])

_PROJECTED_CS_TYPE_GEOKEY = 3072
_GEOGRAPHIC_TYPE_GEOKEY = 2048


class _Ifd:
    """The entries of a TIFF's first IFD, whose values are decoded on request."""

    def __init__(self, data: bytes, bo: str, offset: int, path: Path) -> None:
        if offset + 2 > len(data):
            raise RasterFormatError(f"{path}: bad IFD offset")
        n_entries = int(np.frombuffer(data, bo + "u2", 1, offset)[0])
        self.start = offset + 2
        if self.start + _ENTRY.itemsize * n_entries > len(data):
            raise RasterFormatError(f"{path}: the IFD's {n_entries} entries run past the end of the file")
        self.entries = np.frombuffer(data, _ENTRY.newbyteorder(bo), n_entries, self.start).tolist()
        # a tag's last entry of a known field type wins
        self.index = {tag: i for i, (tag, ftype, _, _) in enumerate(self.entries) if ftype in _FIELD_TYPES}
        self.data, self.bo, self.path = data, bo, path

    def get(self, tag: int) -> list | bytes | None:
        """The tag's values, decoded from a view of the file; None when absent.

        ASCII values come as bytes, whose items are ints like a SHORT's.
        """
        i = self.index.get(tag)
        if i is None:
            return None
        _, ftype, count, value = self.entries[i]
        dtype = _FIELD_TYPES[ftype].newbyteorder(self.bo)
        nbytes = count * dtype.itemsize
        start = self.start + _ENTRY.itemsize * i + 8 if nbytes <= 4 else value
        if start + nbytes > len(self.data):
            raise RasterFormatError(f"{self.path}: the values of tag {tag} run past the end of the file")
        view = np.frombuffer(self.data, dtype, count, start).ravel()
        return view.tobytes() if ftype == 2 else view.tolist()

    def ints(self, tag: int) -> list[int] | bytes | None:
        """The tag's values, which must be non-negative integers; None when absent."""
        values = self.get(tag)
        if values is not None and not all(type(v) is int and v >= 0 for v in values):
            raise RasterFormatError(f"{self.path}: tag {tag} must hold non-negative integers")
        return values


def read_geotiff(path: str | Path) -> RasterGrid:
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 8:
        raise RasterFormatError(f"{path}: too short to be a TIFF")
    bo = {b"II": "<", b"MM": ">"}.get(data[:2])
    if bo is None:
        raise RasterFormatError(f"{path}: not a TIFF (bad byte-order mark)")
    magic = int(np.frombuffer(data, bo + "u2", 1, 2)[0])
    if magic == 43:
        raise RasterFormatError(f"{path}: BigTIFF is not supported")
    if magic != 42:
        raise RasterFormatError(f"{path}: not a TIFF (magic={magic})")
    tags = _Ifd(data, bo, int(np.frombuffer(data, bo + "u4", 1, 4)[0]), path)

    if _TILE_WIDTH in tags.index:
        raise RasterFormatError(f"{path}: tiled TIFFs are not supported")
    compression = (tags.get(_COMPRESSION) or [1])[0]
    if compression != 1:
        raise RasterFormatError(f"{path}: compressed TIFFs are not supported (compression={compression})")
    spp = (tags.get(_SAMPLES_PER_PIXEL) or [1])[0]
    if spp != 1:
        raise RasterFormatError(f"{path}: multi-band rasters are not supported ({spp} samples/pixel)")
    if (tags.get(_PLANAR_CONFIG) or [1])[0] != 1:
        raise RasterFormatError(f"{path}: planar configuration 2 is not supported")

    width, height = ((tags.ints(tag) or [0])[0] for tag in (_IMAGE_WIDTH, _IMAGE_LENGTH))
    if not width or not height:
        raise RasterFormatError(f"{path}: missing image dimensions")
    bits = (tags.get(_BITS_PER_SAMPLE) or [1])[0]
    fmt = (tags.get(_SAMPLE_FORMAT) or [1])[0]
    if fmt != 3 or bits not in (32, 64):
        raise RasterFormatError(
            f"{path}: only float32/float64 samples are supported "
            f"(sample format {fmt}, {bits} bits)"
        )
    dtype = np.dtype(bo + ("f4" if bits == 32 else "f8"))

    offsets = tags.ints(_STRIP_OFFSETS)
    counts = tags.ints(_STRIP_BYTE_COUNTS)
    if offsets is None or counts is None:
        raise RasterFormatError(f"{path}: missing strip layout tags")
    # the strips are read in order up to the grid's size, which the file must
    # hold, so overlapping strips cannot make the pixel bytes outgrow the file;
    # they are copied once, into the grid's own buffer
    need = width * height * dtype.itemsize
    if need > len(data):
        raise RasterFormatError(f"{path}: truncated pixel data")
    pixels = np.empty(need, np.uint8)
    filled = 0
    for offset, count in zip(offsets, counts):
        n = min(count, need - filled, len(data) - offset)
        if n > 0:  # a strip past the end of the file holds no bytes
            pixels[filled : filled + n] = np.frombuffer(data, np.uint8, n, offset)
            filled += n
    if filled < need:
        raise RasterFormatError(f"{path}: truncated pixel data")
    values = pixels.view(dtype).reshape(height, width).astype(np.float64, copy=False)

    origin_x, origin_y, csx, csy = _georeference(tags, path)

    nodata = None
    text = tags.get(_GDAL_NODATA)
    if isinstance(text, bytes):
        try:
            nodata = float(text.split(b"\x00")[0].decode("ascii").strip())
        except (UnicodeDecodeError, ValueError):
            nodata = None
    if nodata is not None and not np.isnan(nodata):
        values[values == nodata] = np.nan

    return RasterGrid(
        origin_x=origin_x,
        origin_y=origin_y,
        cell_size_x=csx,
        cell_size_y=csy,
        values=values,
        nodata=nodata,
        crs_tag=_crs_tag(tags, path),
    )


def _georeference(tags: _Ifd, path: Path) -> tuple[float, float, float, float]:
    scale, tiepoint = tags.get(_MODEL_PIXEL_SCALE), tags.get(_MODEL_TIEPOINT)
    if scale is not None and tiepoint is not None:
        if len(scale) < 2 or len(tiepoint) < 5:
            raise RasterFormatError(f"{path}: too few ModelPixelScale or ModelTiepoint values")
        sx, sy = scale[:2]
        # tiepoint maps raster (i, j, k) -> model (x, y, z); anchor at upper-left
        i, j, _, x, y = tiepoint[:5]
        return x - i * sx, y + j * sy, sx, -sy
    m = tags.get(_MODEL_TRANSFORMATION)
    if m is not None:
        if len(m) < 8:
            raise RasterFormatError(f"{path}: too few ModelTransformation values")
        if m[1] != 0.0 or m[4] != 0.0:
            raise RasterFormatError(f"{path}: rotated rasters are not supported")
        return m[3], m[7], m[0], m[5]
    raise RasterFormatError(f"{path}: no georeferencing tags (ModelPixelScale/Tiepoint)")


def _crs_tag(tags: _Ifd, path: Path) -> str:
    keys = tags.ints(_GEOKEY_DIRECTORY)
    if keys is None or len(keys) < 4:
        return ""
    for k in range(keys[3]):
        key = keys[4 + 4 * k : 8 + 4 * k]
        if len(key) < 4:
            raise RasterFormatError(f"{path}: GeoKeyDirectory holds fewer than its {keys[3]} keys")
        key_id, location, _, value = key
        if key_id in (_PROJECTED_CS_TYPE_GEOKEY, _GEOGRAPHIC_TYPE_GEOKEY) and location == 0:
            if 1024 <= value <= 32766:
                return f"EPSG:{value}"
    return ""


def write_geotiff(grid: RasterGrid, path: str | Path) -> None:
    """Write a grid as an uncompressed little-endian float GeoTIFF.

    float64 values are written as-is so a read round trip is bit-exact;
    NaN cells are replaced by the grid's nodata sentinel when one is set,
    otherwise NaN itself is stored (readers treat non-finite as nodata).
    """
    values = grid.values
    if grid.nodata is not None and grid.has_nodata:
        values = np.where(np.isnan(values), grid.nodata, values)
    pixels = np.ascontiguousarray(values, dtype="<f8")

    epsg = 0
    if grid.crs_tag.upper().startswith("EPSG:"):
        try:
            epsg = int(grid.crs_tag.split(":", 1)[1])
        except ValueError:
            epsg = 0

    short, long, double = _FIELD_TYPES[3], _FIELD_TYPES[4], _FIELD_TYPES[12]
    fields = {
        _IMAGE_WIDTH: np.array([grid.n_cols], long),
        _IMAGE_LENGTH: np.array([grid.n_rows], long),
        _BITS_PER_SAMPLE: np.array([64], short),
        _COMPRESSION: np.array([1], short),
        _PHOTOMETRIC: np.array([1], short),
        _STRIP_OFFSETS: np.array([0], long),  # set below, once the layout is known
        _SAMPLES_PER_PIXEL: np.array([1], short),
        _ROWS_PER_STRIP: np.array([grid.n_rows], long),
        _STRIP_BYTE_COUNTS: np.array([pixels.nbytes], long),
        _PLANAR_CONFIG: np.array([1], short),
        _SAMPLE_FORMAT: np.array([3], short),
        _MODEL_PIXEL_SCALE: np.array([grid.cell_size_x, abs(grid.cell_size_y), 0.0], double),
        _MODEL_TIEPOINT: np.array([0.0, 0.0, 0.0, grid.origin_x, grid.origin_y, 0.0], double),
    }
    if epsg:
        # header (version, rev, minor, count) + one key per row
        fields[_GEOKEY_DIRECTORY] = np.array(
            [1, 1, 0, 3,
             1024, 0, 1, 1,        # GTModelType = projected
             1025, 0, 1, 1,        # GTRasterType = PixelIsArea
             _PROJECTED_CS_TYPE_GEOKEY, 0, 1, epsg],
            short,
        )
    if grid.nodata is not None:
        fields[_GDAL_NODATA] = np.frombuffer(f"{grid.nodata!r}".encode("ascii") + b"\x00", _FIELD_TYPES[2])
    fields = dict(sorted(fields.items()))

    # layout: header(8) | IFD | out-of-line values, each padded to even length | pixels
    ifd_end = 8 + 2 + _ENTRY.itemsize * len(fields) + 4
    out_of_line = [a.nbytes + a.nbytes % 2 for a in fields.values() if a.nbytes > 4]
    fields[_STRIP_OFFSETS][0] = ifd_end + sum(out_of_line)

    entries, extra = [], bytearray()
    for tag, a in fields.items():
        raw = a.tobytes()
        if len(raw) <= 4:
            value = int.from_bytes(raw.ljust(4, b"\x00"), "little")
        else:
            value = ifd_end + len(extra)
            extra += raw + b"\x00" * (len(raw) % 2)
        entries.append((tag, _TYPE_IDS[a.dtype], a.size, value))
    header = b"II" + (42).to_bytes(2, "little") + (8).to_bytes(4, "little")
    ifd = len(entries).to_bytes(2, "little") + np.array(entries, _ENTRY).tobytes() + bytes(4)
    with Path(path).open("wb") as fh:
        fh.write(header + ifd + extra)
        fh.write(pixels)
