"""Shared builders for raster and footprint test objects."""

import numpy as np
import pytest

from terralign import RasterGrid
from terralign.footprints import Footprint, ShotGroup


def make_grid(values, origin_x=0.0, origin_y=None, cell=1.0, crs=""):
    """North-up grid over `values`; origin_y defaults to the top edge at rows*cell."""
    values = np.asarray(values, dtype=float)
    if origin_y is None:
        origin_y = values.shape[0] * cell
    return RasterGrid(
        origin_x=origin_x,
        origin_y=origin_y,
        cell_size_x=cell,
        cell_size_y=-cell,
        values=values,
        nodata=-9999.0,
        crs_tag=crs,
    )


def flat_grid(n=64, cell=1.0, value=100.0):
    return make_grid(np.full((n, n), value), cell=cell)


def ramp_grid(n=200, cell=1.0):
    """z = x evaluated at cell centers."""
    xs = (np.arange(n) + 0.5) * cell
    return make_grid(np.tile(xs, (n, 1)), cell=cell)


def make_footprint(
    i=0,
    key="0000000001",
    x=0.0,
    y=0.0,
    elev=100.0,
    degrade=0,
    quality=1,
    sensitivity=0.98,
    rh100=12.0,
    gedi_dem="same",
    **kw,
):
    if gedi_dem == "same":
        gedi_dem = elev
    return Footprint(
        shot_number=f"{key}{i:05d}",
        beam="BEAM0101",
        x=float(x),
        y=float(y),
        elev_lowestmode=float(elev),
        degrade_flag=degrade,
        quality_flag=quality,
        sensitivity=sensitivity,
        rh100=rh100,
        gedi_dem=gedi_dem,
        **kw,
    )


def make_group(xs, ys, elevs, key="0000000001"):
    fps = [
        make_footprint(i, key=key, x=x, y=y, elev=e)
        for i, (x, y, e) in enumerate(zip(xs, ys, elevs))
    ]
    return ShotGroup(key=key, footprints=fps)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
