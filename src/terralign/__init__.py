"""Horizontal geolocation correction for spaceborne LiDAR footprints.

The package matches footprint elevation profiles against a reference DEM
and searches a continuous +/-25 m window for the horizontal offset that
minimizes the elevation discrepancy, one offset per shot group. The top
level exports the library entry points and the error types; everything
else is imported from its module (`terralign.optimize`,
`terralign.evaluate`, ...).
"""

from .config import ConfigError, QualityRules, RunConfig
from .footprints import FootprintError, parse_footprints, prepare_groups
from .metrics import MetricError, MetricKind
from .optimize import correct_dataset
from .raster import CrsMismatchError, RasterError, RasterFormatError, RasterGrid, load_raster, write_raster
from .synthetic import TerrainSpec, TrackError, gen_terrain

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CrsMismatchError",
    "FootprintError",
    "MetricError",
    "MetricKind",
    "QualityRules",
    "RasterError",
    "RasterFormatError",
    "RasterGrid",
    "RunConfig",
    "TerrainSpec",
    "TrackError",
    "correct_dataset",
    "gen_terrain",
    "load_raster",
    "parse_footprints",
    "prepare_groups",
    "write_raster",
]
