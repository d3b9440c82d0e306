"""Run configuration: `RunConfig` and its nested dataclasses are the schema.

This module owns every settings type (search bounds, quality rules, solver
settings) and imports no terralign module but `metrics` and `raster`, so
the modules that read the settings can all name `RunConfig`.

A key is a dotted field path (`optimizer.ga.pop`) and each nested dataclass
is a [section]. `config_from_dict` type-checks a parsed file plus flag
overrides against the field annotations, `config_keys` lists the keys the
CLI turns into flags, and `dump_config` writes `effective_config.toml`, so a
run can be reproduced from its artifacts. `parse_toml` parses a file's text with
the standard library's `tomllib`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, Iterator, Mapping, get_args, get_origin, get_type_hints

from .metrics import MetricKind
from .raster import AggregationKind

_METRIC_NAMES = tuple(m.value for m in MetricKind)


class ConfigError(ValueError):
    """Raised for unreadable config files or unknown keys."""


METHOD_NAMES = ("grid", "lbfgsb", "ga", "pso")

DEFAULT_WINDOW_M = 25.0
DEFAULT_RADIUS_M = 12.5  # footprint buffer radius
DEFAULT_GRID_STEP_M = 5.0


def _check_finite(settings: Any) -> None:
    """Raise ValueError naming the first float field of `settings` that is NaN or infinite."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Bounds:
    max_abs_dx: float = DEFAULT_WINDOW_M
    max_abs_dy: float = DEFAULT_WINDOW_M

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.max_abs_dx <= 0 or self.max_abs_dy <= 0:
            raise ValueError("bounds must be positive")
        if not math.isfinite(2.0 * max(self.max_abs_dx, self.max_abs_dy)):
            raise ValueError("the window width 2 * max_abs must be finite")


@dataclass
class QualityRules:
    min_elev: float = 0.0
    max_elev: float = 2500.0
    require_degrade_zero: bool = True
    require_quality_one: bool = True
    min_sensitivity: float = 0.95
    require_positive_rh100: bool = True
    require_tree_cover: bool = False
    max_dem_diff: float = 50.0
    outlier_window: int = 7
    outlier_k: float = 2.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.min_elev < self.max_elev:
            raise ValueError("min_elev must be below max_elev")
        if self.outlier_window % 2 == 0 or self.outlier_window < 3:
            raise ValueError("outlier_window must be odd and >= 3")
        if self.outlier_k <= 0:
            raise ValueError("outlier_k must be positive")
        if self.max_dem_diff <= 0:
            raise ValueError("max_dem_diff must be positive")


@dataclass
class LbfgsbConfig:
    max_iter: int = 100
    tol: float = 1e-6
    starts: int = 1  # 1 = origin only, 5 = origin + half-window corners
    history: int = 10

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.starts not in (1, 5):
            raise ValueError("starts must be 1 or 5")
        if self.history < 1:
            raise ValueError("history must be positive")


@dataclass
class GaConfig:
    pop: int = 50
    generations: int = 100
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    tournament_size: int = 3
    blend_alpha: float = 0.5
    mutation_sigma: float = 2.5
    elitism: int = 1

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.pop < 2 or self.generations < 1 or self.tournament_size < 1:
            raise ValueError("population, generations and tournament size must be positive")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
        if self.blend_alpha < 0 or self.mutation_sigma < 0:
            raise ValueError("blend_alpha and mutation_sigma must be non-negative")
        if not 0 <= self.elitism < self.pop:
            raise ValueError("elitism must be in [0, pop)")


@dataclass
class PsoConfig:
    swarm: int = 50
    iterations: int = 100
    cognitive: float = 1.5
    social: float = 1.5
    inertia: float = 0.5

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.swarm < 1 or self.iterations < 1:
            raise ValueError("swarm and iterations must be positive")
        if self.cognitive < 0 or self.social < 0 or self.inertia < 0:
            raise ValueError("coefficients must be non-negative")


@dataclass
class OptimizerConfig:
    # first, so that [optimizer] precedes its subsections in effective_config.toml
    grid_step: float = DEFAULT_GRID_STEP_M
    lbfgsb: LbfgsbConfig = field(default_factory=LbfgsbConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    pso: PsoConfig = field(default_factory=PsoConfig)

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")


@dataclass
class RunConfig:
    """The whole run configuration; field order is the key order of `dump_config`."""

    dem_path: str = ""
    geoid_path: str = ""  # "": no geoid
    footprints_path: str = ""
    output_dir: str = ""
    methods: list[str] = field(default_factory=lambda: ["grid"])
    metrics: list[str] = field(default_factory=lambda: ["euclidean"])
    bounds: Bounds = field(default_factory=Bounds)
    quality: QualityRules = field(default_factory=QualityRules)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    radius: float = DEFAULT_RADIUS_M
    agg: AggregationKind = AggregationKind.MEAN
    workers: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        lists = (("methods", self.methods, METHOD_NAMES), ("metrics", self.metrics, _METRIC_NAMES))
        for key, names, known in lists:
            if not names:
                raise ConfigError(f"{key}: at least one is required")
            for name in names:
                if name not in known:
                    raise ConfigError(f"{key}: unknown name {name!r}; expected one of {known}")
                if names.count(name) > 1:
                    raise ConfigError(f"{key}: {getattr(name, 'value', name)!r} is listed twice")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"radius: must be finite and positive, got {self.radius!r}")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        window = 2.0 * min(self.bounds.max_abs_dx, self.bounds.max_abs_dy)
        if "grid" in self.methods and self.optimizer.grid_step > window:  # only grid reads the step
            step = self.optimizer.grid_step
            raise ConfigError(f"optimizer.grid_step: must not exceed the window width {window!r} m, got {step!r}")


def parse_toml(text: str) -> dict:
    """Parse TOML text into nested dicts; a syntax error raises ConfigError."""
    # imported here: only a run given --config reads TOML, and the import costs milliseconds
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(str(exc)) from exc


def _keys(cls: type, prefix: str) -> Iterator[tuple[str, str, Any]]:
    """(dotted key, field name, resolved type) of each config key of a dataclass."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        yield prefix + f.name, f.name, hints[f.name]


def _check(tp: Any, value: Any, key: str) -> Any:
    """Return `value` as the annotated type `tp`, or raise ConfigError naming `key`."""
    origin = get_origin(tp)
    if origin is list:
        (item,) = get_args(tp)
        if isinstance(value, list):
            return [_check(item, v, key) for v in value]
    elif origin is None and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            choices = ", ".join(str(e.value) for e in tp)
            raise ConfigError(f"{key}: expected one of {choices}, got {value!r}") from None
    elif tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise ConfigError(f"{key}: expected a finite float, got {value!r}")
            return number
    elif tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif isinstance(value, tp):
        return value
    name = str(tp) if get_origin(tp) else tp.__name__
    raise ConfigError(f"{key}: expected {name}, got {value!r}")


def _build(cls: type, data: Any, overrides: dict[str, Any], prefix: str) -> Any:
    """Build `cls` from `data`, popping the `overrides` it uses."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix[:-1]}: expected a [{prefix[:-1]}] section, got {data!r}")
    kwargs: dict[str, Any] = {}
    names = set()
    for key, name, tp in _keys(cls, prefix):
        names.add(name)
        if is_dataclass(tp):
            kwargs[name] = _build(tp, data.get(name, {}), overrides, key + ".")
        elif key in overrides:
            kwargs[name] = _check(tp, overrides.pop(key), key)
        elif name in data:
            kwargs[name] = _check(tp, data[name], key)
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown config key: {prefix}{unknown[0]}")
    try:
        return cls(**kwargs)
    except ConfigError:  # RunConfig's own checks name their key
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{prefix[:-1] or 'config'}: {exc}") from exc


def config_from_dict(data: dict, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Build a RunConfig: defaults, then `data`, then `overrides`.

    `data` is nested like the TOML file; `overrides` maps dotted keys to
    values. An unknown key, a value of the wrong type or a value that a
    section rejects raises ConfigError naming the key.
    """
    overrides = dict(overrides or {})
    cfg = _build(RunConfig, data, overrides, "")
    if overrides:
        raise ConfigError(f"unknown config key: {sorted(overrides)[0]}")
    return cfg


def config_keys(cfg: Any = None, prefix: str = "") -> Iterator[tuple[str, Any, Any]]:
    """(dotted key, type, value) of every settable leaf, in field order.

    Values come from `cfg`, a RunConfig() by default.
    """
    cfg = RunConfig() if cfg is None else cfg
    for key, name, tp in _keys(type(cfg), prefix):
        value = getattr(cfg, name)
        if is_dataclass(tp):
            yield from config_keys(value, key + ".")
        else:
            yield key, tp, value


# TOML basic strings allow no control character but tab, and no bare \ or "
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F) if c != 0x09}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"'})


def _fmt(value: Any) -> str:
    if isinstance(value, Enum):
        value = value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return f'"{value.translate(_ESCAPES)}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_config(cfg: RunConfig) -> str:
    """Serialize the effective configuration; parse_toml round-trips it.

    Keys are written in field order under their [section], top-level keys
    first; a section starts where its first key falls. An empty string (a
    path not given) is left out.
    """
    sections: dict[str, list[str]] = {}
    for key, _, value in config_keys(cfg):
        section, _, name = key.rpartition(".")
        lines = sections.setdefault(section, [f"[{section}]"] if section else [])
        if value != "":
            lines.append(f"{name} = {_fmt(value)}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"
