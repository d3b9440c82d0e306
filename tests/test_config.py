"""Config file parsing, validation, and round-tripping."""

import argparse
import math
from dataclasses import fields
from typing import get_args, get_type_hints

import pytest

from terralign import ConfigError, MetricKind, RunConfig
from terralign.cli import build_parser, main
from terralign.config import (
    Bounds, GaConfig, LbfgsbConfig, OptimizerConfig, PsoConfig, QualityRules,
    config_from_dict, config_keys, dump_config, parse_toml,
)
from terralign.raster import AggregationKind


def test_parse_toml_scalars_and_sections():
    text = """
# comment line
dem_path = "dem.tif"
workers = 4
radius = 12.5
flag = true

[quality]
min_sensitivity = 0.9

[optimizer.ga]
pop = 40
"""
    data = parse_toml(text)
    assert data["dem_path"] == "dem.tif"
    assert data["workers"] == 4 and isinstance(data["workers"], int)
    assert data["radius"] == 12.5
    assert data["flag"] is True
    assert data["quality"]["min_sensitivity"] == 0.9
    assert data["optimizer"]["ga"]["pop"] == 40


def test_parse_toml_arrays_and_escapes():
    data = parse_toml('methods = ["grid", "ga"]\nname = "a\\"b"\n')
    assert data["methods"] == ["grid", "ga"]
    assert data["name"] == 'a"b'


def test_parse_toml_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_toml("this is not toml")
    with pytest.raises(ConfigError):
        parse_toml("a = 1\na = 2\n")


def test_config_from_dict_full():
    cfg = config_from_dict(
        {
            "dem_path": "d.tif",
            "footprints_path": "f.csv",
            "output_dir": "out",
            "methods": ["grid", "pso"],
            "metrics": ["area"],
            "seed": 5,
            "agg": "median",
            "bounds": {"max_abs_dx": 10.0, "max_abs_dy": 20.0},
            "quality": {"min_sensitivity": 0.9, "outlier_window": 5},
            "optimizer": {"grid_step": 2.5, "ga": {"pop": 30}, "lbfgsb": {"starts": 5}},
        }
    )
    assert cfg.methods == ["grid", "pso"]
    assert cfg.agg == AggregationKind.MEDIAN
    assert cfg.bounds.max_abs_dx == 10.0 and cfg.bounds.max_abs_dy == 20.0
    assert cfg.quality.min_sensitivity == 0.9
    assert cfg.optimizer.grid_step == 2.5
    assert cfg.optimizer.ga.pop == 30
    assert cfg.optimizer.lbfgsb.starts == 5


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"dem_paths": "x"})
    assert "dem_paths" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"optimizer": {"ga": {"popsize": 3}}})
    with pytest.raises(ConfigError):
        config_from_dict({"bounds": {"dx": 1.0}})


def test_config_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"quality": {"outlier_window": 4}})
    with pytest.raises(ConfigError):
        config_from_dict({"bounds": {"max_abs_dx": -1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"workers": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"agg": "argmax"})


def test_dump_config_round_trip():
    cfg = RunConfig()
    cfg.dem_path = "scene/dem.asc"
    cfg.footprints_path = "scene/f.csv"
    cfg.output_dir = "run"
    cfg.metrics = ["euclidean", "correlation"]
    cfg.seed = 17
    cfg.optimizer.ga.mutation_sigma = 3.25
    cfg.quality.require_tree_cover = True
    text = dump_config(cfg)
    back = config_from_dict(parse_toml(text))
    assert back == cfg
    # a second dump is byte-identical
    assert dump_config(back) == text


def test_dump_config_omits_unset_optionals():
    text = dump_config(RunConfig())
    assert "geoid_path" not in text
    assert "fd_step" not in text
    cfg = RunConfig()
    cfg.geoid_path = "g.tif"
    cfg.optimizer.lbfgsb.fd_step = 2.0
    text2 = dump_config(cfg)
    assert 'geoid_path = "g.tif"' in text2
    assert "fd_step = 2.0" in text2
    assert config_from_dict(parse_toml(text2)) == cfg


def test_config_requires_method_and_metric():
    with pytest.raises(ConfigError):
        config_from_dict(parse_toml("methods = []\n"))


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param('workers = "2"\n', "workers", id="int-from-string"),
        pytest.param('radius = "x"\n', "radius", id="float-from-string"),
        pytest.param('[bounds]\nmax_abs_dx = "a"\n', "bounds.max_abs_dx", id="frozen-section"),
        pytest.param("[optimizer]\nseed = 3\n", "optimizer.seed", id="solver-seed"),
        pytest.param('methods = "grid"\n', "methods", id="list-from-string"),
        pytest.param('methods = ["sgd"]\n', "methods", id="unknown-method"),
        pytest.param("[optimizer.ga]\npop = 2.5\n", "optimizer.ga.pop", id="int-from-float"),
        pytest.param(
            "[optimizer.lbfgsb]\nmultistart = [1.0, 2.0]\n", "optimizer.lbfgsb.multistart", id="multistart"
        ),
        pytest.param('agg = "mode"\n', "agg", id="agg-mode"),
        pytest.param("radius = 1" + "0" * 400 + "\n", "radius", id="int-beyond-float"),
    ],
)
def test_bad_config_value_names_the_key(tmp_path, capsys, text, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        config_from_dict(parse_toml(text))
    path = tmp_path / "run.toml"
    path.write_text(text)
    assert main(["correct", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert "Traceback" not in err


FLOAT_KEYS = [key for key, tp, _ in config_keys() if tp is float]


def run_flag(key):
    """The `correct` flag that sets config key `key`."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in sub.choices["correct"]._actions if a.dest == key]
    return action.option_strings[0]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_names_the_key(tmp_path, capsys, key, value):
    section, _, leaf = key.rpartition(".")
    text = (f"[{section}]\n" if section else "") + f"{leaf} = {value}\n"
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        config_from_dict(parse_toml(text))
    path = tmp_path / "run.toml"
    path.write_text(text)
    for argv in (["--config", str(path)], [f"{run_flag(key)}={value}"]):
        assert main(["correct", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1


def test_config_ints_become_floats_and_flags_override():
    cfg = config_from_dict(
        {"radius": 10, "bounds": {"max_abs_dx": 5}}, {"bounds.max_abs_dy": 7.5, "radius": 11.0}
    )
    assert cfg.radius == 11.0 and cfg.bounds == Bounds(5.0, 7.5)
    assert isinstance(cfg.bounds.max_abs_dx, float)
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({}, {"bogus": 1})


def test_dump_config_defaults_golden():
    assert dump_config(RunConfig()) == """\
dem_path = ""
footprints_path = ""
output_dir = ""
methods = ["grid"]
metrics = ["euclidean"]
radius = 12.5
agg = "mean"
workers = 1
seed = 0

[bounds]
max_abs_dx = 25.0
max_abs_dy = 25.0

[quality]
min_elev = 0.0
max_elev = 2500.0
require_degrade_zero = true
require_quality_one = true
min_sensitivity = 0.95
require_positive_rh100 = true
require_tree_cover = false
max_dem_diff = 50.0
outlier_window = 7
outlier_k = 2.0

[optimizer]
grid_step = 5.0

[optimizer.lbfgsb]
max_iter = 100
tol = 1e-06
starts = 1
history = 10

[optimizer.ga]
pop = 50
generations = 100
crossover_rate = 0.8
mutation_rate = 0.1
tournament_size = 3
blend_alpha = 0.5
mutation_sigma = 2.5
elitism = 1

[optimizer.pso]
swarm = 50
iterations = 100
cognitive = 1.5
social = 1.5
inertia = 0.5
"""


# (text, what parse_toml returns as a dict, or what config_from_dict makes of that, a RunConfig)
VALID_TOML = {
    "comment-after-header": (
        "[quality] # strict\nmin_sensitivity = 0.9\n",
        RunConfig(quality=QualityRules(min_sensitivity=0.9)),
    ),
    "comma-in-quoted-item": ('methods = ["grid", "a,b"]\n', {"methods": ["grid", "a,b"]}),
    "multi-line-array": ('methods = [\n  "grid",\n  "ga", # second\n]\n', RunConfig(methods=["grid", "ga"])),
    "trailing-comma": ('metrics = ["euclidean", "area",]\n', RunConfig(metrics=["euclidean", "area"])),
    "literal-string": ("dem_path = 'C:\\dem\\x.tif'\n", RunConfig(dem_path="C:\\dem\\x.tif")),
    "unicode-escape": ('dem_path = "d\\u00e9m.tif"\n', RunConfig(dem_path="d\u00e9m.tif")),
    "spaced-header": ("[ optimizer.ga ]\npop = 40\n", {"optimizer": {"ga": {"pop": 40}}}),
    "dotted-key": ("optimizer.ga.pop = 40\n", {"optimizer": {"ga": {"pop": 40}}}),
    "inline-table": (
        "bounds = { max_abs_dx = 10.0, max_abs_dy = 20.0 }\n", RunConfig(bounds=Bounds(10.0, 20.0))
    ),
    "underscore-int": ("workers = 1_0\n", RunConfig(workers=10)),
}


@pytest.mark.parametrize("name", sorted(VALID_TOML))
def test_valid_toml_is_read(name):
    text, expected = VALID_TOML[name]
    if isinstance(expected, RunConfig):
        assert config_from_dict(parse_toml(text)) == expected
    else:
        assert parse_toml(text) == expected


NOT_TOML = {
    "leading-dot": "radius = .5\n",
    "trailing-dot": "radius = 5.\n",
    "leading-zero": "workers = 007\n",
    "NaN": "radius = NaN\n",
    "Infinity": "radius = Infinity\n",
    "section-twice": "[quality]\nmin_elev = 1.0\n[quality]\nmax_elev = 2.0\n",
}


@pytest.mark.parametrize("name", sorted(NOT_TOML))
def test_text_that_is_not_toml_is_usage_error(tmp_path, capsys, name):
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_toml(NOT_TOML[name])
    path = tmp_path / "run.toml"
    path.write_text(NOT_TOML[name])
    assert main(["correct", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert "line" in err and "column" in err


@pytest.mark.parametrize("path", ["a\tb", "a\nb", "a\rb", "a\x00b", "a\x1fb", "a\x7fb", 'q"\\x\u00e9'])
def test_dump_config_escapes_what_toml_strings_forbid(path):
    cfg = RunConfig(dem_path=path, geoid_path=path + path)
    assert config_from_dict(parse_toml(dump_config(cfg))) == cfg


def _float_fields(cls):
    hints = get_type_hints(cls)
    return [(cls, f.name) for f in fields(cls) if float in (hints[f.name], *get_args(hints[f.name]))]


FLOAT_SETTINGS = [
    pair
    for cls in (Bounds, QualityRules, LbfgsbConfig, GaConfig, PsoConfig, OptimizerConfig)
    for pair in _float_fields(cls)
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", FLOAT_SETTINGS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_SETTINGS])
def test_settings_reject_non_finite(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cls(**{name: value})


@pytest.mark.parametrize("radius", [0.0, math.nan, math.inf])
def test_run_config_rejects_bad_radius(radius):
    with pytest.raises(ConfigError, match="^radius: must be finite and positive"):
        RunConfig(radius=radius)


@pytest.mark.parametrize(
    "methods, bounds, step, accepted",
    [
        (["lbfgsb", "grid"], {}, 60.0, False),
        (["grid"], {"max_abs_dx": 10.0}, 25.0, False),
        (["grid"], {"max_abs_dx": 10.0}, 20.0, True),
        (["ga"], {}, 60.0, True),
        (["lbfgsb", "ga", "pso"], {}, 60.0, True),
    ],
    ids=["grid-after-lbfgsb", "narrow-dx", "step-equals-window", "ga", "no-grid"],
)
def test_grid_step_wider_than_the_window_is_rejected_only_for_grid(methods, bounds, step, accepted):
    data = {"methods": methods, "bounds": bounds, "optimizer": {"grid_step": step}}
    if accepted:
        assert config_from_dict(data).optimizer.grid_step == step
    else:
        with pytest.raises(ConfigError, match=r"^optimizer\.grid_step: must not exceed the window width"):
            config_from_dict(data)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"workers": 0}, r"^workers: must be >= 1"),
        ({"methods": ["x"]}, r"^methods: unknown name 'x'"),
        ({"metrics": []}, r"^metrics: at least one is required"),
        # each name runs once: a repeat would solve and write one combination twice
        ({"methods": ["grid", "ga", "grid"]}, r"^methods: 'grid' is listed twice$"),
        ({"metrics": ["euclidean", "euclidean"]}, r"^metrics: 'euclidean' is listed twice$"),
        ({"metrics": ["area", MetricKind.AREA]}, r"^metrics: 'area' is listed twice$"),
    ],
    ids=["workers", "methods", "metrics", "method-twice", "metric-twice", "name-and-enum-twice"],
)
def test_run_config_checks_itself_when_built(kwargs, match):
    """A library RunConfig is checked as config_from_dict's is, with the same message."""
    with pytest.raises(ConfigError, match=match):
        RunConfig(**kwargs)
    key = next(iter(kwargs))
    with pytest.raises(ConfigError, match=match):
        config_from_dict({key: kwargs[key]})
