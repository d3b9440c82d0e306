"""The benchmark's tracing hooks still name real functions and call shapes.

`benchmarks/tracing.py` patches module attributes by name and reads
`method` and `workers` from the keywords of each `correct_dataset` call. A
renamed target only prints a warning there and silently drops its spans,
so these tests pin the targets from tier 1.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from terralign.cli import main
from terralign.optimize import correct_dataset

TRACING_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_hook_names_an_attribute(tracing):
    for module_name, attr_path, _ in tracing.HOOKS:
        owner = importlib.import_module(f"terralign.{module_name}")
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"no terralign.{module_name}.{attr_path}"
            owner = getattr(owner, part)


def test_correct_dataset_takes_method_and_workers_keywords():
    params = inspect.signature(correct_dataset).parameters
    for name in ("method", "workers"):
        assert params[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_traced_correct_records_every_solver_span(tracing, tmp_path):
    scene = tmp_path / "scene"
    assert main(["simulate", "--out", str(scene), "--rows", "120", "--cols", "120",
                 "--n-groups", "2", "--n-footprints", "6", "--spacing", "20",
                 "--dx", "4", "--dy", "-3"]) == 0

    def traced_correct(workers):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = main(["correct", "--dem", str(scene / "terrain.asc"),
                         "--footprints", str(scene / "footprints.csv"),
                         "--out", str(tmp_path / f"run_w{workers}"),
                         "--methods", "grid,ga", "--ga-pop", "4", "--ga-generations", "2",
                         "--workers", str(workers)])
        finally:
            tracer.uninstall()
        assert code == 0
        assert tracer.missing == []
        return tracer

    tracer = traced_correct(2)
    datasets = [s.info for s in tracer.spans if s.name == "optimize.correct_dataset"]
    assert [(d["method"], d["workers"]) for d in datasets] == [("grid", 2), ("ga", 2)]
    assert sum(s.name == "evaluate.compare" for s in tracer.spans) == 1
    # at 2 workers each group is solved in a forked process, out of the tracer's sight
    tracer = traced_correct(1)
    assert sum(s.name == "optimize.correct_group" for s in tracer.spans) == 4
