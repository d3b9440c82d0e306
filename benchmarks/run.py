"""Benchmark of `terralign correct` on seeded synthetic scenes.

    python3 benchmarks/run.py --workload hills-sweep --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --size small --seconds 1 --trace 1

With `--trace 0` it times whole `terralign correct` processes and the
library set-up sequence, untraced, and prints the end-to-end metrics. With
`--trace 1` it runs `correct` in-process with spans around each module's
public functions and prints the per-layer metrics. Either way it checks
every output against its own computation and exits 1 if a check fails.
The last stdout line is one JSON object; `--workload all` prints one per
workload. Needs only numpy and scipy: `src/` is put on the import path.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_CORRECT_RUNS = 4
SETUP_SECONDS_PER_RUN = 0.5
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 150.0
CORRECT_MAIN = "from terralign.cli import entrypoint; entrypoint()"


def import_program() -> None:
    """Import terralign from this checkout's src/, never from elsewhere."""
    init = SRC / "terralign" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a terralign checkout")
    sys.path.insert(0, str(SRC))
    import terralign

    if Path(terralign.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported terralign from {terralign.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run one process; return (wall seconds from spawn to exit, peak RSS MB, exit code)."""
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def import_seconds() -> float:
    """Fresh-interpreter import time of terralign.cli."""
    code = (
        "import time; t = time.perf_counter(); import terralign.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(out.stdout.strip())


def setup_seconds(scene, w) -> float:
    """Untraced library set-up: load_raster, parse_footprints, prepare_groups."""
    from terralign import QualityRules, load_raster, parse_footprints, prepare_groups

    start = time.perf_counter()
    dem = load_raster(scene.dem_path)
    geoid = load_raster(scene.geoid_path) if scene.geoid_path is not None else None
    with scene.footprints_path.open(newline="") as fh:
        fps, _ = parse_footprints(fh)
    groups, _ = prepare_groups(
        fps, dem, geoid=geoid, rules=QualityRules(), radius=workloads.RADIUS_M,
        footprint_crs=dem.crs_tag,
    )
    elapsed = time.perf_counter() - start
    if not groups:
        raise RuntimeError("set-up produced no groups")
    return elapsed


def measure_untraced(w, scene, seed: int, seconds: float, run_dir: Path) -> dict:
    """Time whole `correct` processes; set-up repetitions fill the gaps
    between them, so both medians sample the same stretch of time."""
    out_dir = run_dir / "out"
    cmd = [sys.executable, "-c", CORRECT_MAIN] + workloads.correct_argv(w, scene, out_dir)
    times, peaks, setup, digests = [], [], [], set()
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_CORRECT_RUNS or time.perf_counter() < deadline:
        elapsed, peak_mb, code = run_child(cmd, run_dir / "correct.log")
        if code != 0:
            return {"error": f"correct exited {code}; see {run_dir / 'correct.log'}", "runs": len(times) + 1}
        times.append(elapsed)
        peaks.append(peak_mb)
        digests.add(checks.output_digest(out_dir))
        setup_until = time.perf_counter() + SETUP_SECONDS_PER_RUN
        while True:
            setup.append(setup_seconds(scene, w))
            if time.perf_counter() >= setup_until:
                break
    outcome = checks.check_outputs(w, scene, out_dir, seed)
    if len(digests) != 1:
        outcome.fail(f"outputs differ across {len(times)} identical correct runs")
    print(
        f"{w.name}: correct runs (s): {' '.join(f'{t:.3f}' for t in times)}; {len(setup)} set-ups",
        file=sys.stderr,
    )
    return {
        "runs": len(times),
        "outcome": outcome,
        "metrics": {
            "correct_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
            "recovery_err_m": (outcome.recovery_err_m, "m"),
        },
    }


def measure_traced(w, scene, seed: int, seconds: float, run_dir: Path) -> dict:
    import terralign.cli
    import terralign.raster

    import_s = statistics.median(import_seconds() for _ in range(IMPORT_REPS))
    ref_dir = run_dir / "out"
    cmd = [sys.executable, "-c", CORRECT_MAIN] + workloads.correct_argv(w, scene, ref_dir)
    _, _, code = run_child(cmd, run_dir / "correct.log")
    if code != 0:
        return {"error": f"correct exited {code}; see {run_dir / 'correct.log'}", "runs": 1}
    reference_digest = checks.output_digest(ref_dir)

    # in-process runs log to a file, as the subprocess logs to its stderr
    handler = logging.FileHandler(run_dir / "inprocess.log")
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    untraced_s, traced_s, layers = [], [], []
    digests = set()
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    try:
        # start another untraced/traced pair only if it ends by the deadline
        while not layers or time.perf_counter() + pair_s < deadline:
            pair_start = time.perf_counter()
            plain_dir = run_dir / "plain"
            start = time.perf_counter()
            code = terralign.cli.main(workloads.correct_argv(w, scene, plain_dir))
            untraced_s.append(time.perf_counter() - start)
            if code != 0:
                return {"error": f"in-process correct returned {code}", "runs": 2 * len(layers) + 2}
            digests.add(checks.output_digest(plain_dir))

            traced_dir = run_dir / "traced"
            tracer = tracing.Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                code = terralign.cli.main(workloads.correct_argv(w, scene, traced_dir))
                traced_s.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
            if code != 0:
                return {"error": f"traced correct returned {code}", "runs": 2 * len(layers) + 3}
            digests.add(checks.output_digest(traced_dir))
            chunk = getattr(terralign.raster, "_CHUNK_ELEMENTS", None)
            layers.append(tracing.layer_metrics(tracer.spans, chunk))
            pair_s = time.perf_counter() - pair_start
    finally:
        root.removeHandler(handler)
        handler.close()
    if tracer.missing:
        print(f"warning: no hook for {', '.join(tracer.missing)}", file=sys.stderr)

    outcome = checks.check_outputs(w, scene, traced_dir, seed)
    if digests != {reference_digest}:
        outcome.fail("traced or in-process outputs differ from the untraced correct process")
    metrics = {"cli.import_s": (import_s, "s")}
    for name, unit, _ in tracing.PER_LAYER:
        if name != "cli.import_s":
            metrics[name] = (statistics.median(run[name] for run in layers), unit)
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    print(
        f"{w.name}: in-process correct {statistics.median(untraced_s):.3f} s untraced, "
        f"{statistics.median(traced_s):.3f} s traced ({overhead:+.1%} tracing overhead, "
        f"{len(layers)} pairs)",
        file=sys.stderr,
    )
    return {"runs": 1 + 2 * len(layers), "outcome": outcome, "metrics": metrics}


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"{w.name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    scene = workloads.build_scene(w, seed, run_dir / "scene")
    measure = measure_traced if trace else measure_untraced
    found = measure(w, scene, seed, seconds, run_dir)
    solves_per_run = w.n_groups * len(w.methods) * len(w.metrics)
    result = {
        "correct": False,
        "attempted": found["runs"] * solves_per_run,
        "failed": 0,
        "metrics": {},
    }
    if "error" in found:
        print(f"{w.name}: {found['error']}", file=sys.stderr)
        result["failed"] = solves_per_run
        return result
    for failure in found["outcome"].failures:
        print(f"{w.name}: check failed: {failure}", file=sys.stderr)
    result["correct"] = not found["outcome"].failures
    for name, (value, unit) in found["metrics"].items():
        result["metrics"][name] = {"value": value, "unit": unit}
        print(f"{w.name}: {name} = {value:.6g} {unit}", file=sys.stderr)
    if result["correct"]:  # a failed run keeps its scene and outputs for inspection
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)} or all")
    if args.size == "small":
        chosen = [workloads.small(w) for w in chosen]

    all_correct = True
    for w in chosen:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace))
        all_correct &= result["correct"]
        if len(chosen) > 1:
            result = {"workload": w.name, **result}
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    import_program()
    sys.exit(main())
