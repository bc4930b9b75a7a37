"""fanorank benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload extremal --seed 1 --seconds 25 --trace 0

Load is a closed loop with one client in one process: each operation
starts after the previous one has finished and its output has been
checked against the oracle.  Every latency is scaled to reference speed
with the loop of ``calibrate.py``, timed after each operation; the raw
wall-clock figures are in the details.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` installs span wrappers (``spans.py``) in this process and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's details (Python version,
core count, seed, the inputs, the tail percentile and its sample counts).
See README.md for the workloads and the definition of every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAYERS = ("lattice", "polytope", "fan", "mori", "bounds", "formats", "cli", "enum2d")
SETUP_REPEATS = 3
JOBS_ONE_REPEATS = 3
MAX_PROBLEMS = 10

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs as gen  # noqa: E402
import spans  # noqa: E402
from workloads import COPIES, WORKLOADS  # noqa: E402


class LibraryMissing(RuntimeError):
    """fanorank is not importable from this checkout's ``src``."""


def load_library():
    """Import fanorank afresh from ``src``, never from an installed copy."""
    for name in [m for m in sys.modules if m == "fanorank" or m.startswith("fanorank.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("fanorank")
        if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
            raise LibraryMissing(f"fanorank resolved to {package.__file__}, not to {SRC}")
        for layer in LAYERS:
            importlib.import_module(f"fanorank.{layer}")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import fanorank from {SRC}: {exc}") from exc
    return package


class Stats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(problems[: max(room, 0)])


def run_op(slot, k, clock, stats: Stats, tracer=None) -> tuple[float, float]:
    """Time one operation, then check its output.

    Returns the wall-clock latency and the latency at reference speed.
    Garbage left by earlier operations is collected before the timer
    starts, so no operation pays for another's.
    """
    gc.collect()
    first = len(tracer.spans) if tracer else 0
    out = error = None
    start = perf_counter()
    try:
        if tracer is None:
            out = slot.run(k)
        else:
            with tracer.span(slot.span, slot.label):
                out = slot.run(k)
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{slot.label}: raised {exc!r}"
    latency = perf_counter() - start
    scaled = clock.scale(latency)
    if error is not None:
        stats.record([error])
    else:
        stats.record(slot.check(k, out, tracer.spans[first:] if tracer else None))
    return latency, scaled


class Passes:
    """Whole passes run until their operations have been busy ``seconds``."""

    def __init__(self, workload, seconds: float, clock, stats: Stats, tracer=None) -> None:
        self.latencies: list[float] = []  # at reference speed
        self.wall: list[float] = []
        self.by_input: dict[str, list[float]] = {}
        self.pass_seconds: list[float] = []
        self.layers: list[dict] = []
        self.polytopes = 0
        busy = 0.0
        uses: dict[int, int] = {}
        while not self.pass_seconds or busy < seconds:
            first_span = len(tracer.spans) if tracer else 0
            first_factor = len(clock.factors)
            took = 0.0
            for slot in workload.plan:
                k = uses.get(id(slot), 0)
                uses[id(slot)] = k + 1
                wall, latency = run_op(slot, k % COPIES, clock, stats, tracer)
                self.wall.append(wall)
                self.latencies.append(latency)
                self.by_input.setdefault(slot.label, []).append(latency)
                self.polytopes += slot.polytopes
                busy += wall
                took += latency
            self.pass_seconds.append(took)
            if tracer is not None:
                factor = statistics.median(clock.factors[first_factor:])
                totals = spans.layer_totals(tracer.spans[first_span:])
                self.layers.append(
                    {name: v * factor if name.endswith("_s") else v for name, v in totals.items()}
                )


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + children_kib) / 1024.0


def latency_metrics(workload, latencies: list[float], polytopes: int) -> dict:
    return {
        "polytopes_per_s": polytopes / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, workload.tail_percentile),
    }


def end_to_end(workload, passes: Passes, setup: dict) -> tuple[dict, dict]:
    scaled = latency_metrics(workload, passes.latencies, passes.polytopes)
    metrics = {
        "setup_s": (setup["scaled"], "s"),
        **{name: (v, "1/s" if name == "polytopes_per_s" else "s") for name, v in scaled.items()},
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    tail = scaled["op_tail_s"]
    detail = {
        "tail_percentile": workload.tail_percentile,
        "samples": len(passes.latencies),
        "samples_beyond_tail": sum(1 for x in passes.latencies if x > tail),
        "per_input_p50_s": {k: statistics.median(v) for k, v in passes.by_input.items()},
        "wall_clock": {
            "setup_s": setup["wall"],
            **latency_metrics(workload, passes.wall, passes.polytopes),
        },
    }
    return metrics, detail


def per_layer(workload, untraced: Passes, passes: Passes, speedup: float) -> tuple[dict, dict]:
    metrics = {}
    for name in spans.LAYER_METRICS:
        value = statistics.median(layer[name] for layer in passes.layers)
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (value, unit)
    metrics["cli.jobs_speedup"] = (speedup, "ratio")
    paired = zip(passes.pass_seconds, untraced.pass_seconds)
    metrics["trace.overhead_s"] = (statistics.median(t - u for t, u in paired), "s")
    pass_s = statistics.median(passes.pass_seconds)
    value = {name: v for name, (v, _) in metrics.items()}
    valid = workload.valid_analyses_per_pass
    detail = {
        "traced_pass_s": pass_s,
        "untraced_pass_s": statistics.median(untraced.pass_seconds),
        "valid_analyses_per_pass": valid,
        "collections_calls_per_valid_analyze": value["mori.collections_calls"] / valid if valid else None,
        "share_of_op_time": {
            "polytope.hull_s": value["polytope.hull_s"] / pass_s,
            "fan.faces_s+mori.collections_s": (value["fan.faces_s"] + value["mori.collections_s"]) / pass_s,
        },
    }
    return metrics, detail


def traced(workload, lib, args, clock, stats: Stats) -> tuple[dict, dict]:
    """Untraced passes, then the same passes with the span wrappers installed."""
    untraced = Passes(workload, args.seconds / 2, clock, stats)
    tracer = spans.Tracer()
    patches = spans.install(lib, tracer)
    try:
        passes = Passes(workload, args.seconds / 2, clock, stats, tracer)
        speedup = 0.0
        if workload.jobs_one is not None:
            ones = [
                run_op(workload.jobs_one, k, clock, stats, tracer)[1]
                for k in range(JOBS_ONE_REPEATS)
            ]
            speedup = statistics.median(ones) / statistics.median(passes.latencies)
    finally:
        spans.uninstall(patches)
    metrics, detail = per_layer(workload, untraced, passes, speedup)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    detail["spans_file"] = str(span_file.relative_to(ROOT))
    detail["passes"] = len(passes.pass_seconds)
    return metrics, detail


def set_up(args, workdir: Path, clock, stats: Stats):
    """Set the workload up ``SETUP_REPEATS`` times; the last one is used.

    One set-up is a fresh import of fanorank, the seeded inputs and files,
    and a warm-up round.  Its time is the sum of those parts, each scaled
    to reference speed on its own; the median over the repeats is
    ``setup_s``, and the same on the wall clock goes to the details.
    """
    prepare, warmup, wall = [], [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = load_library()
        workload = WORKLOADS[args.workload](lib, args.seed, workdir)
        took = perf_counter() - start
        prepare.append(clock.scale(took))
        warm = [run_op(slot, 0, clock, stats) for slot in workload.warmup]
        warmup.append(sum(s for _, s in warm))
        wall.append(took + sum(w for w, _ in warm))
    # Everything built so far lives until the end; move it out of the
    # collector's way so that collections during the passes stay small.
    gc.collect()
    gc.freeze()
    setup = {
        "scaled": statistics.median(p + w for p, w in zip(prepare, warmup)),
        "wall": statistics.median(wall),
        "prepare_s": prepare,
        "warmup_s": warmup,
    }
    return lib, workload, setup


def run(args) -> dict:
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    clock = calibrate.Clock()
    stats = Stats()
    try:
        lib, workload, setup = set_up(args, workdir, clock, stats)
        if args.trace:
            metrics, more = traced(workload, lib, args, clock, stats)
        else:
            passes = Passes(workload, args.seconds, clock, stats)
            metrics, more = end_to_end(workload, passes, setup)
            more["passes"] = len(passes.pass_seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": workload.record(),
        "max_abs_coordinate": gen.max_abs_coordinate(workload.inputs),
        "setup": {k: setup[k] for k in ("prepare_s", "warmup_s")},
        "speed_factor_p50": statistics.median(clock.factors),
        **more,
        "error_rate": stats.failed / stats.attempted,
        "problems": stats.problems,
    }
    print(json.dumps({"detail": detail}))
    return {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
