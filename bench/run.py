"""eitkit benchmark: named workloads through ``eitkit.cli.main`` in one process.

Usage:
    python3 bench/run.py --workload fine-4k --seed 42 --seconds 55 --trace 0

Runs from the root of a checkout and imports eitkit from its ``src``. A run
sets up once, then repeats passes of the workload's verbs until the next
pass would end after ``--seconds``; each pass writes into a fresh directory
under ``.bench_out`` and its outputs are checked after the timed region.

--trace 0  prints the end-to-end metrics of BENCHMARK.json: medians over
           the passes, with tracing off, and the median set-up time of
           several fresh interpreters.
--trace 1  alternates untraced and traced passes and prints the per-layer
           metrics: span self times and counts from the traced passes,
           verb and process times from the untraced ones, and the tracing
           overhead (traced / untraced pass time).

Every run writes its environment, checks and per-pass figures to
``.bench_out/results/``; a traced run also writes its spans there. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Self-tests: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, from spawn to the first verb."""
    probe = Path(__file__).with_name("probe_setup.py")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(probe), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_passes(setup: workloads.Setup, seconds: float, tracer) -> list[workloads.PassResult]:
    """Passes until the next one would end after ``seconds``; with a tracer,
    untraced and traced passes alternate and come in pairs."""
    verbs = setup.workload.verbs
    image_error = None
    if "evaluate" not in verbs and "sweep" not in verbs:
        image_error = workloads.ImageError(setup.config)
    results: list[workloads.PassResult] = []
    reference = None
    start = time.perf_counter()
    while True:
        index = len(results)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.pass_index = index
        result = workloads.run_pass(setup, index)
        if tracer is not None:
            tracer.pass_index = None
        result.traced = traced
        workloads.check_pass(setup, result, reference, image_error)
        if reference is None:
            reference = result.hashes
        shutil.rmtree(result.out, ignore_errors=True)
        results.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in results)
        if elapsed + typical > seconds and (tracer is None or len(results) % 2 == 0):
            return results


def verb_medians(results) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for r in results:
        for verb, _, wall in r.verbs:
            walls.setdefault(verb, []).append(wall)
    return {verb: statistics.median(w) for verb, w in walls.items()}


def end_to_end(results, setup_samples) -> dict[str, float]:
    attempted, failed = workloads.failures(results)
    return {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(r.wall_s for r in results),
        "re": statistics.median(r.re for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": (attempted - failed) / attempted,
    }


def per_layer(results, tracer) -> dict[str, float]:
    import spans

    plain = [r for r in results if not r.traced]
    traced = [r for r in results if r.traced]
    per_pass = []
    for r in traced:
        m = spans.pass_metrics([s for s in tracer.spans if s.pass_index == r.index], tracer.home)
        m["pipeline.bytes_written"] = r.bytes_written
        per_pass.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    verb_s = verb_medians(plain)
    for verb in spans.VERBS:
        metrics[f"verb.{verb}_s"] = verb_s.get(verb, 0.0)
    metrics["proc.cpu_s"] = statistics.median(r.cpu_s for r in plain)
    metrics["proc.cpu_util"] = statistics.median(r.cpu_s / r.wall_s for r in plain)
    metrics["trace.overhead"] = (statistics.median(r.wall_s for r in traced)
                                 / statistics.median(r.wall_s for r in plain))
    return metrics


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eitkit").glob("*.*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OPENBLAS_", "OMP_"))},
    }


# ---------------------------------------------------------------------------


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


def report(args, results, setup_samples, env, metrics, unit_of) -> list[str]:
    elapsed = sum(r.wall_s for r in results)
    lines = [
        f"eitkit benchmark: workload {args.workload}, seed {args.seed}, "
        f"{len(results)} passes ({sum(r.traced for r in results)} traced), "
        f"{elapsed:.2f} s timed, tracing {'on' if args.trace else 'off'}",
    ]
    if setup_samples:
        lines.append("  setup samples (s): " + ", ".join(f"{s:.4f}" for s in setup_samples))
    for verb, wall in verb_medians([r for r in results if not r.traced]).items():
        lines.append(f"  verb {verb:<12} median {wall:.4f} s over the untraced passes")
    for name, value in metrics.items():
        lines.append(f"  {name:<30} {value:.6g} {unit_of[name]}")
    counts: dict[str, list[int]] = {}
    for r in results:
        for name, ok in r.checks.items():
            tally = counts.setdefault(name, [0, 0])
            tally[0] += 1
            tally[1] += not ok
    attempted, failed = workloads.failures(results)
    lines.append(f"  error_rate {failed}/{attempted} = {failed / attempted:.4f} "
                 f"(named checks and sweep cells)")
    for name, (n, bad) in counts.items():
        status = "FAIL" if bad else "ok"
        note = f"  [{workloads.KNOWN_DEFECTS[name]}]" if bad and name in workloads.KNOWN_DEFECTS else ""
        lines.append(f"  check {name:<24} {status} ({n - bad}/{n} passes){note}")
    cells = [ok for r in results for ok in r.cells]
    if cells:
        lines.append(f"  sweep cells ok: {sum(cells)}/{len(cells)}")
    for r in results:
        lines.extend(f"  pass {r.index}: {m}" for m in r.messages)
    lines.append("  env " + json.dumps(env, sort_keys=True))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup = workloads.set_up(ROOT, args.workload, args.seed)
    except workloads.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    try:
        return measure(args, setup)
    finally:
        shutil.rmtree(setup.work, ignore_errors=True)


def measure(args, setup: workloads.Setup) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in spec[kind]}

    tracer = None
    setup_samples = []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(sys.modules["eitkit"])
    else:
        setup_samples = measure_setup(args.workload, args.seed)
    try:
        results = run_passes(setup, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        metrics = per_layer(results, tracer)
    else:
        metrics = end_to_end(results, setup_samples)
    missing = sorted(set(unit_of) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    metrics = {name: metrics[name] for name in unit_of}

    env = environment()
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(results_dir / f"{stem}.spans.jsonl")

    unexpected = sorted(
        {name for r in results for name, ok in r.checks.items()
         if not ok and name not in workloads.KNOWN_DEFECTS}
        | ({"sweep_cells"} if any(not ok for r in results for ok in r.cells) else set())
    )
    operations = sum(len(r.verbs) + len(r.cells) for r in results)
    operations_failed = sum(
        sum(code != 0 for _, code, _ in r.verbs) + sum(not ok for ok in r.cells) for r in results)
    line = {
        "correct": not unexpected,
        "attempted": operations,
        "failed": operations_failed,
        "metrics": {name: {"value": _finite_or_none(v), "unit": unit_of[name]}
                    for name, v in metrics.items()},
    }
    record = {
        "args": vars(args),
        "env": env,
        "setup_samples_s": setup_samples,
        "unexpected_failures": unexpected,
        "passes": [
            {"index": r.index, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "verbs": r.verbs, "re": _finite_or_none(r.re), "checks": r.checks,
             "cells_ok": sum(r.cells), "cells": len(r.cells), "hashes": r.hashes,
             "bytes_written": r.bytes_written, "messages": r.messages}
            for r in results
        ],
        "result": line,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for text in report(args, results, setup_samples, env, metrics, unit_of):
        print(text)
    print(f"  results: {results_dir.relative_to(ROOT) / stem}.json")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
