"""Benchmark workloads: set-up, one timed pass through ``eitkit.cli.main``,
and the named checks run on each pass's outputs.

Every workload starts from the shipped ``src/eitkit/paper-2d.cfg``; the
benchmark seed is written into the config's ``seed`` field, which drives
the measurement noise. Only the standard library is imported at module
level: importing eitkit is part of the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

CHAIN = ("mesh", "simulate", "reconstruct", "evaluate", "render")


@dataclass(frozen=True)
class Workload:
    """Config fields changed from paper-2d.cfg, and the verbs of one pass."""

    overrides: dict
    verbs: tuple[str, ...]


# The reason for each workload is in BENCHMARK.json; in short: sweep-1k is
# the only workload whose solves share S, D and rho; fine-4k is dominated by
# the dense x-update factorization and the 64k-element forward solves.
# paper-1k, the paper's standard instance (rasterize and text I/O dominate),
# runs by name but is not in BENCHMARK.json: its pass time, mostly a Python
# loop, follows the host's drifting CPU speed, and its spread over ten seeds
# reached 0.33 of the median. N=16k is left out: its dense x-update matrix
# alone is ~2 GB.
WORKLOADS = {
    "paper-1k": Workload({}, CHAIN),
    "sweep-1k": Workload({}, ("sweep",)),
    "fine-4k": Workload({"inverse_elements": 4096, "forward_elements": 65536}, CHAIN[:3]),
}

# Files the README's determinism contract makes byte-identical across
# repeated runs. iterates.csv is exempt: it carries wall_ms.
DETERMINISTIC = ("delta_sigma.txt", "eval.csv", "profiles.csv", "sweep.csv")

# Checks that fail at the seed commit because of a defect listed in
# ROADMAP.md. They run and are reported by name, and count against ok_rate,
# but do not make a run incorrect: a benchmark that is always incorrect
# measures nothing.
KNOWN_DEFECTS = {
    "iterates_csv_floats": 'ROADMAP known defect "iterates.csv is not numeric CSV"',
}


class SetupError(Exception):
    """The checkout does not hold a runnable eitkit source tree."""


@dataclass
class Setup:
    workload: Workload
    work: Path
    config_path: Path
    config: dict
    cli: object  # the eitkit.cli module


def set_up(root: Path, name: str, seed: int, tag: str = "run") -> Setup:
    """Import eitkit from ``root/src``, write the seeded config and make the
    run's working directory under ``root/.bench_out``."""
    src = root / "src"
    if not (src / "eitkit" / "__init__.py").is_file():
        raise SetupError(f"no eitkit source tree under {src}")
    sys.path.insert(0, str(src))
    import eitkit
    import eitkit.cli

    origin = Path(eitkit.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"eitkit was imported from {origin}, not from {src}")

    workload = WORKLOADS[name]
    config = json.loads((src / "eitkit" / "paper-2d.cfg").read_text())
    config.update(workload.overrides)
    config["seed"] = seed
    work = root / ".bench_out" / f"{tag}-{name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    config["out_dir"] = str(work / "out")
    config_path = work / "run.cfg"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    return Setup(workload, work, config_path, config, eitkit.cli)


@dataclass
class PassResult:
    """One pass: per-verb exit codes and wall times, and what the checks found."""

    index: int
    out: Path
    verbs: list[tuple[str, int | None, float]]  # (verb, exit code, wall s)
    wall_s: float
    cpu_s: float
    checks: dict[str, bool] = field(default_factory=dict)
    cells: list[bool] = field(default_factory=list)  # sweep cells, True = ok
    re: float = math.nan
    hashes: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    messages: list[str] = field(default_factory=list)
    traced: bool = False


def run_pass(setup: Setup, index: int) -> PassResult:
    """Run the workload's verbs in order through ``eitkit.cli.main``.

    Only the verb calls are timed; the CLI's console output is captured so
    that the benchmark's own report stays readable.
    """
    out = setup.work / f"pass{index:03d}"
    verbs = []
    messages = []
    cpu0 = time.process_time()
    t_pass = time.perf_counter()
    for verb in setup.workload.verbs:
        argv = [verb, "--config", str(setup.config_path), "--out", str(out)]
        if verb == "render":
            argv += ["--field", str(out / "delta_sigma.txt")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = setup.cli.main(argv)
            except Exception as exc:  # a crash is a failed verb, not a dead benchmark
                code = None
                sink.write(f"{type(exc).__name__}: {exc}\n")
            wall = time.perf_counter() - t0
        verbs.append((verb, code, wall))
        if code != 0:
            messages.append(f"{verb} exited {code}: {sink.getvalue().strip()[-500:]}")
    wall_s = time.perf_counter() - t_pass
    cpu_s = time.process_time() - cpu0
    return PassResult(index, out, verbs, wall_s, cpu_s, messages=messages)


# ---------------------------------------------------------------------------
# output checks (run after each pass, outside the timed region)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def frames_ok(path: Path, measurements: int) -> bool:
    """One '# frame' block of exactly ``measurements`` numeric triples."""
    counts = []
    for line in path.read_text().splitlines():
        if line.startswith("# frame"):
            counts.append(0)
            continue
        parts = line.split()
        if not counts or len(parts) != 3 or not _is_float(parts[2]):
            return False
        counts[-1] += 1
    return counts == [measurements]


def history_rows_ok(out: Path) -> bool:
    """iterates.csv rows = manifest iteration count = iterates.txt frames."""
    n = json.loads((out / "result.json").read_text())["n_iterations"]
    rows = (out / "iterates.csv").read_text().splitlines()[1:]
    frames = sum(
        1 for line in (out / "iterates.txt").read_text().splitlines()
        if line.startswith("# frame")
    )
    return n >= 1 and len(rows) == n and frames == n


def iterates_floats_ok(out: Path) -> bool:
    """Every iterates.csv cell parses as a float."""
    rows = (out / "iterates.csv").read_text().splitlines()[1:]
    return bool(rows) and all(_is_float(c) for row in rows for c in row.split(","))


def sweep_rows(out: Path, config: dict) -> tuple[bool, list[bool], float]:
    """(grid complete and in order, per-cell ok flags, lowest cell re).

    Rows must be the ratio-major grid of the config's sweep lists with no
    ``error:`` cell.
    """
    lines = (out / "sweep.csv").read_text().splitlines()
    grid = [(r, d) for r in config["sweep_lambda_over_rho"] for d in config["sweep_delta"]]
    cells, res, in_order = [], [], len(lines) - 1 == len(grid)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 7:
            cells.append(False)
            in_order = False
            continue
        index, ratio, delta, _, termination, re, _ = parts
        ok = not termination.startswith("error")
        cells.append(ok)
        if i >= len(grid) or not _is_float(ratio) or not _is_float(delta) or (
            int(index), float(ratio), float(delta)) != (i, *grid[i]):
            in_order = False
        if ok and _is_float(re):
            res.append(float(re))
    return in_order and all(cells), cells, min(res, default=math.nan)


def final_eval_re(out: Path) -> float:
    last = (out / "eval.csv").read_text().splitlines()[-1]
    return float(last.split(",")[1])


class ImageError:
    """Relative image error of a stored delta_sigma field against the analytic
    phantom, with the mesh and truth image built once per run."""

    def __init__(self, config: dict):
        from eitkit.mesh import generate_disk_mesh, raster_extent
        from eitkit.phantom import lung_model
        from eitkit.pipeline import phantom_truth_image

        self.config = config
        self.mesh = generate_disk_mesh(config["radius"], config["inverse_elements"])
        self.truth = phantom_truth_image(
            lung_model(config["phantom_model"]), raster_extent(self.mesh),
            config["raster_resolution"], config["radius"],
        )
        self._by_hash: dict[str, float] = {}

    def __call__(self, path: Path) -> float:
        from eitkit.mesh import load_element_values, rasterize
        from eitkit.metrics import relative_error

        key = _sha256(path)
        if key not in self._by_hash:
            values = self.config["sigma0"] + load_element_values(path)
            image = rasterize(self.mesh, values, self.config["raster_resolution"])
            self._by_hash[key] = relative_error(image, self.truth)
        return self._by_hash[key]


def check_pass(setup: Setup, result: PassResult, reference: dict[str, str] | None,
               image_error: ImageError | None) -> None:
    """Fill ``result.checks``, ``cells``, ``re``, ``hashes`` and ``bytes_written``.

    A check whose input file is missing fails. ``reference`` holds the
    first pass's hashes of the deterministic files; the determinism check
    runs from the second pass on.
    """
    out, cfg = result.out, setup.config
    checks = result.checks
    for verb, code, _ in result.verbs:
        checks[f"exit_code.{verb}"] = code == 0

    def check(name, fn, *args):
        try:
            checks[name] = bool(fn(*args))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks[name] = False
            result.messages.append(f"{name}: {type(exc).__name__}: {exc}")

    verbs = setup.workload.verbs
    if "simulate" in verbs:
        e = cfg["electrode_count"]
        files = ("v_reference.txt", "v_perturbed.txt", "dv_clean.txt", "dv_noisy.txt")
        check("measurements_per_frame",
              lambda: all(frames_ok(out / f, e * (e - 3)) for f in files))
    if "reconstruct" in verbs:
        check("history_rows", history_rows_ok, out)
        check("iterates_csv_floats", iterates_floats_ok, out)
    if "sweep" in verbs:
        check("sweep_rows", lambda: _sweep_check(result, cfg))
    try:
        if "evaluate" in verbs:
            result.re = final_eval_re(out)
        elif "sweep" not in verbs:
            result.re = image_error(out / "delta_sigma.txt")
    except (OSError, ValueError, IndexError) as exc:
        result.messages.append(f"re: {type(exc).__name__}: {exc}")
    checks["re_finite"] = math.isfinite(result.re)

    result.hashes = {
        name: _sha256(out / name) for name in DETERMINISTIC if (out / name).is_file()
    }
    if reference is not None:
        checks["deterministic"] = result.hashes == reference
    result.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _sweep_check(result: PassResult, config: dict) -> bool:
    ok, result.cells, result.re = sweep_rows(result.out, config)
    return ok


def failures(results: list[PassResult]) -> tuple[int, int]:
    """(attempted, failed) over the named checks and sweep cells of the
    passes; an exit-code check is its verb call."""
    attempted = sum(len(r.checks) + len(r.cells) for r in results)
    failed = sum(sum(not ok for ok in r.checks.values()) + r.cells.count(False) for r in results)
    return attempted, failed
