"""Batch experiment pipeline behind the command-line interface.

Each command reads a JSON config, assembles the experiment it needs
(meshes, electrodes, phantom, sensitivity matrix), runs one stage, and
writes its artifacts into the output directory. Commands are pure
functions of (config, input files, seed), so repeated runs reproduce
byte-identical CSV outputs; manifests additionally record per-phase
wall times from a monotonic clock and are exempt from that guarantee.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import blas, forward, inverse, metrics
from .mesh import (
    TriMesh,
    ElectrodeLayout,
    _json_fits,
    generate_disk_mesh,
    place_electrodes,
    pixel_centers,
    raster_extent,
    raster_image,
    raster_index,
    rasterize,
    save_mesh,
    save_element_values,
    _write_json,
    _write_text,
    load_field_series,
)
from .phantom import PhantomSpec, lung_model, load_phantom, save_phantom, assign_conductivity


class ConfigError(Exception):
    """Invalid or inconsistent pipeline configuration."""


# sweep defaults: four decades of lam/rho around the shipped ratio 5e-3,
# two decades of the weight floor around 0.01
_SWEEP_RATIOS = (5e-3 * np.logspace(-2.0, 2.0, 7)).tolist()
_SWEEP_DELTAS = np.logspace(-3.0, -1.0, 5).tolist()


@dataclass
class PipelineConfig:
    """One experiment: geometry, phantom, noise, solver, outputs."""

    radius: float = 0.1
    inverse_elements: int = 1024
    forward_elements: int = 16384
    electrode_count: int = 16
    current_ma: float = 1.0
    phantom_model: int | None = 7
    phantom_file: str | None = None
    sigma0: float = 1.0
    snr_db: float = 50.0
    seed: int = 42
    solver: str = "nwatv"
    lam: float = 5e-13
    rho: float = 1e-10
    delta: float = 0.01
    max_iters: int = 20
    tol: float = 1e-5
    lambda_b: float = 1e-7
    enable_preprocess: bool = False
    raster_resolution: int = 256
    out_dir: str = "out"
    sweep_lambda_over_rho: list[float] = field(default_factory=lambda: list(_SWEEP_RATIOS))
    sweep_delta: list[float] = field(default_factory=lambda: list(_SWEEP_DELTAS))
    profile_rows: list[int] = field(default_factory=lambda: [107, 144, 182])

    def __post_init__(self):
        _validate_config(self)


def _validate_config(cfg: PipelineConfig) -> None:
    def bad(name, why):
        raise ConfigError(f"{name}: {why}")

    # types and then finiteness come first, as the checks below compare
    # numbers and NaN fails every `x < 0`; a float field is finite when it
    # fits a float, which an int past 1e308 does not; snr_db keeps +inf as
    # its "no noise" sentinel
    hints = get_type_hints(PipelineConfig)
    for f in fields(PipelineConfig):
        value = getattr(cfg, f.name)
        if not _json_fits(value, hints[f.name]):
            bad(f.name, f"expected {f.type}, got {json.dumps(value, default=repr)}")
        if hints[f.name] in (float, list[float]):
            values = value if isinstance(value, list) else [value]
            if not all(abs(v) <= sys.float_info.max or (f.name, v) == ("snr_db", math.inf)
                       for v in values):
                bad(f.name, f"must be finite{' or +inf' * (f.name == 'snr_db')}, got {value}")
    for name in ("radius", "current_ma", "sigma0", "rho", "delta", "tol", "lambda_b"):
        if not getattr(cfg, name) > 0:
            bad(name, f"must be > 0, got {getattr(cfg, name)}")
    # the sizes stop at 4x the largest documented ones, before anything is built
    for name, low, high in (("inverse_elements", 64, 1 << 16), ("forward_elements", 64, 1 << 18),
                            ("electrode_count", 4, math.inf), ("max_iters", 1, math.inf),
                            ("raster_resolution", 16, 1 << 12), ("seed", 0, math.inf)):
        if not low <= getattr(cfg, name) <= high:
            bounds = f">= {low}" if high == math.inf else f"in {low}..{high}"
            bad(name, f"must be an integer {bounds}, got {getattr(cfg, name)!r}")
    if (cfg.phantom_model is None) == (cfg.phantom_file is None):
        bad("phantom_model/phantom_file", "exactly one must be set")
    if cfg.phantom_model is not None and not 1 <= cfg.phantom_model <= 10:
        bad("phantom_model", f"must be in 1..10, got {cfg.phantom_model}")
    if cfg.solver not in _SOLVERS:
        bad("solver", f"must be one of {_SOLVERS}, got {cfg.solver!r}")
    if cfg.lam < 0 or (cfg.lam == 0 and cfg.solver == "tikhonov"):
        bad("lam", f"must be >= 0, and > 0 for solver tikhonov; got {cfg.lam}")
    ratios = cfg.sweep_lambda_over_rho
    if not ratios or any(r <= 0 for r in ratios):
        bad("sweep_lambda_over_rho", "must be a nonempty list of positive ratios")
    if cfg.solver == "tikhonov" and not all(0 < r * cfg.rho < math.inf for r in ratios):
        bad("sweep_lambda_over_rho", f"times rho {cfg.rho} must give a positive finite tikhonov lam")
    if not cfg.sweep_delta or any(d <= 0 for d in cfg.sweep_delta):
        bad("sweep_delta", "must be a nonempty list of positive floors")
    for r in cfg.profile_rows:
        if not 0 <= r <= cfg.raster_resolution - 1:
            bad("profile_rows", f"row {r} outside 0..{cfg.raster_resolution - 1}")


def load_config(path) -> PipelineConfig:
    """Parse and validate a JSON config file."""
    raw = _load_field(path, "config file", lambda p: json.loads(Path(p).read_text()))
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    if isinstance(raw.get("snr_db"), str):
        token = raw["snr_db"].strip().lower().lstrip("+")
        if token in ("inf", "infinity"):
            raw["snr_db"] = math.inf
        else:
            raise ConfigError(f"snr_db: unrecognized string {raw['snr_db']!r}")
    return PipelineConfig(**raw)


def _write_outputs(cfg: PipelineConfig, name: str, artifacts: dict, manifest: dict,
                   timings: dict) -> dict:
    """Remove the old manifest ``name``, write each artifact ``{file: (writer,
    *args)}`` as ``writer(out_dir / file, *args)``, then the manifest:
    ``manifest`` with ``files`` (the artifact names), ``timings_s``, the
    BLAS thread count that ran and the config appended, as JSON
    (``mesh._write_json``). A failed write thus leaves no manifest that
    names files of another run."""
    out = Path(cfg.out_dir)
    (out / name).unlink(missing_ok=True)
    for file, (writer, *args) in artifacts.items():
        writer(out / file, *args)
    manifest.update(files=list(artifacts), timings_s=timings, blas_threads=blas.threads(),
                    config=asdict(cfg))
    _write_json(out / name, manifest)
    return manifest


def _write_csv(path, table: dict) -> None:
    """The table ``{header: column}`` as CSV: a header line, then one row
    per record (``mesh._write_text``)."""
    _write_text(path, [([",".join(table)], list(table.values()))], ",")


def _load_field(path, what: str, loader=load_field_series, length: int | None = None,
                frames: int | None = 1):
    """``loader(path)`` of any input file; for a frame file (``length`` given),
    its (K, L) frames, checked to be ``frames`` frames (any count when None)
    of ``length`` values each. A file that cannot be read is a ConfigError."""
    try:
        values = loader(path)
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, or JSON nested past the stack
        raise ConfigError(f"{what} is malformed: {exc}")
    if length is not None and (values.shape[1] != length or frames not in (None, len(values))):
        raise ConfigError(f"{what} {path} holds {len(values)} frames of {values.shape[1]} values, "
                          f"expected {frames or 'any number of'} frame(s) of {length}")
    return values


# ---------------------------------------------------------------------------
# experiment assembly


def load_phantom_spec(cfg: PipelineConfig) -> PhantomSpec:
    if cfg.phantom_model is not None:
        return lung_model(cfg.phantom_model)
    return _load_field(cfg.phantom_file, "phantom_file", load_phantom)


def _disk(cfg: PipelineConfig, n_elements: int, angles=None) -> tuple[TriMesh, ElectrodeLayout]:
    """Disk mesh of the config's radius and its electrodes, snapped to
    ``angles`` when given; a geometry that cannot be meshed or hold the
    electrodes is a one-line ConfigError naming the field."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # caught as a degenerate mesh
            mesh = generate_disk_mesh(cfg.radius, n_elements)
    except ValueError as exc:
        raise ConfigError(f"radius: {cfg.radius} gives no valid mesh: {exc}")
    try:
        return mesh, place_electrodes(mesh, cfg.electrode_count, angles=angles)
    except ValueError as exc:
        raise ConfigError(f"electrode_count: {exc} ({n_elements} elements)")


def _homogeneous(cfg: PipelineConfig, solve, *args):
    """``solve(*args)``, FEM solves on the homogeneous disk of the config's
    sigma0 and current_ma; their SolverError can only come from that scale,
    so it is a ConfigError naming the two fields."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # caught as a FEM SolverError
            return solve(*args)
    except forward.SolverError as exc:
        raise ConfigError(f"sigma0/current_ma: {cfg.sigma0} S/m and {cfg.current_ma} mA "
                          f"break the homogeneous FEM solve: {exc}")


def _simulate_frames(cfg: PipelineConfig, fmesh: TriMesh, flayout: ElectrodeLayout, spec: PhantomSpec):
    """Reference/perturbed frames plus clean and noisy signed differences."""
    sigma_ref = np.full(fmesh.n_elements, cfg.sigma0)
    sigma_true = assign_conductivity(fmesh, spec)
    v_ref = _homogeneous(cfg, forward.simulate_frame, fmesh, flayout, sigma_ref, cfg.current_ma)
    with np.errstate(over="ignore", invalid="ignore"):  # caught as a FEM SolverError
        v_pert = forward.simulate_frame(fmesh, flayout, sigma_true, current=cfg.current_ma)
    dv = forward.signed_difference(v_ref, v_pert)
    try:
        dv_noisy = forward.add_noise(dv, cfg.snr_db, cfg.seed)
    except ValueError as exc:  # a zero frame, or noise past the float range
        if np.any(dv):
            raise ConfigError(f"snr_db: {exc}")
        if np.array_equal(sigma_true, sigma_ref):
            raise ConfigError(f"phantom_model/phantom_file: the phantom changes no forward element "
                              f"at radius {cfg.radius}, so noise cannot be scaled to its zero frame")
        raise ConfigError(f"current_ma/sigma0: at {cfg.current_ma} mA and {cfg.sigma0} S/m the "
                          f"difference frame underflowed to zero, so noise cannot be scaled to it")
    return v_ref, v_pert, dv, dv_noisy


def phantom_truth_image(spec: PhantomSpec, extent: float, resolution: int, radius: float) -> np.ndarray:
    """Analytic total-conductivity image on the raster grid (NaN outside).

    ``extent`` must match the raster grid of the mesh being compared
    against; pixel (iy, ix) is evaluated at its center, row iy
    increasing with y.
    """
    centers = pixel_centers(extent, resolution)
    xx, yy = np.meshgrid(centers, centers)  # yy varies along rows
    points = np.column_stack([xx.ravel(), yy.ravel()])
    img = spec.conductivity_at(points)
    img[(points[:, 0] ** 2 + points[:, 1] ** 2) > radius**2] = np.nan
    return img.reshape(resolution, resolution)


def _truth_image(cfg: PipelineConfig, spec: PhantomSpec, mesh: TriMesh) -> np.ndarray:
    """The analytic truth on the raster grid of ``mesh``."""
    return phantom_truth_image(spec, raster_extent(mesh), cfg.raster_resolution, cfg.radius)


def _score(cfg: PipelineConfig, index: np.ndarray, delta_sigma: np.ndarray,
           truth: np.ndarray) -> tuple[float, float]:
    """RE and PSNR against ``truth`` of the image of sigma0 + ``delta_sigma``
    gathered on ``index``."""
    image = raster_image(index, cfg.sigma0 + delta_sigma)
    return metrics.score(image, truth)


# ---------------------------------------------------------------------------
# solver dispatch


# the iterative solvers and their K = 1 calls in the library; the pipeline
# runs every solve, a single one included, through ``_solve``, and reads
# this table only for the names in _SOLVERS
_ITERATIVE = {
    "nwatv": inverse.reconstruct_nwatv,
    "fotv": inverse.reconstruct_fotv,
    "tv": inverse.reconstruct_tv_isotropic,
}
_SOLVERS = (*_ITERATIVE, "tikhonov")


def _solve(cfg: PipelineConfig, disk: tuple[TriMesh, ElectrodeLayout], delta_v: np.ndarray,
           problems: list[tuple[float, float]], keep_history: bool) -> tuple[list, dict]:
    """A ReconResult, or the SolverError that ended it, for each (lam, delta)
    problem of one frame on ``disk``, the inverse mesh and its electrodes,
    with the wall time of each phase: D ("assembly"), S ("sensitivity"),
    the x-update's factors for the ADMM solvers ("factorization"), then
    ("iterations") the boundary preprocessing when enabled, whose failure
    ends every problem, and one ADMM block of the problems
    (``inverse.reconstruct_block``) or one ridge call on their lams."""
    t0 = time.perf_counter()
    mesh, layout = disk
    d = inverse.build_difference_operators(mesh)
    t1 = time.perf_counter()
    # a non-finite S, one whose squares overflow and one that underflows to
    # zero fail here rather than as warnings or a solver failure later; so
    # does an x-update scale |S|^2/rho past the float range
    s = _homogeneous(cfg, forward.sensitivity_matrix, mesh, layout, cfg.sigma0, cfg.current_ma)
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = np.vdot(s, s)
        scale = norm2 / cfg.rho
    given = f"{cfg.sigma0} S/m and {cfg.current_ma} mA give a sensitivity matrix S with"
    if not 0 < norm2 < math.inf:
        raise ConfigError(f"sigma0/current_ma: {given} |S|^2 = {norm2:.3g}, "
                          f"not a positive finite number")
    iterative = cfg.solver != "tikhonov"
    if iterative and not 0 < scale < math.inf:
        raise ConfigError(f"sigma0/current_ma/rho: {given} |S|^2/rho = {scale:.3g} at rho "
                          f"{cfg.rho}, not a positive finite number")
    t2 = time.perf_counter()
    try:
        x_update = inverse.XUpdateSolver(s, d, cfg.rho) if iterative else None
    except forward.SolverError as exc:  # a rho outside the x-update's interval
        raise ConfigError(f"rho: {exc}")
    t3 = time.perf_counter()
    try:
        if cfg.enable_preprocess:
            boundary = mesh.boundary_elements()
            delta_v = inverse.preprocess_boundary(delta_v, s, boundary, cfg.lambda_b)
    except forward.SolverError as exc:
        solved = [exc] * len(problems)
    else:
        if iterative:
            solved = inverse.reconstruct_block(
                x_update, delta_v, *zip(*problems), variant=cfg.solver, max_iters=cfg.max_iters,
                tol=cfg.tol, keep_history=keep_history)
        else:
            solved = inverse.reconstruct_tikhonov(s, delta_v, [lam for lam, _ in problems])
    t4 = time.perf_counter()
    return solved, {"assembly": t1 - t0, "sensitivity": t2 - t1, "factorization": t3 - t2,
                    "iterations": t4 - t3}


# ---------------------------------------------------------------------------
# commands


def _outdir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot create directory {out}: {exc.strerror}")
    return out


def cmd_mesh(cfg: PipelineConfig) -> dict:
    """Write meshes, the phantom, the true perturbation, and a truth image."""
    _outdir(cfg)
    t0 = time.perf_counter()
    imesh, ilayout = _disk(cfg, cfg.inverse_elements)
    fmesh, flayout = _disk(cfg, cfg.forward_elements, ilayout.angles)
    spec = load_phantom_spec(cfg)
    delta_true = assign_conductivity(imesh, spec) - cfg.sigma0
    truth = _truth_image(cfg, spec, imesh)
    elapsed = time.perf_counter() - t0
    return _write_outputs(cfg, "mesh.json", {
        "inverse_mesh.txt": (save_mesh, imesh, ilayout),
        "forward_mesh.txt": (save_mesh, fmesh, flayout),
        "phantom.json": (save_phantom, spec),
        "delta_sigma_true.txt": (save_element_values, delta_true),
        "truth_image.pgm": (metrics.write_image_pgm, truth),
    }, {
        "command": "mesh",
        "inverse_elements": imesh.n_elements,
        "inverse_nodes": imesh.n_nodes,
        "forward_elements": fmesh.n_elements,
        "forward_nodes": fmesh.n_nodes,
    }, {"assembly": elapsed})


def cmd_simulate(cfg: PipelineConfig) -> dict:
    """Forward-simulate reference and perturbed frames; write the signed
    difference and its noisy copy."""
    _outdir(cfg)
    t0 = time.perf_counter()
    imesh, ilayout = _disk(cfg, cfg.inverse_elements)
    fmesh, flayout = _disk(cfg, cfg.forward_elements, ilayout.angles)
    spec = load_phantom_spec(cfg)
    t1 = time.perf_counter()
    v_ref, v_pert, dv, dv_noisy = _simulate_frames(cfg, fmesh, flayout, spec)
    t2 = time.perf_counter()
    return _write_outputs(cfg, "simulate.json", {
        "v_reference.txt": (forward.save_frames, [v_ref]),
        "v_perturbed.txt": (forward.save_frames, [v_pert]),
        "dv_clean.txt": (forward.save_frames, [dv]),
        "dv_noisy.txt": (forward.save_frames, [dv_noisy]),
    }, {
        "command": "simulate",
        "n_measurements": len(dv),
        "sign_convention": "reference_minus_perturbed",
        "noise_applied_to": "difference_frame",
    }, {"assembly": t1 - t0, "solve": t2 - t1})


def _load_data(cfg: PipelineConfig, path) -> np.ndarray:
    """The one difference frame of a voltage file, E(E-3) values long."""
    e = cfg.electrode_count
    return _load_field(path, "voltage file", forward.load_frames, length=e * (e - 3))[0]


def cmd_reconstruct(cfg: PipelineConfig, data_path=None) -> dict:
    """Reconstruct from a measured-difference file; write the final field,
    the iterate history and CSV, and a raster image."""
    out = _outdir(cfg)
    data_path = Path(data_path) if data_path is not None else out / "dv_noisy.txt"
    disk = _disk(cfg, cfg.inverse_elements)
    dv = _load_data(cfg, data_path)
    (result,), timings = _solve(cfg, disk, dv, [(cfg.lam, cfg.delta)], keep_history=True)
    if isinstance(result, forward.SolverError):
        raise result
    table = {"iteration": list(range(1, result.n_iterations + 1)),
             "data_residual": result.data_residual.tolist(),
             "step_norm": result.step_norm.tolist(), "wall_ms": result.wall_ms.tolist()}
    image = rasterize(disk[0], cfg.sigma0 + result.final, cfg.raster_resolution)
    return _write_outputs(cfg, "result.json", {
        "delta_sigma.txt": (save_element_values, result.final),
        "iterates.txt": (save_element_values, result.history),
        "iterates.csv": (_write_csv, table),
        "recon_image.pgm": (metrics.write_image_pgm, image),
    }, {
        "command": "reconstruct",
        "data_file": str(data_path),
        "termination": result.termination,
        "n_iterations": result.n_iterations,
        "final_data_residual": float(result.data_residual[-1]),
    }, timings)


def cmd_evaluate(cfg: PipelineConfig, result_dir=None, reference=None) -> dict:
    """Score a reconstruction run: per-iterate RE/PSNR plus line profiles.

    The iterate history is read from ``result_dir`` (by default the output
    directory). ``reference`` (a stored perturbation field) replaces the
    analytic phantom truth when given. All outputs are computed before
    anything is written, so a failure leaves no partial files.
    """
    out = _outdir(cfg)
    t0 = time.perf_counter()
    mesh = _disk(cfg, cfg.inverse_elements)[0]
    series_path = Path(result_dir if result_dir is not None else out) / "iterates.txt"
    series = _load_field(series_path, "iterate history", length=mesh.n_elements, frames=None)
    res = cfg.raster_resolution
    index = raster_index(mesh, res)
    if reference is None:
        truth = _truth_image(cfg, load_phantom_spec(cfg), mesh)
    else:
        ref = cfg.sigma0 + _load_field(reference, "reference field", length=mesh.n_elements)[0]
        if not np.all(ref > 0):
            raise ConfigError(f"reference field {reference}: sigma0 + reference must be > 0 "
                              f"everywhere, its minimum is {ref.min():g}")
        truth = raster_image(index, ref)
    t1 = time.perf_counter()
    scores = [_score(cfg, index, row, truth) for row in series]
    final_image = raster_image(index, cfg.sigma0 + series[-1])

    profiles = {"position": list(range(res))}
    for r in cfg.profile_rows:
        profiles[f"recon_row{r}"] = final_image[r].tolist()
        profiles[f"truth_row{r}"] = truth[r].tolist()

    table = {"iteration": list(range(1, len(scores) + 1)),
             "re": [re for re, _ in scores], "psnr": [psnr for _, psnr in scores]}
    t2 = time.perf_counter()
    return _write_outputs(cfg, "evaluate.json", {
        "eval.csv": (_write_csv, table),
        "profiles.csv": (_write_csv, profiles),
    }, {
        "command": "evaluate",
        "n_iterations": len(scores),
        "final_re": scores[-1][0],
        "final_psnr": scores[-1][1],
        "reference": None if reference is None else str(reference),
    }, {"load": t1 - t0, "scoring": t2 - t1})


def cmd_sweep(cfg: PipelineConfig, data_path=None) -> list[dict]:
    """Grid-sweep lam/rho x delta, scored against the analytic truth image.

    Each distinct problem is solved once, by one ``_solve`` call: (lam,
    delta) for nwatv, (lam) for the solvers that do not read delta. Rows
    keep grid order (ratio-major). A problem that ends in a SolverError is
    recorded in its cells while the others go on; a boundary-preprocessing
    failure fills every cell.
    """
    _outdir(cfg)
    t0 = time.perf_counter()
    spec = load_phantom_spec(cfg)
    disk = _disk(cfg, cfg.inverse_elements)
    if data_path is not None:
        dv = _load_data(cfg, Path(data_path))
    else:
        fmesh, flayout = _disk(cfg, cfg.forward_elements, disk[1].angles)
        dv = _simulate_frames(cfg, fmesh, flayout, spec)[3]
    truth = _truth_image(cfg, spec, disk[0])
    index = raster_index(disk[0], cfg.raster_resolution)
    t1 = time.perf_counter()

    cells = [
        (ratio, delta)
        for ratio in cfg.sweep_lambda_over_rho
        for delta in cfg.sweep_delta
    ]
    # a cell's problem is the parameters its solver reads
    reads_delta = cfg.solver in inverse._READS_DELTA
    keys = [(ratio * cfg.rho, delta if reads_delta else cfg.sweep_delta[0]) for ratio, delta in cells]
    problems = list(dict.fromkeys(keys))
    solved, timings = _solve(cfg, disk, dv, problems, keep_history=False)
    t2 = time.perf_counter()
    outcome = {}  # each problem scored once
    for key, result in zip(problems, solved):
        if isinstance(result, Exception):
            outcome[key] = dict(iterations=0, termination=f"error:{type(result).__name__}",
                                re=math.nan, psnr=math.nan)
        else:
            re, psnr = _score(cfg, index, result.final, truth)
            outcome[key] = dict(iterations=result.n_iterations, termination=result.termination,
                                re=re, psnr=psnr)
    rows = [{"lambda_over_rho": ratio, "delta": delta, **outcome[key]}
            for (ratio, delta), key in zip(cells, keys)]
    t3 = time.perf_counter()

    table = {"index": list(range(len(rows))), **{
        k: [row[k] for row in rows]
        for k in ("lambda_over_rho", "delta", "iterations", "termination", "re", "psnr")}}
    _write_outputs(cfg, "sweep.json", {
        "sweep.csv": (_write_csv, table),
    }, {
        "command": "sweep",
        "n_cells": len(cells),
        "data_file": None if data_path is None else str(data_path),
        "failures": sum(1 for r in rows if r["termination"].startswith("error")),
    }, {"setup": t1 - t0, **timings, "scoring": t3 - t2})
    return rows


def cmd_render(cfg: PipelineConfig, field_path) -> Path:
    """Rasterize a stored element-value field to a grayscale image,
    ``<field stem>.pgm``.

    Values are rendered verbatim (no background offset); the sidecar map
    records the value range.
    """
    out = _outdir(cfg)
    field_path = Path(field_path)
    mesh = _disk(cfg, cfg.inverse_elements)[0]
    values = _load_field(field_path, "field file", length=mesh.n_elements)[0]
    image = rasterize(mesh, values, cfg.raster_resolution)
    target = out / f"{field_path.stem}.pgm"
    metrics.write_image_pgm(target, image)
    return target
