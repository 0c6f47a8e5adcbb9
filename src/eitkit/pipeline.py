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
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import blas, forward, inverse, metrics
from .mesh import (
    TriMesh,
    ElectrodeLayout,
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
    load_element_values,
    load_field_series,
)
from .phantom import PhantomSpec, lung_model, load_phantom, save_phantom, assign_conductivity


class ConfigError(Exception):
    """Invalid or inconsistent pipeline configuration."""


_SOLVERS = ("nwatv", "fotv", "tv", "tikhonov")

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
    mask_elements: list[int] | None = None
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
    # its "no noise" sentinel and is checked on its own
    hints = get_type_hints(PipelineConfig)
    for f in fields(PipelineConfig):
        value = getattr(cfg, f.name)
        if not _json_fits(value, hints[f.name]):
            bad(f.name, f"expected {f.type}, got {json.dumps(value, default=repr)}")
        if hints[f.name] in (float, list[float]) and f.name != "snr_db":
            values = value if isinstance(value, list) else [value]
            if not all(abs(v) <= sys.float_info.max for v in values):
                bad(f.name, f"must be finite, got {value}")
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
    if math.isnan(cfg.snr_db) or cfg.snr_db == -math.inf:
        bad("snr_db", f"must be finite or +inf, got {cfg.snr_db}")
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
    if cfg.mask_elements is not None and (
        not cfg.mask_elements or any(i < 0 for i in cfg.mask_elements)
    ):
        bad("mask_elements", "must be a nonempty list of nonnegative element indices")
    if cfg.mask_elements is not None and cfg.solver == "tikhonov":
        bad("mask_elements", "must be unset for solver tikhonov, which does not mask")


def _json_fits(value, hint) -> bool:
    """Whether a value has a field's JSON type: a bool is not a number, an
    int is fine where a float is expected, and every list item is checked."""
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_json_fits(v, get_args(hint)[0]) for v in value)
    if get_args(hint):  # a union such as int | None
        return any(_json_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def load_config(path) -> PipelineConfig:
    """Parse and validate a JSON config file."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except ValueError as exc:  # also an integer past int()'s digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
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
    """Write each artifact ``{file: (writer, *args)}`` as ``writer(out_dir /
    file, *args)``, then the manifest ``name``: ``manifest`` with ``files``
    (the artifact names), ``timings_s``, the BLAS thread count that ran and
    the config appended, as JSON (``mesh._write_json``)."""
    out = Path(cfg.out_dir)
    for file, (writer, *args) in artifacts.items():
        writer(out / file, *args)
    manifest.update(files=list(artifacts), timings_s=timings, blas_threads=blas.threads(),
                    config=asdict(cfg))
    _write_json(out / name, manifest)
    return manifest


def _load_field(path, what: str, loader=load_element_values, n_elements: int | None = None):
    """``loader(path)``, checked to hold ``n_elements`` values per frame when
    given; a missing, unreadable or malformed input file is a one-line
    ConfigError."""
    try:
        values = loader(path)
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc.strerror}")
    except ValueError as exc:
        raise ConfigError(f"{what} is malformed: {exc}")
    if n_elements is not None and values.shape[-1] != n_elements:
        raise ConfigError(f"{what} has {values.shape[-1]} values per frame, mesh has {n_elements}")
    return values


# ---------------------------------------------------------------------------
# experiment assembly


@dataclass
class InverseProblem:
    """Coarse mesh, sensitivity matrix, and the factored x-update that
    every ADMM solve on the problem takes, which holds the difference
    matrix D (None for the one-shot ridge solver)."""

    mesh: TriMesh
    s: np.ndarray
    x_update: inverse.XUpdateSolver | None
    timings_s: dict


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


def build_inverse_problem(cfg: PipelineConfig, disk=None) -> InverseProblem:
    """The config's inverse problem on ``disk``, the (mesh, layout) pair of
    ``_disk(cfg, cfg.inverse_elements)``, built here when not given."""
    t0 = time.perf_counter()
    mesh, layout = disk or _disk(cfg, cfg.inverse_elements)
    if cfg.mask_elements is not None and max(cfg.mask_elements, default=-1) >= mesh.n_elements:
        raise ConfigError(
            f"mask_elements: index {max(cfg.mask_elements)} outside 0..{mesh.n_elements - 1}"
        )
    d = inverse.build_difference_operators(mesh)
    t1 = time.perf_counter()
    # the x-update's scale |S|^2/rho must be a positive finite number: a
    # non-finite S, one whose squares overflow and one that underflows to
    # zero all fail here rather than as warnings or a solver failure later
    with np.errstate(over="ignore", invalid="ignore"):
        s = forward.sensitivity_matrix(mesh, layout, cfg.sigma0, current=cfg.current_ma)
        scale = np.vdot(s, s) / cfg.rho
    if not 0 < scale < math.inf:
        raise ConfigError(f"sigma0/current_ma: {cfg.sigma0} S/m and {cfg.current_ma} mA give "
                          f"a sensitivity matrix S with |S|^2/rho = {scale:.3g} at rho {cfg.rho}, "
                          f"not a positive finite number")
    t2 = time.perf_counter()
    x_update = inverse.XUpdateSolver(s, d, cfg.rho) if cfg.solver in _ITERATIVE else None
    t3 = time.perf_counter()
    return InverseProblem(
        mesh=mesh,
        s=s,
        x_update=x_update,
        timings_s={"assembly": t1 - t0, "sensitivity": t2 - t1, "factorization": t3 - t2},
    )


def _simulate_frames(cfg: PipelineConfig, fmesh: TriMesh, flayout: ElectrodeLayout, spec: PhantomSpec):
    """Reference/perturbed frames plus clean and noisy signed differences."""
    sigma_ref = np.full(fmesh.n_elements, cfg.sigma0)
    sigma_true = assign_conductivity(fmesh, spec)
    v_ref = forward.simulate_frame(fmesh, flayout, sigma_ref, current=cfg.current_ma)
    v_pert = forward.simulate_frame(fmesh, flayout, sigma_true, current=cfg.current_ma)
    dv = forward.signed_difference(v_ref, v_pert)
    try:
        dv_noisy = forward.add_noise(dv, cfg.snr_db, cfg.seed)
    except ValueError:  # the only frame add_noise refuses here is a zero one
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


_ITERATIVE = {
    "nwatv": inverse.reconstruct_nwatv,
    "fotv": inverse.reconstruct_fotv,
    "tv": inverse.reconstruct_tv_isotropic,
}


def _solver_data(cfg: PipelineConfig, problem: InverseProblem, delta_v: np.ndarray) -> np.ndarray:
    """The data the solvers see: ``delta_v``, less the part the boundary
    elements explain when ``enable_preprocess`` is set."""
    if not cfg.enable_preprocess:
        return delta_v
    boundary = problem.mesh.boundary_elements()
    return inverse.preprocess_boundary(delta_v, problem.s, boundary, cfg.lambda_b)


def run_solver(
    cfg: PipelineConfig, problem: InverseProblem, delta_v: np.ndarray
) -> inverse.ReconResult:
    """Run the configured solver on one voltage frame."""
    delta_v = _solver_data(cfg, problem, delta_v)
    if cfg.solver == "tikhonov":
        return inverse.reconstruct_tikhonov(problem.s, delta_v, cfg.lam)
    return _ITERATIVE[cfg.solver](
        problem.x_update, delta_v, cfg.lam, cfg.delta,
        max_iters=cfg.max_iters, tol=cfg.tol, mask=cfg.mask_elements,
    )


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


def _load_single_frame(path, expected_e: int) -> np.ndarray:
    frames = _load_field(path, "voltage file", forward.load_frames)
    if len(frames) != 1:
        raise ConfigError(f"voltage file {path} holds {len(frames)} frames, expected one")
    e = forward._electrode_count(frames.shape[1])
    if e != expected_e:
        raise ConfigError(f"voltage file has {e} electrodes, config says {expected_e}")
    return frames[0]


def cmd_reconstruct(cfg: PipelineConfig, data_path=None) -> dict:
    """Reconstruct from a measured-difference file; write the final field,
    the iterate history and CSV, and a raster image."""
    out = _outdir(cfg)
    data_path = Path(data_path) if data_path is not None else out / "dv_noisy.txt"
    problem = build_inverse_problem(cfg)
    dv = _load_single_frame(data_path, cfg.electrode_count)
    t0 = time.perf_counter()
    result = run_solver(cfg, problem, dv)
    iterations_s = time.perf_counter() - t0
    table = {"iteration": list(range(1, result.n_iterations + 1)),
             "data_residual": result.data_residual.tolist(),
             "step_norm": result.step_norm.tolist(), "wall_ms": result.wall_ms.tolist()}
    image = rasterize(problem.mesh, cfg.sigma0 + result.final, cfg.raster_resolution)
    return _write_outputs(cfg, "result.json", {
        "delta_sigma.txt": (save_element_values, result.final),
        "iterates.txt": (save_element_values, result.history),
        "iterates.csv": (_write_text, [([",".join(table)], list(table.values()))], ","),
        "recon_image.pgm": (metrics.write_image_pgm, image),
    }, {
        "command": "reconstruct",
        "data_file": str(data_path),
        "termination": result.termination,
        "n_iterations": result.n_iterations,
        "final_data_residual": float(result.data_residual[-1]),
    }, {**problem.timings_s, "iterations": iterations_s})


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
    series = _load_field(series_path, "iterate history", load_field_series, mesh.n_elements)
    res = cfg.raster_resolution
    index = raster_index(mesh, res)
    if reference is None:
        truth = _truth_image(cfg, load_phantom_spec(cfg), mesh)
    else:
        ref = cfg.sigma0 + _load_field(reference, "reference field", n_elements=mesh.n_elements)
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
        "eval.csv": (_write_text, [([",".join(table)], list(table.values()))], ","),
        "profiles.csv": (_write_text, [([",".join(profiles)], list(profiles.values()))], ","),
    }, {
        "command": "evaluate",
        "n_iterations": len(scores),
        "final_re": scores[-1][0],
        "final_psnr": scores[-1][1],
        "reference": None if reference is None else str(reference),
    }, {"load": t1 - t0, "scoring": t2 - t1})


def _ridge(s: np.ndarray, delta_v: np.ndarray, lam: float):
    """The ridge solution at ``lam``, or the SolverError that ended it."""
    try:
        return inverse.reconstruct_tikhonov(s, delta_v, lam)
    except forward.SolverError as exc:
        return exc


def cmd_sweep(cfg: PipelineConfig, data_path=None) -> list[dict]:
    """Grid-sweep lam/rho x delta, scored against the analytic truth image.

    Each distinct problem is solved once: (lam, delta) for nwatv, (lam) for
    the solvers that do not read delta. The iterative ones run together as
    the columns of one ADMM block (``inverse.reconstruct_block``) on the
    problem's factored x-update, and rows keep grid order (ratio-major). A
    problem whose solve raises a SolverError is recorded in its cells while
    the others go on; a boundary-preprocessing failure fills every cell.
    """
    _outdir(cfg)
    t0 = time.perf_counter()
    spec = load_phantom_spec(cfg)
    disk = _disk(cfg, cfg.inverse_elements)
    if data_path is not None:
        dv = _load_single_frame(Path(data_path), cfg.electrode_count)
    else:
        fmesh, flayout = _disk(cfg, cfg.forward_elements, disk[1].angles)
        dv = _simulate_frames(cfg, fmesh, flayout, spec)[3]
    problem = build_inverse_problem(cfg, disk)  # after the phantom's checks
    truth = _truth_image(cfg, spec, problem.mesh)
    index = raster_index(problem.mesh, cfg.raster_resolution)
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
    try:
        dv = _solver_data(cfg, problem, dv)
    except forward.SolverError as exc:  # a failure shared by every cell
        solved = [exc] * len(problems)
    else:
        if cfg.solver == "tikhonov":
            solved = [_ridge(problem.s, dv, lam) for lam, _ in problems]
        else:
            solved = inverse.reconstruct_block(
                problem.x_update, dv, *zip(*problems),
                variant=cfg.solver, max_iters=cfg.max_iters, tol=cfg.tol,
                mask=cfg.mask_elements, keep_history=False,
            )
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
    t2 = time.perf_counter()

    table = {"index": list(range(len(rows))), **{
        k: [row[k] for row in rows]
        for k in ("lambda_over_rho", "delta", "iterations", "termination", "re", "psnr")}}
    _write_outputs(cfg, "sweep.json", {
        "sweep.csv": (_write_text, [([",".join(table)], list(table.values()))], ","),
    }, {
        "command": "sweep",
        "n_cells": len(cells),
        "data_file": None if data_path is None else str(data_path),
        "failures": sum(1 for r in rows if r["termination"].startswith("error")),
    }, {"setup": t1 - t0, "cells": t2 - t1})
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
    values = _load_field(field_path, "field file", n_elements=mesh.n_elements)
    image = rasterize(mesh, values, cfg.raster_resolution)
    target = out / f"{field_path.stem}.pgm"
    metrics.write_image_pgm(target, image)
    return target
