"""Command-line entry point.

Verbs: mesh, simulate, reconstruct, evaluate, sweep, render. Every verb
takes --config (JSON) plus optional --seed and --out overrides. Exit
codes: 0 success, 2 config error (an output that cannot be written
included), 3 solver failure (diagnostics written next to the outputs). A
verb runs with numpy's and scipy's OpenBLAS on one thread each
(``blas.single_thread``) and the ``eitkit`` logger at INFO, or DEBUG under
-v; the caller's thread counts and level return after it.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import blas
from .forward import SolverError
from .mesh import _write_json
from .pipeline import (
    ConfigError,
    PipelineConfig,
    load_config,
    cmd_mesh,
    cmd_simulate,
    cmd_reconstruct,
    cmd_evaluate,
    cmd_sweep,
    cmd_render,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitkit",
        description="Batch 2D impedance-imaging pipeline: simulate, reconstruct, score.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        return p

    add("mesh", "generate meshes, the phantom, and the ground-truth field")
    add("simulate", "forward-solve and write voltage/difference frames")
    p = add("reconstruct", "solve the inverse problem from a difference frame")
    p.add_argument("--data", default=None, help="difference-frame file (default: <out>/dv_noisy.txt)")
    p = add("evaluate", "score a reconstruction run (RE/PSNR per iterate, profiles)")
    p.add_argument("--result", default=None, help="directory holding iterates.txt (default: <out>)")
    p.add_argument("--reference", default=None, help="surrogate truth: a stored perturbation field")
    p = add("sweep", "grid-sweep the regularization ratio and weight floor")
    p.add_argument("--data", default=None, help="difference-frame file (default: simulate in memory)")
    p = add("render", "rasterize a stored element-value field to an image")
    p.add_argument("--field", required=True, help="element-value file to render")
    return parser


def _load(args) -> PipelineConfig:
    """The config with the --seed and --out overrides, validated again."""
    overrides = {"seed": args.seed, "out_dir": args.out}
    return dataclasses.replace(
        load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log = logging.getLogger("eitkit")
    level = log.level
    log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        with blas.single_thread():
            return _run(args)
    finally:
        log.setLevel(level)


def _run(args) -> int:
    """Run the parsed verb; returns the exit code."""
    try:
        cfg = _load(args)
        try:
            if args.command == "mesh":
                manifest = cmd_mesh(cfg)
                print(
                    f"meshes written to {cfg.out_dir}: "
                    f"{manifest['inverse_elements']} / {manifest['forward_elements']} elements"
                )
            elif args.command == "simulate":
                manifest = cmd_simulate(cfg)
                print(
                    f"simulated {manifest['n_measurements']} measurements "
                    f"(seed {cfg.seed}, snr {cfg.snr_db} dB) -> {cfg.out_dir}"
                )
            elif args.command == "reconstruct":
                manifest = cmd_reconstruct(cfg, data_path=args.data)
                print(
                    f"{cfg.solver}: {manifest['n_iterations']} iterations, "
                    f"stopped by {manifest['termination']}, "
                    f"data residual {manifest['final_data_residual']:.4g} -> {cfg.out_dir}"
                )
            elif args.command == "evaluate":
                manifest = cmd_evaluate(cfg, result_dir=args.result, reference=args.reference)
                print(
                    f"evaluated {manifest['n_iterations']} iterates: "
                    f"final re {manifest['final_re']:.4g}, "
                    f"final psnr {manifest['final_psnr']:.4g} dB -> {cfg.out_dir}"
                )
            elif args.command == "sweep":
                rows = cmd_sweep(cfg, data_path=args.data)
                ok = [r for r in rows if not r["termination"].startswith("error")]
                best = min(ok, key=lambda r: r["re"]) if ok else None
                line = (
                    f"best re {best['re']:.4g} at lam/rho={best['lambda_over_rho']:.3g}, "
                    f"delta={best['delta']:.3g}"
                    if best
                    else "all cells failed"
                )
                print(f"swept {len(rows)} cells: {line} -> {cfg.out_dir}")
            elif args.command == "render":
                target = cmd_render(cfg, args.field)
                print(f"rendered {args.field} -> {target}")
        except SolverError as exc:  # its diagnostics are a write like any other
            diag_path = Path(cfg.out_dir) / "solver_error.json"
            _write_json(diag_path, {"error": str(exc), "diagnostics": exc.diagnostics})
            print(f"solver failure: {exc} (diagnostics: {diag_path})", file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every read failure is a ConfigError, so this is a write
        print(f"config error: out_dir: cannot write {exc.filename or cfg.out_dir}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
