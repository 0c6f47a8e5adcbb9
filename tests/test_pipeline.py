"""End-to-end pipeline commands, config handling, CLI exit codes."""

import csv
import dataclasses
import errno
import json
import logging
import math
import re

import numpy as np
import pytest

from eitkit import blas
from eitkit.cli import main
from eitkit.forward import SolverError, load_frames, save_frames
from eitkit.mesh import (
    generate_disk_mesh,
    load_element_values,
    load_field_series,
    place_electrodes,
    rasterize,
    save_element_values,
    save_mesh,
)
from eitkit.phantom import lung_model
from eitkit.pipeline import (
    ConfigError,
    PipelineConfig,
    cmd_evaluate,
    cmd_mesh,
    cmd_reconstruct,
    cmd_render,
    cmd_simulate,
    cmd_sweep,
    load_config,
    phantom_truth_image,
)


SMALL = dict(
    radius=0.1,
    inverse_elements=256,
    forward_elements=1024,
    electrode_count=16,
    current_ma=1.0,
    phantom_model=7,
    sigma0=1.0,
    snr_db=50.0,
    seed=42,
    solver="nwatv",
    lam=5e-13,
    rho=1e-10,
    delta=0.01,
    max_iters=3,
    tol=1e-5,
    raster_resolution=64,
    profile_rows=[20, 32, 45],
)


VERBS = ("mesh", "simulate", "reconstruct", "evaluate", "sweep", "render")


def _write_cfg(path, **overrides):
    cfg = dict(SMALL)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def _count_raster_index_builds(monkeypatch) -> list:
    """Record the resolution of every raster_index build, whether called
    from the pipeline or through rasterize."""
    import eitkit.mesh as mesh_mod
    import eitkit.pipeline as pl

    built = []
    real = mesh_mod.raster_index

    def spy(mesh, resolution):
        built.append(resolution)
        return real(mesh, resolution)

    monkeypatch.setattr(mesh_mod, "raster_index", spy)
    monkeypatch.setattr(pl, "raster_index", spy)
    return built


@pytest.fixture()
def small_cfg(tmp_path):
    return load_config(_write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out")))


class TestConfig:
    def test_shipped_defaults(self):
        from importlib import resources

        with resources.as_file(resources.files("eitkit") / "paper-2d.cfg") as p:
            cfg = load_config(p)
        assert cfg.electrode_count == 16
        assert cfg.current_ma == 1.0
        assert cfg.radius == 0.1
        assert cfg.sigma0 == 1.0
        assert cfg.snr_db == 50.0
        assert cfg.lam == 5e-13
        assert cfg.rho == 1e-10
        assert cfg.delta == 0.01
        assert cfg.max_iters == 20
        assert cfg.tol == 1e-5
        assert cfg.solver == "nwatv"
        assert cfg.raster_resolution == 256
        assert cfg.lambda_b is None

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(json.dumps(dict(SMALL, bogus=1)))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_inf_snr_sentinel(self, tmp_path):
        p = _write_cfg(tmp_path / "inf.cfg", snr_db="inf")
        assert math.isinf(load_config(p).snr_db)

    def test_bad_solver(self, tmp_path):
        p = _write_cfg(tmp_path / "bad.cfg", solver="bogus")
        with pytest.raises(ConfigError, match="solver"):
            load_config(p)

    def test_both_phantom_sources_rejected(self, tmp_path):
        p = _write_cfg(tmp_path / "bad.cfg", phantom_file="x.json")
        with pytest.raises(ConfigError, match="phantom"):
            load_config(p)

    # a row past the raster, and a repeated row, which profiles.csv would
    # otherwise hold once
    @pytest.mark.parametrize("rows, resolution, why", [
        ([64], 64, "row 64 outside 0..63"), ([100, 100], 256, "rows must differ, got [100, 100]"),
    ], ids=["past_the_raster", "repeated"])
    def test_profile_row_bounds(self, tmp_path, rows, resolution, why):
        p = _write_cfg(tmp_path / "bad.cfg", profile_rows=rows, raster_resolution=resolution)
        with pytest.raises(ConfigError, match=re.escape(f"profile_rows: {why}")):
            load_config(p)

    @pytest.mark.parametrize(
        "field, value, want",
        [("seed", 1.5, "int"),
         pytest.param("lambda_b", "yes", "float | None", id="lambda_b-yes-optional_float"),
         ("inverse_elements", "x", "int"), ("lam", "1", "float")],
    )
    def test_field_types_checked_wherever_built(self, field, value, want):
        for build in (PipelineConfig, lambda **kw: dataclasses.replace(PipelineConfig(), **kw)):
            with pytest.raises(ConfigError) as info:
                build(**{field: value})
            assert str(info.value) == f"{field}: expected {want}, got {json.dumps(value)}"

    def test_field_level_message(self, tmp_path):
        p = _write_cfg(tmp_path / "bad.cfg", rho=0.0)
        with pytest.raises(ConfigError, match="rho"):
            load_config(p)


class TestTruthImage:
    def test_matches_pointwise_oracle(self):
        spec = lung_model(3)
        res = 32
        img = phantom_truth_image(spec, 0.1, res, 0.1)
        step = 0.2 / res
        for iy in range(res):
            for ix in range(res):
                x = -0.1 + step * (ix + 0.5)
                y = -0.1 + step * (iy + 0.5)
                if x * x + y * y > 0.01:
                    assert np.isnan(img[iy, ix])
                    continue
                val = spec.background
                for inc in spec.inclusions:
                    if inc.contains(np.array([[x, y]]))[0]:
                        val = inc.value
                        break
                assert img[iy, ix] == val


class TestFieldSeries:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        series = rng.normal(size=(4, 17))
        path = tmp_path / "series.txt"
        save_element_values(path, series)
        assert np.array_equal(load_field_series(path), series)


class TestManifests:
    def test_commands_return_the_json_they_write(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        for cmd, name in (
            (cmd_mesh, "mesh.json"),
            (cmd_simulate, "simulate.json"),
            (cmd_reconstruct, "result.json"),
            (cmd_evaluate, "evaluate.json"),
        ):
            assert cmd(small_cfg) == json.loads((out / name).read_text()), name

    def test_files_are_what_the_verb_wrote_and_config_is_recorded_once(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        copies = {"seed", "snr_db", "electrode_count", "current_ma", "solver"}
        for cmd, name in (
            (cmd_mesh, "mesh.json"),
            (cmd_simulate, "simulate.json"),
            (cmd_reconstruct, "result.json"),
            (cmd_evaluate, "evaluate.json"),
            (cmd_sweep, "sweep.json"),
        ):
            before = {p.name for p in out.iterdir()} if out.exists() else set()
            cmd(small_cfg)
            written = {p.name for p in out.iterdir()} - before
            manifest = json.loads((out / name).read_text())
            # a .pgm comes with its .pgm.map sidecar
            sidecars = {f"{f}.map" for f in manifest["files"] if f.endswith(".pgm")}
            assert written == {*manifest["files"], *sidecars, name}, name
            assert list(manifest)[-4:] == ["files", "timings_s", "blas_threads", "config"], name
            assert manifest["timings_s"] and not copies & set(manifest), name
            assert manifest["config"] == dataclasses.asdict(small_cfg), name

    def test_reconstruct_and_sweep_record_the_solve_phases(self, small_cfg, tmp_path):
        # each phase has one name across the five manifests
        solve = ["difference_operators", "sensitivity", "factorization", "iterations"]
        for cmd, name, phases in (
            (cmd_mesh, "mesh.json", ["meshes"]),
            (cmd_simulate, "simulate.json", ["meshes", "forward_solves"]),
            (cmd_reconstruct, "result.json", solve),
            (cmd_evaluate, "evaluate.json", ["load", "scoring"]),
            (cmd_sweep, "sweep.json", ["setup", *solve, "scoring"]),
        ):
            cmd(small_cfg)
            timings = json.loads((tmp_path / "out" / name).read_text())["timings_s"]
            assert list(timings) == phases and all(t >= 0 for t in timings.values()), name


class TestCmdMesh:
    def test_artifacts(self, small_cfg, tmp_path):
        manifest = cmd_mesh(small_cfg)
        out = tmp_path / "out"
        # the meshes and electrodes rebuilt from the config, saved byte for byte
        imesh = generate_disk_mesh(small_cfg.radius, small_cfg.inverse_elements)
        ilayout = place_electrodes(imesh, small_cfg.electrode_count)
        fmesh = generate_disk_mesh(small_cfg.radius, small_cfg.forward_elements)
        flayout = place_electrodes(fmesh, small_cfg.electrode_count, angles=ilayout.angles)
        for name, mesh, layout in (("inverse_mesh.txt", imesh, ilayout),
                                   ("forward_mesh.txt", fmesh, flayout)):
            save_mesh(tmp_path / name, mesh, layout)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
        assert ilayout.count == 16 and flayout.count == 16
        assert manifest["inverse_elements"] == imesh.n_elements
        assert fmesh.n_elements > 3 * imesh.n_elements
        delta = load_element_values(out / "delta_sigma_true.txt")
        assert delta.shape == (imesh.n_elements,)
        assert set(np.round(np.unique(delta), 12).tolist()) <= {0.0, 0.1}
        assert (out / "phantom.json").is_file()
        assert (out / "truth_image.pgm").is_file()
        assert (out / "truth_image.pgm.map").is_file()


class TestCmdSimulate:
    def test_files_and_manifest(self, small_cfg, tmp_path):
        manifest = cmd_simulate(small_cfg)
        out = tmp_path / "out"
        for name in ("v_reference.txt", "v_perturbed.txt", "dv_clean.txt", "dv_noisy.txt"):
            frames = load_frames(out / name)
            assert len(frames) == 1
            assert len(frames[0]) == 208
        assert manifest["config"]["seed"] == 42
        assert manifest["n_measurements"] == 208
        recorded = json.loads((out / "simulate.json").read_text())
        assert recorded["config"]["seed"] == 42

    def test_infinite_snr_noisy_equals_clean(self, tmp_path):
        cfg = load_config(
            _write_cfg(tmp_path / "c.cfg", snr_db="inf", out_dir=str(tmp_path / "o"))
        )
        cmd_simulate(cfg)
        clean = (tmp_path / "o" / "dv_clean.txt").read_bytes()
        noisy = (tmp_path / "o" / "dv_noisy.txt").read_bytes()
        assert clean == noisy

    def test_repeat_run_bit_identical(self, tmp_path):
        cfg1 = load_config(_write_cfg(tmp_path / "c1.cfg", out_dir=str(tmp_path / "o1")))
        cfg2 = load_config(_write_cfg(tmp_path / "c2.cfg", out_dir=str(tmp_path / "o2")))
        cmd_simulate(cfg1)
        cmd_simulate(cfg2)
        for name in ("v_reference.txt", "v_perturbed.txt", "dv_clean.txt", "dv_noisy.txt"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b


class TestCmdReconstruct:
    def test_shipped_iteration_count(self, tmp_path):
        # shipped defaults: 20 ADMM iterations -> 20-row iterate table
        cfg = load_config(
            _write_cfg(
                tmp_path / "c.cfg",
                inverse_elements=1024,
                forward_elements=16384,
                max_iters=20,
                raster_resolution=256,
                profile_rows=[107, 144, 182],
                out_dir=str(tmp_path / "o"),
            )
        )
        cmd_simulate(cfg)
        manifest = cmd_reconstruct(cfg)
        rows = list(csv.DictReader((tmp_path / "o" / "iterates.csv").open()))
        assert len(rows) == 20
        assert rows[0]["iteration"] == "1"
        assert set(rows[0]) == {"iteration", "data_residual", "step_norm", "wall_ms"}
        assert manifest["termination"] == "max_iters"
        final = load_element_values(tmp_path / "o" / "delta_sigma.txt")
        series = load_field_series(tmp_path / "o" / "iterates.txt")
        assert series.shape == (20, final.size)
        assert np.array_equal(series[-1], final)

    def test_iterates_csv_cells_are_floats(self, small_cfg, tmp_path):
        cmd_simulate(small_cfg)
        cmd_reconstruct(small_cfg)
        lines = (tmp_path / "out" / "iterates.csv").read_text().splitlines()
        assert len(lines) == 1 + small_cfg.max_iters
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            for cell in cells:
                float(cell)

    def test_tikhonov_single_row(self, small_cfg, tmp_path):
        cfg = dataclasses.replace(small_cfg, solver="tikhonov", lam=1e-6)
        cmd_simulate(cfg)
        manifest = cmd_reconstruct(cfg)
        rows = list(csv.DictReader((tmp_path / "out" / "iterates.csv").open()))
        assert len(rows) == 1
        assert manifest["termination"] == "direct"

    def test_tikhonov_preprocess_changes_result(self, small_cfg, tmp_path):
        cfg = dataclasses.replace(small_cfg, solver="tikhonov", lam=1e-6)
        cmd_simulate(cfg)
        for name, lambda_b in (("off", None), ("on", 1e-7)):
            run = dataclasses.replace(cfg, lambda_b=lambda_b, out_dir=str(tmp_path / name))
            cmd_reconstruct(run, tmp_path / "out" / "dv_noisy.txt")
        off, on = (load_element_values(tmp_path / d / "delta_sigma.txt") for d in ("off", "on"))
        assert not np.array_equal(off, on)

    def test_huge_tol_single_iteration(self, small_cfg, tmp_path):
        cfg = dataclasses.replace(small_cfg, tol=1e30)
        cmd_simulate(cfg)
        manifest = cmd_reconstruct(cfg)
        assert manifest["n_iterations"] == 1
        assert manifest["termination"] == "tol"

    def test_missing_data_file(self, small_cfg):
        with pytest.raises(ConfigError, match="voltage file"):
            cmd_reconstruct(small_cfg)

    def test_failure_before_the_first_write_leaves_no_file(self, small_cfg, tmp_path, monkeypatch):
        import eitkit.pipeline as pl

        cmd_simulate(small_cfg)

        def broken(*args):
            raise RuntimeError("rasterize failed")

        monkeypatch.setattr(pl, "rasterize", broken)
        with pytest.raises(RuntimeError, match="rasterize failed"):
            cmd_reconstruct(small_cfg)
        for name in ("delta_sigma.txt", "iterates.txt", "iterates.csv"):
            assert not (tmp_path / "out" / name).exists(), name


class TestCmdEvaluate:
    def test_row_count_and_surrogate_zero(self, small_cfg, tmp_path):
        cmd_simulate(small_cfg)
        cmd_reconstruct(small_cfg)
        manifest = cmd_evaluate(small_cfg)
        out = tmp_path / "out"
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "iteration,re,psnr"
        assert len(lines) - 1 == 3 == manifest["n_iterations"]
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
        last = lines[-1].split(",")
        assert (float(last[1]), float(last[2])) == (manifest["final_re"], manifest["final_psnr"])
        profiles = list(csv.DictReader((out / "profiles.csv").open()))
        assert len(profiles) == 64
        assert "recon_row20" in profiles[0] and "truth_row45" in profiles[0]
        # each recon_row{r} column is row r of the final image
        final = load_element_values(out / "delta_sigma.txt")
        image = rasterize(generate_disk_mesh(0.1, 256), small_cfg.sigma0 + final, 64)
        for r in small_cfg.profile_rows:
            column = [float(row[f"recon_row{r}"]) for row in profiles]
            assert np.array_equal(column, image[r], equal_nan=True)

        # surrogate reference equal to the stored result -> exact zero error
        save_element_values(out / "iterates.txt", final[None, :])
        manifest = cmd_evaluate(small_cfg, reference=out / "delta_sigma.txt")
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines == ["iteration,re,psnr", "1,0.0,inf"]
        assert float(lines[1].split(",")[2]) == math.inf
        assert (manifest["final_re"], manifest["final_psnr"]) == (0.0, math.inf)

    def test_builds_raster_index_once(self, small_cfg, tmp_path, monkeypatch):
        cmd_simulate(small_cfg)
        cmd_reconstruct(small_cfg)
        built = _count_raster_index_builds(monkeypatch)
        assert cmd_evaluate(small_cfg)["n_iterations"] == 3
        # a stored reference is gathered on the same table as the iterates
        reference = tmp_path / "out" / "delta_sigma.txt"
        assert cmd_evaluate(small_cfg, reference=reference)["n_iterations"] == 3
        assert built == [64, 64]

    def test_missing_history_no_partial_output(self, small_cfg, tmp_path):
        with pytest.raises(ConfigError, match="iterates"):
            cmd_evaluate(small_cfg)
        assert not (tmp_path / "out" / "eval.csv").exists()
        assert not (tmp_path / "out" / "profiles.csv").exists()

    def test_bad_reference_length(self, small_cfg, tmp_path):
        cmd_simulate(small_cfg)
        cmd_reconstruct(small_cfg)
        bad = tmp_path / "bad_field.txt"
        save_element_values(bad, np.ones(7))
        with pytest.raises(ConfigError, match="reference"):
            cmd_evaluate(small_cfg, reference=bad)


class TestCmdSweep:
    # a one-cell sweep is reconstruct: each case sets a config field that
    # both verbs must hand to the solver, and lam is the sweep's own float
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"lambda_b": 1e-7},
         {"solver": "fotv"}, {"solver": "tv"}, {"solver": "tikhonov", "ratio": 1e4}],
        ids=["shipped", "preprocess", "fotv", "tv", "tikhonov"],
    )
    def test_single_cell_matches_reconstruct_evaluate(self, tmp_path, overrides):
        ratio = overrides.pop("ratio", 5e-3)
        cfg = load_config(
            _write_cfg(
                tmp_path / "c.cfg",
                out_dir=str(tmp_path / "o"),
                lam=ratio * SMALL["rho"],
                sweep_lambda_over_rho=[ratio],
                sweep_delta=[SMALL["delta"]],
                **overrides,
            )
        )
        cmd_simulate(cfg)
        result = cmd_reconstruct(cfg)
        manifest = cmd_evaluate(cfg)
        rows = cmd_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep")))
        assert len(rows) == 1
        assert rows[0]["re"] == manifest["final_re"]
        assert rows[0]["psnr"] == manifest["final_psnr"]
        (row,) = csv.DictReader((tmp_path / "sweep" / "sweep.csv").open())
        assert row["re"] == repr(manifest["final_re"])
        assert int(row["iterations"]) == result["n_iterations"]
        assert row["termination"] == result["termination"]

    def test_grid_order_and_determinism(self, tmp_path):
        cfg = load_config(
            _write_cfg(
                tmp_path / "c.cfg",
                out_dir=str(tmp_path / "o"),
                sweep_lambda_over_rho=[1e-3, 5e-3],
                sweep_delta=[0.001, 0.1],
            )
        )
        rows = cmd_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "s1")))
        ratios = [r["lambda_over_rho"] for r in rows]
        deltas = [r["delta"] for r in rows]
        assert ratios == [1e-3, 1e-3, 5e-3, 5e-3]
        assert deltas == [0.001, 0.1, 0.001, 0.1]
        cmd_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "s2")))
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (
            tmp_path / "s2" / "sweep.csv"
        ).read_bytes()

    def test_builds_raster_index_once(self, small_cfg, monkeypatch):
        built = _count_raster_index_builds(monkeypatch)
        rows = cmd_sweep(small_cfg)
        assert len(rows) == 35
        assert not [r for r in rows if r["termination"].startswith("error")]
        assert built == [64]

    def test_shipped_cell_of_full_grid_matches_reconstruct_evaluate(self, small_cfg):
        # the 35 cells run as one block, whose products round differently
        # from a single reconstruction's in the last digits only
        cmd_simulate(small_cfg)
        cmd_reconstruct(small_cfg)
        want = cmd_evaluate(small_cfg)["final_re"]
        rows = cmd_sweep(small_cfg)
        assert len(rows) == 35
        (row,) = [
            r for r in rows
            if r["lambda_over_rho"] * small_cfg.rho == small_cfg.lam
            and r["delta"] == small_cfg.delta
        ]
        assert abs(row["re"] - want) <= 1e-10 * want

    @pytest.mark.parametrize("solver, n_solved", [
        ("nwatv", 35), ("fotv", 7), ("tv", 7), ("tikhonov", 7),
    ])
    def test_solves_each_distinct_problem_once(self, tmp_path, monkeypatch, solver, n_solved):
        import eitkit.inverse as inv

        cfg = load_config(
            _write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "o"), solver=solver)
        )
        solved = []  # (lam, delta) of every column solved
        calls = []  # one entry per block or ridge call
        real_block, real_tikhonov = inv.reconstruct_block, inv.reconstruct_tikhonov

        def block(x_update, delta_v, lams, deltas, **options):
            calls.append("block")
            solved.extend(zip(lams, deltas))
            return real_block(x_update, delta_v, lams, deltas, **options)

        def tikhonov(s, delta_v, lams):
            calls.append("ridge")
            solved.extend((lam, None) for lam in lams)
            return real_tikhonov(s, delta_v, lams)

        monkeypatch.setattr(inv, "reconstruct_block", block)
        monkeypatch.setattr(inv, "reconstruct_tikhonov", tikhonov)
        rows = cmd_sweep(cfg)
        assert len(rows) == 35 and len(solved) == n_solved
        assert calls == ["ridge" if solver == "tikhonov" else "block"]
        terminations = {r["termination"] for r in rows}
        if solver == "tikhonov":
            assert terminations == {"direct"}
        else:
            assert not any(t.startswith("error") for t in terminations)
        problems = {(r["lambda_over_rho"] * cfg.rho, r["delta"]) for r in rows}
        if solver != "nwatv":  # only nwatv reads delta
            problems = {lam for lam, _ in problems}
            solved = [lam for lam, _ in solved]
            columns = ("iterations", "termination", "re", "psnr")
            for row in rows:  # the delta cells of one lam share its solution
                first = next(r for r in rows if r["lambda_over_rho"] == row["lambda_over_rho"])
                assert [row[c] for c in columns] == [first[c] for c in columns]
        assert sorted(solved) == sorted(problems)

    def test_cell_failure_recorded_and_continues(self, tmp_path, monkeypatch):
        import eitkit.inverse as inv

        cfg = load_config(
            _write_cfg(
                tmp_path / "c.cfg",
                out_dir=str(tmp_path / "o"),
                sweep_lambda_over_rho=[1e-3],
                sweep_delta=[0.001, 0.1],
            )
        )
        real = inv.XUpdateSolver.solve

        def poisoned(self, rhs):
            # a NaN right-hand side in the delta = 0.001 column of the block
            if rhs.ndim == 2 and rhs.shape[1] == 2:
                rhs = rhs.copy()
                rhs[:, 0] = np.nan
            return real(self, rhs)

        monkeypatch.setattr(inv.XUpdateSolver, "solve", poisoned)
        rows = cmd_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "s")))
        assert rows[0]["termination"] == "error:SolverError"
        assert math.isnan(rows[0]["re"])
        assert rows[1]["termination"] in ("max_iters", "tol")
        assert math.isfinite(rows[1]["re"])

    def test_tikhonov_failure_stays_with_its_lam(self, small_cfg):
        # at rho 1e-14 only ratio 5e-5 (lam 5e-19) leaves S S^T + lam I
        # indefinite in floating point; the other six lam solve
        rows = cmd_sweep(dataclasses.replace(small_cfg, solver="tikhonov", rho=1e-14))
        failed = [r for r in rows if r["lambda_over_rho"] == 5e-5]
        solved = [r for r in rows if r["lambda_over_rho"] != 5e-5]
        assert len(failed) == 5 and {r["termination"] for r in failed} == {"error:SolverError"}
        assert len(solved) == 30 and {r["termination"] for r in solved} == {"direct"}
        assert all(math.isfinite(r["re"]) for r in solved)

    def test_preprocessing_failure_fills_every_cell(self, small_cfg, model7, tmp_path):
        # the 1024-element mesh's boundary Gram matrix is singular at lambda_b 1e-30
        data = tmp_path / "dv_noisy.txt"
        save_frames(data, [model7.dv_noisy])
        cfg = dataclasses.replace(small_cfg, inverse_elements=1024, lambda_b=1e-30,
                                  sweep_lambda_over_rho=[1e-3, 5e-3], sweep_delta=[0.01])
        rows = cmd_sweep(cfg, data_path=data)
        assert [r["termination"] for r in rows] == ["error:SolverError"] * 2
        # integer, float, string and nan cells, each as its column writes it
        assert (tmp_path / "out" / "sweep.csv").read_text() == (
            "index,lambda_over_rho,delta,iterations,termination,re,psnr\n"
            "0,0.001,0.01,0,error:SolverError,nan,nan\n"
            "1,0.005,0.01,0,error:SolverError,nan,nan\n"
        )

    def test_bug_in_the_block_propagates(self, small_cfg, monkeypatch):
        import eitkit.inverse as inv

        def broken(d_x, delta):
            raise TypeError("not a solver failure")

        monkeypatch.setattr(inv, "nwatv_weights", broken)
        with pytest.raises(TypeError, match="not a solver failure"):
            cmd_sweep(small_cfg)


class TestCmdRender:
    def test_render_matches_reconstruct_gray_levels(self, small_cfg, tmp_path):
        cmd_simulate(small_cfg)
        cmd_reconstruct(small_cfg)
        out = tmp_path / "out"
        target = cmd_render(dataclasses.replace(small_cfg, out_dir=str(tmp_path / "r")),
                            out / "delta_sigma.txt")
        # value-to-gray map is affine-invariant: shifting by the background
        # changes only the sidecar, not the gray matrix
        recon_gray = (out / "recon_image.pgm").read_text().split()[4:]
        render_gray = target.read_text().split()[4:]
        assert recon_gray == render_gray

    def test_render_missing_field(self, small_cfg, tmp_path):
        with pytest.raises(ConfigError):
            cmd_render(small_cfg, tmp_path / "nope.txt")

    def test_name_option_is_gone(self, tmp_path):
        argv = ["render", "--config", str(_write_cfg(tmp_path / "run.cfg")),
                "--field", str(tmp_path / "f.txt"), "--name", "x"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


@pytest.mark.filterwarnings("error")  # a numpy warning would be a stderr line
class TestCli:
    def test_full_chain_exit_zero(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        for verb in ("mesh", "simulate", "reconstruct", "evaluate"):
            assert main([verb, "--config", str(cfg_path)]) == 0
        assert main(
            [
                "render",
                "--config",
                str(cfg_path),
                "--field",
                str(tmp_path / "out" / "delta_sigma.txt"),
            ]
        ) == 0
        assert (tmp_path / "out" / "delta_sigma.pgm").is_file()

    def test_seed_override_changes_noise(self, tmp_path):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        main(["simulate", "--config", str(cfg_path)])
        first = (tmp_path / "out" / "dv_noisy.txt").read_bytes()
        main(["simulate", "--config", str(cfg_path), "--seed", "7"])
        second = (tmp_path / "out" / "dv_noisy.txt").read_bytes()
        assert first != second
        recorded = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert recorded["config"]["seed"] == 7

    def test_out_override(self, tmp_path):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "ignored"))
        assert main(["mesh", "--config", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
        assert (tmp_path / "o2" / "inverse_mesh.txt").is_file()
        assert not (tmp_path / "ignored").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        assert main(["mesh", "--config", str(tmp_path / "missing.cfg")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_config_directory_exit_two(self, tmp_path, capsys):
        assert main(["mesh", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "cannot be read" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"lam": "x"}, "lam"),
            ({"radius": "x"}, "radius"),
            ({"snr_db": None}, "snr_db"),
            ({"sweep_lambda_over_rho": 5.0}, "sweep_lambda_over_rho"),
            ({"sweep_delta": "abc"}, "sweep_delta"),
            ({"profile_rows": ["a"]}, "profile_rows"),
            ({"phantom_model": "7"}, "phantom_model"),
            ({"phantom_model": 11}, "phantom_model"),
            ({"max_iters": True}, "max_iters"),
            ({"phantom_model": None, "phantom_file": "not json {"}, "phantom_file"),
            ({"phantom_model": None, "phantom_file": '{"background": 1.0}'}, "phantom_file"),
            ({"lam": float("nan")}, "lam"),
            ({"lam": float("inf")}, "lam"),
            ({"lam": float("-inf")}, "lam"),
            ({"rho": float("inf")}, "rho"),
            ({"sweep_delta": [0.01, float("nan")]}, "sweep_delta"),
            ({"sweep_lambda_over_rho": [float("nan")]}, "sweep_lambda_over_rho"),
            ({"lam": 10**400}, "lam"),
        ],
        ids=[
            "lam_string", "radius_string", "snr_null", "ratios_not_list", "deltas_string",
            "profile_rows_strings", "model_string", "model_11", "max_iters_bool",
            "phantom_not_json", "phantom_no_inclusions",
            "lam_nan", "lam_inf", "lam_neg_inf", "rho_inf", "deltas_nan", "ratios_nan",
            "lam_int_past_float",
        ],
    )
    def test_malformed_config_value_exit_two(self, tmp_path, capsys, overrides, field):
        if overrides.get("phantom_file"):
            phantom = tmp_path / "phantom.json"
            phantom.write_text(overrides["phantom_file"])
            overrides = dict(overrides, phantom_file=str(phantom))
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"), **overrides)
        assert main(["mesh", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}" in err and len(err.strip().splitlines()) == 1

    # each size passes its bound's check and fails it one higher; far past
    # the float range, every verb that reads it stops at the config
    @pytest.mark.parametrize("field, high", [
        ("inverse_elements", 1 << 16), ("forward_elements", 1 << 18), ("raster_resolution", 1 << 12),
    ])
    def test_size_fields_bounded_before_anything_is_built(self, tmp_path, capsys, field, high):
        PipelineConfig(**{field: high})
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer in .*, got {high + 1}$"):
            PipelineConfig(**{field: high + 1})
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"), **{field: 10**400})
        for verb in ("mesh", "simulate", "reconstruct", "sweep"):
            assert main([verb, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert f"config error: {field}" in err and len(err.strip().splitlines()) == 1

    # every verb builds the inverse mesh; mesh, simulate and sweep the forward one
    GEOMETRY_CASES = {
        "electrodes_above_inverse_boundary": (
            {"inverse_elements": 64, "electrode_count": 32}, "electrode_count", VERBS),
        "radius_huge": ({"radius": 1e308}, "radius", VERBS),
        "electrodes_above_forward_boundary": (
            {"electrode_count": 24, "forward_elements": 64}, "electrode_count",
            ("mesh", "simulate", "sweep")),
    }

    @pytest.mark.parametrize(
        "case, verb",
        [(case, verb) for case, (*_, verbs) in GEOMETRY_CASES.items() for verb in verbs],
    )
    def test_geometry_the_mesh_cannot_hold_exit_two(self, tmp_path, capsys, case, verb):
        overrides, field, _ = self.GEOMETRY_CASES[case]
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"), **overrides)
        argv = [verb, "--config", str(cfg_path)]
        if verb == "render":
            save_element_values(tmp_path / "field.txt", np.zeros(64))
            argv += ["--field", str(tmp_path / "field.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", ["simulate", "sweep"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exit_two(self, tmp_path, capsys, verb, where):
        seed = {"seed": -1} if where == "config" else {}
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"), **seed)
        argv = [verb, "--config", str(cfg_path)] + (["--seed", "-1"] if where == "flag" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: seed" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", VERBS)
    def test_tikhonov_zero_lam_exit_two(self, tmp_path, capsys, verb):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                              solver="tikhonov", lam=0.0)
        argv = [verb, "--config", str(cfg_path)]
        if verb == "render":
            argv += ["--field", str(tmp_path / "field.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: lam" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("rho, ratio", [(1e300, 1e10), (1e-300, 1e-30)],
                             ids=["overflow", "underflow"])
    def test_tikhonov_sweep_lam_out_of_range_exit_two(self, tmp_path, capsys, rho, ratio):
        # ratio x rho is a sweep cell's ridge lam, which must be positive and finite
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                              solver="tikhonov", rho=rho, sweep_lambda_over_rho=[ratio, 1.0])
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: sweep_lambda_over_rho" in err and len(err.strip().splitlines()) == 1

    def test_removed_mask_elements_is_an_unknown_field(self, tmp_path, capsys):
        # mask_elements and enable_preprocess were config fields once; an old
        # config that sets one stops at the field check of every verb, like
        # any misspelt key
        for name, value in (("mask_elements", [0, 1, 2]), ("enable_preprocess", True)):
            cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                                  **{name: value})
            for verb in VERBS:
                argv = [verb, "--config", str(cfg_path)]
                if verb == "render":
                    argv += ["--field", str(tmp_path / "field.txt")]
                assert main(argv) == 2, (name, verb)
                assert capsys.readouterr().err == f"config error: unknown config fields: {name}\n"

    @pytest.mark.parametrize("verb", ["reconstruct", "sweep"])
    def test_multi_frame_data_file_exit_two(self, tmp_path, capsys, verb):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        (frame,) = load_frames(tmp_path / "out" / "dv_noisy.txt")
        three = tmp_path / "three.txt"
        save_frames(three, [frame, frame, frame])
        assert main([verb, "--config", str(cfg_path), "--data", str(three)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "3 frames" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_numeric_field_file_exit_two(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        bad = tmp_path / "field.txt"
        bad.write_text("# frame 1 3\n1.0\nabc\n2.0\n")
        assert main(["render", "--config", str(cfg_path), "--field", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "field file" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text",
        ["# frame 1 3\n1.0\nxyz\n2.0\n", "# frame 1 3\n1.0\n2.0\n"],
        ids=["non_numeric", "truncated_block"],
    )
    def test_bad_iterate_history_exit_two(self, tmp_path, capsys, text):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "iterates.txt").write_text(text)
        assert main(["evaluate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "iterate history" in err and len(err.strip().splitlines()) == 1

    @pytest.fixture(scope="class")
    def chain_outputs(self, tmp_path_factory):
        """Config and out directory of one mesh, simulate, reconstruct chain."""
        root = tmp_path_factory.mktemp("chain")
        cfg_path = _write_cfg(root / "run.cfg", out_dir=str(root / "out"))
        for verb in ("mesh", "simulate", "reconstruct"):
            assert main([verb, "--config", str(cfg_path)]) == 0
        return cfg_path, root / "out"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize(
        "verb, flag, source",
        [
            ("reconstruct", "--data", "dv_noisy.txt"),
            ("sweep", "--data", "dv_noisy.txt"),
            ("render", "--field", "delta_sigma.txt"),
            ("evaluate", "--reference", "delta_sigma_true.txt"),
            ("evaluate", "--result", "iterates.txt"),
        ],
    )
    def test_non_finite_input_value_exit_two(
        self, chain_outputs, tmp_path, capsys, verb, flag, source, token
    ):
        cfg_path, out = chain_outputs
        lines = (out / source).read_text().splitlines()
        lines[2] = " ".join([*lines[2].split()[:-1], token])  # the second row's value
        bad = tmp_path / source
        bad.write_text("\n".join(lines) + "\n")
        where = str(tmp_path if flag == "--result" else bad)
        argv = [verb, "--config", str(cfg_path), flag, where, "--out", str(tmp_path / "run")]
        argv += ["--result", str(out)] if flag == "--reference" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: not a finite number: '{token}'" in err
        assert len(err.strip().splitlines()) == 1

    def test_evaluate_reads_result_and_writes_out(self, chain_outputs, tmp_path):
        cfg_path, out = chain_outputs
        before = sorted(out.iterdir())
        scored = tmp_path / "scored"
        argv = ["evaluate", "--config", str(cfg_path), "--result", str(out), "--out", str(scored)]
        assert main(argv) == 0
        assert {"eval.csv", "profiles.csv", "evaluate.json"} <= {p.name for p in scored.iterdir()}
        assert sorted(out.iterdir()) == before

    def test_failed_write_exit_two(self, chain_outputs, tmp_path, capsys):
        cfg_path, out = chain_outputs
        (tmp_path / "d" / "iterates.csv").mkdir(parents=True)
        argv = ["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "d"),
                "--data", str(out / "dv_noisy.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir: cannot write ") and "iterates.csv" in err
        assert len(err.strip().splitlines()) == 1

    def test_failed_write_leaves_no_manifest_of_another_run(self, chain_outputs, tmp_path, capsys):
        cfg_path, out = chain_outputs
        run = tmp_path / "d"
        argv = ["reconstruct", "--config", str(cfg_path), "--out", str(run),
                "--data", str(out / "dv_noisy.txt")]
        assert main(argv) == 0
        (run / "iterates.csv").unlink()
        (run / "iterates.csv").mkdir()
        assert main([*argv, "--seed", "1"]) == 2
        assert (run / "delta_sigma.txt").is_file() and not (run / "result.json").exists()
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_unwritable_solver_diagnostics_exit_two(self, chain_outputs, tmp_path, capsys):
        # the ridge fails at this lam, and a directory holds the diagnostics' place
        _, out = chain_outputs
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "d"),
                              solver="tikhonov", lam=1e-30)
        (tmp_path / "d" / "solver_error.json").mkdir(parents=True)
        argv = ["reconstruct", "--config", str(cfg_path), "--data", str(out / "dv_noisy.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir: cannot write ") and "solver_error.json" in err
        assert len(err.strip().splitlines()) == 1

    def test_failed_write_without_a_file_name_names_out_dir(self, tmp_path, capsys, monkeypatch):
        import eitkit.pipeline as pl

        def full(path, doc):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pl, "_write_json", full)
        out = tmp_path / "out"
        assert main(["mesh", "--config", str(_write_cfg(tmp_path / "run.cfg", out_dir=str(out)))]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: out_dir: cannot write {out}: No space left on device\n"

    @pytest.mark.parametrize("sigma0", [1e200, 1e300])
    def test_evaluate_at_huge_sigma0_scores_finite(self, chain_outputs, tmp_path, capsys, sigma0):
        # the images hold values near sigma0, whose squares overflow unscaled
        _, out = chain_outputs
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"), sigma0=sigma0)
        assert main(["evaluate", "--config", str(cfg_path), "--result", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "run" / "eval.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert all(math.isfinite(float(row[k])) for row in rows for k in ("re", "psnr"))

    def test_evaluate_at_tiny_sigma0_against_zero_reference(self, chain_outputs, tmp_path, capsys):
        # the reference image holds 1e-200 on every pixel, whose squares
        # underflow unscaled; the estimate adds the run's iterates to it
        _, out = chain_outputs
        n = load_element_values(out / "delta_sigma.txt").size
        reference = tmp_path / "zeros.txt"
        save_element_values(reference, np.zeros(n))
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"), sigma0=1e-200)
        argv = ["evaluate", "--config", str(cfg_path), "--result", str(out),
                "--reference", str(reference)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "run" / "eval.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert all(math.isfinite(float(row[k])) for row in rows for k in ("re", "psnr"))

    def test_evaluate_zero_conductivity_iterate_psnr_minus_inf(self, chain_outputs, tmp_path):
        # sigma0 + (-sigma0) is 0 on every pixel: an image with no peak
        cfg_path, out = chain_outputs
        n = load_element_values(out / "delta_sigma.txt").size
        save_element_values(tmp_path / "iterates.txt", np.full((1, n), -SMALL["sigma0"]))
        argv = ["evaluate", "--config", str(cfg_path), "--result", str(tmp_path),
                "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        lines = (tmp_path / "run" / "eval.csv").read_text().splitlines()
        assert lines == ["iteration,re,psnr", "1,1.0,-inf"]

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        # the manifest is strict JSON, with the non-finite number as a string
        text = (tmp_path / "run" / "evaluate.json").read_text()
        assert json.loads(text, parse_constant=refuse)["final_psnr"] == "-inf"

    def test_evaluate_zero_conductivity_reference_exit_two(self, chain_outputs, tmp_path, capsys):
        cfg_path, out = chain_outputs
        n = load_element_values(out / "delta_sigma.txt").size
        reference = tmp_path / "reference.txt"
        save_element_values(reference, np.full(n, -SMALL["sigma0"]))
        argv = ["evaluate", "--config", str(cfg_path), "--result", str(out),
                "--reference", str(reference), "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: reference field {reference}" in err
        assert len(err.strip().splitlines()) == 1

    def test_data_of_huge_scale_exit_three(self, chain_outputs, tmp_path, capsys):
        # x 1e153 the reweight overflows |g|^2 once the iterate has grown,
        # so NWATV weights reach 0; x 1e300 the x-update still meets its
        # residual contract (its gain carries 1/rho, so no product passes
        # the float range), and |g|^2 overflows at iteration 1: reconstruct
        # stops with one line, and every sweep cell records it silently
        _, out = chain_outputs
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"), max_iters=20)
        for scale, why in ((1e153, "NWATV weights"), (1e300, "iteration 1: NWATV weights")):
            huge = tmp_path / "dv_huge.txt"
            save_frames(huge, load_frames(out / "dv_noisy.txt") * scale)
            assert main(["reconstruct", "--config", str(cfg_path), "--data", str(huge)]) == 3
            err = capsys.readouterr().err
            assert why in err and len(err.strip().splitlines()) == 1
            assert main(["sweep", "--config", str(cfg_path), "--data", str(huge)]) == 0
            assert capsys.readouterr().err == ""
            with open(tmp_path / "run" / "sweep.csv") as f:
                assert {row["termination"] for row in csv.DictReader(f)} == {"error:SolverError"}

    def test_sweep_checks_the_phantom_before_factoring(self, tmp_path, capsys, monkeypatch):
        import eitkit.inverse as inv

        def never(*args, **kwargs):
            raise AssertionError("the x-update was factored")

        monkeypatch.setattr(inv, "XUpdateSolver", never)
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"), radius=1e-150)
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: phantom_model" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_out_dir_naming_a_file_exit_two(self, tmp_path, capsys, verb, where):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = {"out_dir": str(taken)} if where == "config" else {}
        argv = [verb, "--config", str(_write_cfg(tmp_path / "run.cfg", **out))]
        argv += ["--out", str(taken)] if where == "flag" else []
        argv += ["--field", str(tmp_path / "field.txt")] if verb == "render" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: out_dir" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "radius, verb", [(1e150, "simulate"), (1e150, "sweep"), (1e-150, "simulate")]
    )
    def test_phantom_changing_no_element_exit_two(self, tmp_path, capsys, radius, verb):
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"), radius=radius)
        assert main([verb, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: phantom_model" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", ["simulate", "sweep"])
    def test_underflowed_difference_frame_names_the_scale(self, tmp_path, capsys, verb):
        # at 1e-300 mA the phantom changes elements, but the frame difference is 0
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                              current_ma=1e-300)
        assert main([verb, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: current_ma/sigma0" in err and "underflowed" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "field, value",
        [("center", [0.04, -0.01, 0.0]), ("value", math.inf), ("axis_a", [math.nan, 0.038])],
        ids=["center_3d", "value_inf", "axis_a_nan"],
    )
    def test_malformed_phantom_document_exit_two(self, tmp_path, capsys, field, value):
        inclusion = {"center": [0.04, -0.01], "axis_a": [0.019, 0.038],
                     "axis_b": [-0.019, 0.0095], "value": 1.1, field: value}
        phantom = tmp_path / "phantom.json"
        phantom.write_text(json.dumps({"background": 1.0, "inclusions": [inclusion]}))
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                              phantom_model=None, phantom_file=str(phantom))
        for verb in ("mesh", "simulate", "sweep"):
            assert main([verb, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert "config error: phantom_file" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field, value", [
        ("sigma0", 1e-300), ("current_ma", 1e300),
        ("current_ma", 1e150), ("sigma0", 1e-150), ("sigma0", 1e300),
    ])
    def test_extreme_scale_simulates_then_exit_two(self, tmp_path, capsys, field, value):
        # the frames stay finite, but S = grad u . grad u / I does not, or
        # |S|^2 overflows (1e-150 S/m) or underflows to 0 (1e300 S/m), or
        # |S|^2/rho overflows at the shipped rho (1e150 mA)
        fields = "sigma0/current_ma" + "/rho" * ((field, value) == ("current_ma", 1e150))
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"), **{field: value})
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(load_frames(tmp_path / "out" / "dv_noisy.txt")))
        for verb in ("reconstruct", "sweep"):
            assert main([verb, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {fields}: ")
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb, data", [
        ("simulate", False), ("reconstruct", True), ("sweep", False), ("sweep", True),
    ])
    @pytest.mark.parametrize("field, value", [
        ("sigma0", 1e308), ("sigma0", 1e-320), ("current_ma", 1e308),
    ])
    def test_scale_that_breaks_the_fem_exit_two(self, chain_outputs, tmp_path, capsys,
                                                field, value, verb, data):
        # the reference frame and the sensitivity potentials are solves on
        # the homogeneous disk, which only the config's scale can break:
        # a singular stiffness factor (sigma0) or a NaN residual (current_ma)
        _, out = chain_outputs
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"),
                              inverse_elements=64, forward_elements=256, **{field: value})
        argv = [verb, "--config", str(cfg_path)]
        argv += ["--data", str(out / "dv_noisy.txt")] if data else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: sigma0/current_ma" in err and len(err.strip().splitlines()) == 1

    def test_rho_below_the_x_update_bound_exit_two(self, chain_outputs, tmp_path, capsys):
        # the bound comes from the x-update's capacitance matrix, and the
        # message states it; tikhonov builds no x-update and runs
        _, out = chain_outputs

        def reconstruct(rho, **overrides):
            cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"),
                                  rho=rho, **overrides)
            code = main(["reconstruct", "--config", str(cfg_path),
                         "--data", str(out / "dv_noisy.txt")])
            return code, capsys.readouterr().err

        code, err = reconstruct(1e-30)
        assert code == 2 and err.startswith("config error: rho: ")
        bound = float(re.search(r"smallest admissible rho for this S and D is (\S+),", err)[1])
        code, err = reconstruct(0.99 * bound)
        assert code == 2 and err.startswith("config error: rho: ")
        assert len(err.strip().splitlines()) == 1
        assert reconstruct(1.01 * bound)[0] == 0
        assert reconstruct(1e-30, solver="tikhonov") == (0, "")

    def test_rho_above_the_x_update_bound_exit_two(self, model7, tmp_path, capsys):
        # on the shipped config the bound comes from S and D (4.1e-4), and the
        # message states it; tikhonov builds no x-update and runs
        data = tmp_path / "dv_noisy.txt"
        save_frames(data, [model7.dv_noisy])

        def run(verb, rho, **overrides):
            cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"), rho=rho,
                                  inverse_elements=1024, forward_elements=16384, **overrides)
            code = main([verb, "--config", str(cfg_path), "--data", str(data)])
            return code, capsys.readouterr().err

        for verb in ("reconstruct", "sweep"):
            code, err = run(verb, 1.0)
            assert code == 2 and err.startswith("config error: rho: ")
            assert len(err.strip().splitlines()) == 1
        bound = float(re.search(r"largest admissible rho for this S and D is (\S+),", err)[1])
        assert run("reconstruct", 1.01 * bound)[0] == 2
        assert run("reconstruct", 0.99 * bound) == (0, "")
        assert run("reconstruct", 1.0, solver="tikhonov") == (0, "")

    def test_subnormal_rho_names_the_scale_and_tikhonov_reads_no_rho(self, model7, tmp_path,
                                                                      capsys):
        # on the shipped config |S|^2/rho overflows at rho 1e-310, past the
        # smallest admissible rho (5.2e-18); the ridge never reads rho
        data = tmp_path / "dv_noisy.txt"
        save_frames(data, [model7.dv_noisy])

        def run(verb, rho, **overrides):
            cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"), rho=rho,
                                  inverse_elements=1024, forward_elements=16384, **overrides)
            code = main([verb, "--config", str(cfg_path), "--data", str(data)])
            return code, capsys.readouterr().err

        for verb in ("reconstruct", "sweep"):
            code, err = run(verb, 1e-310)
            assert code == 2 and err.startswith("config error: sigma0/current_ma/rho: ")
            assert len(err.strip().splitlines()) == 1
            code, err = run(verb, 1e-300)
            assert code == 2 and err.startswith("config error: rho: the smallest admissible rho ")
        for rho in (1e-300, 1e-310):
            assert run("reconstruct", rho, solver="tikhonov", lam=1e-12) == (0, "")

    def test_tikhonov_at_extreme_current_is_a_ridge_failure(self, tmp_path, capsys):
        # 1e150 mA gives a finite |S|^2 that the ridge, reading no rho,
        # accepts; its S S^T + lam I then fails its Cholesky factorization
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                              current_ma=1e150, solver="tikhonov")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(cfg_path)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        diag = json.loads((tmp_path / "out" / "solver_error.json").read_text())["diagnostics"]
        assert "ridge_condition" in diag

    @pytest.mark.filterwarnings("error")
    def test_rho_near_the_float_range_exit_two(self, chain_outputs, tmp_path, capsys):
        # rho is compared with the largest admissible rho, and no product
        # with rho leaves the float range on the way
        _, out = chain_outputs
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"), rho=1e308)
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--data", str(out / "dv_noisy.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: rho: the largest admissible rho for this S and D is ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("solver", ["nwatv", "tv"])
    def test_overflowing_shrink_threshold_is_silent(self, chain_outputs, tmp_path, capsys, solver):
        # lam/rho = 1e310 overflows: every shrink gives 0, and nothing is printed
        _, out = chain_outputs
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "run"),
                              lam=1e300, solver=solver)
        data = str(out / "dv_noisy.txt")
        assert main(["reconstruct", "--config", str(cfg_path), "--data", data]) == 0
        assert capsys.readouterr().err == ""

    def test_tiny_radius_on_shipped_data_exit_two(self, model7, tmp_path, capsys):
        # the data of a 0.1 m disk on a 1e-150 m one: |D^T D|_1 is near 1e305,
        # which puts the largest admissible rho below the shipped 1e-10
        data = tmp_path / "dv_noisy.txt"
        save_frames(data, [model7.dv_noisy])
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                              inverse_elements=1024, forward_elements=16384, radius=1e-150)
        assert main(["reconstruct", "--config", str(cfg_path), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: rho: the largest admissible rho for this S and D is ")
        assert len(err.strip().splitlines()) == 1

    def test_verbose_flag_holds_for_its_own_call(self, tmp_path, caplog):
        cfg_path = str(_write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out")))
        log = logging.getLogger("eitkit")
        lines = []
        for argv in (["sweep"], ["-v", "sweep"], ["sweep"]):
            level = log.level
            caplog.clear()
            assert main([*argv, "--config", cfg_path]) == 0
            assert log.level == level
            lines.append([r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG])
        assert [len(found) for found in lines] == [0, 1, 0]
        assert lines[1][0].startswith("ADMM block of 35 columns, ")

    def test_solver_error_json_names_iteration_and_column(self, tmp_path, monkeypatch):
        import eitkit.inverse as inv

        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        real = inv.XUpdateSolver.solve
        monkeypatch.setattr(inv.XUpdateSolver, "solve", lambda self, rhs: real(self, rhs * np.nan))
        assert main(["reconstruct", "--config", str(cfg_path)]) == 3
        diag = json.loads((tmp_path / "out" / "solver_error.json").read_text())["diagnostics"]
        assert (diag["iteration"], diag["column"]) == (1, 0)

    def test_solver_error_exit_three_with_diagnostics(self, tmp_path, monkeypatch, capsys):
        import eitkit.pipeline as pl

        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        main(["simulate", "--config", str(cfg_path)])

        def boom(*args, **kwargs):
            return [SolverError("forced failure", diagnostics={"cond": 1e30})], {}

        monkeypatch.setattr(pl, "_solve", boom)
        rc = main(["reconstruct", "--config", str(cfg_path)])
        assert rc == 3
        diag = json.loads((tmp_path / "out" / "solver_error.json").read_text())
        assert "forced failure" in diag["error"]

    @pytest.mark.parametrize("overrides, key", [
        ({"solver": "tikhonov", "lam": 1e-20}, "ridge_condition"),
        ({"lambda_b": 1e-30}, "gram_condition"),  # singular
        ({"lambda_b": 1e-20}, "gram_condition"),  # rcond < eps
    ], ids=["ridge", "preprocess_singular", "preprocess_ill_conditioned"])
    def test_indefinite_ridge_or_gram_exit_three(self, model7, tmp_path, capsys, overrides, key):
        data = tmp_path / "dv_noisy.txt"
        save_frames(data, [model7.dv_noisy])
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"),
                              inverse_elements=1024, forward_elements=16384, **overrides)
        assert main(["reconstruct", "--config", str(cfg_path), "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and len(err.strip().splitlines()) == 1
        diag = json.loads((tmp_path / "out" / "solver_error.json").read_text())["diagnostics"]
        assert diag[key] > 1 / np.finfo(float).eps


class TestBlasPin:
    """cli.main runs its verb with both OpenBLAS runtimes on one thread and
    gives the caller its counts back, whatever the exit code."""

    @pytest.fixture()
    def runtimes(self):
        found = blas._runtimes()
        if not found:
            pytest.skip("numpy and scipy bundle no OpenBLAS runtime here")
        before = [get() for get, _ in found]
        for _, put in found:
            put(2)  # a caller's count that is not the verb's
        yield found
        for (_, put), count in zip(found, before):
            put(count)

    @pytest.mark.parametrize("code, verb, extra", [
        (0, "mesh", []), (2, "render", ["--field", "missing.txt"]), (3, "reconstruct", []),
    ])
    def test_verb_runs_on_one_thread(self, tmp_path, monkeypatch, runtimes, code, verb, extra):
        import eitkit.cli as cli
        import eitkit.inverse as inv

        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        if code == 3:
            assert main(["simulate", "--config", str(cfg_path)]) == 0
            real_solve = inv.XUpdateSolver.solve
            monkeypatch.setattr(inv.XUpdateSolver, "solve",
                                lambda self, rhs: real_solve(self, rhs * np.nan))
        seen = []
        real = getattr(cli, f"cmd_{verb}")

        def spy(*args, **kwargs):
            seen.append([get() for get, _ in runtimes])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, f"cmd_{verb}", spy)
        assert main([verb, "--config", str(cfg_path), *extra]) == code
        assert seen == [[1] * len(runtimes)]
        assert [get() for get, _ in runtimes] == [2] * len(runtimes)

    def test_manifests_record_the_count_that_ran(self, tmp_path, runtimes):
        out = tmp_path / "out"
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(out))
        manifests = {"mesh": "mesh.json", "simulate": "simulate.json",
                     "reconstruct": "result.json", "evaluate": "evaluate.json",
                     "sweep": "sweep.json"}
        for verb, name in manifests.items():
            assert main([verb, "--config", str(cfg_path)]) == 0
            assert json.loads((out / name).read_text())["blas_threads"] == 1
        # a library caller runs at its own count
        assert cmd_mesh(load_config(cfg_path))["blas_threads"] == 2

    def test_verb_runs_without_a_runtime(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blas, "_runtimes", lambda: ())
        cfg_path = _write_cfg(tmp_path / "run.cfg", out_dir=str(tmp_path / "out"))
        assert main(["mesh", "--config", str(cfg_path)]) == 0
        assert json.loads((tmp_path / "out" / "mesh.json").read_text())["blas_threads"] is None


def test_version_matches_pyproject():
    import re
    from pathlib import Path

    import eitkit

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE).group(1)
    assert eitkit.__version__ == declared
