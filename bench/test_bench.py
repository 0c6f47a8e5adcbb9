"""Self-tests of the benchmark: python3 -m pytest bench

They run the real workload code, so they take about half a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _record(stdout: str) -> dict:
    line = next(ln for ln in stdout.splitlines() if ln.strip().startswith("results:"))
    return json.loads((ROOT / line.split("results:")[1].strip()).read_text())


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced run of paper-1k on the same seed."""
    plain = _run("--workload", "paper-1k", "--seed", "3", "--seconds", "1", "--trace", "0")
    traced = _run("--workload", "paper-1k", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    return plain.stdout, traced.stdout


def test_printed_metrics_match_benchmark_json(runs):
    for stdout, kind in zip(runs, ("end_to_end", "per_layer")):
        line = _last_json(stdout)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert list(line["metrics"]) == list(expected)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == expected[name]
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_traced_and_untraced_outputs_are_identical(runs):
    plain, traced = (_record(stdout)["passes"] for stdout in runs)
    assert [p["traced"] for p in traced] == [False, True]
    assert traced[1]["checks"]["deterministic"] is True
    hashes = {json.dumps(p["hashes"], sort_keys=True) for p in plain + traced}
    assert len(hashes) == 1
    assert set(plain[0]["hashes"]) == {"delta_sigma.txt", "eval.csv", "profiles.csv"}


def test_known_defect_is_reported_by_name(runs):
    record = _record(runs[0])
    assert record["passes"][0]["checks"]["iterates_csv_floats"] is False
    line = next(ln for ln in runs[0].splitlines() if "check iterates_csv_floats" in ln)
    assert "FAIL" in line and "known defect" in line
    assert record["unexpected_failures"] == []


def test_traced_counts_include_calls_through_pipeline_references(runs):
    metrics = {k: v["value"] for k, v in _last_json(runs[1])["metrics"].items()}
    # 20 iterates scored by evaluate, plus the reconstruct and render images
    assert metrics["mesh.rasterize.calls"] == 22
    # two meshes each in mesh and simulate, one each in reconstruct, evaluate, render
    assert metrics["mesh.generate.calls"] == 7
    assert metrics["forward.drive_solves"] == 3 * 16
    assert metrics["inverse.solves"] == 1 and metrics["inverse.iterations"] == 20
    assert metrics["pipeline.evaluate.self_s"] > 0 and metrics["cli.self_s"] > 0


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_fine_4k_re_from_delta_sigma():
    """fine-4k has no evaluate verb, so its re is computed from delta_sigma.txt."""
    done = _run("--workload", "fine-4k", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = _last_json(done.stdout)
    assert line["correct"] is True and line["attempted"] == 3
    assert 0 < line["metrics"]["re"]["value"] < 0.05


@pytest.fixture(scope="module")
def one_pass():
    """A checked paper-1k pass whose output directory is kept."""
    setup = workloads.set_up(ROOT, "paper-1k", 5, tag="selftest")
    try:
        result = workloads.run_pass(setup, 0)
        workloads.check_pass(setup, result, None, None)
        yield setup, result
    finally:
        shutil.rmtree(setup.work, ignore_errors=True)


def _recheck(setup, result, name, edit, reference=None):
    """Copy the pass outputs, apply ``edit`` to one file, rerun the checks."""
    copy = setup.work / f"edited-{name}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(result.out, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    again = workloads.PassResult(result.index, copy, result.verbs, result.wall_s, result.cpu_s)
    workloads.check_pass(setup, again, reference, None)
    return again.checks


def test_clean_pass_checks(one_pass):
    _, result = one_pass
    failing = {name for name, ok in result.checks.items() if not ok}
    assert failing == set(workloads.KNOWN_DEFECTS)
    assert math.isfinite(result.re)


@pytest.mark.parametrize("name, edit, check", [
    ("dv_noisy.txt", lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "measurements_per_frame"),
    ("iterates.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "history_rows"),
    ("eval.csv", lambda t: t.rsplit(",", 2)[0] + ",nan,1.0\n", "re_finite"),
])
def test_corrupted_output_fails_its_check(one_pass, name, edit, check):
    setup, result = one_pass
    checks = _recheck(setup, result, name, edit)
    assert checks[check] is False
    others = {n for n, ok in checks.items() if not ok} - {check} - set(workloads.KNOWN_DEFECTS)
    assert not others


def test_changed_output_fails_determinism(one_pass):
    setup, result = one_pass
    checks = _recheck(setup, result, "delta_sigma.txt",
                      lambda t: t.replace("e-", "E-", 1), reference=result.hashes)
    assert checks["deterministic"] is False
    assert _recheck(setup, result, "eval.csv", str, reference=result.hashes)["deterministic"]


def test_iterates_float_check(one_pass):
    setup, result = one_pass

    def repaired(text):
        header, *rows = text.splitlines()
        cells = [[c.removeprefix("np.float64(").removesuffix(")") for c in r.split(",")]
                 for r in rows]
        return "\n".join([header] + [",".join(r) for r in cells]) + "\n"

    assert _recheck(setup, result, "iterates.csv", repaired)["iterates_csv_floats"] is True
    def one_bad_cell(text):
        header, first, *rest = repaired(text).splitlines()
        return "\n".join([header, first + "x", *rest]) + "\n"

    broken = _recheck(setup, result, "iterates.csv", one_bad_cell)
    assert broken["iterates_csv_floats"] is False


def test_failed_verb_fails_its_exit_code_check(one_pass):
    setup, result = one_pass
    verbs = [(v, 3 if v == "reconstruct" else code, w) for v, code, w in result.verbs]
    again = workloads.PassResult(result.index, result.out, verbs, result.wall_s, result.cpu_s)
    workloads.check_pass(setup, again, None, None)
    assert again.checks["exit_code.reconstruct"] is False
    assert again.checks["exit_code.evaluate"] is True


def test_sweep_rows_check():
    config = json.loads((ROOT / "src" / "eitkit" / "paper-2d.cfg").read_text())
    grid = [(r, d) for r in config["sweep_lambda_over_rho"] for d in config["sweep_delta"]]
    rows = [f"{i},{r!r},{d!r},20,max_iters,0.02,30.0" for i, (r, d) in enumerate(grid)]
    header = "index,lambda_over_rho,delta,iterations,termination,re,psnr"
    out = ROOT / ".bench_out" / f"selftest-sweep-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        def check(lines):
            (out / "sweep.csv").write_text("\n".join([header] + lines) + "\n")
            return workloads.sweep_rows(out, config)

        ok, cells, re = check(rows)
        assert ok and len(cells) == 35 and all(cells) and re == 0.02
        assert not check(rows[:-1])[0]
        assert not check([rows[1], rows[0]] + rows[2:])[0]
        failed = rows[:4] + [rows[4].replace("max_iters,0.02,30.0", "error:SolverError,nan,nan")]
        ok, cells, _ = check(failed + rows[5:])
        assert not ok and cells[4] is False and sum(cells) == 34
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_tracer_restores_every_reference():
    import eitkit
    import eitkit.mesh
    import eitkit.pipeline

    before = eitkit.pipeline.rasterize, dict(eitkit.pipeline._ITERATIVE)
    tracer = spans.Tracer()
    assert tracer.install(eitkit) > 0
    assert eitkit.pipeline.rasterize is eitkit.mesh.rasterize is not before[0]
    assert eitkit.pipeline._ITERATIVE["nwatv"] is eitkit.inverse.reconstruct_nwatv
    tracer.uninstall()
    assert (eitkit.pipeline.rasterize, eitkit.pipeline._ITERATIVE) == before
    assert eitkit.mesh.rasterize is before[0]


def test_bare_directory_exits_nonzero():
    bare = ROOT / ".bench_out" / f"selftest-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "bench").glob("*.py"):
            shutil.copy(path, bare / "bench")
        done = _run("--workload", "paper-1k", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
