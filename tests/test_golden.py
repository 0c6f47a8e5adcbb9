"""Golden artifacts: the shipped config's outputs keep their bytes.

Runs mesh -> simulate -> reconstruct -> evaluate -> sweep -> render on
``paper-2d.cfg`` through ``eitkit.cli.main``, then sweeps its noisy data
with the ``fotv``, ``tv`` and ``tikhonov`` solvers, at ``"tol": 1e-2``
and with boundary preprocessing on, runs reconstruct -> evaluate ->
render on that data with the ``fotv``, ``tv`` and ``tikhonov`` solvers
and with boundary preprocessing on, and runs mesh -> simulate ->
reconstruct on the 4,096 / 65,536-element meshes, and checks the
outputs against
``golden_artifacts.json``. Where numpy, scipy and the
platform are those recorded there, every non-JSON artifact must keep its
sha256 (``iterates.csv`` without its ``wall_ms`` column). Elsewhere the
key numbers (RE values, iteration counts, terminations) must agree, the
RE values to the relative tolerance ``RTOL``.

A change meant to move the bytes regenerates the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from eitkit.cli import main

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
CONFIG = Path(__file__).resolve().parents[1] / "src" / "eitkit" / "paper-2d.cfg"

# relative tolerance on RE values across numpy/scipy builds: well above the
# largest cross-path change measured on this chain (9.3e-15 between BLAS
# paths), well below any change of an image that a reader could see
RTOL = 1e-9

# the extra sweeps on the chain's noisy data: output directory -> overrides
SWEEPS = {"fotv": {"solver": "fotv"}, "tv": {"solver": "tv"}, "tol": {"tol": 1e-2},
          "tikhonov": {"solver": "tikhonov"}, "preprocess": {"lambda_b": 1e-7}}

# the sweeps whose overrides also run reconstruct -> evaluate -> render there
CHAINS = ("fotv", "tv", "tikhonov", "preprocess")

# the fine chain's mesh sizes, run through mesh -> simulate -> reconstruct
FINE = {"inverse_elements": 4096, "forward_elements": 65536}

ACCEPTANCE_LINES = []  # echoed by conftest at the end of the run


def _report(line: str) -> None:
    print(line)
    ACCEPTANCE_LINES.append(line)


def _environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "platform": f"{sys.platform}-{platform.machine()}"}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "iterates.csv":  # wall_ms, the last column, is a clock reading
        data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()


def _sweep_numbers(path: Path) -> dict:
    with open(path) as f:
        rows = list(csv.DictReader(f))
    return {key: [row[key] for row in rows] for key in ("re", "iterations", "termination")}


def run_chain(root: Path) -> dict:
    """Run the chain and the extra sweeps under ``root``; return the
    environment, the artifact hashes and the key numbers."""
    def config(name: str, **overrides) -> str:
        path = root / f"{name}.cfg"
        path.write_text(json.dumps({**json.loads(CONFIG.read_text()), **overrides}))
        return str(path)

    out = root / "paper"
    cfg = config("paper", out_dir=str(out))
    for verb in ("mesh", "simulate", "reconstruct", "evaluate", "sweep"):
        assert main([verb, "--config", cfg]) == 0, verb
    assert main(["render", "--config", cfg, "--field", str(out / "delta_sigma.txt")]) == 0
    data = ["--data", str(out / "dv_noisy.txt")]
    for name, overrides in SWEEPS.items():
        cfg = config(name, out_dir=str(root / name), **overrides)
        assert main(["sweep", "--config", cfg, *data]) == 0, name
        if name in CHAINS:
            assert main(["reconstruct", "--config", cfg, *data]) == 0, name
            assert main(["evaluate", "--config", cfg]) == 0, name
            assert main(["render", "--config", cfg,
                         "--field", str(root / name / "delta_sigma.txt")]) == 0, name
    cfg = config("fine", out_dir=str(root / "fine"), **FINE)
    for verb in ("mesh", "simulate", "reconstruct"):
        assert main([verb, "--config", cfg]) == 0, f"fine {verb}"

    result = json.loads((out / "result.json").read_text())
    return {
        "environment": _environment(),
        "sha256": {
            path.relative_to(root).as_posix(): _digest(path)
            for path in sorted(root.glob("*/*")) if path.suffix != ".json"
        },
        "numbers": {
            "final_re": repr(json.loads((out / "evaluate.json").read_text())["final_re"]),
            "iterations": result["n_iterations"],
            "termination": result["termination"],
            "sweeps": {name: _sweep_numbers(root / name / "sweep.csv")
                       for name in ("paper", *SWEEPS)},
        },
    }


def _floats(numbers: dict) -> list[float]:
    return [float(numbers["final_re"])] + [
        float(re) for sweep in numbers["sweeps"].values() for re in sweep["re"]]


def _counts(numbers: dict) -> list:
    return [numbers["iterations"], numbers["termination"]] + [
        sweep[key] for sweep in numbers["sweeps"].values() for key in ("iterations", "termination")]


def test_shipped_chain_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    run = run_chain(tmp_path)
    assert _counts(run["numbers"]) == _counts(golden["numbers"])
    if run["environment"] == golden["environment"]:
        _report(f"golden: sha256 of {len(golden['sha256'])} artifacts ({run['environment']})")
        moved = sorted(name for name in golden["sha256"] | run["sha256"]
                       if golden["sha256"].get(name) != run["sha256"].get(name))
        assert not moved, f"artifacts that changed their bytes: {moved}"
        assert run["numbers"] == golden["numbers"]
    else:
        _report(f"golden: numbers to rtol {RTOL:g}, since {run['environment']} is not "
                f"the recorded {golden['environment']}")
        np.testing.assert_allclose(_floats(run["numbers"]), _floats(golden["numbers"]),
                                   rtol=RTOL, atol=0.0)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = run_chain(Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(record['sha256'])} artifact hashes")
