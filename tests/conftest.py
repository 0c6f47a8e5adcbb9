"""Shared experiment fixtures.

The heavy pieces (fine forward mesh, sensitivity matrix) are built once
per session; tests treat them as read-only.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from eitkit.forward import add_noise, sensitivity_matrix, signed_difference, simulate_frame
from eitkit.inverse import XUpdateSolver, build_difference_operators
from eitkit.mesh import generate_disk_mesh, place_electrodes
from eitkit.phantom import assign_conductivity, lung_model

RADIUS = 0.1
E = 16
RHO = 1e-10  # the shipped ADMM coupling weight

# one hypothesis profile for every property test: the same examples on
# every run, no time limit per example, and no example database on disk;
# each test sets its own max_examples
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    """Send what Hypothesis still stores, its cache of the constants in the
    code under test, to a directory the session owns and removes, rather
    than to .hypothesis/ in the working directory."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@dataclass(frozen=True)
class CoarseProblem:
    mesh: object
    layout: object
    d: object
    s: object


@dataclass(frozen=True)
class Model7Data:
    fine_mesh: object
    fine_layout: object
    v_reference: object
    v_perturbed: object
    dv_clean: object
    dv_noisy: object
    delta_true: np.ndarray  # on the coarse mesh


@pytest.fixture(scope="session")
def coarse() -> CoarseProblem:
    mesh = generate_disk_mesh(RADIUS, 1024)
    layout = place_electrodes(mesh, E)
    d = build_difference_operators(mesh)
    s = sensitivity_matrix(mesh, layout, 1.0)
    return CoarseProblem(mesh=mesh, layout=layout, d=d, s=s)


@pytest.fixture(scope="session")
def x_update(coarse) -> XUpdateSolver:
    """The coarse problem's factored x-update at the shipped rho, which
    every ADMM reconstruction on it takes."""
    return XUpdateSolver(coarse.s, coarse.d, RHO)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts after the normal summary."""
    import sys

    lines = []
    for name in ("test_acceptance", "test_golden"):
        mod = sys.modules.get(name) or sys.modules.get(f"tests.{name}")
        lines += getattr(mod, "ACCEPTANCE_LINES", [])
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def model7(coarse) -> Model7Data:
    fine = generate_disk_mesh(RADIUS, 16384)
    flayout = place_electrodes(fine, E, angles=coarse.layout.angles)
    sigma_ref = np.full(fine.n_elements, 1.0)
    sigma_true = assign_conductivity(fine, lung_model(7))
    v_ref = simulate_frame(fine, flayout, sigma_ref)
    v_pert = simulate_frame(fine, flayout, sigma_true)
    dv = signed_difference(v_ref, v_pert)
    dv_noisy = add_noise(dv, 50.0, seed=42)
    delta_true = assign_conductivity(coarse.mesh, lung_model(7)) - 1.0
    return Model7Data(
        fine_mesh=fine,
        fine_layout=flayout,
        v_reference=v_ref,
        v_perturbed=v_pert,
        dv_clean=dv,
        dv_noisy=dv_noisy,
        delta_true=delta_true,
    )
