"""Shared experiment fixtures.

The heavy pieces (fine forward mesh, sensitivity matrix) are built once
per session; tests treat them as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from eitkit import (
    add_noise,
    assign_conductivity,
    build_difference_operators,
    generate_disk_mesh,
    lung_model,
    place_electrodes,
    sensitivity_matrix,
    signed_difference,
    simulate_frame,
    XUpdateSolver,
)

RADIUS = 0.1
E = 16
RHO = 1e-10  # the shipped ADMM coupling weight


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

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
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
