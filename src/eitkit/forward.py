"""Forward model: piecewise-linear FEM for the conductivity equation
div(sigma grad u) = 0 on the disk, adjacent-pair current injection,
voltage extraction, sensitivity (Jacobian) assembly, and measurement noise.

Conventions
-----------
Current is injected through point electrodes: +I at electrode j, -I at
electrode j+1 (cyclic), for j = 1..E. For each drive, voltages are read on
every adjacent electrode pair (i, i+1) not sharing an electrode with the
drive pair, giving E*(E-3) numbers per frame, drive-major.

All potentials are grounded to zero mean over the electrode nodes; the
ground choice cancels in the pairwise voltage differences.

Units: lengths in meters, conductivity in S/m, current in mA, hence
potentials and voltages in mV. The numeric value of the default drive
current is 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ElectrodeLayout, TriMesh, _read_frames, _write_frames

# Sign of the first-order relation between a conductivity perturbation and
# the voltage change: V[sigma0 + d] - V[sigma0] ~= LINEARIZATION_SIGN * S @ d
# for the sensitivity matrix S as stored (see sensitivity_matrix). Derived
# from the perturbation expansion of the boundary-voltage map and confirmed
# against two-forward-solve data in the test suite.
LINEARIZATION_SIGN = -1.0

# relative residual required of every FEM solve
_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """A linear solve failed or missed its residual contract.

    Carries optional context: which drive pattern or iteration, and any
    conditioning diagnostics available at the failure site.
    """

    def __init__(self, message: str, *, drive: int | None = None,
                 iteration: int | None = None, diagnostics: dict | None = None):
        super().__init__(message)
        self.drive = drive
        self.iteration = iteration
        self.diagnostics = dict(diagnostics or {})


@dataclass(frozen=True)
class ConductivityField:
    """Per-element conductivity values, strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"conductivity must be a 1-d vector, got shape {v.shape}")
        if not np.all(v > 0):
            raise ValueError("conductivity values must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def homogeneous(cls, value: float, n_elements: int) -> "ConductivityField":
        return cls(values=np.full(n_elements, float(value)))

    @property
    def is_homogeneous(self) -> bool:
        return bool(np.all(self.values == self.values[0]))


@dataclass(frozen=True)
class DrivePotentials:
    """Nodal potentials for all drive patterns.

    ``potentials[:, j]`` is the solution for drive pair (j, j+1); each
    column has zero mean over the electrode nodes.
    """

    potentials: np.ndarray  # (n_nodes, E)
    current: float

    @property
    def n_drives(self) -> int:
        return self.potentials.shape[1]


@dataclass(frozen=True)
class VoltageFrame:
    """One frame of adjacent-pair measurements, drive-major.

    ``data[p]`` is u^j at electrode i minus u^j at electrode i+1, where
    (j, i) = pattern_pairs(E)[p]; pairs touching the drive are skipped.
    """

    data: np.ndarray
    electrode_count: int

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=float)
        e = self.electrode_count
        if d.shape != (e * (e - 3),):
            raise ValueError(
                f"frame for {e} electrodes must have length {e * (e - 3)}, got {d.shape}"
            )
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    def __len__(self) -> int:
        return len(self.data)


def pattern_pairs(electrode_count: int) -> list[tuple[int, int]]:
    """Flat measurement order: (drive j, measure i), both 0-based.

    For drive pair (j, j+1) the measure index i runs over 0..E-1 ascending,
    skipping i in {j-1, j, j+1} (mod E) so that measurement pair (i, i+1)
    never shares an electrode with the drive pair.
    """
    e = electrode_count
    if e < 4:
        raise ValueError(f"protocol needs at least 4 electrodes, got {e}")
    pairs = []
    for j in range(e):
        skip = {(j - 1) % e, j, (j + 1) % e}
        pairs.extend((j, i) for i in range(e) if i not in skip)
    return pairs


def _gradient_coefficients(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Opposite-edge coefficients of the P1 basis, (N, 3) each:
    grad(phi_i) = (b_i, c_i) / (2A) on every element."""
    p = mesh.nodes[mesh.triangles]  # (N, 3, 2)
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]  # y_j - y_k
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]  # x_k - x_j
    return b, c


def assemble_stiffness(mesh: TriMesh, sigma: ConductivityField) -> sp.csr_matrix:
    """P1 stiffness matrix for div(sigma grad u); symmetric PSD with the
    constant vector as null space (pure Neumann problem)."""
    if sigma.values.shape != (mesh.n_elements,):
        raise ValueError(
            f"conductivity has {sigma.values.shape[0]} entries for "
            f"{mesh.n_elements} elements"
        )
    tri = mesh.triangles
    b, c = _gradient_coefficients(mesh)
    a4 = 4.0 * mesh.element_areas
    coeff = sigma.values / a4  # (N,)
    local = coeff[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    )  # (N, 3, 3)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    k = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return k.tocsr()


class _GroundedSolver:
    """Shared factorization for all drive patterns of one stiffness matrix.

    The pure-Neumann matrix is singular (constants); we pin node 0 to zero,
    factorize the remaining SPD block once, and shift each solution to zero
    mean over the electrode nodes afterwards.
    """

    def __init__(self, stiffness: sp.csr_matrix):
        self.k = stiffness
        n = stiffness.shape[0]
        reduced = stiffness[1:, :][:, 1:].tocsc()
        try:
            self.lu = spla.splu(reduced)
        except RuntimeError as exc:
            raise SolverError(f"stiffness factorization failed: {exc}") from exc
        self.n = n

    def solve(self, rhs: np.ndarray, drive: int | None = None) -> np.ndarray:
        u = np.zeros(self.n)
        u[1:] = self.lu.solve(rhs[1:])
        norm_rhs = np.linalg.norm(rhs)
        for _ in range(8):
            r = rhs - self.k @ u
            if np.linalg.norm(r) <= _RESIDUAL_TOL * norm_rhs:
                return u
            u[1:] += self.lu.solve(r[1:])
        rel = np.linalg.norm(rhs - self.k @ u) / norm_rhs
        if rel <= _RESIDUAL_TOL:
            return u
        raise SolverError(
            f"FEM solve residual {rel:.3e} above {_RESIDUAL_TOL:.0e}",
            drive=drive,
            diagnostics={"relative_residual": rel},
        )


def solve_potentials(
    stiffness: sp.csr_matrix, layout: ElectrodeLayout, current: float = 1.0
) -> DrivePotentials:
    """Solve every adjacent-pair drive: +current at electrode j, -current
    at electrode j+1, grounded to zero mean over electrode nodes."""
    solver = _GroundedSolver(stiffness)
    e = layout.count
    n = stiffness.shape[0]
    out = np.empty((n, e))
    enodes = layout.node_ids
    for j in range(e):
        rhs = np.zeros(n)
        rhs[enodes[j]] += current
        rhs[enodes[(j + 1) % e]] -= current
        u = solver.solve(rhs, drive=j)
        out[:, j] = u - u[enodes].mean()
    return DrivePotentials(potentials=out, current=float(current))


def extract_voltages(potentials: DrivePotentials, layout: ElectrodeLayout) -> VoltageFrame:
    """Adjacent-pair differences u^j(E_i) - u^j(E_{i+1}) in flat order."""
    e = layout.count
    ue = potentials.potentials[layout.node_ids, :]  # (E, E) electrode x drive
    data = np.array(
        [ue[i, j] - ue[(i + 1) % e, j] for j, i in pattern_pairs(e)]
    )
    return VoltageFrame(data=data, electrode_count=e)


def simulate_frame(
    mesh: TriMesh, layout: ElectrodeLayout, sigma: ConductivityField, current: float = 1.0
) -> VoltageFrame:
    """Assemble, solve, and extract one voltage frame."""
    k = assemble_stiffness(mesh, sigma)
    return extract_voltages(solve_potentials(k, layout, current), layout)


def _element_gradients(mesh: TriMesh, potentials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-element constant gradients of nodal fields; (N, E) each."""
    b, c = _gradient_coefficients(mesh)
    u = potentials[mesh.triangles]  # (N, 3, E)
    inv2a = 1.0 / (2.0 * mesh.element_areas)
    gx = np.einsum("nv,nve->ne", b, u) * inv2a[:, None]
    gy = np.einsum("nv,nve->ne", c, u) * inv2a[:, None]
    return gx, gy


@dataclass(frozen=True)
class SensitivityMatrix:
    """Linearization of the voltage map about a homogeneous reference.

    Row p (pattern (j, i)) and column q hold
        S[p, q] = (1/I) * area(T_q) * grad(u0^i)|_q . grad(u0^j)|_q,
    symmetric in the drive/measure roles. The first-order voltage change
    for a perturbation d of the reference is LINEARIZATION_SIGN * S @ d.
    """

    matrix: np.ndarray  # (E(E-3), N)
    sigma0: float
    electrode_count: int
    n_elements: int


def sensitivity_matrix(
    mesh: TriMesh,
    layout: ElectrodeLayout,
    sigma0: ConductivityField,
    current: float = 1.0,
) -> SensitivityMatrix:
    """Assemble the sensitivity matrix about a homogeneous reference field."""
    if sigma0.values.shape != (mesh.n_elements,):
        raise ValueError("reference field does not match the mesh")
    if not sigma0.is_homogeneous:
        raise ValueError("sensitivity linearization requires a homogeneous reference")
    k = assemble_stiffness(mesh, sigma0)
    pots = solve_potentials(k, layout, current)
    gx, gy = _element_gradients(mesh, pots.potentials)
    area_over_i = mesh.element_areas / pots.current
    rows = [
        area_over_i * (gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j])
        for j, i in pattern_pairs(layout.count)
    ]
    return SensitivityMatrix(
        matrix=np.vstack(rows),
        sigma0=float(sigma0.values[0]),
        electrode_count=layout.count,
        n_elements=mesh.n_elements,
    )


def signed_difference(reference: VoltageFrame, perturbed: VoltageFrame) -> np.ndarray:
    """Difference data in the sign convention of the sensitivity matrix:
    returns LINEARIZATION_SIGN * (perturbed - reference), so that the result
    is approximated by S @ delta_sigma."""
    if reference.electrode_count != perturbed.electrode_count:
        raise ValueError("frames use different electrode counts")
    return LINEARIZATION_SIGN * (perturbed.data - reference.data)


def add_noise(frame: VoltageFrame, snr_db: float, seed: int) -> VoltageFrame:
    """Add i.i.d. Gaussian noise at the requested signal-to-noise ratio.

    The noise standard deviation is |frame|_2 * 10^(-snr_db/20) / sqrt(L),
    so the expected noise power matches the target SNR. snr_db = +inf is a
    sentinel for "no noise". Deterministic for a fixed seed.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return VoltageFrame(data=frame.data.copy(), electrode_count=frame.electrode_count)
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    norm = np.linalg.norm(frame.data)
    if norm == 0:
        raise ValueError("cannot scale noise to a zero frame")
    sd = norm * 10.0 ** (-snr_db / 20.0) / math.sqrt(len(frame.data))
    rng = np.random.default_rng(seed)
    noisy = frame.data + rng.normal(0.0, sd, len(frame.data))
    return VoltageFrame(data=noisy, electrode_count=frame.electrode_count)


# ---------------------------------------------------------------------------
# frame files: one "drive measure value" row per measurement (1-based
# electrode numbers) in the '# frame t rows' blocks of mesh._write_frames


def save_frames(path, frames: list[VoltageFrame]) -> None:
    columns = []
    for frame in frames:
        pairs = np.array(pattern_pairs(frame.electrode_count)) + 1
        columns.append([*pairs.T.tolist(), frame.data.tolist()])
    _write_frames(path, columns)


def load_frames(path) -> list[VoltageFrame]:
    """Read the frames of a file written by :func:`save_frames`; E is
    inferred from the row count L = E(E-3). Raises ValueError with the line
    of the first defect."""
    blocks = _read_frames(path, 3)
    length = blocks.shape[1]
    e = round((3 + math.sqrt(9 + 4 * length)) / 2)
    if e < 4 or e * (e - 3) != length:
        raise ValueError(f"{path}:1: frame length {length} is not E*(E-3) for an integer E >= 4")
    expected = np.array(pattern_pairs(e)) + 1
    wrong = np.flatnonzero((blocks[:, :, :2] != expected).any(axis=2))
    if wrong.size:
        t, row = divmod(int(wrong[0]), length)
        j, i = expected[row]
        raise ValueError(f"{path}:{t * (length + 1) + row + 2}: expected drive {j} measure {i}")
    return [VoltageFrame(data=block[:, 2], electrode_count=e) for block in blocks]
