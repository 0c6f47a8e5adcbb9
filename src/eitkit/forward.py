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
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ElectrodeLayout, TriMesh, _read_frames, _write_frames

# Sign of the first-order relation between a conductivity perturbation and
# the voltage change: V[sigma0 + d] - V[sigma0] ~= LINEARIZATION_SIGN * S @ d
# for the sensitivity matrix S as stored (see sensitivity_matrix). Derived
# from the perturbation expansion of the boundary-voltage map and confirmed
# against two-forward-solve data in the test suite.
LINEARIZATION_SIGN = -1.0

# relative residual required of every linear solve, FEM and ADMM x-update alike
_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """A linear solve failed or missed its residual contract.

    ``diagnostics`` holds the context available at the failure site: the
    failing drive pattern, column or iteration, and conditioning figures.
    """

    def __init__(self, message: str, *, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


def _column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a 2-D array, summed from BLAS dot
    products of contiguous 8192-row pieces. A column of up to 8192 entries
    so has a single vector's norm, bit for bit, and OpenBLAS threads no
    piece: a threaded 33k-entry dot slowed the SuperLU solve after it by a
    third. A column whose squares overflow takes BLAS's scaled norm."""
    squares = np.zeros(a.shape[1])
    with np.errstate(over="ignore"):
        for i in range(0, len(a), 8192):
            squares += [c @ c for c in a[i:i + 8192].T.copy()]
        norms = np.sqrt(squares)
    big = np.flatnonzero(norms == np.inf)
    norms[big] = [sla.norm(a[:, j], check_finite=False) for j in big]
    return norms


def _refine(solve, apply, rhs, *, tol, steps, what, key) -> np.ndarray:
    """Solve apply(x) = rhs for one right-hand side (n,) or a block (n, k),
    given an approximate inverse ``solve`` of the operator ``apply``.

    Each column is solved once and then corrected, for at most ``steps``
    corrections, until its residual is at most ``tol`` of its right-hand
    side; only the columns that still miss are corrected again, and a zero
    column has the zero solution. If a column still misses after the last
    correction (a NaN residual counts), SolverError names the worst one as
    ``diagnostics[key]``."""
    b = rhs.reshape(len(rhs), -1)
    norm_b = _column_norms(b)
    cols = np.flatnonzero(norm_b != 0)
    live = slice(None) if cols.size == b.shape[1] else cols  # no block copies while all run
    x = solve(b) if cols.size == b.shape[1] else np.zeros(b.shape)
    if 0 < cols.size < b.shape[1]:
        x[:, cols] = solve(b[:, cols])
    for correction in range(steps + 1):
        r = b[:, live] - apply(x[:, live])
        norm_r = _column_norms(r)
        miss = ~(norm_r <= tol * norm_b[live])
        if not miss.any():
            return x.reshape(rhs.shape)
        if not miss.all():  # while every live column misses, live keeps its slice
            cols, r, norm_r = cols[miss], r[:, miss], norm_r[miss]
            live = cols
        if correction < steps:
            x[:, live] += solve(r)
    rel = norm_r / norm_b[cols]
    worst = int(np.argmax(rel))  # argmax takes a NaN as the largest
    raise SolverError(
        f"{what} residual {rel[worst]:.3e} above {tol:.0e}",
        diagnostics={key: int(cols[worst]), "relative_residual": float(rel[worst])},
    )


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


def assemble_stiffness(mesh: TriMesh, sigma: np.ndarray) -> sp.csr_matrix:
    """P1 stiffness matrix for div(sigma grad u) with one strictly positive
    conductivity per element, sigma of shape (N,); symmetric PSD with the
    constant vector as null space (pure Neumann problem)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.n_elements,):
        raise ValueError(f"conductivity has shape {sigma.shape} for {mesh.n_elements} elements")
    if not np.all(sigma > 0):
        raise ValueError("conductivity values must be strictly positive")
    tri = mesh.triangles
    b, c = _gradient_coefficients(mesh)
    a4 = 4.0 * mesh.element_areas
    coeff = sigma / a4  # (N,)
    local = coeff[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    )  # (N, 3, 3)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    k = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return k.tocsr()


def solve_potentials(
    stiffness: sp.csr_matrix, layout: ElectrodeLayout, current: float = 1.0
) -> DrivePotentials:
    """Solve every adjacent-pair drive: +current at electrode j, -current
    at electrode j+1, grounded to zero mean over electrode nodes. Node 0 is
    pinned to make the pure-Neumann matrix SPD; all E drives share one
    factorization and one block solve, refined to _RESIDUAL_TOL per drive."""
    e = layout.count
    enodes = layout.node_ids
    drives = np.arange(e)
    rhs = np.zeros((stiffness.shape[0], e))
    np.add.at(rhs, (np.r_[enodes, np.roll(enodes, -1)], np.r_[drives, drives]),
              np.repeat([current, -current], e))
    try:
        # the block is symmetric, so its columns are ordered by minimum degree
        # on A + A^T: SuperLU's default COLAMD ordering targets unsymmetric
        # matrices and leaves 1.8x the fill on the 64k-element disk
        lu = spla.splu(stiffness[1:, :][:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"stiffness factorization failed: {exc}") from exc

    def pinned(f):  # the solution with u[0] = 0
        u = np.zeros(f.shape)
        u[1:] = lu.solve(f[1:])
        return u

    u = _refine(pinned, stiffness.dot, rhs, tol=_RESIDUAL_TOL, steps=8, what="FEM solve",
                key="drive")
    return DrivePotentials(potentials=u - u[enodes].mean(axis=0), current=float(current))


def extract_voltages(potentials: DrivePotentials, layout: ElectrodeLayout) -> np.ndarray:
    """One (E(E-3),) frame: element p is u^j(E_i) - u^j(E_{i+1}) for
    (j, i) = pattern_pairs(E)[p]."""
    e = layout.count
    ue = potentials.potentials[layout.node_ids, :]  # (E, E) electrode x drive
    j, i = np.array(pattern_pairs(e)).T
    return ue[i, j] - ue[(i + 1) % e, j]


def simulate_frame(
    mesh: TriMesh, layout: ElectrodeLayout, sigma: np.ndarray, current: float = 1.0
) -> np.ndarray:
    """Assemble, solve, and extract one voltage frame for the (N,)
    conductivity sigma."""
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


def sensitivity_matrix(
    mesh: TriMesh,
    layout: ElectrodeLayout,
    sigma0: float = 1.0,
    current: float = 1.0,
) -> np.ndarray:
    """Linearization of the voltage map about the homogeneous conductivity
    sigma0: the C-contiguous (E(E-3), N) array S whose row p (pattern
    (j, i)) and column q hold

        S[p, q] = (1/I) * area(T_q) * grad(u0^i)|_q . grad(u0^j)|_q,

    symmetric in the drive/measure roles. The first-order voltage change
    for a perturbation d of the reference is LINEARIZATION_SIGN * S @ d.
    """
    k = assemble_stiffness(mesh, np.full(mesh.n_elements, float(sigma0)))
    pots = solve_potentials(k, layout, current)
    gx, gy = (g.T for g in _element_gradients(mesh, pots.potentials))  # (E, N)
    area_over_i = mesh.element_areas / pots.current
    j, i = np.array(pattern_pairs(layout.count)).T
    return area_over_i * (gx[i] * gx[j] + gy[i] * gy[j])


def signed_difference(reference: np.ndarray, perturbed: np.ndarray) -> np.ndarray:
    """Difference data in the sign convention of the sensitivity matrix:
    returns LINEARIZATION_SIGN * (perturbed - reference), so that the result
    is approximated by S @ delta_sigma."""
    return LINEARIZATION_SIGN * np.subtract(perturbed, reference, dtype=float)


def add_noise(frame: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add i.i.d. Gaussian noise at the requested signal-to-noise ratio.

    The noise standard deviation is |frame|_2 * 10^(-snr_db/20) / sqrt(L),
    so the expected noise power matches the target SNR. snr_db = +inf is a
    sentinel for "no noise". Deterministic for a fixed seed. A zero frame,
    and noise that is not finite (snr_db NaN, -inf, or so low that the
    noise passes the float range), are a ValueError.
    """
    frame = np.array(frame, dtype=float)
    if math.isinf(snr_db) and snr_db > 0:
        return frame
    norm = _column_norms(frame[:, None])[0]
    if norm == 0:
        raise ValueError("cannot scale noise to a zero frame")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # noise past the float range is refused below
        sd = norm * np.float64(10.0) ** (-snr_db / 20.0) / math.sqrt(len(frame))
        noisy = frame + rng.normal(0.0, sd, len(frame))
    if not np.all(np.isfinite(noisy)):
        raise ValueError(f"noise at {snr_db} dB makes a frame of norm {norm:.3g} non-finite")
    return noisy


# ---------------------------------------------------------------------------
# frame files: one "drive measure value" row per measurement (1-based
# electrode numbers) in the '# frame t rows' blocks of mesh._write_frames


def _electrode_count(length: int, where: str = "") -> int:
    """The E of a frame of L = E(E-3) measurements; ValueError otherwise."""
    e = round((3 + math.sqrt(9 + 4 * length)) / 2)
    if e < 4 or e * (e - 3) != length:
        raise ValueError(f"{where}frame length {length} is not E*(E-3) for an integer E >= 4")
    return e


def save_frames(path, frames) -> None:
    """Write a sequence of (E(E-3),) frames; E is inferred from each length."""
    columns = []
    for frame in frames:
        frame = np.asarray(frame, dtype=float)
        pairs = np.array(pattern_pairs(_electrode_count(len(frame)))) + 1
        columns.append([*pairs.T.tolist(), frame.tolist()])
    _write_frames(path, columns)


def load_frames(path) -> np.ndarray:
    """The (K, L) frames of a file written by :func:`save_frames`; E is
    inferred from the row count L = E(E-3). Raises ValueError with the line
    of the first defect."""
    blocks = _read_frames(path, 3)
    length = blocks.shape[1]
    e = _electrode_count(length, f"{path}:1: ")
    expected = np.array(pattern_pairs(e)) + 1
    wrong = np.flatnonzero((blocks[:, :, :2] != expected).any(axis=2))
    if wrong.size:
        t, row = divmod(int(wrong[0]), length)
        j, i = expected[row]
        raise ValueError(f"{path}:{t * (length + 1) + row + 2}: expected drive {j} measure {i}")
    return np.ascontiguousarray(blocks[:, :, 2])
