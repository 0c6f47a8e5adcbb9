"""Linearized difference-image reconstruction.

Solves S x = b for the conductivity perturbation x from difference data b,
with an edge-preserving l1 penalty on the spatial differences D x. The
main solver reweights the penalty each iteration with

    weight(k) = 1 / (|gradient at k|^2 + delta),

so strong edges are penalized weakly and flat regions strongly. The
splitting variable z = D x is handled by ADMM:

    x  <- argmin (1/(2 rho))|S x - b|^2 + (1/2)|D x - z + y/rho|^2
    z  <- shrink(D x + y/rho)        (closed form, per component)
    y  <- y + rho (D x - z)

The x-update's operator depends only on (S, D, rho): an ``XUpdateSolver``
factors it once, and every reconstruction given it as ``x_update`` shares
that factorization.

Baselines: the same loop with frozen unit weights (anisotropic TV), a
group-shrinkage variant coupling the x/y difference pairs (isotropic TV),
and one-shot ridge-regularized least squares.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forward import SensitivityMatrix, SolverError, VoltageFrame
from .mesh import DifferenceOperators

log = logging.getLogger(__name__)

# identity floor, relative to the operator's mean diagonal, added to the
# x-update operator when it is not positive definite (S and D share a null
# vector)
_PIVOT_FLOOR = 1e-12

# identity shift, relative to the operator's mean diagonal, that makes the
# sparse base D^T D + eps I of the x-update factorization invertible
_BASE_SHIFT = 1e-8

# iterative refinement of the x-update stops at this relative residual or
# after this many corrections
_REFINE_TOL = 1e-13
_REFINE_STEPS = 5

# relative residual required of the quadratic x-update solve
_UPDATE_RESIDUAL_TOL = 1e-8

# a positive-definite operator recovers the probe vector to this accuracy
_PROBE_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Reconstruction parameters.

    lam        l1 penalty weight (0 switches the penalty off)
    rho        ADMM coupling weight, > 0
    delta      floor in the nonlinear weights, > 0
    max_iters  iteration cap M
    tol        stop when the iterate step |x_new - x| drops below this
    mask       optional element indices outside of which x is forced to 0
    lambda_b   ridge weight of the boundary-data preprocessing
    enable_preprocess   subtract the boundary-element-explainable part of b
    """

    lam: float
    rho: float
    delta: float = 0.01
    max_iters: int = 20
    tol: float = 1e-5
    mask: np.ndarray | None = None
    lambda_b: float = 1e-7
    enable_preprocess: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class ReconResult:
    """Reconstruction output with per-iteration diagnostics.

    ``history[n]`` is the iterate after iteration n+1; the diagnostic
    arrays have one entry per completed iteration. ``termination`` is
    "tol" or "max_iters"; the one-shot ridge solver reports "direct" and a
    single row, whose step norm is |x|.
    """

    final: np.ndarray
    history: np.ndarray
    data_residual: np.ndarray
    step_norm: np.ndarray
    wall_ms: np.ndarray
    termination: str

    @property
    def n_iterations(self) -> int:
        return len(self.step_norm)


def _as_matrix(s) -> np.ndarray:
    if isinstance(s, SensitivityMatrix):
        return s.matrix
    return np.asarray(s, dtype=float)


def _as_data(b) -> np.ndarray:
    if isinstance(b, VoltageFrame):
        return b.data
    return np.asarray(b, dtype=float)


def _data_residual(s: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """|S x - b| / |b|, or |S x| when b = 0."""
    b_norm = np.linalg.norm(b)
    resid = np.linalg.norm(s @ x - b)
    return float(resid / b_norm if b_norm > 0 else resid)


def soft_threshold(x, g):
    """Shrink toward zero: x - g*sgn(x) where |x| > g, else 0.

    Elementwise on arrays; g may be a scalar or an array of thresholds.
    The |x| = g boundary maps to 0.
    """
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr < 0):
        raise ValueError("threshold must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    out = np.where(np.abs(x_arr) > g_arr, x_arr - g_arr * np.sign(x_arr), 0.0)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def group_shrink(w: np.ndarray, g: float) -> np.ndarray:
    """Vector shrinkage on paired components (w[k], w[N+k]).

    Each pair is scaled by max(0, 1 - g/|pair|); pairs with norm <= g
    collapse to zero. Rotation-invariant within each pair.
    """
    if g < 0:
        raise ValueError("threshold must be nonnegative")
    w = np.asarray(w, dtype=float)
    n = len(w) // 2
    wx, wy = w[:n], w[n:]
    norms = np.hypot(wx, wy)
    factor = np.zeros(n)
    nz = norms > 0
    factor[nz] = np.maximum(0.0, 1.0 - g / norms[nz])
    return np.concatenate([factor * wx, factor * wy])


def nwatv_weights(delta_sigma: np.ndarray, ops: DifferenceOperators, delta: float) -> np.ndarray:
    """Edge-adaptive weights 1/(|g_k|^2 + delta), duplicated over the x and
    y blocks; |g_k|^2 is the squared difference magnitude at element k."""
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    gx = ops.dx @ delta_sigma
    gy = ops.dy @ delta_sigma
    zeta = 1.0 / (gx * gx + gy * gy + delta)
    return np.concatenate([zeta, zeta])


def z_update(w: np.ndarray, p: np.ndarray, lam: float, rho: float) -> np.ndarray:
    """Elementwise shrinkage of w = Dx + y/rho with thresholds lam*p/rho."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("weights must be strictly positive")
    return soft_threshold(w, lam * p / rho)


def apply_mask(delta_sigma: np.ndarray, mask) -> np.ndarray:
    """Zero all entries outside the mask (boolean array or index list)."""
    out = np.zeros_like(delta_sigma)
    mask = np.asarray(mask)
    out[mask] = delta_sigma[mask]
    return out


def preprocess_boundary(delta_v, s, boundary_elements, lambda_b: float) -> np.ndarray:
    """Remove the part of the data explainable by boundary elements alone.

    Projects b onto the column space of the boundary-element columns of S
    (ridge-stabilized by lambda_b) and subtracts that component; interior
    contrasts survive while near-electrode artifacts shrink.
    """
    if not lambda_b > 0:
        raise ValueError(f"lambda_b must be > 0, got {lambda_b}")
    idx = np.asarray(boundary_elements, dtype=int)
    if idx.size == 0:
        raise ValueError("boundary element set is empty")
    s = _as_matrix(s)
    b = _as_data(delta_v)
    if s.shape[0] != b.shape[0]:
        raise ValueError(f"S has {s.shape[0]} rows but data has length {b.shape[0]}")
    sb = s[:, idx]
    gram = sb.T @ sb + lambda_b * np.eye(idx.size)
    coef = sla.solve(gram, sb.T @ b, assume_a="pos")
    return b - sb @ coef


class XUpdateSolver:
    """Solver for the ADMM x-update ((1/rho) S^T S + D^T D) x = rhs.

    The operator depends only on (S, D, rho), so one solver serves every
    iteration of every reconstruction that shares them. With the M x N
    sensitivity matrix S (M measurements, M << N), U = S^T / sqrt(rho) and
    the sparse base A = D^T D + eps I, the Woodbury identity

        (A + U U^T)^-1 = A^-1 - A^-1 U (I + U^T A^-1 U)^-1 U^T A^-1

    needs one sparse LU of A, the N x M block A^-1 U and a Cholesky factor
    of the M x M capacitance matrix I + U^T A^-1 U; no N x N array is
    formed. The shift eps (a small multiple of the operator's mean
    diagonal) makes A invertible, since D annihilates constants; iterative
    refinement against the exact operator, applied matrix-free, removes it.

    If the operator is not positive definite (S and D share a null vector,
    e.g. S = 0), a trace-scaled identity floor is added to it and the
    factorization redone with the floor as the shift.
    """

    def __init__(self, s, ops: DifferenceOperators, rho: float):
        if not rho > 0:
            raise ValueError(f"rho must be > 0, got {rho}")
        self.s = _as_matrix(s)
        self.d = ops.stacked
        self.dt = self.d.T  # one CSC view of D^T, reused by every product
        self.rho = rho
        n = self.s.shape[1]
        if self.d.shape[1] != n:
            raise ValueError("difference operators do not match the sensitivity columns")
        # trace of the operator per unknown: sets the scale of both shifts
        mean_diag = (np.vdot(self.s, self.s) / rho + np.vdot(self.d.data, self.d.data)) / n
        self.floor = 0.0
        try:
            self._factor(_BASE_SHIFT * mean_diag)
            definite = self._recovers_probe()
        except np.linalg.LinAlgError:
            definite = False
        if definite:
            return
        self.floor = _PIVOT_FLOOR * mean_diag
        log.warning(
            "x-update operator not positive definite; adding identity floor %.3e",
            self.floor,
        )
        try:
            self._factor(self.floor)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "x-update operator is not positive definite even with floor",
                diagnostics={
                    "capacitance_condition": float(np.linalg.cond(self._capacitance)),
                    "floor": self.floor,
                },
            ) from exc

    def _factor(self, shift: float) -> None:
        """Factor A = D^T D + shift I and the capacitance matrix."""
        n = self.s.shape[1]
        base = (self.dt @ self.d + shift * sp.identity(n)).tocsc()
        self._lu = spla.splu(base)
        self._a_inv_u = self._lu.solve(self.s.T / np.sqrt(self.rho))
        self._capacitance = np.eye(self.s.shape[0]) + self.s @ self._a_inv_u / np.sqrt(self.rho)
        self._cap_factor = sla.cho_factor(self._capacitance, lower=True)

    def _shifted_inverse(self, r: np.ndarray) -> np.ndarray:
        """(A + U U^T)^-1 r by the Woodbury identity."""
        a_inv_r = self._lu.solve(r)
        small = sla.cho_solve(self._cap_factor, self.s @ a_inv_r / np.sqrt(self.rho))
        return a_inv_r - self._a_inv_u @ small

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """The exact operator ((1/rho) S^T S + D^T D + floor I) x, matrix-free."""
        out = self.s.T @ (self.s @ x) / self.rho + self.dt @ (self.d @ x)
        if self.floor:
            out += self.floor * x
        return out

    def _recovers_probe(self) -> bool:
        """Whether solving for a fixed vector recovers it. A null vector of
        the operator is not recovered: the shifted inverse and refinement
        leave that component of the solution at zero. The probe holds the
        constant vector, which D annihilates, plus a generic perturbation."""
        n = self.s.shape[1]
        v = 1.0 + np.random.default_rng(0).standard_normal(n)
        try:
            x = self.solve(self._apply(v))
        except SolverError:
            return False
        return bool(np.linalg.norm(x - v) <= _PROBE_TOL * np.linalg.norm(v))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        norm_rhs = np.linalg.norm(rhs)
        if norm_rhs == 0:
            return np.zeros_like(rhs)
        x = self._shifted_inverse(rhs)
        for _ in range(_REFINE_STEPS):
            r = rhs - self._apply(x)
            if np.linalg.norm(r) <= _REFINE_TOL * norm_rhs:
                return x
            x = x + self._shifted_inverse(r)
        rel = np.linalg.norm(rhs - self._apply(x)) / norm_rhs
        if rel <= _UPDATE_RESIDUAL_TOL:
            return x
        raise SolverError(
            f"x-update residual {rel:.3e} above {_UPDATE_RESIDUAL_TOL:.0e}",
            diagnostics={
                "relative_residual": float(rel),
                "capacitance_condition": float(np.linalg.cond(self._capacitance)),
            },
        )

    def built_for(self, s: np.ndarray, ops: DifferenceOperators, rho: float) -> bool:
        """Whether this solver's operator is the one for (s, ops, rho)."""
        d = ops.stacked
        return (
            rho == self.rho
            and d.shape == self.d.shape
            and (s is self.s or np.array_equal(s, self.s))
            and (d is self.d or (d != self.d).nnz == 0)
        )


def _admm_reconstruct(
    s, delta_v, ops: DifferenceOperators, config: SolverConfig, *,
    variant: str, boundary_elements=None, x_update: XUpdateSolver | None = None,
) -> ReconResult:
    s = _as_matrix(s)
    b = _as_data(delta_v)
    if s.shape[0] != b.shape[0]:
        raise ValueError(f"S has {s.shape[0]} rows but data has length {b.shape[0]}")
    if s.shape[1] != ops.n_elements:
        raise ValueError("difference operators do not match the sensitivity columns")
    if config.enable_preprocess:
        if boundary_elements is None:
            raise ValueError("preprocessing enabled but no boundary element set given")
        b = preprocess_boundary(b, s, boundary_elements, config.lambda_b)

    rho = config.rho
    if x_update is None:
        x_update = XUpdateSolver(s, ops, rho)
    elif not x_update.built_for(s, ops, rho):
        raise ValueError("x_update was built for a different S, D or rho")
    d, dt = ops.stacked, x_update.dt
    n = s.shape[1]
    st_b = s.T @ b / rho

    x = np.zeros(n)
    z = np.zeros(2 * n)
    p = np.ones(2 * n)
    y = np.zeros(2 * n)
    history, residuals, steps, walls = [], [], [], []
    termination = "max_iters"

    for it in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        rhs = st_b + dt @ (z - y / rho)
        x_prev = x
        try:
            x = x_update.solve(rhs)
        except SolverError as exc:
            raise SolverError(
                f"iteration {it}: {exc}", iteration=it, diagnostics=exc.diagnostics
            ) from exc
        if config.mask is not None:
            x = apply_mask(x, config.mask)
        w = d @ x + y / rho
        if variant == "isotropic":
            z = group_shrink(w, config.lam / rho)
        else:
            z = z_update(w, p, config.lam, rho)
        if variant == "nwatv":
            p = nwatv_weights(x, ops, config.delta)
        y = y + rho * (d @ x - z)

        step = float(np.linalg.norm(x - x_prev))
        history.append(x.copy())
        residuals.append(_data_residual(s, x, b))
        steps.append(step)
        walls.append((time.perf_counter() - t0) * 1000.0)
        if step < config.tol:
            termination = "tol"
            break

    return ReconResult(
        final=x,
        history=np.array(history),
        data_residual=np.array(residuals),
        step_norm=np.array(steps),
        wall_ms=np.array(walls),
        termination=termination,
    )


def reconstruct_nwatv(
    s, delta_v, ops: DifferenceOperators, config: SolverConfig, boundary_elements=None,
    *, x_update: XUpdateSolver | None = None,
) -> ReconResult:
    """ADMM with the nonlinear reweighted anisotropic penalty (weights
    recomputed from the current iterate each iteration)."""
    return _admm_reconstruct(
        s, delta_v, ops, config, variant="nwatv", boundary_elements=boundary_elements,
        x_update=x_update,
    )


def reconstruct_fotv(
    s, delta_v, ops: DifferenceOperators, config: SolverConfig, boundary_elements=None,
    *, x_update: XUpdateSolver | None = None,
) -> ReconResult:
    """Same ADMM loop with the weights frozen at one (plain anisotropic TV)."""
    return _admm_reconstruct(
        s, delta_v, ops, config, variant="fotv", boundary_elements=boundary_elements,
        x_update=x_update,
    )


def reconstruct_tv_isotropic(
    s, delta_v, ops: DifferenceOperators, config: SolverConfig, boundary_elements=None,
    *, x_update: XUpdateSolver | None = None,
) -> ReconResult:
    """ADMM with rotation-invariant group shrinkage coupling the (x, y)
    difference pairs. This baseline is algorithmically unrelated to the
    historical primal-dual TV solvers; timings are not comparable to them."""
    return _admm_reconstruct(
        s, delta_v, ops, config, variant="isotropic", boundary_elements=boundary_elements,
        x_update=x_update,
    )


def reconstruct_tikhonov(s, delta_v, lam: float) -> ReconResult:
    """One-shot ridge solution (S^T S + lam I)^{-1} S^T b, computed as
    S^T (S S^T + lam I)^{-1} b: an M x M factorization instead of N x N."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    t0 = time.perf_counter()
    s = _as_matrix(s)
    b = _as_data(delta_v)
    factor = sla.cho_factor(s @ s.T + lam * np.eye(s.shape[0]), lower=True)
    x = s.T @ sla.cho_solve(factor, b)
    return ReconResult(
        final=x,
        history=x[None, :],
        data_residual=np.array([_data_residual(s, x, b)]),
        step_norm=np.array([np.linalg.norm(x)]),
        wall_ms=np.array([(time.perf_counter() - t0) * 1e3]),
        termination="direct",
    )
