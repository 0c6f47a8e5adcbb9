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
holds the three and factors the operator once. Every ADMM entry point takes
it as the problem, so all reconstructions on one solver share that
factorization. ``reconstruct_block`` runs K reconstructions of one data
vector, differing in lam and delta, as one iteration on (N, K) blocks; the
single reconstructions are its K = 1 case. Boundary-data preprocessing
(``preprocess_boundary``) is applied by the caller, to the data.

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

from .forward import SolverError

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


def _column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a 2-D array, each computed as the
    norm of that column on its own (a single vector's norm, bit for bit)."""
    return np.array([np.linalg.norm(c) for c in a.T])


def _data_residual(s: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|S x - b| / |b| for each column of x (N, K), or |S x| when b = 0."""
    b_norm = np.linalg.norm(b)
    resid = _column_norms(s @ x - b[:, None])
    return resid / b_norm if b_norm > 0 else resid


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


def group_shrink(w: np.ndarray, g) -> np.ndarray:
    """Vector shrinkage on paired components (w[k], w[N+k]).

    Each pair is scaled by max(0, 1 - g/|pair|); pairs with norm <= g
    collapse to zero. Rotation-invariant within each pair. On a block w
    (2N, K), g may hold one threshold per column.
    """
    if np.any(np.asarray(g) < 0):
        raise ValueError("threshold must be nonnegative")
    w = np.asarray(w, dtype=float)
    n = len(w) // 2
    wx, wy = w[:n], w[n:]
    norms = np.hypot(wx, wy)
    ratio = np.divide(g, norms, out=np.full(norms.shape, np.inf), where=norms > 0)
    factor = np.maximum(0.0, 1.0 - ratio)
    return np.concatenate([factor * wx, factor * wy])


def nwatv_weights(d_x: np.ndarray, delta) -> np.ndarray:
    """Edge-adaptive weights 1/(|g_k|^2 + delta) from the stacked
    differences d_x = D x (2N,), duplicated over the x and y blocks;
    |g_k|^2 = d_x[k]^2 + d_x[N+k]^2 is the squared difference magnitude at
    element k. On a block d_x (2N, K), delta may hold one floor per column."""
    if not np.all(np.asarray(delta) > 0):
        raise ValueError(f"delta must be > 0, got {delta}")
    n = len(d_x) // 2
    gx, gy = d_x[:n], d_x[n:]
    zeta = 1.0 / (gx * gx + gy * gy + delta)
    return np.concatenate([zeta, zeta])


def z_update(w: np.ndarray, p: np.ndarray, lam, rho: float) -> np.ndarray:
    """Elementwise shrinkage of w = Dx + y/rho with thresholds lam*p/rho; on
    a block w (2N, K), lam may hold one penalty per column."""
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
    s = np.asarray(s, dtype=float)
    b = np.asarray(delta_v, dtype=float)
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

    needs one sparse LU of A and the N x M gain G = A^-1 U C^-1, with C the
    M x M capacitance matrix I + U^T A^-1 U; no N x N array is formed. The
    shift eps (a small multiple of the operator's mean diagonal) makes A
    invertible, since D annihilates constants; iterative refinement against
    the exact operator, applied matrix-free, removes it.

    If a probe vector is not recovered (S and D share a null vector, e.g.
    S = 0, or, at very small rho, the solve loses accuracy), a trace-scaled
    identity floor is added and the factorization redone with it as shift.
    """

    def __init__(self, s, d: sp.csr_matrix, rho: float):
        if not rho > 0:
            raise ValueError(f"rho must be > 0, got {rho}")
        self.s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(self.s)):
            raise ValueError("S has non-finite entries")
        self.d = d
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
        """Factor A = D^T D + shift I and form the gain G = A^-1 U C^-1."""
        base = (self.dt @ self.d + shift * sp.identity(self.s.shape[1])).tocsc()
        self._lu = spla.splu(base)
        a_inv_u = self._lu.solve(self.s.T / np.sqrt(self.rho))
        self._capacitance = np.eye(self.s.shape[0]) + self.s @ a_inv_u / np.sqrt(self.rho)
        # G = A^-1 U (L L^T)^-1, with C = L L^T: two triangular solves in place
        low = sla.cholesky(self._capacitance, lower=True)
        trsm = sla.get_blas_funcs("trsm", (low,))
        y = trsm(1.0, low, a_inv_u, side=1, lower=1, trans_a=1, overwrite_b=1)
        self._gain = trsm(1.0, low, y, side=1, lower=1, overwrite_b=1)

    def _shifted_inverse(self, r: np.ndarray) -> np.ndarray:
        """(A + U U^T)^-1 r = a - G U^T a with a = A^-1 r, for a block r (N, k);
        SuperLU solves column by column (faster than its multi-column solve)."""
        a_inv_r = np.column_stack([self._lu.solve(c) for c in r.T])
        return a_inv_r - self._gain @ (self.s @ a_inv_r / np.sqrt(self.rho))

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
        """Solve for one right-hand side (N,) or a block (N, K).

        Each column is refined until its residual is at most _REFINE_TOL of
        its right-hand side, for at most _REFINE_STEPS corrections, and only
        the columns that miss are corrected again. If a column's residual
        then stays above _UPDATE_RESIDUAL_TOL (a NaN residual counts),
        SolverError names the worst one as ``diagnostics["column"]``.
        """
        b = rhs.reshape(len(rhs), -1)
        norm_b = _column_norms(b)
        x = np.zeros(b.shape)
        cols = np.flatnonzero(norm_b != 0)  # a zero column has the zero solution
        if cols.size:
            x[:, cols] = self._shifted_inverse(b[:, cols])
        for refinement in range(_REFINE_STEPS + 1):
            r = b[:, cols] - self._apply(x[:, cols])
            norm_r = _column_norms(r)
            miss = ~(norm_r <= _REFINE_TOL * norm_b[cols])
            cols, r, norm_r = cols[miss], r[:, miss], norm_r[miss]
            if not cols.size:
                return x.reshape(rhs.shape)
            if refinement < _REFINE_STEPS:
                x[:, cols] += self._shifted_inverse(r)
        rel = norm_r / norm_b[cols]
        worst = int(np.argmax(rel))  # argmax takes a NaN as the largest
        if rel[worst] <= _UPDATE_RESIDUAL_TOL:
            return x.reshape(rhs.shape)
        raise SolverError(
            f"x-update residual {rel[worst]:.3e} above {_UPDATE_RESIDUAL_TOL:.0e}",
            diagnostics={
                "column": int(cols[worst]),
                "relative_residual": float(rel[worst]),
                "capacitance_condition": float(np.linalg.cond(self._capacitance)),
            },
        )


_VARIANTS = ("nwatv", "fotv", "tv")


def reconstruct_block(
    x_update: XUpdateSolver, delta_v, lams, deltas, *, variant: str = "nwatv",
    max_iters: int = 20, tol: float = 1e-5, mask=None, keep_history: bool = True,
) -> list[ReconResult | SolverError]:
    """K reconstructions of one data vector, run as one ADMM iteration on
    (N, K) blocks.

    Column k has the penalty ``lams[k]`` (0 switches the penalty off) and
    the weight floor ``deltas[k]``; S, D and rho are those of ``x_update``,
    and every column shares its factors and the data. ``variant`` is
    "nwatv" (weights refreshed from each iterate), "fotv" (weights frozen
    at one) or "tv" (isotropic group shrinkage). Each column stops when its
    step |x_new - x| drops below ``tol``, after ``max_iters`` iterations or
    on an x-update failure, while the others go on; its entry in the
    returned list is then its ReconResult or its SolverError. ``mask``
    (boolean array or index list) forces x to 0 outside it. With
    ``keep_history=False`` every history is empty (0, N).
    """
    s, d, dt, rho = x_update.s, x_update.d, x_update.dt, x_update.rho
    b = np.asarray(delta_v, dtype=float)
    if s.shape[0] != b.shape[0]:
        raise ValueError(f"S has {s.shape[0]} rows but data has length {b.shape[0]}")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    lams = np.asarray(lams, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if lams.ndim != 1 or not lams.size or lams.shape != deltas.shape:
        raise ValueError("lams and deltas must be nonempty sequences of one length")
    if not (np.all(lams >= 0) and np.all(deltas > 0)):
        raise ValueError(f"need every lam >= 0 and every delta > 0, got {lams} and {deltas}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    n, k = s.shape[1], len(lams)
    st_b = (s.T @ b / rho)[:, None]

    x = np.zeros((n, k))
    z = np.zeros((2 * n, k))
    p = np.ones((2 * n, k))
    y = np.zeros((2 * n, k))
    # traces grow one row per iteration, NaN in the columns that no longer run
    history, residuals, steps, walls = [], [], [], []
    iters = np.zeros(k, dtype=int)  # iterations completed by each column
    errors: dict[int, SolverError] = {}

    live = np.arange(k)  # the running columns
    for it in range(1, max_iters + 1):
        t0 = time.perf_counter()
        rhs = st_b + dt @ (z[:, live] - y[:, live] / rho)
        while live.size:
            try:
                x_new = x_update.solve(rhs)
                break
            except SolverError as exc:
                j = exc.diagnostics["column"]
                c = int(live[j])
                errors[c] = SolverError(
                    f"iteration {it}: {exc}",
                    diagnostics={**exc.diagnostics, "column": c, "iteration": it},
                )
                live, rhs = np.delete(live, j), np.delete(rhs, j, axis=1)
        if not live.size:
            break
        if mask is not None:
            x_new = apply_mask(x_new, mask)
        d_x = d @ x_new
        w = d_x + y[:, live] / rho
        if variant == "tv":
            z_new = group_shrink(w, lams[live] / rho)
        else:
            z_new = z_update(w, p[:, live], lams[live], rho)
        if variant == "nwatv":
            p[:, live] = nwatv_weights(d_x, deltas[live])
        y[:, live] = y[:, live] + rho * (d_x - z_new)
        z[:, live] = z_new

        step = np.full(k, np.nan)
        step[live] = _column_norms(x_new - x[:, live])
        x[:, live] = x_new
        resid = np.full(k, np.nan)
        resid[live] = _data_residual(s, x_new, b)
        walls.append((time.perf_counter() - t0) * 1000.0)
        residuals.append(resid)
        steps.append(step)
        if keep_history:
            history.append(x.copy())
        iters[live] = it
        live = live[~(step[live] < tol)]

    history = np.array(history) if keep_history else np.empty((0, n, k))
    residuals, steps, walls = np.array(residuals), np.array(steps), np.array(walls)
    return [
        errors[c] if c in errors else ReconResult(
            final=x[:, c].copy(),
            history=history[:m, :, c].copy(),  # each result owns its arrays
            data_residual=residuals[:m, c].copy(),
            step_norm=steps[:m, c].copy(),
            wall_ms=walls[:m].copy(),
            termination="tol" if steps[m - 1, c] < tol else "max_iters",
        )
        for c, m in enumerate(iters)
    ]


def _single(variant: str, x_update, delta_v, lam, delta, **options) -> ReconResult:
    """The K = 1 case of reconstruct_block; a failed column raises its error."""
    (result,) = reconstruct_block(x_update, delta_v, [lam], [delta], variant=variant, **options)
    if isinstance(result, SolverError):
        raise result
    return result


def reconstruct_nwatv(
    x_update: XUpdateSolver, delta_v, lam: float, delta: float = 0.01,
    *, max_iters: int = 20, tol: float = 1e-5, mask=None,
) -> ReconResult:
    """ADMM with the nonlinear reweighted anisotropic penalty (weights
    recomputed from the current iterate each iteration)."""
    return _single("nwatv", x_update, delta_v, lam, delta,
                   max_iters=max_iters, tol=tol, mask=mask)


def reconstruct_fotv(
    x_update: XUpdateSolver, delta_v, lam: float, delta: float = 0.01,
    *, max_iters: int = 20, tol: float = 1e-5, mask=None,
) -> ReconResult:
    """Same ADMM loop with the weights frozen at one (plain anisotropic TV)."""
    return _single("fotv", x_update, delta_v, lam, delta,
                   max_iters=max_iters, tol=tol, mask=mask)


def reconstruct_tv_isotropic(
    x_update: XUpdateSolver, delta_v, lam: float, delta: float = 0.01,
    *, max_iters: int = 20, tol: float = 1e-5, mask=None,
) -> ReconResult:
    """ADMM with rotation-invariant group shrinkage coupling the (x, y)
    difference pairs. This baseline is algorithmically unrelated to the
    historical primal-dual TV solvers; timings are not comparable to them."""
    return _single("tv", x_update, delta_v, lam, delta,
                   max_iters=max_iters, tol=tol, mask=mask)


def reconstruct_tikhonov(s, delta_v, lam: float) -> ReconResult:
    """One-shot ridge solution (S^T S + lam I)^{-1} S^T b, computed as
    S^T (S S^T + lam I)^{-1} b: an M x M factorization instead of N x N."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    t0 = time.perf_counter()
    s = np.asarray(s, dtype=float)
    b = np.asarray(delta_v, dtype=float)
    factor = sla.cho_factor(s @ s.T + lam * np.eye(s.shape[0]), lower=True)
    x = s.T @ sla.cho_solve(factor, b)
    return ReconResult(
        final=x,
        history=x[None, :],
        data_residual=_data_residual(s, x[:, None], b),
        step_norm=np.array([np.linalg.norm(x)]),
        wall_ms=np.array([(time.perf_counter() - t0) * 1e3]),
        termination="direct",
    )
