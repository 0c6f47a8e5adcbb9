"""Linearized difference-image reconstruction.

Solves S x = b for the conductivity perturbation x from difference data b,
with an edge-preserving l1 penalty on the spatial differences D x. The
main solver reweights the penalty each iteration with

    weight(k) = 1 / (|gradient at k|^2 + delta),

so strong edges are penalized weakly and flat regions strongly. The
splitting variable z = D x, with D the stacked x and y differences of
``build_difference_operators``, is handled by ADMM:

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

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forward import _RESIDUAL_TOL, SolverError, _column_norms, _refine

# largest admissible bound on cond(C) of XUpdateSolver; the sweep block first
# missed _RESIDUAL_TOL at 3.5e12 to 5e12 on meshes of 294 to 4,056 elements
_CAPACITANCE_COND = 1e12

# largest admissible q = rho N |D^T D|_1 / |S 1|^2 of XUpdateSolver, the gain
# of the constant mode on the rounding of 1^T r; the sweep block first missed
# _RESIDUAL_TOL at q = 2.5e7 or above on meshes of 294 to 4,056 elements
_CONSTANT_MODE_GAIN = 5e6

# A neighbor qualifies for the x (or y) difference only if the centroid
# displacement has an x (or y) component exceeding this fraction of the
# centroid distance.
DIRECTION_THRESHOLD = 0.2


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


def _data_residual(s_x: np.ndarray, b: np.ndarray, b_norm: float) -> np.ndarray:
    """|S x - b| / b_norm for each column of S x (M, K), or |S x| when b = 0."""
    resid = _column_norms(s_x - b[:, None])
    return resid / b_norm if b_norm > 0 else resid


def build_difference_operators(mesh) -> sp.csr_matrix:
    """Single-neighbor forward differences on the element values of a
    ``mesh.TriMesh``, as the 2N x N matrix D whose first N rows are the x
    differences and last N rows the y differences. Every row sums to zero,
    so D annihilates constants.

    For the x operator, element k is paired with the edge-neighbor whose
    centroid displacement has the largest x component, provided that
    component exceeds ``DIRECTION_THRESHOLD`` times the centroid distance;
    the row is then (value[l] - value[k]) / dx. On a tie the lowest
    neighbor index wins (``argmax`` over the ascending neighbor columns
    keeps the first maximum). Rows with no qualifying neighbor are zero.
    The y operator is built the same way.
    """
    n = mesh.n_elements
    c = mesh.element_centroids
    nbrs = mesh.element_neighbors
    d = c[nbrs] - c[:, None, :]  # (n, 3, 2) centroid displacements
    dist = np.hypot(d[:, :, 0], d[:, :, 1])
    qualifies = (nbrs >= 0)[:, :, None] & (d > DIRECTION_THRESHOLD * dist[:, :, None])
    d = np.where(qualifies, d, 0.0)  # qualifying components are > 0
    best = d.argmax(axis=1)  # (n, 2)
    step = np.take_along_axis(d, best[:, None, :], axis=1)[:, 0]
    blocks = []
    for axis in (0, 1):
        rows = np.flatnonzero(step[:, axis] > 0)
        cols = nbrs[rows, best[rows, axis]]
        h = step[rows, axis]
        vals = np.column_stack([-1.0 / h, 1.0 / h]).ravel()
        coords = (np.repeat(rows, 2), np.column_stack([rows, cols]).ravel())
        blocks.append(sp.csr_matrix((vals, coords), shape=(n, n)))
    return sp.vstack(blocks).tocsr()


def soft_threshold(x, g):
    """Shrink toward zero: sgn(x) max(|x| - g, 0).

    Elementwise on arrays; g may be a scalar or an array of thresholds that
    broadcasts against x. Every zero of the result is +0.0: the |x| = g
    boundary, and an infinite x against an infinite g, map to +0.0.
    """
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.empty(np.broadcast_shapes(x.shape, g.shape))
    with np.errstate(invalid="ignore"):  # |x| - g is NaN where both are inf
        np.subtract(np.abs(x, out=out), g, out=out)
    np.fmax(out, 0.0, out=out)  # fmax, unlike maximum, takes 0 over NaN
    np.copysign(out, x, out=out)
    return np.add(out, 0.0, out=out)  # -0.0 + 0.0 is +0.0


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
    """Edge-adaptive weights 1/(|g_k|^2 + delta), one per element (N,),
    from the stacked differences d_x = D x (2N,); |g_k|^2 = d_x[k]^2 +
    d_x[N+k]^2 is the squared difference magnitude at element k. On a block
    d_x (2N, K) the weights are (N, K), and delta may hold one floor per
    column."""
    if not np.all(np.asarray(delta) > 0):
        raise ValueError(f"delta must be > 0, got {delta}")
    n = len(d_x) // 2
    gx, gy = d_x[:n], d_x[n:]
    with np.errstate(over="ignore"):  # an overflowed |g_k|^2 gives the weight 0
        return 1.0 / (gx * gx + gy * gy + delta)


def z_update(w: np.ndarray, p: np.ndarray, lam, rho: float) -> np.ndarray:
    """Shrinkage of w = Dx + y/rho (2N,) with the thresholds lam*p/rho of
    the element weights p (N,), each shared by its element's x and y rows;
    on a block w (2N, K) and p (N, K), lam may hold one penalty per column.
    A threshold that overflows is inf, which shrinks every entry to 0."""
    with np.errstate(over="ignore"):
        g = lam * np.asarray(p, dtype=float) / rho
    w = np.asarray(w, dtype=float)
    return soft_threshold(w.reshape(2, *g.shape), g).reshape(w.shape)


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
    contrasts survive while near-electrode artifacts shrink. A Gram matrix
    singular to working precision (rcond < eps) is a SolverError.
    """
    import warnings
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
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            coef = sla.solve(gram, sb.T @ b, assume_a="pos")
    except (np.linalg.LinAlgError, sla.LinAlgWarning) as exc:
        raise SolverError(f"boundary Gram matrix is numerically singular at lambda_b {lambda_b:g}",
                          diagnostics={"gram_condition": float(np.linalg.cond(gram))}) from exc
    return b - sb @ coef


class XUpdateSolver:
    """Solver for the ADMM x-update ((1/rho) S^T S + L) x = rhs, L = D^T D.

    The operator depends only on (S, D, rho), so one solver serves every
    iteration of every reconstruction that shares them. L is the Laplacian
    of the connected difference graph, with the constants as null space:
    SuperLU factors it once, grounded at element 0, and L^+ r is the
    grounded solution for P r, projected by P = I - 1 1^T / N. Write
    x = y + alpha 1 with P y = y, q = L^+ r and W = L^+ S^T (N x M, free of
    rho). P applied to the system gives y = q - W S x / rho, so
    C S x = S q + alpha S 1 with the M x M capacitance matrix
    C = I + S W / rho (Woodbury), and 1^T applied gives rho 1^T r =
    (S 1)^T S x, a scalar Schur complement for alpha:

        x = q - G (S q + alpha S 1) / rho + alpha 1,   G = W C^-1,
        alpha = (rho 1^T r - h^T S q) / kappa,   h = C^-1 S 1,  kappa = (S 1)^T h.

    Where kappa = 0 (S 1 = 0, a singular operator) alpha is 0: a consistent
    right-hand side gets its minimum-norm solution, and an inconsistent one
    misses the residual check of the refinement against the exact operator,
    applied matrix-free. No N x N array is formed. rho must lie in
    [min_rho, max_rho], set by S and D alone: below it the bound
    1 + |S W|_1 / rho on cond(C) passes _CAPACITANCE_COND, above it
    q = rho N |D^T D|_1 / |S 1|^2 passes _CONSTANT_MODE_GAIN (README, "The
    x-update"); max_rho is inf where S 1 = 0. Either, and a C that is not
    positive definite, is a SolverError at set-up. A solve keeps no state,
    so one solver serves callers on several threads.
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
        m, n = self.s.shape
        if self.d.shape[1] != n:
            raise ValueError("difference operators do not match the sensitivity columns")
        s_1 = self.s.sum(axis=1)
        l_1 = abs(self.dt @ self.d).sum(axis=0).max()  # |D^T D|_1
        self.max_rho = float(s_1 @ s_1 / l_1 * (_CONSTANT_MODE_GAIN / n) if s_1.any() else np.inf)
        if rho > self.max_rho:
            raise SolverError(
                f"the largest admissible rho for this S and D is {self.max_rho:.3g}, got {rho:g}: "
                f"above it the x-update's constant mode misses the residual tolerance",
                diagnostics={"max_rho": self.max_rho},
            )
        keep = sp.diags(np.arange(n) > 0, dtype=float)  # grounds element 0
        self._lu = spla.splu((keep @ self.dt @ self.d @ keep + sp.identity(n) - keep).tocsc())
        w = self._laplacian_pinv(self.s.T)  # W = L^+ S^T, (N, M) in Fortran order
        s_w = self.s @ w
        self.min_rho = float(np.abs(s_w).sum(axis=0).max() / (_CAPACITANCE_COND - 1.0))
        if rho < self.min_rho:
            raise SolverError(
                f"the smallest admissible rho for this S and D is {self.min_rho:.3g}, got {rho:g}: "
                f"below it the x-update's one-shot solve stops contracting",
                diagnostics={"min_rho": self.min_rho},
            )
        capacitance = np.eye(m) + s_w / rho
        try:
            low = sla.cholesky(capacitance, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "x-update capacitance matrix is not positive definite",
                diagnostics={"capacitance_condition": float(np.linalg.cond(capacitance))},
            ) from exc
        # G / rho = W (R R^T)^-1 / rho, with C = R R^T: two triangular solves in place
        trsm = sla.get_blas_funcs("trsm", (low,))
        y = trsm(1.0, low, w, side=1, lower=1, trans_a=1, overwrite_b=1)
        self._gain = trsm(1.0 / rho, low, y, side=1, lower=1, overwrite_b=1)
        h = sla.cho_solve((low, True), s_1)
        kappa = s_1 @ h
        # alpha = a 1^T r - b^T S q, and the response 1 - G S 1 / rho of x to it
        self._alpha = (rho / kappa, h / kappa) if kappa > 0 else (0.0, np.zeros(m))
        self._constant = 1.0 - self._gain @ s_1

    def _laplacian_pinv(self, r: np.ndarray) -> np.ndarray:
        """L^+ r for a block r (N, k): the grounded solve of P r, projected."""
        p_r = r - r.mean(axis=0)
        p_r[0] = 0.0
        q = self._lu.solve(p_r)
        q -= q.mean(axis=0)
        return q

    def _woodbury_solve(self, r: np.ndarray) -> np.ndarray:
        """((1/rho) S^T S + L)^-1 r for a block r (N, k), or the minimum-norm
        solution where kappa = 0: one multi-column SuperLU solve, faster than
        k single solves at one BLAS thread only (README, "The x-update")."""
        q = self._laplacian_pinv(r)
        s_q = self.s @ q
        a, b = self._alpha
        alpha = a * r.sum(axis=0) - b @ s_q
        return q - self._gain @ s_q + self._constant[:, None] * alpha

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Solve for one right-hand side (N,) or a block (N, K) under
        forward._refine, and return x with S x, D x and each column's
        relative residual, (K,), which the caller judges: S x and D x are
        those of the refinement's last residual check when it read all of
        x, else computed."""
        checked = []  # the shape, S x and D x of the last residual check's x

        def apply(x):  # the exact operator ((1/rho) S^T S + D^T D) x, matrix-free
            checked[:] = x.shape, self.s @ x, self.d @ x
            return self.s.T @ checked[1] / self.rho + self.dt @ checked[2]

        x, rel = _refine(self._woodbury_solve, apply, rhs, tol=_RESIDUAL_TOL, steps=5)
        if checked[0] == x.shape:
            return x, checked[1], checked[2], rel
        return x, self.s @ x, self.d @ x, rel


_VARIANTS = ("nwatv", "fotv", "tv")
_READS_DELTA = ("nwatv",)  # the variants whose result depends on delta


# a non-finite x-update column runs to the stop filter and ends there with a SolverError;
# an overflowed tv threshold shrinks every pair to 0
@np.errstate(over="ignore", invalid="ignore")
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
    step |x_new - x| drops below ``tol``, after ``max_iters`` iterations, on
    an x-update that misses _RESIDUAL_TOL or on reweighted weights that are
    not all > 0 (an overflowed |D x|^2), while the others go on; its entry
    in the returned list is then its ReconResult or the SolverError of its
    first failure, and at the end of that iteration it leaves the ADMM
    state, which holds only the running columns. ``mask``
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
    b_norm = _column_norms(b[:, None])[0]

    # the state of the running columns, in the order of live
    live = np.arange(k)
    x = np.zeros((n, k))
    z = np.zeros((2 * n, k))
    p = np.ones((n, k))
    y = np.zeros((2 * n, k))
    last = np.zeros((n, k))  # each column's last iterate
    # traces grow one row per iteration, NaN in the columns that no longer run
    history, residuals, steps, walls = [], [], [], []
    iters = np.zeros(k, dtype=int)  # iterations completed by each column
    errors: dict[int, SolverError] = {}

    spent = np.zeros(4)  # ms in the x-update, shrink, reweight and dual phases
    for it in range(1, max_iters + 1):
        t0 = time.perf_counter()
        y_rho = y / rho
        x_new, s_x, d_x, solved = x_update.solve(st_b + dt @ (z - y_rho))
        for c, r in zip(live.tolist(), solved.tolist()):
            if not r <= _RESIDUAL_TOL:
                errors[c] = SolverError(
                    f"iteration {it}: x-update residual {r:.3e} above {_RESIDUAL_TOL:.0e}",
                    diagnostics={"column": c, "iteration": it, "relative_residual": r,
                                 "min_rho": x_update.min_rho, "max_rho": x_update.max_rho},
                )
        if mask is not None:
            x_new = apply_mask(x_new, mask)
            s_x, d_x = s @ x_new, d @ x_new
        t1 = time.perf_counter()
        w = np.add(d_x, y_rho, out=y_rho)
        if variant == "tv":
            z_new = group_shrink(w, lams[live] / rho)
        else:
            z_new = z_update(w, p, lams[live], rho)
        t2 = time.perf_counter()
        if variant in _READS_DELTA:
            p = nwatv_weights(d_x, deltas[live])
            for c in live[~np.all(p > 0, axis=0)].tolist():
                errors.setdefault(c, SolverError(  # an x-update error of this iteration stands
                    f"iteration {it}: NWATV weights are not all > 0 after the reweight",
                    diagnostics={"column": c, "iteration": it},
                ))
        t3 = time.perf_counter()
        y += rho * (d_x - z_new)
        z = z_new
        step = np.full(k, np.nan)
        step[live] = _column_norms(x_new - x)
        x = x_new
        last[:, live] = x
        resid = np.full(k, np.nan)
        resid[live] = _data_residual(s_x, b, b_norm)
        t4 = time.perf_counter()
        spent += np.array([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) * 1000.0
        walls.append((t4 - t0) * 1000.0)
        residuals.append(resid)
        steps.append(step)
        if keep_history:
            history.append(last.copy())
        iters[live] = it
        stop = (step[live] < tol) | np.isin(live, list(errors))
        if stop.any():
            live, x, z, p, y = (a[..., ~stop] for a in (live, x, z, p, y))
        if not live.size:
            break

    import logging  # the message is formatted only where DEBUG is enabled
    logging.getLogger(__name__).debug(
        "ADMM block of %d columns, %d iterations: x-update %.1f ms, shrink %.1f ms, "
        "reweight %.1f ms, dual %.1f ms", k, iters.max(), *spent)
    history = np.array(history) if keep_history else np.empty((0, n, k))
    residuals, steps, walls = np.array(residuals), np.array(steps), np.array(walls)
    return [
        errors[c] if c in errors else ReconResult(
            final=last[:, c].copy(),
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
    S^T (S S^T + lam I)^{-1} b: an M x M factorization instead of N x N,
    whose failure is a SolverError."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    t0 = time.perf_counter()
    s = np.asarray(s, dtype=float)
    b = np.asarray(delta_v, dtype=float)
    ridge = s @ s.T + lam * np.eye(s.shape[0])
    try:
        factor = sla.cho_factor(ridge, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"ridge matrix S S^T + lam I is not positive definite at lam {lam:g}",
                          diagnostics={"ridge_condition": float(np.linalg.cond(ridge))}) from exc
    x = s.T @ sla.cho_solve(factor, b)
    return ReconResult(
        final=x,
        history=x[None, :],
        data_residual=_data_residual(s @ x[:, None], b, _column_norms(b[:, None])[0]),
        step_norm=np.array([np.linalg.norm(x)]),
        wall_ms=np.array([(time.perf_counter() - t0) * 1e3]),
        termination="direct",
    )
