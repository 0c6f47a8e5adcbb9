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

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forward import SolverError, _column_norms, _refine

# identity shift, relative to the operator's mean diagonal, that makes the
# sparse base D^T D + eps I of the x-update factorization invertible
_BASE_SHIFT = 1e-8

# iterative refinement of the x-update stops at this relative residual or
# after this many corrections
_REFINE_TOL = 1e-13
_REFINE_STEPS = 5

# relative residual required of the quadratic x-update solve
_UPDATE_RESIDUAL_TOL = 1e-8


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


def soft_threshold(x, g):
    """Shrink toward zero: x - g*sgn(x) where |x| > g, else 0.

    Elementwise on arrays; g may be a scalar or an array of thresholds.
    The |x| = g boundary maps to 0.
    """
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr < 0):
        raise ValueError("threshold must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    # where |x| > g, x - copysign(g, x) is x - g*sgn(x), and it is not NaN
    # where the unused branch has g = inf and x = 0
    return np.where(np.abs(x_arr) > g_arr, x_arr - np.copysign(g_arr, x_arr), 0.0)


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
    zeta = np.empty((2 * n, *d_x.shape[1:]))
    with np.errstate(over="ignore"):  # an overflowed |g_k|^2 gives the weight 0
        np.divide(1.0, gx * gx + gy * gy + delta, out=zeta[:n])
    zeta[n:] = zeta[:n]
    return zeta


def z_update(w: np.ndarray, p: np.ndarray, lam, rho: float) -> np.ndarray:
    """Elementwise shrinkage of w = Dx + y/rho with thresholds lam*p/rho; on
    a block w (2N, K), lam may hold one penalty per column. A threshold that
    overflows is inf, which shrinks every entry to 0."""
    with np.errstate(over="ignore"):
        return soft_threshold(w, lam * np.asarray(p, dtype=float) / rho)


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
    the exact operator, applied matrix-free, removes it. A capacitance
    matrix that is not positive definite is a SolverError at set-up.

    A block solve whose last residual check read every column keeps S x
    and D x of its result for ``products``, per thread, so one solver may
    serve callers on several threads.
    """

    def __init__(self, s, d: sp.csr_matrix, rho: float):
        import threading
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
        # trace of the operator per unknown sets the scale of the shift
        mean_diag = (np.vdot(self.s, self.s) / rho + np.vdot(self.d.data, self.d.data)) / n
        base = (self.dt @ self.d + _BASE_SHIFT * mean_diag * sp.identity(n)).tocsc()
        self._lu = spla.splu(base)
        a_inv_u = self._lu.solve(self.s.T / np.sqrt(rho))
        self._capacitance = np.eye(m) + self.s @ a_inv_u / np.sqrt(rho)
        try:
            low = sla.cholesky(self._capacitance, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "x-update capacitance matrix is not positive definite",
                diagnostics={"capacitance_condition": float(np.linalg.cond(self._capacitance))},
            ) from exc
        # G = A^-1 U (L L^T)^-1, with C = L L^T: two triangular solves in place
        trsm = sla.get_blas_funcs("trsm", (low,))
        y = trsm(1.0, low, a_inv_u, side=1, lower=1, trans_a=1, overwrite_b=1)
        self._gain = trsm(1.0, low, y, side=1, lower=1, overwrite_b=1)
        self._checked = threading.local()  # .products: (x, S x, D x) of the last solve

    def _shifted_inverse(self, r: np.ndarray) -> np.ndarray:
        """(A + U U^T)^-1 r = a - G U^T a with a = A^-1 r, for a block r (N, k);
        one multi-column SuperLU solve, which with two BLAS threads is slower
        than k single solves and with one is faster (README, "The x-update")."""
        a_inv_r = self._lu.solve(r)
        return a_inv_r - self._gain @ (self.s @ a_inv_r / np.sqrt(self.rho))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (N,) or a block (N, K) under the
        refinement contract of forward._refine; a SolverError names its
        ``"column"`` and the capacitance matrix's condition number."""
        checked = []  # the shape, S x and D x of the last residual check's x

        def apply(x):  # the exact operator ((1/rho) S^T S + D^T D) x, matrix-free
            checked[:] = x.shape, self.s @ x, self.d @ x
            return self.s.T @ checked[1] / self.rho + self.dt @ checked[2]

        try:
            x = _refine(self._shifted_inverse, apply, rhs, target=_REFINE_TOL,
                        steps=_REFINE_STEPS, accept=_UPDATE_RESIDUAL_TOL,
                        what="x-update", key="column")
        except SolverError as exc:
            exc.diagnostics["capacitance_condition"] = float(np.linalg.cond(self._capacitance))
            raise
        covered = checked[0] == x.shape  # the last check read all of a block x
        self._checked.products = (x, checked[1], checked[2]) if covered else None
        return x

    def products(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S x and D x for a block x (N, K): those of this thread's last solve
        when x is its result, else computed."""
        kept, self._checked.products = getattr(self._checked, "products", None), None
        if kept is not None and kept[0] is x:
            return kept[1], kept[2]
        return self.s @ x, self.d @ x


_VARIANTS = ("nwatv", "fotv", "tv")
_READS_DELTA = ("nwatv",)  # the variants whose result depends on delta


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
    an x-update failure or on reweighted weights that are not all > 0 (an
    overflowed |D x|^2), while the others go on; its entry in the
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
    b_norm = _column_norms(b[:, None])[0]

    x = np.zeros((n, k))
    z = np.zeros((2 * n, k))
    p = np.ones((2 * n, k))
    y = np.zeros((2 * n, k))
    # traces grow one row per iteration, NaN in the columns that no longer run
    history, residuals, steps, walls = [], [], [], []
    iters = np.zeros(k, dtype=int)  # iterations completed by each column
    errors: dict[int, SolverError] = {}

    spent = np.zeros(4)  # ms in the x-update, shrink, reweight and dual phases
    live = np.arange(k)  # the running columns
    for it in range(1, max_iters + 1):
        t0 = time.perf_counter()
        # while every column runs, the state is indexed by a full slice: views, no copies
        cols = slice(None) if live.size == k else live
        y_rho = y[:, cols] / rho
        rhs = st_b + dt @ (z[:, cols] - y_rho)
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
                live, rhs, y_rho = (np.delete(a, j, axis=-1) for a in (live, rhs, y_rho))
        if not live.size:
            break
        cols = slice(None) if live.size == k else live
        if mask is not None:
            x_new = apply_mask(x_new, mask)
        s_x, d_x = x_update.products(x_new)
        t1 = time.perf_counter()
        w = np.add(d_x, y_rho, out=y_rho)
        if variant == "tv":
            with np.errstate(over="ignore"):  # an overflowed threshold shrinks every pair to 0
                g = lams[live] / rho
            z_new = group_shrink(w, g)
        else:
            z_new = z_update(w, p[:, cols], lams[live], rho)
        t2 = time.perf_counter()
        if variant in _READS_DELTA:
            p[:, cols] = nwatv_weights(d_x, deltas[live])
            for j in np.flatnonzero(~np.all(p[:n, cols] > 0, axis=0)):
                c = int(live[j])
                errors[c] = SolverError(
                    f"iteration {it}: NWATV weights are not all > 0 after the reweight",
                    diagnostics={"column": c, "iteration": it},
                )
        t3 = time.perf_counter()
        y[:, cols] += rho * (d_x - z_new)
        z[:, cols] = z_new
        step = np.full(k, np.nan)
        step[live] = _column_norms(x_new - x[:, cols])
        x[:, cols] = x_new
        resid = np.full(k, np.nan)
        resid[live] = _data_residual(s_x, b, b_norm)
        t4 = time.perf_counter()
        spent += np.array([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) * 1000.0
        walls.append((t4 - t0) * 1000.0)
        residuals.append(resid)
        steps.append(step)
        if keep_history:
            history.append(x.copy())
        iters[live] = it
        live = live[~(step[live] < tol) & ~np.isin(live, list(errors))]

    import logging  # the message is formatted only where DEBUG is enabled
    logging.getLogger(__name__).debug(
        "ADMM block of %d columns, %d iterations: x-update %.1f ms, shrink %.1f ms, "
        "reweight %.1f ms, dual %.1f ms", k, iters.max(), *spent)
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
