"""Bit-identity of the block ADMM core and the refinement loop against
reference loops that gather and scatter the running columns on every pass."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eitkit.forward import _RESIDUAL_TOL, SolverError, _column_norms, _refine
from eitkit.inverse import ReconResult, XUpdateSolver, group_shrink, reconstruct_block

LAMS = [5e-14, 5e-13, 5e-12]
DELTAS = [0.001, 0.01, 0.1]


def _reference_weights(d_x, deltas):
    """1/(|g_k|^2 + delta) on all 2N rows: element k's weight in row k and
    again in row N + k."""
    n = len(d_x) // 2
    with np.errstate(over="ignore"):
        half = 1.0 / (d_x[:n] * d_x[:n] + d_x[n:] * d_x[n:] + deltas)
    return np.concatenate([half, half])


def _reference_shrink(w, p, lams, rho):
    """w - copysign(g, w) where |w| > g, else +0.0, with the thresholds
    g = lam p / rho formed on all 2N rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = lams * p / rho
        return np.where(np.abs(w) > g, w - np.copysign(g, w), 0.0)


def _reference_block(x_update, b, lams, deltas, *, variant="nwatv", max_iters=20, tol=1e-5):
    """reconstruct_block's iteration with every (2N, K) state array indexed
    by the running columns, the weights held on all 2N rows, the shrink as
    a select, S x and D x formed afresh after each x-update, and |b| taken
    once per residual."""
    s, d, dt, rho = x_update.s, x_update.d, x_update.dt, x_update.rho
    lams, deltas = np.asarray(lams, dtype=float), np.asarray(deltas, dtype=float)
    n, k = s.shape[1], len(lams)
    st_b = (s.T @ b / rho)[:, None]
    x, z, y, p = np.zeros((n, k)), np.zeros((2 * n, k)), np.zeros((2 * n, k)), np.ones((2 * n, k))
    history, residuals, steps = [], [], []
    iters = np.zeros(k, dtype=int)
    errors = {}
    live = np.arange(k)
    for it in range(1, max_iters + 1):
        x_new, _, _, rel = x_update.solve(st_b + dt @ (z[:, live] - y[:, live] / rho))
        for j in np.flatnonzero(~(rel <= _RESIDUAL_TOL)):
            c = int(live[j])
            errors[c] = SolverError("x-update", diagnostics={"column": c, "iteration": it})
        d_x = d @ x_new
        w = d_x + y[:, live] / rho
        if variant == "tv":
            z_new = group_shrink(w, lams[live] / rho)
        else:
            z_new = _reference_shrink(w, p[:, live], lams[live], rho)
        if variant == "nwatv":
            p[:, live] = _reference_weights(d_x, deltas[live])
            for j in np.flatnonzero(~np.all(p[:, live] > 0, axis=0)):
                c = int(live[j])
                errors.setdefault(c, SolverError(
                    "NWATV weights", diagnostics={"column": c, "iteration": it}))
        y[:, live] = y[:, live] + rho * (d_x - z_new)
        z[:, live] = z_new
        step = np.full(k, np.nan)
        step[live] = _column_norms(x_new - x[:, live])
        x[:, live] = x_new
        resid = np.full(k, np.nan)
        b_norm = _column_norms(b[:, None])[0]
        resid[live] = _column_norms(s @ x_new - b[:, None]) / b_norm
        residuals.append(resid)
        steps.append(step)
        history.append(x.copy())
        iters[live] = it
        live = live[~(step[live] < tol) & ~np.isin(live, list(errors))]
        if not live.size:
            break
    history, residuals, steps = np.array(history), np.array(residuals), np.array(steps)
    return [
        errors[c] if c in errors else (x[:, c], history[:m, :, c], residuals[:m, c], steps[:m, c])
        for c, m in enumerate(iters)
    ]


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, SolverError):
            assert isinstance(g, SolverError)
            assert (g.diagnostics["column"], g.diagnostics["iteration"]) == (
                w.diagnostics["column"], w.diagnostics["iteration"])
            assert str(g).startswith(f"iteration {w.diagnostics['iteration']}: {w}")
            continue
        assert isinstance(g, ReconResult)
        for a, b in zip((g.final, g.history, g.data_residual, g.step_norm), w):
            assert np.array_equal(a, b)


class TestBlockMatchesGatheringLoop:
    @pytest.mark.parametrize("variant", ["nwatv", "fotv", "tv"])
    def test_every_column_running(self, model7, x_update, variant):
        kw = dict(variant=variant, max_iters=4, tol=1e-30)
        _assert_same(reconstruct_block(x_update, model7.dv_noisy, LAMS, DELTAS, **kw),
                     _reference_block(x_update, model7.dv_noisy, LAMS, DELTAS, **kw))

    def test_columns_stopping_on_tol(self, model7, x_update):
        # at tol 1e-2 the four columns stop at different iterations, so the
        # block runs both with every column and with some stopped
        lams, deltas = [5e-11, 5e-10, 5e-9, 5e-12], [0.01, 0.1, 0.01, 0.001]
        kw = dict(max_iters=30, tol=1e-2)
        got = reconstruct_block(x_update, model7.dv_noisy, lams, deltas, **kw)
        assert len({r.n_iterations for r in got}) > 1
        _assert_same(got, _reference_block(x_update, model7.dv_noisy, lams, deltas, **kw))

    def test_column_failing_mid_block(self, model7, x_update, monkeypatch):
        real = XUpdateSolver.solve
        calls = []

        def poisoned(self, rhs):
            # a NaN right-hand side in column 1 of the second full block
            if rhs.ndim == 2 and rhs.shape[1] == 3:
                calls.append(1)
                if len(calls) == 2:
                    rhs = rhs.copy()
                    rhs[:, 1] = np.nan
            return real(self, rhs)

        monkeypatch.setattr(XUpdateSolver, "solve", poisoned)
        got = reconstruct_block(x_update, model7.dv_noisy, LAMS, DELTAS, max_iters=5)
        calls.clear()
        want = _reference_block(x_update, model7.dv_noisy, LAMS, DELTAS, max_iters=5)
        assert got[1].diagnostics["iteration"] == 2
        _assert_same(got, want)

    @pytest.mark.filterwarnings("error")
    def test_columns_failing_their_weights(self, model7, x_update):
        # x 1e154 the first reweight overflows |g|^2 in every penalized column
        lams = [0.0, *LAMS]
        got = reconstruct_block(x_update, model7.dv_noisy * 1e154, lams, [0.01] * 4, max_iters=3)
        assert all(isinstance(g, SolverError) for g in got)
        _assert_same(got, _reference_block(x_update, model7.dv_noisy * 1e154, lams, [0.01] * 4,
                                           max_iters=3))

    def test_column_failing_after_another_stopped(self, model7, x_update, monkeypatch):
        # column 3 stops on tol at iteration 20; column 1 then fails in the
        # first solve of the three remaining columns, so it leaves a block
        # that has already dropped a column
        lams, deltas = [5e-11, 5e-10, 5e-9, 5e-12], [0.01, 0.1, 0.01, 0.001]
        kw = dict(max_iters=30, tol=1e-2)
        real = XUpdateSolver.solve
        calls = []

        def poisoned(self, rhs):
            if rhs.shape[1] == 3:
                calls.append(1)
                if len(calls) == 1:
                    rhs = rhs.copy()
                    rhs[:, 1] = np.nan
            return real(self, rhs)

        monkeypatch.setattr(XUpdateSolver, "solve", poisoned)
        got = reconstruct_block(x_update, model7.dv_noisy, lams, deltas, **kw)
        calls.clear()
        want = _reference_block(x_update, model7.dv_noisy, lams, deltas, **kw)
        assert (got[3].termination, got[3].n_iterations) == ("tol", 20)
        assert got[1].diagnostics["iteration"] == 21
        assert got[0].termination == "tol" and got[2].n_iterations == 30
        _assert_same(got, want)


@pytest.mark.parametrize("cols, zero", [((), None), ((3,), None), ((3,), 1)],
                         ids=["vector", "block", "zero-column"])
def test_solve_returns_the_products_of_its_x(coarse, x_update, cols, zero):
    # the products come from the refinement's last residual check when it
    # read all of x, else they are formed after it; either way they are x's
    rhs = np.random.default_rng(5).normal(size=(coarse.mesh.n_elements, *cols))
    if zero is not None:
        rhs[:, zero] = 0.0
    x, s_x, d_x, _ = x_update.solve(rhs)
    assert np.array_equal(s_x, coarse.s @ x) and np.array_equal(d_x, coarse.d @ x)


def test_block_logs_one_debug_line(model7, x_update, caplog):
    with caplog.at_level(logging.DEBUG, logger="eitkit.inverse"):
        reconstruct_block(x_update, model7.dv_noisy, LAMS, DELTAS, max_iters=3, tol=1e-30)
    (record,) = [r for r in caplog.records if r.name == "eitkit.inverse"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert message.startswith("ADMM block of 3 columns, 3 iterations: x-update ")
    for phase in ("shrink", "reweight", "dual"):
        assert f"{phase} " in message and " ms" in message
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="eitkit.inverse"):
        reconstruct_block(x_update, model7.dv_noisy, LAMS, DELTAS, max_iters=1)
    assert not [r for r in caplog.records if r.name == "eitkit.inverse"]


def _reference_refine(solve, apply, rhs, *, tol, steps):
    """_refine with the missing columns gathered after every check."""
    b = rhs.reshape(len(rhs), -1)
    norm_b = _column_norms(b)
    rel = np.zeros(b.shape[1])
    cols = np.flatnonzero(norm_b != 0)
    live = slice(None) if cols.size == b.shape[1] else cols
    x = solve(b) if cols.size == b.shape[1] else np.zeros(b.shape)
    if 0 < cols.size < b.shape[1]:
        x[:, cols] = solve(b[:, cols])
    for correction in range(steps + 1):
        r = b[:, live] - apply(x[:, live])
        rel[live] = _column_norms(r) / norm_b[live]
        miss = ~(rel[live] <= tol)
        if not miss.any():
            break
        cols, r = cols[miss], r[:, miss]
        live = cols
        if correction < steps:
            x[:, cols] += solve(r)
    return x.reshape(rhs.shape), rel


class TestRefineMatchesGatheringLoop:
    N = 60

    def _run(self, rhs, seed=11):
        """_refine and the reference on a sparse tridiagonal problem whose
        approximate inverse (a SuperLU factor, as in the library) is exact on
        the first half of the unknowns and gains about two digits per
        correction on the second; returns _refine's result and the arrays
        its residual checks saw."""
        rng = np.random.default_rng(seed)
        n, h = self.N, self.N // 2
        off = rng.uniform(-1.0, 1.0, size=n - 1)
        off[h - 1] = 0.0  # no coupling between the halves
        diag = rng.uniform(4.0, 5.0, size=n)
        a = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
        shift = np.where(np.arange(n) < h, 0.0, 0.05 * rng.uniform(0.5, 1.0, size=n))
        lu = spla.splu((a + sp.diags(shift)).tocsc())
        seen = []

        def apply(x):
            seen.append(x)
            return a @ x

        kw = dict(tol=1e-13, steps=8)
        got, rel = _refine(lu.solve, apply, rhs, **kw)
        want, want_rel = _reference_refine(lu.solve, lambda x: a @ x, rhs, **kw)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(rel, want_rel, equal_nan=True)
        return got, rel, seen

    def test_every_column_missing_keeps_the_whole_block(self):
        rhs = np.random.default_rng(12).normal(size=(self.N, 5))
        got, rel, seen = self._run(rhs)
        # the second check reads the block itself, not a gathered copy
        assert len(seen) > 2 and seen[1].shape == (self.N, 5)
        assert np.shares_memory(seen[1], got)

    def test_columns_meeting_the_target_at_once(self):
        rhs = np.random.default_rng(13).normal(size=(self.N, 4))
        rhs[self.N // 2:, [0, 2]] = 0.0  # solved exactly by the first solve
        got, rel, seen = self._run(rhs)
        assert seen[0].shape[1] == 4 and {x.shape[1] for x in seen[1:]} == {2}

    def test_zero_column(self):
        rhs = np.random.default_rng(14).normal(size=(self.N, 3))
        rhs[:, 1] = 0.0
        got, rel, seen = self._run(rhs)
        assert not got[:, 1].any() and {x.shape[1] for x in seen} == {2}
        assert rel[1] == 0.0 and rel.max() <= 1e-13

    def test_nan_column_reports_nan_and_is_corrected_to_the_last_step(self):
        # a NaN column misses at every check: it alone is corrected, 8 times
        rhs = np.random.default_rng(15).normal(size=(self.N, 3))
        rhs[:, 2] = np.nan
        with np.errstate(invalid="ignore"):
            got, rel, seen = self._run(rhs)
        assert np.isnan(rel[2]) and rel[:2].max() <= 1e-13
        assert len(seen) == 9 and seen[-1].shape[1] == 1
        assert np.all(np.isfinite(got[:, :2]))
