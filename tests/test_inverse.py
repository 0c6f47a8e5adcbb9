"""ADMM reconstruction: proximal updates, solver loop, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitkit import (
    ConductivityField,
    SolverConfig,
    SolverError,
    assign_conductivity,
    build_difference_operators,
    generate_disk_mesh,
    lung_model,
    nwatv_weights,
    reconstruct_fotv,
    reconstruct_nwatv,
    reconstruct_tikhonov,
    reconstruct_tv_isotropic,
    soft_threshold,
    group_shrink,
    XUpdateSolver,
)
from eitkit.inverse import (
    apply_mask,
    preprocess_boundary,
    z_update,
)


def _chain_ops(n=40, h=0.1):
    """1-D chain differences in the x block and all-zero dy rows."""
    import scipy.sparse as sp

    from eitkit import DifferenceOperators

    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.column_stack([np.arange(n - 1), np.arange(1, n)]).ravel()
    vals = np.tile([-1 / h, 1 / h], n - 1)
    dx = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    dy = sp.csr_matrix((n, n))
    return DifferenceOperators(dx=dx, dy=dy, stacked=sp.vstack([dx, dy]).tocsr())


def _grid_argmin_1d(w, g, step=1e-6):
    """Brute-force minimizer of F(v) = (v - w)^2 + 2g|v|.

    F is strictly convex, so a coarse pass plus a fine pass around the
    coarse winner finds the global minimizer to `step` resolution.
    """
    span = abs(w) + g + 1.0
    coarse = np.linspace(-span, span, 4001)
    fc = (coarse - w) ** 2 + 2 * g * np.abs(coarse)
    c0 = coarse[np.argmin(fc)]
    width = span / 2000
    fine = np.arange(c0 - 2 * width, c0 + 2 * width + step, step)
    ff = (fine - w) ** 2 + 2 * g * np.abs(fine)
    return fine[np.argmin(ff)]


class TestSoftThreshold:
    def test_fixed_points(self):
        assert soft_threshold(5.0, 2.0) == 3.0
        assert soft_threshold(-5.0, 2.0) == -3.0
        assert soft_threshold(1.0, 2.0) == 0.0
        assert soft_threshold(-1.5, 2.0) == 0.0

    def test_zero_threshold_identity(self):
        x = np.array([-3.0, 0.0, 1e-9, 7.5])
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_boundary_maps_to_zero(self):
        assert soft_threshold(2.0, 2.0) == 0.0
        assert soft_threshold(-2.0, 2.0) == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_elementwise_thresholds(self):
        x = np.array([5.0, -5.0, 0.5])
        g = np.array([2.0, 1.0, 1.0])
        assert np.array_equal(soft_threshold(x, g), [3.0, -4.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        g=st.floats(0, 1e6, allow_nan=False),
    )
    def test_algebra_property(self, x, g):
        out = soft_threshold(x, g)
        want = np.sign(x) * max(abs(x) - g, 0.0)
        assert out == want


class TestGroupShrink:
    def test_below_threshold_zeroed(self):
        w = np.array([0.3, 0.0, 0.0, 0.4])  # pairs (0.3, 0.0) and (0.0, 0.4)
        z = group_shrink(w, 0.5)
        assert np.array_equal(z, np.zeros(4))

    def test_rotation_isotropy(self):
        rng = np.random.default_rng(0)
        wx, wy = rng.normal(size=5), rng.normal(size=5)
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        rx, ry = c * wx - s * wy, s * wx + c * wy
        z = group_shrink(np.concatenate([wx, wy]), 0.3)
        zr = group_shrink(np.concatenate([rx, ry]), 0.3)
        zx, zy = z[:5], z[5:]
        assert np.allclose(zr[:5], c * zx - s * zy, atol=1e-12)
        assert np.allclose(zr[5:], s * zx + c * zy, atol=1e-12)

    def test_matches_2d_grid_oracle(self):
        # argmin over v of |v - w|^2 + 2g|v| on a 1e-4 grid
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = rng.normal(size=2)
            g = float(rng.uniform(0.1, 1.0))
            lim = np.abs(w).max() + 1.0
            axis = np.arange(-lim, lim, 1e-4)
            vx, vy = np.meshgrid(axis, axis[::50])  # coarse y, fine x: two passes
            # full 2D at 1e-4 is too big; exploit that the minimizer is
            # parallel to w: search along the ray t*w/|w|
            t = np.arange(-lim, lim, 1e-4)
            ray = np.outer(t, w / np.linalg.norm(w))
            f = ((ray - w) ** 2).sum(axis=1) + 2 * g * np.abs(t)
            best = ray[np.argmin(f)]
            z = group_shrink(w, g)
            assert np.allclose(z, best, atol=2e-4)


class TestNwatvWeights:
    def _ops(self):
        mesh = generate_disk_mesh(0.1, 1024)
        return mesh, build_difference_operators(mesh)

    def test_zero_field_uniform_weights(self):
        mesh, ops = self._ops()
        p = nwatv_weights(np.zeros(mesh.n_elements), ops, 0.01)
        assert p.shape == (2 * mesh.n_elements,)
        assert np.all(p == 100.0)

    def test_duplicated_blocks(self):
        mesh, ops = self._ops()
        rng = np.random.default_rng(2)
        p = nwatv_weights(rng.normal(size=mesh.n_elements), ops, 0.01)
        n = mesh.n_elements
        assert np.array_equal(p[:n], p[n:])

    def test_min_weight_on_sharpest_edge(self):
        mesh, ops = self._ops()
        field = assign_conductivity(mesh, lung_model(7)).values - 1.0
        p = nwatv_weights(field, ops, 0.01)
        n = mesh.n_elements
        gx, gy = ops.dx @ field, ops.dy @ field
        mag = gx**2 + gy**2
        assert np.argmin(p[:n]) == np.argmax(mag)

    def test_positive_delta_required(self):
        mesh, ops = self._ops()
        with pytest.raises(ValueError):
            nwatv_weights(np.zeros(mesh.n_elements), ops, 0.0)


class TestZUpdate:
    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=20)
        p = rng.uniform(0.1, 10, size=20)
        assert np.array_equal(z_update(w, p, 0.0, 1e-10), w)

    def test_threshold_boundary(self):
        w = np.array([0.5, -0.5])
        p = np.array([1.0, 1.0])
        # lam*p/rho = 0.5 exactly
        z = z_update(w, p, 0.5, 1.0)
        assert np.array_equal(z, [0.0, 0.0])

    def test_sign_relation(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=1000)
        p = rng.uniform(0.01, 100, size=1000)
        z = z_update(w, p, 2e-3, 1e-2)
        nz = z != 0
        assert np.all(np.sign(z[nz]) == np.sign(w[nz]))

    def test_brute_force_grid_oracle(self):
        # 100 random draws against the 1e-6-resolution grid minimizer of
        # F(v) = (v - w)^2 + 2*(lam/rho)*p*|v|
        rng = np.random.default_rng(7)
        w = rng.uniform(-5, 5, size=100)
        p = 10 ** rng.uniform(-2, 2, size=100)
        ratio = 10 ** rng.uniform(-2, 1, size=100)
        for k in range(100):
            z = z_update(np.array([w[k]]), np.array([p[k]]), ratio[k], 1.0)[0]
            want = _grid_argmin_1d(w[k], ratio[k] * p[k])
            assert abs(z - want) <= 2e-6

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            z_update(np.ones(4), np.zeros(4), 1.0, 1.0)


class TestSigmaUpdate:
    """The x-update ((1/rho)S^T S + D^T D) x = (1/rho)S^T b + D^T (z - y/rho)."""

    def test_manufactured_solution(self, coarse):
        rng = np.random.default_rng(8)
        target = rng.normal(size=coarse.mesh.n_elements)
        s = coarse.s.matrix
        rho = 1e-10
        rhs = s.T @ (s @ target) / rho + coarse.ops.stacked.T @ (coarse.ops.stacked @ target)
        out = XUpdateSolver(s, coarse.ops, rho).solve(rhs)
        assert np.linalg.norm(out - target) <= 1e-6 * np.linalg.norm(target)

    def test_zero_inputs_zero_output(self, coarse):
        n = coarse.mesh.n_elements
        out = XUpdateSolver(coarse.s, coarse.ops, 1e-10).solve(np.zeros(n))
        assert np.array_equal(out, np.zeros(n))

    def test_rho_cancels_when_s_zero(self, coarse):
        n = coarse.mesh.n_elements
        z = np.random.default_rng(9).normal(size=2 * n)
        s0 = np.zeros((208, n))
        rhs = coarse.ops.stacked.T @ z  # S^T b = 0 and y = 0 for either rho
        a = XUpdateSolver(s0, coarse.ops, 1.0).solve(rhs)
        b = XUpdateSolver(s0, coarse.ops, 0.5).solve(rhs)
        assert np.allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))

    def test_singular_operator_floored_and_solved(self, caplog):
        # S = 0 with the chain D leaves D^T D singular (constants are in its
        # null space): the solver warns, floors the operator, and still
        # solves the consistent system close to its minimum-norm solution
        ops = _chain_ops()
        n = ops.n_elements
        z = np.random.default_rng(24).normal(size=2 * n)
        rhs = ops.stacked.T @ z
        with caplog.at_level("WARNING", logger="eitkit.inverse"):
            x = XUpdateSolver(np.zeros((60, n)), ops, 1.0).solve(rhs)
        assert "not positive definite" in caplog.text
        dtd = (ops.stacked.T @ ops.stacked).toarray()
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(dtd @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)
        min_norm = np.linalg.pinv(dtd) @ rhs
        assert np.linalg.norm(x - min_norm) <= 1e-4 * np.linalg.norm(min_norm)


def _dense_x_update(s, ops, rho, rhs):
    m = s.T @ s / rho + (ops.stacked.T @ ops.stacked).toarray()
    return np.linalg.solve(m, rhs)


class TestXUpdateSolver:
    def _admm_rhs(self, s, ops, rho, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=s.shape[0])
        w = rng.normal(size=2 * s.shape[1])
        return s.T @ b / rho + ops.stacked.T @ w

    def test_matches_dense_solve_coarse(self, coarse):
        s, rho = coarse.s.matrix, 1e-10
        rhs = self._admm_rhs(s, coarse.ops, rho, 25)
        x = XUpdateSolver(s, coarse.ops, rho).solve(rhs)
        want = _dense_x_update(s, coarse.ops, rho, rhs)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    def test_matches_dense_solve_chain_with_zero_dy_rows(self):
        ops = _chain_ops()
        s = np.random.default_rng(26).normal(size=(60, 40)) / np.sqrt(40)
        rho = 1e-6
        rhs = self._admm_rhs(s, ops, rho, 27)
        solver = XUpdateSolver(s, ops, rho)
        assert solver.floor == 0.0
        want = _dense_x_update(s, ops, rho, rhs)
        assert np.linalg.norm(solver.solve(rhs) - want) <= 1e-10 * np.linalg.norm(want)

    def test_inconsistent_rhs_on_singular_operator_raises(self):
        # the floored operator is nearly singular: a right-hand side with a
        # component along the constants misses the residual contract
        ops = _chain_ops()
        solver = XUpdateSolver(np.zeros((60, 40)), ops, 1.0)
        assert solver.floor > 0
        rhs = ops.stacked.T @ np.random.default_rng(28).normal(size=80) + 1.0
        with pytest.raises(SolverError, match="residual") as info:
            solver.solve(rhs)
        assert info.value.diagnostics["relative_residual"] > 1e-8
        assert info.value.diagnostics["capacitance_condition"] >= 1.0

    def test_shared_solver_gives_identical_iterates(self, coarse, model7):
        cfg = _shipped_config(max_iters=3)
        solver = XUpdateSolver(coarse.s, coarse.ops, cfg.rho)
        a = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg, x_update=solver)
        b = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        assert np.array_equal(a.history, b.history)

    def test_solver_for_other_rho_rejected(self, coarse, model7):
        solver = XUpdateSolver(coarse.s, coarse.ops, 1e-9)
        with pytest.raises(ValueError, match="x_update"):
            reconstruct_fotv(
                coarse.s, model7.dv_noisy, coarse.ops, _shipped_config(), x_update=solver
            )

    def test_concurrent_solves_match_serial(self, coarse):
        # solve() keeps no per-call state on the solver, so one shared
        # solver may serve callers on several threads
        import sys
        import threading

        s, rho = coarse.s.matrix, 1e-10
        solver = XUpdateSolver(s, coarse.ops, rho)
        rhs = [self._admm_rhs(s, coarse.ops, rho, 30 + k) for k in range(12)]
        serial = [solver.solve(r) for r in rhs]
        results = [[] for _ in rhs]

        def worker(k):
            for _ in range(4):
                results[k].append(solver.solve(rhs[k]))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(rhs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, results):
            assert len(got) == 4
            assert all(np.array_equal(x, want) for x in got)

    def test_sweep_factors_once(self, tmp_path, monkeypatch):
        import eitkit.inverse as inv
        from eitkit.pipeline import PipelineConfig, cmd_sweep

        built = []

        class Spy(inv.XUpdateSolver):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(inv, "XUpdateSolver", Spy)
        cfg = PipelineConfig(
            inverse_elements=256,
            forward_elements=1024,
            max_iters=3,
            raster_resolution=64,
            profile_rows=[20, 32, 45],
            out_dir=str(tmp_path),
        )
        rows = cmd_sweep(cfg)
        assert len(rows) == 35
        assert not [r for r in rows if r["termination"].startswith("error")]
        assert len(built) == 1


class TestPreprocessBoundary:
    def test_large_weight_is_identity(self, coarse):
        rng = np.random.default_rng(12)
        dv = rng.normal(size=208)
        boundary = coarse.mesh.boundary_elements()
        sb = coarse.s.matrix[:, boundary]
        lam_b = 1e12 * np.linalg.norm(sb.T @ sb, 2)
        out = preprocess_boundary(dv, coarse.s, boundary, lam_b)
        assert np.linalg.norm(out - dv) <= 1e-6 * np.linalg.norm(dv)

    def test_small_weight_removes_boundary_span(self, coarse):
        rng = np.random.default_rng(13)
        boundary = coarse.mesh.boundary_elements()
        sb = coarse.s.matrix[:, boundary]
        dv = sb @ rng.normal(size=len(boundary))
        lam_b = 1e-8 * np.linalg.norm(sb.T @ sb, 2)
        out = preprocess_boundary(dv, coarse.s, boundary, lam_b)
        assert np.linalg.norm(out) <= 0.01 * np.linalg.norm(dv)

    def test_shape_preserved_at_default_weight(self, coarse):
        rng = np.random.default_rng(14)
        dv = rng.normal(size=208)
        out = preprocess_boundary(dv, coarse.s, coarse.mesh.boundary_elements(), 1e-7)
        assert out.shape == dv.shape


class TestApplyMask:
    def test_full_mask_identity(self):
        x = np.arange(5.0)
        assert np.array_equal(apply_mask(x, np.ones(5, dtype=bool)), x)

    def test_empty_mask_zeros(self):
        x = np.arange(5.0)
        assert np.array_equal(apply_mask(x, np.zeros(5, dtype=bool)), np.zeros(5))

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=64)
        mask = rng.random(64) > 0.5
        once = apply_mask(x, mask)
        assert np.array_equal(apply_mask(once, mask), once)

    def test_index_mask(self):
        x = np.arange(6.0)
        out = apply_mask(x, np.array([1, 4]))
        assert np.array_equal(out, [0, 1, 0, 0, 4, 0])


def _shipped_config(**overrides):
    base = dict(lam=5e-13, rho=1e-10, delta=0.01, max_iters=20, tol=1e-5)
    base.update(overrides)
    return SolverConfig(**base)


class TestReconstructNwatv:
    def test_zero_data_zero_fixed_point(self, coarse):
        res = reconstruct_nwatv(coarse.s, np.zeros(208), coarse.ops, _shipped_config())
        assert res.termination == "tol"
        assert res.n_iterations == 1
        assert np.array_equal(res.final, np.zeros(coarse.mesh.n_elements))

    def test_model7_error_decreases(self, coarse, model7):
        res = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, _shipped_config())
        truth = 1.0 + model7.delta_true
        re = [
            np.linalg.norm((1.0 + h) - truth) / np.linalg.norm(truth)
            for h in res.history
        ]
        assert re[19] < re[0]
        assert res.n_iterations == 20

    def test_deterministic(self, coarse, model7):
        a = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, _shipped_config())
        b = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, _shipped_config())
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.final, b.final)

    def test_mask_confinement(self, coarse, model7):
        n = coarse.mesh.n_elements
        mask = np.linalg.norm(coarse.mesh.element_centroids, axis=1) < 0.07
        cfg = _shipped_config(mask=mask, max_iters=5)
        res = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        outside = ~mask
        assert np.all(res.history[:, outside] == 0.0)

    def test_huge_tol_stops_after_one_iteration(self, coarse, model7):
        cfg = _shipped_config(tol=1e30)
        res = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        assert res.n_iterations == 1
        assert res.termination == "tol"

    def test_tol_termination_consistent(self, coarse, model7):
        cfg = _shipped_config(tol=1e-4, max_iters=200)
        res = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        if res.termination == "tol":
            assert res.step_norm[-1] < 1e-4
            assert np.all(res.step_norm[:-1] >= 1e-4)

    def test_diagnostics_lengths(self, coarse, model7):
        res = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, _shipped_config())
        n = res.n_iterations
        assert len(res.data_residual) == n
        assert len(res.step_norm) == n
        assert len(res.wall_ms) == n
        assert res.history.shape[0] == n
        assert np.all(res.wall_ms > 0)

    def test_iteration_order_matches_manual_steps(self, coarse, model7):
        """Pin the update order: x-solve, z with previous weights, weight
        refresh, dual ascent; weights start at one."""
        s, ops = coarse.s, coarse.ops
        dv = model7.dv_noisy.data
        n = coarse.mesh.n_elements
        lam, rho, delta = 5e-13, 1e-10, 0.01
        d = ops.stacked
        solver = XUpdateSolver(s, ops, rho)
        z = np.zeros(2 * n)
        y = np.zeros(2 * n)
        p = np.ones(2 * n)
        history = []
        for _ in range(3):
            x = solver.solve(s.matrix.T @ dv / rho + d.T @ (z - y / rho))
            z = z_update(d @ x + y / rho, p, lam, rho)
            p = nwatv_weights(x, ops, delta)
            y = y + rho * (d @ x - z)
            history.append(x)
        res = reconstruct_nwatv(
            s, model7.dv_noisy, ops, _shipped_config(max_iters=3, tol=1e-30)
        )
        assert np.allclose(res.history, np.array(history), atol=1e-12, rtol=0)


class TestBaselines:
    def test_fotv_equals_nwatv_at_lambda_zero(self, coarse, model7):
        cfg = _shipped_config(lam=0.0, max_iters=5)
        a = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        b = reconstruct_fotv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        assert np.array_equal(a.history, b.history)

    def test_lambda_zero_reaches_least_squares_fixed_point(self):
        # small well-conditioned instance: the lam=0 fixed point satisfies
        # the unregularized normal equations (rho small so the data term
        # dominates the stationary part and the iteration contracts fast)
        n = 40
        ops = _chain_ops(n)
        rng = np.random.default_rng(21)
        s = rng.normal(size=(60, n)) / np.sqrt(n)
        b = s @ rng.normal(size=n)
        cfg = SolverConfig(lam=0.0, rho=1e-6, delta=0.01, max_iters=500, tol=1e-15)
        res = reconstruct_fotv(s, b, ops, cfg)
        lstsq = np.linalg.lstsq(s, b, rcond=None)[0]
        assert np.linalg.norm(res.final - lstsq) <= 1e-8 * np.linalg.norm(lstsq)

    def test_fotv_y_block_zero_for_zero_y_gradient(self, coarse):
        # a field with no variation along the y-selected neighbors keeps the
        # y-block of the split variable at zero after one update
        n = coarse.mesh.n_elements
        w = np.concatenate([np.random.default_rng(22).normal(size=n), np.zeros(n)])
        z = z_update(w, np.ones(2 * n), 1.0, 2.0)
        assert np.array_equal(z[n:], np.zeros(n))

    def test_tikhonov_limits(self, coarse, model7):
        small = reconstruct_tikhonov(coarse.s, model7.dv_noisy, 1e-12).final
        huge = reconstruct_tikhonov(coarse.s, model7.dv_noisy, 1e12).final
        assert np.linalg.norm(huge) <= 1e-6 * np.linalg.norm(small)

    def test_tikhonov_recovers_unit_vector(self):
        rng = np.random.default_rng(23)
        s = rng.normal(size=(40, 12)) + 3 * np.eye(40, 12)
        e3 = np.zeros(12)
        e3[3] = 1.0
        dv = s @ e3
        out = reconstruct_tikhonov(s, dv, 1e-10).final
        assert np.linalg.norm(out - e3) <= 1e-6

    def test_tikhonov_linear_in_data(self, coarse, model7):
        a = reconstruct_tikhonov(coarse.s, model7.dv_noisy.data, 1e-6).final
        b = reconstruct_tikhonov(coarse.s, 2.0 * model7.dv_noisy.data, 1e-6).final
        assert np.allclose(b, 2.0 * a, rtol=1e-12, atol=0)

    def test_tikhonov_matches_primal_normal_equations(self, coarse, model7):
        # the M x M form S^T (S S^T + lam I)^-1 b equals the N x N ridge solve
        s, b, lam = coarse.s.matrix, model7.dv_noisy.data, 1e-6
        want = np.linalg.solve(s.T @ s + lam * np.eye(s.shape[1]), s.T @ b)
        got = reconstruct_tikhonov(coarse.s, model7.dv_noisy, lam).final
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_tikhonov_rejects_nonpositive_lambda(self, coarse, model7):
        with pytest.raises(ValueError):
            reconstruct_tikhonov(coarse.s, model7.dv_noisy, 0.0)

    def test_isotropic_tv_runs_and_differs(self, coarse, model7):
        cfg = _shipped_config(max_iters=5)
        a = reconstruct_tv_isotropic(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        b = reconstruct_fotv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
        assert a.history.shape == b.history.shape
        assert not np.array_equal(a.final, b.final)


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=-1e-13),
            dict(rho=0.0),
            dict(delta=0.0),
            dict(max_iters=0),
            dict(tol=0.0),
        ],
    )
    def test_rejected(self, kwargs):
        base = dict(lam=5e-13, rho=1e-10, delta=0.01, max_iters=20, tol=1e-5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SolverConfig(**base)


class TestPreprocessIntegration:
    def test_preprocess_flag_changes_result(self, coarse, model7):
        cfg_off = _shipped_config(max_iters=5)
        cfg_on = _shipped_config(max_iters=5, enable_preprocess=True)
        a = reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg_off)
        b = reconstruct_nwatv(
            coarse.s,
            model7.dv_noisy,
            coarse.ops,
            cfg_on,
            boundary_elements=coarse.mesh.boundary_elements(),
        )
        assert not np.array_equal(a.final, b.final)

    def test_preprocess_requires_boundary_set(self, coarse, model7):
        cfg = _shipped_config(enable_preprocess=True)
        with pytest.raises(ValueError):
            reconstruct_nwatv(coarse.s, model7.dv_noisy, coarse.ops, cfg)
