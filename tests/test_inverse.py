"""ADMM reconstruction: proximal updates, solver loop, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitkit.forward import _RESIDUAL_TOL, SolverError
from eitkit.inverse import (
    ReconResult,
    XUpdateSolver,
    build_difference_operators,
    group_shrink,
    nwatv_weights,
    preprocess_boundary,
    reconstruct_block,
    reconstruct_fotv,
    reconstruct_nwatv,
    reconstruct_tikhonov,
    reconstruct_tv_isotropic,
    soft_threshold,
    z_update,
)
from eitkit.mesh import generate_disk_mesh
from eitkit.phantom import Inclusion, PhantomSpec, assign_conductivity, lung_model


LAM, RHO = 5e-13, 1e-10  # the shipped penalty and coupling weight


def _chain_ops(n=40, h=0.1):
    """1-D chain differences in the x rows and all-zero y rows of D."""
    import scipy.sparse as sp

    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.column_stack([np.arange(n - 1), np.arange(1, n)]).ravel()
    vals = np.tile([-1 / h, 1 / h], n - 1)
    dx = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    dy = sp.csr_matrix((n, n))
    return sp.vstack([dx, dy]).tocsr()


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

    def test_bits_of_the_sign_product_form(self):
        # x - g*sgn(x) where |x| > g, else +0.0: the reference form, bit for bit
        rng = np.random.default_rng(11)
        x = rng.normal(size=1000)
        g = rng.uniform(0.0, 2.0, size=1000)
        want = np.where(np.abs(x) > g, x - g * np.sign(x), 0.0)
        assert soft_threshold(x, g).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_infinite_threshold_gives_positive_zeros_silently(self):
        out = soft_threshold(np.array([-2.0, 0.0, -0.0, 3.0]), np.inf)
        assert out.tobytes() == np.zeros(4).tobytes()

    def test_zeros_of_negative_entries_are_positive(self):
        # below, at and on a zero threshold: sgn(x) * 0 would be -0.0
        out = soft_threshold(np.array([-1.0, -2.0, -0.0, -0.5]), np.array([3.0, 2.0, 0.0, 0.5]))
        assert out.tobytes() == np.zeros(4).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_infinite_entry_against_infinite_threshold_is_zero_silently(self):
        # |x| - g is inf - inf there, a NaN that must not reach the result
        out = soft_threshold(np.array([np.inf, -np.inf, np.inf, -np.inf]),
                             np.array([np.inf, np.inf, 1.0, 1.0]))
        assert out.tobytes() == np.array([0.0, 0.0, np.inf, -np.inf]).tobytes()

    @settings(max_examples=200)
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
    def _disk(self):
        mesh = generate_disk_mesh(0.1, 1024)
        return mesh, build_difference_operators(mesh)

    def test_zero_field_uniform_weights(self):
        mesh, d = self._disk()
        p = nwatv_weights(d @ np.zeros(mesh.n_elements), 0.01)
        assert p.shape == (mesh.n_elements,)
        assert np.all(p == 100.0)

    def test_one_weight_per_element(self):
        mesh, d = self._disk()
        n = mesh.n_elements
        d_x = d @ np.random.default_rng(2).normal(size=(n, 3))
        deltas = np.array([0.001, 0.01, 0.1])
        p = nwatv_weights(d_x, deltas)
        assert p.shape == (n, 3)
        gx, gy = d_x[:n], d_x[n:]
        assert p.tobytes() == (1.0 / (gx * gx + gy * gy + deltas)).tobytes()

    def test_min_weight_on_sharpest_edge(self):
        mesh, d = self._disk()
        field = assign_conductivity(mesh, lung_model(7)) - 1.0
        p = nwatv_weights(d @ field, 0.01)
        n = mesh.n_elements
        gx, gy = d[:n] @ field, d[n:] @ field
        mag = gx**2 + gy**2
        assert np.argmin(p) == np.argmax(mag)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gradient_gives_zero_weight_silently(self):
        p = nwatv_weights(np.array([1e200, 0.0, 0.0, 0.0]), 0.01)
        assert np.array_equal(p, [0.0, 100.0])

    def test_positive_delta_required(self):
        mesh, d = self._disk()
        with pytest.raises(ValueError):
            nwatv_weights(d @ np.zeros(mesh.n_elements), 0.0)


class TestZUpdate:
    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=20)
        p = rng.uniform(0.1, 10, size=10)
        assert np.array_equal(z_update(w, p, 0.0, 1e-10), w)

    def test_threshold_boundary(self):
        w = np.array([0.5, -0.5])  # the x and y rows of one element
        p = np.array([1.0])
        # lam*p/rho = 0.5 exactly
        z = z_update(w, p, 0.5, 1.0)
        assert np.array_equal(z, [0.0, 0.0])

    def test_sign_relation(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=1000)
        p = rng.uniform(0.01, 100, size=500)
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
            z = z_update(np.array([w[k], 0.0]), np.array([p[k]]), ratio[k], 1.0)[0]
            want = _grid_argmin_1d(w[k], ratio[k] * p[k])
            assert abs(z - want) <= 2e-6

    def test_negative_weights_rejected(self):
        # their thresholds lam*p/rho are negative
        with pytest.raises(ValueError, match="threshold"):
            z_update(np.ones(4), -np.ones(2), 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_threshold_shrinks_to_zero_silently(self):
        z = z_update(np.array([-1.0, 0.0, 2.0, -np.inf]), np.ones(2), 1e300, RHO)
        assert z.tobytes() == np.zeros(4).tobytes()

    def test_element_weight_thresholds_its_x_and_y_rows(self):
        # on a block: the (N, K) weights give the thresholds of rows k and
        # N + k, bit for bit the shrink against the thresholds on all 2N rows
        rng = np.random.default_rng(8)
        n, lams, rho = 50, np.array([5e-13, 5e-12, 0.0]), 1e-10
        w = rng.normal(size=(2 * n, 3)) * 1e-2
        p = 10 ** rng.uniform(-2, 2, size=(n, 3))
        want = soft_threshold(w, lams * np.concatenate([p, p]) / rho)
        assert z_update(w, p, lams, rho).tobytes() == want.tobytes()


class TestSigmaUpdate:
    """The x-update ((1/rho)S^T S + D^T D) x = (1/rho)S^T b + D^T (z - y/rho)."""

    def test_manufactured_solution(self, coarse):
        rng = np.random.default_rng(8)
        target = rng.normal(size=coarse.mesh.n_elements)
        s = coarse.s
        rho = 1e-10
        rhs = s.T @ (s @ target) / rho + coarse.d.T @ (coarse.d @ target)
        out, _, _, _ = XUpdateSolver(s, coarse.d, rho).solve(rhs)
        assert np.linalg.norm(out - target) <= 1e-6 * np.linalg.norm(target)

    def test_zero_inputs_zero_output(self, coarse):
        n = coarse.mesh.n_elements
        out, _, _, _ = XUpdateSolver(coarse.s, coarse.d, 1e-10).solve(np.zeros(n))
        assert np.array_equal(out, np.zeros(n))

    def test_rho_cancels_when_s_zero(self, coarse):
        n = coarse.mesh.n_elements
        z = np.random.default_rng(9).normal(size=2 * n)
        s0 = np.zeros((208, n))
        rhs = coarse.d.T @ z  # S^T b = 0 and y = 0 for either rho
        a, _, _, _ = XUpdateSolver(s0, coarse.d, 1.0).solve(rhs)
        b, _, _, _ = XUpdateSolver(s0, coarse.d, 0.5).solve(rhs)
        assert np.allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))

    def test_singular_operator_solved_to_min_norm(self):
        # S = 0 with the chain D leaves D^T D singular (constants are in its
        # null space): the consistent system is still solved, to its
        # minimum-norm solution
        d = _chain_ops()
        n = d.shape[1]
        z = np.random.default_rng(24).normal(size=2 * n)
        rhs = d.T @ z
        x, _, _, _ = XUpdateSolver(np.zeros((60, n)), d, 1.0).solve(rhs)
        dtd = (d.T @ d).toarray()
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(dtd @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)
        min_norm = np.linalg.pinv(dtd) @ rhs
        assert np.linalg.norm(x - min_norm) <= 1e-8 * np.linalg.norm(min_norm)

    @pytest.mark.parametrize("kind", ["zero", "zero_row_sums"])
    def test_zero_kappa_gives_the_pseudo_inverse_solution(self, kind):
        # with S 1 = 0 the constants stay in the operator's null space and
        # the Schur complement kappa = (S 1)^T C^-1 S 1 is 0: the constant
        # mode is left at 0, which is the pseudo-inverse's answer; integer
        # entries make the row sums exactly 0
        d = _chain_ops()
        n = d.shape[1]
        rng = np.random.default_rng(33)
        s = np.zeros((60, n))
        if kind == "zero_row_sums":
            s[:, :-1] = rng.integers(-3, 4, size=(60, n - 1))
            s[:, -1] = -s[:, :-1].sum(axis=1)
        rho = 1e3  # brings S^T S / rho to the scale of the chain Laplacian
        op = s.T @ s / rho + (d.T @ d).toarray()
        rhs = op @ rng.normal(size=n)  # consistent
        x, _, _, _ = XUpdateSolver(s, d, rho).solve(rhs)
        want = np.linalg.pinv(op) @ rhs
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def _dense_x_update(s, d, rho, rhs):
    m = s.T @ s / rho + (d.T @ d).toarray()
    return np.linalg.solve(m, rhs)


class TestXUpdateSolver:
    def _admm_rhs(self, s, d, rho, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=s.shape[0])
        w = rng.normal(size=2 * s.shape[1])
        return s.T @ b / rho + d.T @ w

    def test_matches_dense_solve_coarse(self, coarse):
        s, rho = coarse.s, 1e-10
        rhs = self._admm_rhs(s, coarse.d, rho, 25)
        x, _, _, _ = XUpdateSolver(s, coarse.d, rho).solve(rhs)
        want = _dense_x_update(s, coarse.d, rho, rhs)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    def test_matches_dense_solve_chain_with_zero_dy_rows(self):
        d = _chain_ops()
        s = np.random.default_rng(26).normal(size=(60, 40)) / np.sqrt(40)
        rho = 1e-6
        rhs = self._admm_rhs(s, d, rho, 27)
        solver = XUpdateSolver(s, d, rho)
        want = _dense_x_update(s, d, rho, rhs)
        assert np.linalg.norm(solver.solve(rhs)[0] - want) <= 1e-10 * np.linalg.norm(want)

    def test_inconsistent_rhs_on_singular_operator_reports_its_residual(self, monkeypatch):
        # the operator is singular: a right-hand side with a component
        # along the constants misses the residual tolerance, which solve
        # reports for the caller to judge, and computes no condition number
        d = _chain_ops()
        solver = XUpdateSolver(np.zeros((60, 40)), d, 1.0)
        rhs = d.T @ np.random.default_rng(28).normal(size=80) + 1.0
        monkeypatch.setattr(np.linalg, "cond", lambda *args: pytest.fail("cond called"))
        x, _, _, rel = solver.solve(rhs)
        assert x.shape == rhs.shape and rel.shape == (1,)
        assert rel[0] > _RESIDUAL_TOL
        op = (d.T @ d).toarray()
        assert rel[0] == pytest.approx(np.linalg.norm(rhs - op @ x) / np.linalg.norm(rhs),
                                       rel=1e-6)

    def _rhs_block(self, s, d, rho, k):
        return np.column_stack([self._admm_rhs(s, d, rho, 40 + j) for j in range(k)])

    def test_block_solve_meets_residual_per_column(self, coarse):
        s, rho, d = coarse.s, 1e-10, coarse.d
        rhs = self._rhs_block(s, coarse.d, rho, 6)
        x, _, _, _ = XUpdateSolver(s, coarse.d, rho).solve(rhs)
        assert x.shape == rhs.shape
        for j in range(rhs.shape[1]):
            r = rhs[:, j] - (s.T @ (s @ x[:, j]) / rho + d.T @ (d @ x[:, j]))
            assert np.linalg.norm(r) <= _RESIDUAL_TOL * np.linalg.norm(rhs[:, j])

    def test_block_solve_matches_single_columns(self, coarse):
        s, rho = coarse.s, 1e-10
        solver = XUpdateSolver(s, coarse.d, rho)
        rhs = self._rhs_block(s, coarse.d, rho, 6)
        rhs[:, 2] = 0.0  # a zero column keeps the zero solution
        block, _, _, _ = solver.solve(rhs)
        for j in range(rhs.shape[1]):
            single, _, _, _ = solver.solve(rhs[:, j])
            assert single.shape == (s.shape[1],)
            assert np.linalg.norm(block[:, j] - single) <= 1e-10 * np.linalg.norm(single)

    def test_shipped_size_block_matches_single_solves(self, coarse):
        # one multi-column SuperLU solve of a 35-column sweep block rounds
        # differently from 35 single solves; each meets the 1e-10 residual
        # target in one shot, and the two agree to 7.7e-13
        s, rho = coarse.s, 1e-10
        solver = XUpdateSolver(s, coarse.d, rho)
        rhs = self._rhs_block(s, coarse.d, rho, 35)
        singles = np.column_stack([solver.solve(rhs[:, j])[0] for j in range(35)])
        assert np.linalg.norm(solver.solve(rhs)[0] - singles) <= 5e-12 * np.linalg.norm(singles)

    def test_one_column_block_is_bitwise_the_vector_solve(self, coarse):
        s, rho = coarse.s, 1e-10
        solver = XUpdateSolver(s, coarse.d, rho)
        rhs = self._admm_rhs(s, coarse.d, rho, 47)
        assert np.array_equal(solver.solve(rhs[:, None])[0][:, 0], solver.solve(rhs)[0])

    def test_block_column_missing_residual_is_named(self):
        d = _chain_ops()
        solver = XUpdateSolver(np.zeros((60, 40)), d, 1.0)
        rng = np.random.default_rng(29)
        rhs = np.column_stack([d.T @ rng.normal(size=80) for _ in range(3)])
        rhs[:, 1] += 1.0  # a component along the constants cannot be solved
        _, _, _, rel = solver.solve(rhs)
        assert rel[1] > 1e-8
        assert rel[0] <= _RESIDUAL_TOL and rel[2] <= _RESIDUAL_TOL

    def test_shipped_size_block_needs_no_correction(self, coarse, monkeypatch):
        # the 35 columns of a sweep block at the shipped inverse size: one
        # application of the Woodbury solve meets the refinement target in
        # every column
        s, rho, d = coarse.s, 1e-10, coarse.d
        solver = XUpdateSolver(s, coarse.d, rho)
        rhs = self._rhs_block(s, coarse.d, rho, 35)
        applied = []
        real = XUpdateSolver._woodbury_solve

        def spy(self, r):
            applied.append(r.shape[1])
            return real(self, r)

        monkeypatch.setattr(XUpdateSolver, "_woodbury_solve", spy)
        x, _, _, _ = solver.solve(rhs)
        assert applied == [35]
        for j in range(35):
            r = rhs[:, j] - (s.T @ (s @ x[:, j]) / rho + d.T @ (d @ x[:, j]))
            assert np.linalg.norm(r) <= _RESIDUAL_TOL * np.linalg.norm(rhs[:, j])

    def test_rho_below_the_capacitance_bound_is_refused(self, coarse):
        # the bound is 1 + |S W|_1 / rho on cond(C), with W = L^+ S^T: the
        # smallest admissible rho scales with S^2, and no rho literal sets it
        with pytest.raises(SolverError, match="smallest admissible rho") as info:
            XUpdateSolver(coarse.s, coarse.d, 1e-20)
        min_rho = info.value.diagnostics["min_rho"]
        assert 1e-18 < min_rho < 1e-17  # 5.2e-18 at the shipped inverse size
        with pytest.raises(SolverError, match="rho"):
            XUpdateSolver(coarse.s, coarse.d, 0.99 * min_rho)
        XUpdateSolver(coarse.s, coarse.d, 1.01 * min_rho)
        with pytest.raises(SolverError) as info:
            XUpdateSolver(2.0 * coarse.s, coarse.d, 1e-20)
        assert info.value.diagnostics["min_rho"] == pytest.approx(4.0 * min_rho, rel=1e-12)

    def test_rho_above_the_constant_mode_bound_is_refused(self, coarse, x_update):
        # the bound is rho N |D^T D|_1 / |S 1|^2 <= _CONSTANT_MODE_GAIN: the
        # largest admissible rho scales with S^2 and no rho sets it
        max_rho = x_update.max_rho
        assert 1e-4 < max_rho < 1e-3  # 4.1e-4 at the shipped inverse size
        assert XUpdateSolver(coarse.s, coarse.d, 1e-6).max_rho == max_rho
        with pytest.raises(SolverError, match="largest admissible rho") as info:
            XUpdateSolver(coarse.s, coarse.d, 1.01 * max_rho)
        assert info.value.diagnostics == {"max_rho": max_rho}
        XUpdateSolver(coarse.s, coarse.d, 0.99 * max_rho)
        assert XUpdateSolver(2.0 * coarse.s, coarse.d, 1e-10).max_rho == pytest.approx(
            4.0 * max_rho, rel=1e-12)

    @pytest.mark.parametrize("end", ["min_rho", "max_rho"])
    def test_shipped_sweep_block_at_both_ends_of_the_rho_interval(self, coarse, model7,
                                                                  x_update, end):
        # the 35 columns of the shipped sweep, held to 20 iterations, meet the
        # residual tolerance in every x-update just inside either bound
        from eitkit.pipeline import PipelineConfig

        cfg = PipelineConfig()
        rho = {"min_rho": 1.01 * x_update.min_rho, "max_rho": 0.99 * x_update.max_rho}[end]
        cells = [(ratio * rho, delta) for ratio in cfg.sweep_lambda_over_rho
                 for delta in cfg.sweep_delta]
        results = reconstruct_block(XUpdateSolver(coarse.s, coarse.d, rho), model7.dv_noisy,
                                    *zip(*cells), tol=1e-300, keep_history=False)
        assert [getattr(r, "n_iterations", r) for r in results] == [20] * 35

    def test_block_solve_on_singular_operator(self):
        d = _chain_ops()
        solver = XUpdateSolver(np.zeros((60, 40)), d, 1.0)
        rng = np.random.default_rng(31)
        rhs = d.T @ rng.normal(size=(80, 5))  # consistent: no constants
        x, _, _, _ = solver.solve(rhs)
        dtd = d.T @ d
        for j in range(5):
            assert np.linalg.norm(dtd @ x[:, j] - rhs[:, j]) <= 1e-8 * np.linalg.norm(rhs[:, j])

    @pytest.mark.filterwarnings("error")
    def test_residual_contract_holds_where_squares_overflow(self, coarse):
        # |rhs|^2 overflows at this scale: the norms are taken scaled, so the
        # solve is refined as at unit scale rather than passed as inf <= inf
        s, rho = coarse.s, 1e-10
        solver = XUpdateSolver(s, coarse.d, rho)
        rhs = self._admm_rhs(s, coarse.d, rho, 25)
        x, _, _, _ = solver.solve(rhs)
        big, _, _, _ = solver.solve(rhs * 1e160)
        assert np.linalg.norm(big / 1e160 - x) <= 1e-10 * np.linalg.norm(x)

    def test_failed_capacitance_factorization_is_a_solver_error(self, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cholesky", fail)
        s = np.random.default_rng(26).normal(size=(60, 40))
        with pytest.raises(SolverError, match="capacitance") as info:
            XUpdateSolver(s, _chain_ops(), 1e-6)
        assert info.value.diagnostics["capacitance_condition"] >= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sensitivity_rejected(self, bad):
        mesh = generate_disk_mesh(0.1, 256)
        s = np.random.default_rng(32).normal(size=(208, mesh.n_elements))
        s[3, 5] = bad
        with pytest.raises(ValueError, match="S has non-finite"):
            XUpdateSolver(s, build_difference_operators(mesh), 1e-10)

    def test_shared_solver_gives_identical_iterates(self, coarse, model7, x_update):
        fresh = XUpdateSolver(coarse.s, coarse.d, RHO)
        a = reconstruct_nwatv(x_update, model7.dv_noisy, LAM, max_iters=3)
        b = reconstruct_nwatv(fresh, model7.dv_noisy, LAM, max_iters=3)
        assert np.array_equal(a.history, b.history)

    def test_concurrent_solves_match_serial(self, coarse):
        # solve() keeps no per-call state on the solver, so one shared
        # solver may serve callers on several threads
        import sys
        import threading

        s, rho = coarse.s, 1e-10
        solver = XUpdateSolver(s, coarse.d, rho)
        rhs = [self._admm_rhs(s, coarse.d, rho, 30 + k) for k in range(12)]
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
            assert all(np.array_equal(a, w) for out in got for a, w in zip(out, want))

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
        sb = coarse.s[:, boundary]
        lam_b = 1e12 * np.linalg.norm(sb.T @ sb, 2)
        out = preprocess_boundary(dv, coarse.s, boundary, lam_b)
        assert np.linalg.norm(out - dv) <= 1e-6 * np.linalg.norm(dv)

    def test_small_weight_removes_boundary_span(self, coarse):
        rng = np.random.default_rng(13)
        boundary = coarse.mesh.boundary_elements()
        sb = coarse.s[:, boundary]
        dv = sb @ rng.normal(size=len(boundary))
        lam_b = 1e-8 * np.linalg.norm(sb.T @ sb, 2)
        out = preprocess_boundary(dv, coarse.s, boundary, lam_b)
        assert np.linalg.norm(out) <= 0.01 * np.linalg.norm(dv)

    def test_shape_preserved_at_default_weight(self, coarse):
        rng = np.random.default_rng(14)
        dv = rng.normal(size=208)
        out = preprocess_boundary(dv, coarse.s, coarse.mesh.boundary_elements(), 1e-7)
        assert out.shape == dv.shape


class TestReconstructNwatv:
    def test_zero_data_zero_fixed_point(self, coarse, x_update):
        res = reconstruct_nwatv(x_update, np.zeros(208), LAM)
        assert res.termination == "tol"
        assert res.n_iterations == 1
        assert np.array_equal(res.final, np.zeros(coarse.mesh.n_elements))

    def test_model7_error_decreases(self, coarse, model7, x_update):
        res = reconstruct_nwatv(x_update, model7.dv_noisy, LAM)
        truth = 1.0 + model7.delta_true
        re = [
            np.linalg.norm((1.0 + h) - truth) / np.linalg.norm(truth)
            for h in res.history
        ]
        assert re[19] < re[0]
        assert res.n_iterations == 20

    @pytest.mark.parametrize("rho", [1e-17])
    def test_small_rho_runs_every_iteration(self, coarse, model7, rho):
        # above the capacitance bound (5.2e-18 here) the x-update meets the
        # residual contract in every iteration
        res = reconstruct_nwatv(XUpdateSolver(coarse.s, coarse.d, rho), model7.dv_noisy, LAM)
        assert (res.n_iterations, res.termination) == (20, "max_iters")

    def test_deterministic(self, model7, x_update):
        a = reconstruct_nwatv(x_update, model7.dv_noisy, LAM)
        b = reconstruct_nwatv(x_update, model7.dv_noisy, LAM)
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.final, b.final)

    def test_huge_tol_stops_after_one_iteration(self, model7, x_update):
        res = reconstruct_nwatv(x_update, model7.dv_noisy, LAM, tol=1e30)
        assert res.n_iterations == 1
        assert res.termination == "tol"

    def test_tol_termination_consistent(self, model7, x_update):
        res = reconstruct_nwatv(x_update, model7.dv_noisy, LAM, tol=1e-4, max_iters=200)
        if res.termination == "tol":
            assert res.step_norm[-1] < 1e-4
            assert np.all(res.step_norm[:-1] >= 1e-4)

    def test_diagnostics_lengths(self, model7, x_update):
        res = reconstruct_nwatv(x_update, model7.dv_noisy, LAM)
        n = res.n_iterations
        assert len(res.data_residual) == n
        assert len(res.step_norm) == n
        assert len(res.wall_ms) == n
        assert res.history.shape[0] == n
        assert np.all(res.wall_ms > 0)

    def test_iteration_order_matches_manual_steps(self, coarse, model7):
        """Pin the update order: x-solve, z with previous weights, weight
        refresh, dual ascent; weights start at one."""
        s, d = coarse.s, coarse.d
        dv = model7.dv_noisy
        n = coarse.mesh.n_elements
        lam, rho, delta = 5e-13, 1e-10, 0.01
        solver = XUpdateSolver(s, d, rho)
        z = np.zeros(2 * n)
        y = np.zeros(2 * n)
        p = np.ones(n)
        history = []
        for _ in range(3):
            x, _, _, _ = solver.solve(s.T @ dv / rho + d.T @ (z - y / rho))
            z = z_update(d @ x + y / rho, p, lam, rho)
            p = nwatv_weights(d @ x, delta)
            y = y + rho * (d @ x - z)
            history.append(x)
        res = reconstruct_nwatv(solver, model7.dv_noisy, lam, delta, max_iters=3, tol=1e-30)
        assert np.allclose(res.history, np.array(history), atol=1e-12, rtol=0)


_SINGLE = {"nwatv": reconstruct_nwatv, "fotv": reconstruct_fotv, "tv": reconstruct_tv_isotropic}


class _CountingLU:
    """A SuperLU factor that records the column count of each solve."""

    def __init__(self, lu):
        self.lu, self.columns = lu, []

    def solve(self, r):
        self.columns.append(r.shape[1])
        return self.lu.solve(r)


class TestOneSolvePerIteration:
    """Each ADMM iteration makes exactly one SuperLU block solve."""

    def test_shipped_sweep_block(self, coarse, model7, monkeypatch):
        solver = XUpdateSolver(coarse.s, coarse.d, RHO)
        counting = _CountingLU(solver._lu)
        monkeypatch.setattr(solver, "_lu", counting)
        ratios = 5e-3 * np.logspace(-2.0, 2.0, 7)  # the shipped 7 x 5 grid
        lams, deltas = np.repeat(ratios * RHO, 5), np.tile(np.logspace(-3.0, -1.0, 5), 7)
        results = reconstruct_block(solver, model7.dv_noisy, lams, deltas, keep_history=False)
        assert {r.n_iterations for r in results} == {20}
        assert counting.columns == [35] * 20

    def test_4k_single_reconstruction(self, coarse, model7, monkeypatch):
        from eitkit.forward import sensitivity_matrix
        from eitkit.mesh import place_electrodes

        mesh = generate_disk_mesh(0.1, 4096)
        layout = place_electrodes(mesh, 16, angles=coarse.layout.angles)
        solver = XUpdateSolver(sensitivity_matrix(mesh, layout, 1.0),
                               build_difference_operators(mesh), RHO)
        counting = _CountingLU(solver._lu)
        monkeypatch.setattr(solver, "_lu", counting)
        res = reconstruct_nwatv(solver, model7.dv_noisy, LAM)
        assert res.n_iterations == 20
        assert counting.columns == [1] * 20


class TestReconstructBlock:
    LAMS = [5e-14, 5e-13, 5e-12]
    DELTAS = [0.001, 0.01, 0.1]

    @pytest.mark.parametrize("variant", sorted(_SINGLE))
    def test_columns_match_single_reconstructions(self, model7, x_update, variant):
        block = reconstruct_block(
            x_update, model7.dv_noisy, self.LAMS, self.DELTAS, variant=variant, max_iters=4
        )
        for lam, delta, got in zip(self.LAMS, self.DELTAS, block):
            want = _SINGLE[variant](x_update, model7.dv_noisy, lam, delta, max_iters=4)
            assert (got.termination, got.n_iterations) == (want.termination, want.n_iterations)
            assert got.history.shape == want.history.shape
            gap = np.linalg.norm(got.history - want.history)
            assert gap <= 1e-10 * np.linalg.norm(want.history)
            assert np.allclose(got.data_residual, want.data_residual, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("variant", sorted(_SINGLE))
    def test_sweep_cells_stay_close_to_their_single_solves(self, model7, x_update, variant):
        # the 7 shipped lam/rho ratios at delta 0.01, as one block: after 20
        # iterations a column's final field is at most 3.2e-10 (nwatv),
        # 1.4e-11 (fotv) and 9.8e-12 (tv) of its K = 1 solve's largest entry
        # away from that solve, at one BLAS thread; 1e-9 leaves a 3x margin
        from eitkit.pipeline import PipelineConfig

        lams = [ratio * RHO for ratio in PipelineConfig().sweep_lambda_over_rho]
        block = reconstruct_block(x_update, model7.dv_noisy, lams, [0.01] * len(lams),
                                  variant=variant, keep_history=False)
        for lam, got in zip(lams, block):
            (want,) = reconstruct_block(x_update, model7.dv_noisy, [lam], [0.01],
                                        variant=variant, keep_history=False)
            assert (got.termination, got.n_iterations) == (want.termination, want.n_iterations)
            assert np.abs(got.final - want.final).max() <= 1e-9 * np.abs(want.final).max()

    def test_columns_stop_on_their_own_tol(self, coarse, model7, x_update):
        # at tol 1e-2 the lam = 5e-11 column stops at iteration 13 and the
        # lam = 5e-9 column runs out its 30 iterations
        lams, deltas = [5e-11, 5e-9], [0.01, 0.01]
        block = reconstruct_block(
            x_update, model7.dv_noisy, lams, deltas, variant="fotv", max_iters=30, tol=1e-2,
            keep_history=False,
        )
        assert [r.termination for r in block] == ["tol", "max_iters"]
        for lam, got in zip(lams, block):
            want = reconstruct_fotv(x_update, model7.dv_noisy, lam, max_iters=30, tol=1e-2)
            assert got.n_iterations == want.n_iterations
            assert got.history.shape == (0, coarse.mesh.n_elements)
            assert np.linalg.norm(got.final - want.final) <= 1e-10 * np.linalg.norm(want.final)

    def test_traces_end_where_each_column_stops(self, coarse, model7, x_update):
        # the same two columns with histories kept: each column's traces
        # hold its own iterations only, none of the rows after it stopped
        block = reconstruct_block(
            x_update, model7.dv_noisy, [5e-11, 5e-9], [0.01, 0.01], variant="fotv",
            max_iters=30, tol=1e-2,
        )
        assert [r.n_iterations for r in block] == [13, 30]
        for got in block:
            m = got.n_iterations
            assert got.history.shape == (m, coarse.mesh.n_elements)
            assert len(got.data_residual) == len(got.wall_ms) == m
            assert np.array_equal(got.history[-1], got.final)
            assert np.all(np.isfinite(got.data_residual)) and np.all(np.isfinite(got.step_norm))
        assert np.array_equal(block[0].wall_ms, block[1].wall_ms[:13])

    def test_unbounded_max_iters_allocates_nothing_up_front(self, model7, x_update):
        # max_iters has no upper bound, so nothing may be sized from it
        import tracemalloc

        tracemalloc.start()
        try:
            (result,) = reconstruct_block(
                x_update, model7.dv_noisy, [LAM], [0.01], max_iters=10**9, tol=1e300
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.termination, result.n_iterations) == ("tol", 1)
        assert peak < 4 * 2**20

    def test_failed_column_does_not_stop_the_others(self, model7, x_update, monkeypatch):
        real = XUpdateSolver.solve

        def poisoned(self, rhs):
            # a NaN right-hand side in the middle column of the full block
            if rhs.ndim == 2 and rhs.shape[1] == 3:
                rhs = rhs.copy()
                rhs[:, 1] = np.nan
            return real(self, rhs)

        monkeypatch.setattr(XUpdateSolver, "solve", poisoned)
        block = reconstruct_block(x_update, model7.dv_noisy, self.LAMS, self.DELTAS, max_iters=3)
        assert isinstance(block[1], SolverError)
        assert block[1].diagnostics["iteration"] == 1 and block[1].diagnostics["column"] == 1
        for c in (0, 2):
            assert isinstance(block[c], ReconResult) and block[c].n_iterations == 3
            assert np.all(np.isfinite(block[c].final))

    def test_every_column_failing_costs_one_block_solve_and_its_corrections(
            self, model7, x_update, monkeypatch):
        # x 1e305 the data overflow S^T b / rho: every column of the shipped
        # 35-cell sweep misses the x-update residual at iteration 1 and leaves
        # at the stop filter, after one block solve and its 5 corrections
        from eitkit.pipeline import PipelineConfig

        cfg = PipelineConfig()
        cells = [(ratio * RHO, delta) for ratio in cfg.sweep_lambda_over_rho
                 for delta in cfg.sweep_delta]
        applied = []
        real = XUpdateSolver._woodbury_solve

        def spy(self, r):
            applied.append(r.shape[1])
            return real(self, r)

        monkeypatch.setattr(XUpdateSolver, "_woodbury_solve", spy)
        block = reconstruct_block(x_update, model7.dv_noisy * 1e305, *zip(*cells))
        assert applied == [35] * 6
        for c, got in enumerate(block):
            assert isinstance(got, SolverError)
            assert str(got) == "iteration 1: x-update residual nan above 1e-10"
            diagnostics = dict(got.diagnostics)
            assert np.isnan(diagnostics.pop("relative_residual"))
            assert diagnostics == {"column": c, "iteration": 1, "min_rho": x_update.min_rho,
                                   "max_rho": x_update.max_rho}

    def test_x_update_error_stands_over_a_weight_failure(self, model7, x_update, monkeypatch):
        # a NaN x-update also gives NaN weights, which fail the reweight of
        # the same iteration: the column reports the x-update, its first error
        real = XUpdateSolver.solve

        def poisoned(self, rhs):
            if rhs.shape[1] == 3:  # the first block, which holds every column
                rhs = rhs.copy()
                rhs[:, 1] = np.nan
            return real(self, rhs)

        monkeypatch.setattr(XUpdateSolver, "solve", poisoned)
        block = reconstruct_block(x_update, model7.dv_noisy, self.LAMS, self.DELTAS, max_iters=3)
        x_nan = np.full((2 * model7.delta_true.size, 1), np.nan)
        assert not np.all(nwatv_weights(x_nan, self.DELTAS[1]) > 0)
        assert str(block[1]).startswith("iteration 1: x-update residual nan above 1e-10")
        assert block[1].diagnostics.keys() == {"column", "iteration", "relative_residual",
                                               "min_rho", "max_rho"}
        assert [r.n_iterations for r in (block[0], block[2])] == [3, 3]

    def test_single_reconstruction_raises_its_column_error(self, model7, x_update, monkeypatch):
        real = XUpdateSolver.solve
        monkeypatch.setattr(XUpdateSolver, "solve", lambda self, rhs: real(self, rhs * np.nan))
        with pytest.raises(SolverError, match="iteration 1: x-update residual") as info:
            reconstruct_nwatv(x_update, model7.dv_noisy, LAM)
        assert info.value.diagnostics["iteration"] == 1 and info.value.diagnostics["column"] == 0

    @pytest.mark.filterwarnings("error")
    def test_zero_weights_stop_their_column(self, model7, x_update):
        # x 1e154 the first reweight overflows |g|^2: the weights reach 0,
        # which the next shrink would refuse, so each column stops there
        block = reconstruct_block(x_update, model7.dv_noisy * 1e154, [LAM, 0.0], [0.01, 0.01])
        for c, got in enumerate(block):
            assert isinstance(got, SolverError) and "weights" in str(got)
            assert got.diagnostics == {"column": c, "iteration": 1}

    def test_rejects_mismatched_parameters(self, model7, x_update):
        with pytest.raises(ValueError, match="lams and deltas"):
            reconstruct_block(x_update, model7.dv_noisy, [5e-13], [0.01, 0.1])
        with pytest.raises(ValueError, match="delta > 0"):
            reconstruct_block(x_update, model7.dv_noisy, [5e-13], [0.0])


class TestBaselines:
    def test_fotv_equals_nwatv_at_lambda_zero(self, model7, x_update):
        a = reconstruct_nwatv(x_update, model7.dv_noisy, 0.0, max_iters=5)
        b = reconstruct_fotv(x_update, model7.dv_noisy, 0.0, max_iters=5)
        assert np.array_equal(a.history, b.history)

    def test_lambda_zero_reaches_least_squares_fixed_point(self):
        # small well-conditioned instance: the lam=0 fixed point satisfies
        # the unregularized normal equations (rho small so the data term
        # dominates the stationary part and the iteration contracts fast)
        n = 40
        d = _chain_ops(n)
        rng = np.random.default_rng(21)
        s = rng.normal(size=(60, n)) / np.sqrt(n)
        b = s @ rng.normal(size=n)
        res = reconstruct_fotv(XUpdateSolver(s, d, 1e-6), b, 0.0, max_iters=500, tol=1e-15)
        lstsq = np.linalg.lstsq(s, b, rcond=None)[0]
        assert np.linalg.norm(res.final - lstsq) <= 1e-8 * np.linalg.norm(lstsq)

    def test_fotv_y_block_zero_for_zero_y_gradient(self, coarse):
        # a field with no variation along the y-selected neighbors keeps the
        # y-block of the split variable at zero after one update
        n = coarse.mesh.n_elements
        w = np.concatenate([np.random.default_rng(22).normal(size=n), np.zeros(n)])
        z = z_update(w, np.ones(n), 1.0, 2.0)
        assert np.array_equal(z[n:], np.zeros(n))

    def test_tikhonov_limits(self, coarse, model7):
        small, huge = reconstruct_tikhonov(coarse.s, model7.dv_noisy, [1e-12, 1e12])
        assert np.linalg.norm(huge.final) <= 1e-6 * np.linalg.norm(small.final)

    def test_tikhonov_recovers_unit_vector(self):
        rng = np.random.default_rng(23)
        s = rng.normal(size=(40, 12)) + 3 * np.eye(40, 12)
        e3 = np.zeros(12)
        e3[3] = 1.0
        dv = s @ e3
        (out,) = reconstruct_tikhonov(s, dv, [1e-10])
        assert np.linalg.norm(out.final - e3) <= 1e-6

    def test_tikhonov_linear_in_data(self, coarse, model7):
        (a,) = reconstruct_tikhonov(coarse.s, model7.dv_noisy, [1e-6])
        (b,) = reconstruct_tikhonov(coarse.s, 2.0 * model7.dv_noisy, [1e-6])
        assert np.allclose(b.final, 2.0 * a.final, rtol=1e-12, atol=0)

    def test_tikhonov_matches_primal_normal_equations(self, coarse, model7):
        # the M x M form S^T (S S^T + lam I)^-1 b equals the N x N ridge solve
        s, b, lam = coarse.s, model7.dv_noisy, 1e-6
        want = np.linalg.solve(s.T @ s + lam * np.eye(s.shape[1]), s.T @ b)
        (got,) = reconstruct_tikhonov(coarse.s, model7.dv_noisy, [lam])
        assert np.linalg.norm(got.final - want) <= 1e-10 * np.linalg.norm(want)

    def test_tikhonov_failed_lam_is_its_entry_and_others_match_single_calls(self, coarse, model7):
        # S S^T is singular to working precision, so lam 1e-20 fails its
        # Cholesky factorization; the lams around it are those of one-lam calls
        lams = [1e-6, 1e-20, 1e-3]
        results = reconstruct_tikhonov(coarse.s, model7.dv_noisy, lams)
        assert len(results) == 3 and isinstance(results[1], SolverError)
        assert "ridge_condition" in results[1].diagnostics
        for lam, got in zip(lams[::2], results[::2]):
            (want,) = reconstruct_tikhonov(coarse.s, model7.dv_noisy, [lam])
            assert got.termination == "direct" and np.array_equal(got.final, want.final)
            assert np.array_equal(got.data_residual, want.data_residual)

    def test_tikhonov_rejects_nonpositive_lambda(self, coarse, model7):
        # and a lams that is not a nonempty sequence
        for lams in ([0.0], [1e-6, -1.0], [], 1e-6, [[1e-6]]):
            with pytest.raises(ValueError, match="nonempty sequence of values > 0"):
                reconstruct_tikhonov(coarse.s, model7.dv_noisy, lams)

    def test_tikhonov_rejects_data_of_another_length(self, coarse, model7):
        with pytest.raises(ValueError, match="rows but data has length"):
            reconstruct_tikhonov(coarse.s, model7.dv_noisy[:-1], [1e-6])

    def test_isotropic_tv_runs_and_differs(self, model7, x_update):
        a = reconstruct_tv_isotropic(x_update, model7.dv_noisy, LAM, max_iters=5)
        b = reconstruct_fotv(x_update, model7.dv_noisy, LAM, max_iters=5)
        assert a.history.shape == b.history.shape
        assert not np.array_equal(a.final, b.final)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "name, value",
        [("lam", -1e-13), ("rho", 0.0), ("delta", 0.0), ("max_iters", 0), ("tol", 0.0)],
    )
    def test_rejected(self, coarse, x_update, name, value):
        with pytest.raises(ValueError, match=name):
            if name == "rho":
                XUpdateSolver(coarse.s, coarse.d, value)
            else:
                reconstruct_nwatv(x_update, np.zeros(208), **{"lam": LAM, name: value})


    @pytest.mark.parametrize("call, match", [
        (lambda c, xu: XUpdateSolver(c.s, c.d[:, :-1], RHO),
         "difference operators do not match the sensitivity columns"),
        (lambda c, xu: reconstruct_block(xu, np.zeros(208), [LAM], [0.01], variant="iso"),
         r"variant must be one of \('nwatv', 'fotv', 'tv'\), got 'iso'"),
        (lambda c, xu: reconstruct_block(xu, np.zeros(207), [LAM], [0.01]),
         "S has 208 rows but data has length 207"),
        (lambda c, xu: preprocess_boundary(np.zeros(208), c.s, [0, 1], 0.0),
         "lambda_b must be > 0, got 0.0"),
        (lambda c, xu: preprocess_boundary(np.zeros(208), c.s, [], 1e-3),
         "boundary element set is empty"),
        (lambda c, xu: preprocess_boundary(np.zeros(207), c.s, [0, 1], 1e-3),
         "S has 208 rows but data has length 207"),
        (lambda c, xu: group_shrink(np.ones(4), -1.0), "threshold must be nonnegative"),
    ], ids=["solver-columns", "variant", "block-data-length", "lambda-b", "boundary-empty",
            "boundary-data-length", "group-threshold"])
    def test_input_checks(self, coarse, x_update, call, match):
        with pytest.raises(ValueError, match=match):
            call(coarse, x_update)


class TestPreprocessIntegration:
    def test_preprocess_changes_result(self, coarse, model7, x_update):
        boundary = coarse.mesh.boundary_elements()
        cleaned = preprocess_boundary(model7.dv_noisy, coarse.s, boundary, 1e-7)
        a = reconstruct_nwatv(x_update, model7.dv_noisy, LAM, max_iters=5)
        b = reconstruct_nwatv(x_update, cleaned, LAM, max_iters=5)
        assert not np.array_equal(a.final, b.final)

    def test_preprocess_helps_only_where_the_data_carry_a_boundary_artifact(self):
        # 256 / 1,024 elements, 50 dB, seed 42, shipped lam, rho and lambda_b,
        # 20 iterations; RE of sigma0 + x against the phantom on the inverse
        # mesh, measured off -> on: a central inclusion whose data also carry
        # a 1.3 S/m ring at r > 0.093, 0.0736 -> 0.0436; the interior lung 7
        # phantom, 0.0373 -> 0.0440
        from eitkit.forward import add_noise, sensitivity_matrix, signed_difference, simulate_frame
        from eitkit.mesh import place_electrodes

        mesh = generate_disk_mesh(0.1, 256)
        layout = place_electrodes(mesh, 16)
        s = sensitivity_matrix(mesh, layout, 1.0)
        solver = XUpdateSolver(s, build_difference_operators(mesh), RHO)
        fine = generate_disk_mesh(0.1, 1024)
        fine_layout = place_electrodes(fine, 16, angles=layout.angles)
        v_ref = simulate_frame(fine, fine_layout, np.ones(fine.n_elements))
        central = PhantomSpec(1.0, (Inclusion((0.0, 0.0), (0.02, 0.0), (0.0, 0.02), 1.1),))
        ring = np.linalg.norm(fine.element_centroids, axis=1) > 0.093
        re = {}
        for name, spec in (("ring", central), ("interior", lung_model(7))):
            sigma = assign_conductivity(fine, spec)
            if name == "ring":
                sigma[ring] = 1.3  # in the data only, not in the truth
            v_pert = simulate_frame(fine, fine_layout, sigma)
            dv = add_noise(signed_difference(v_ref, v_pert), 50.0, 42)
            truth = assign_conductivity(mesh, spec)
            for pre in (False, True):
                b = preprocess_boundary(dv, s, mesh.boundary_elements(), 1e-7) if pre else dv
                x = reconstruct_nwatv(solver, b, LAM).final
                re[name, pre] = np.linalg.norm(1.0 + x - truth) / np.linalg.norm(truth)
        assert re["ring", True] < 0.7 * re["ring", False]
        assert re["interior", True] > 1.1 * re["interior", False]
