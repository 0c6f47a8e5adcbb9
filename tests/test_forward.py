"""Forward solver, voltage protocol, sensitivity matrix, noise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from eitkit import forward
from eitkit.forward import (
    LINEARIZATION_SIGN,
    DrivePotentials,
    SolverError,
    _element_gradients,
    _refine,
    add_noise,
    assemble_stiffness,
    extract_voltages,
    load_frames,
    pattern_pairs,
    save_frames,
    sensitivity_matrix,
    signed_difference,
    simulate_frame,
    solve_potentials,
)
from eitkit.mesh import TriMesh, generate_disk_mesh, place_electrodes
from eitkit.phantom import assign_conductivity, lung_model


def _grounded_solve(k, f):
    """K u = f with u[0] = 0 for one right-hand side (n,) or a block (n, k),
    through the refinement contract of solve_potentials."""
    lu = splu(k[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A")
    return _refine(lambda r: np.insert(lu.solve(r[1:]), 0, 0.0, axis=0), k.dot, f,
                   tol=forward._RESIDUAL_TOL, steps=8, what="FEM solve", key="drive")


def _two_point_disk_potential(nodes, src, snk, current=1.0, sigma=1.0):
    """Analytic potential for +I at src, -I at snk on the unit-conductivity
    disk: superposed boundary point-source logarithms (oracle, independent
    of the FEM code)."""
    d_src = np.linalg.norm(nodes - src, axis=1)
    d_snk = np.linalg.norm(nodes - snk, axis=1)
    return current / (np.pi * sigma) * (np.log(d_snk) - np.log(d_src))


def _hop_distance_mask(mesh, seeds, hops):
    """Nodes within `hops` edges of any seed node."""
    adj = [[] for _ in range(mesh.n_nodes)]
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            adj[tri[a]].append(tri[b])
            adj[tri[b]].append(tri[a])
    dist = np.full(mesh.n_nodes, np.iinfo(np.int32).max)
    frontier = list(seeds)
    for s in seeds:
        dist[s] = 0
    d = 0
    while frontier and d < hops:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] > d:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist <= hops


def _reference_extract_voltages(potentials, layout):
    """The per-pattern loop extract_voltages replaced (oracle)."""
    e = layout.count
    ue = potentials.potentials[layout.node_ids, :]
    return np.array([ue[i, j] - ue[(i + 1) % e, j] for j, i in pattern_pairs(e)])


def _reference_sensitivity_rows(mesh, layout, potentials):
    """The per-pattern loop sensitivity_matrix replaced (oracle)."""
    gx, gy = _element_gradients(mesh, potentials.potentials)
    area_over_i = mesh.element_areas / potentials.current
    return np.vstack([
        area_over_i * (gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j])
        for j, i in pattern_pairs(layout.count)
    ])


def _drive_block(n_nodes, layout, current=1.0):
    """(n_nodes, E) right-hand sides built one drive at a time."""
    e = layout.count
    f = np.zeros((n_nodes, e))
    for j in range(e):
        f[layout.node_ids[j], j] += current
        f[layout.node_ids[(j + 1) % e], j] -= current
    return f


class TestAssembleStiffness:
    def test_nullspace_constant(self):
        mesh = generate_disk_mesh(0.1, 1024)
        k = assemble_stiffness(mesh, np.full(mesh.n_elements, 1.0))
        resid = np.abs(k @ np.ones(mesh.n_nodes)).max()
        assert resid <= 1e-12 * np.abs(k.data).max()

    def test_linear_in_sigma(self):
        mesh = generate_disk_mesh(0.1, 512)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 2.0, mesh.n_elements)
        k1 = assemble_stiffness(mesh, vals)
        # power-of-two scale: bit-exact; general scale: a few ulp
        k2 = assemble_stiffness(mesh, 2.0 * vals)
        assert (k2 - 2.0 * k1).nnz == 0 or np.abs((k2 - 2.0 * k1).data).max() == 0.0
        k3 = assemble_stiffness(mesh, 3.0 * vals)
        scale = np.abs(k1.data).max()
        assert np.abs((k3 - 3.0 * k1).data).max() <= 1e-14 * scale

    def test_reference_triangle_local_matrix(self):
        # hand computation for vertices (0,0), (1,0), (0,1), sigma = 1:
        # grad phi = (-1,-1), (1,0), (0,1); area 1/2
        # K_ij = area * grad_i . grad_j
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        mesh = TriMesh(
            nodes=nodes,
            triangles=tris,
            boundary_nodes=np.array([0, 1, 2]),
            element_centroids=nodes.mean(axis=0, keepdims=True),
            element_areas=np.array([0.5]),
            element_neighbors=np.full((1, 3), -1),
        )
        k = assemble_stiffness(mesh, np.array([1.0])).toarray()
        want = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(k, want, atol=1e-15)

    def test_rejects_nonpositive_sigma(self):
        mesh = generate_disk_mesh(0.1, 256)
        n = mesh.n_elements
        for sigma in (np.zeros(n), np.r_[np.ones(n - 1), -1.0], np.r_[np.ones(n - 1), np.nan]):
            with pytest.raises(ValueError, match="strictly positive"):
                assemble_stiffness(mesh, sigma)
        for sigma in (np.ones(n - 1), np.ones((n, 1)), 1.0):
            with pytest.raises(ValueError, match="shape"):
                assemble_stiffness(mesh, sigma)


class TestSolvePotentials:
    def test_residual_contract(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        sigma = np.full(mesh.n_elements, 1.0)
        k = assemble_stiffness(mesh, sigma)
        pots = solve_potentials(k, layout, current=1.0)
        e = layout.count
        for j in range(e):
            f = np.zeros(mesh.n_nodes)
            f[layout.node_ids[j]] = 1.0
            f[layout.node_ids[(j + 1) % e]] = -1.0
            r = np.linalg.norm(k @ pots.potentials[:, j] - f) / np.linalg.norm(f)
            assert r <= 1e-10

    @pytest.fixture(scope="class")
    def block4k(self):
        mesh = generate_disk_mesh(0.1, 4096)
        layout = place_electrodes(mesh, 16)
        k = assemble_stiffness(mesh, assign_conductivity(mesh, lung_model(7)))
        return k, layout, _drive_block(mesh.n_nodes, layout)

    def test_block_solve_meets_residual_per_column(self, block4k):
        k, layout, f = block4k
        pots = solve_potentials(k, layout)
        rel = np.linalg.norm(k @ pots.potentials - f, axis=0) / np.linalg.norm(f, axis=0)
        assert rel.shape == (16,) and rel.max() <= 1e-10

    def test_block_solve_matches_single_columns(self, block4k):
        k, _, f = block4k
        block = _grounded_solve(k, f)
        assert block.shape == f.shape
        for j in range(f.shape[1]):
            single = _grounded_solve(k, f[:, j])
            assert single.shape == (k.shape[0],)
            assert np.linalg.norm(block[:, j] - single) <= 1e-12 * np.linalg.norm(single)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("current", [1.0, 1e300])
    def test_missed_residual_names_a_drive(self, block4k, monkeypatch, current):
        # no reachable residual meets 1e-18; at 1e300 mA the squares of the
        # right-hand side overflow, and the residual must still be measured
        k, layout, _ = block4k
        monkeypatch.setattr(forward, "_RESIDUAL_TOL", 1e-18)
        with pytest.raises(SolverError, match="FEM solve residual") as info:
            solve_potentials(k, layout, current=current)
        drive = info.value.diagnostics["drive"]
        assert isinstance(drive, int) and 0 <= drive < layout.count
        assert 0 < info.value.diagnostics["relative_residual"] < 1e-12

    def test_zero_mean_grounding(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        k = assemble_stiffness(mesh, np.full(mesh.n_elements, 1.0))
        pots = solve_potentials(k, layout)
        means = pots.potentials[layout.node_ids].mean(axis=0)
        assert np.abs(means).max() < 1e-12 * np.abs(pots.potentials).max()

    def test_antisymmetry_under_mirror_drive(self):
        # +I/-I at exact x-mirror boundary nodes: the generated mesh is
        # node-symmetric under x -> -x, and the solution flips sign
        mesh = generate_disk_mesh(0.1, 4096)
        k = assemble_stiffness(mesh, np.full(mesh.n_elements, 1.0))
        bn = mesh.boundary_nodes
        ang = np.arctan2(mesh.nodes[bn, 1], mesh.nodes[bn, 0])
        src = bn[np.argmin(np.abs(np.angle(np.exp(1j * (ang - np.pi / 6)))))]
        key = np.round(mesh.nodes / 1e-12).astype(np.int64)
        lookup = {(int(x), int(y)): i for i, (x, y) in enumerate(key)}
        mirror = np.array([lookup[(-int(x), int(y))] for x, y in key])
        snk = mirror[src]
        assert snk != src

        f = np.zeros(mesh.n_nodes)
        f[src], f[snk] = 1.0, -1.0
        u = _grounded_solve(k, f)
        u -= u.mean()
        assert np.abs(u + u[mirror]).max() <= 1e-8 * np.abs(u).max()

    def test_scaling_inverse_in_sigma(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        k1 = assemble_stiffness(mesh, np.full(mesh.n_elements, 1.0))
        k2 = assemble_stiffness(mesh, np.full(mesh.n_elements, 2.0))
        u1 = solve_potentials(k1, layout).potentials
        u2 = solve_potentials(k2, layout).potentials
        assert np.abs(u2 - u1 / 2.0).max() <= 1e-12 * np.abs(u1).max()

    def test_matches_analytic_disk_solution(self):
        # Green's-function oracle away from the injection neighborhood
        mesh = generate_disk_mesh(0.1, 4096)
        layout = place_electrodes(mesh, 16)
        k = assemble_stiffness(mesh, np.full(mesh.n_elements, 1.0))
        pots = solve_potentials(k, layout, current=1.0)
        u = pots.potentials[:, 0]
        src = mesh.nodes[layout.node_ids[0]]
        snk = mesh.nodes[layout.node_ids[1]]
        keep = ~_hop_distance_mask(mesh, [layout.node_ids[0], layout.node_ids[1]], 2)
        exact = _two_point_disk_potential(mesh.nodes[keep], src, snk)
        diff = u[keep] - exact
        diff -= diff.mean()  # gauge: both defined up to a constant
        rel = np.linalg.norm(diff) / np.linalg.norm(exact - exact.mean())
        assert rel < 0.02


class TestVoltageProtocol:
    def test_pattern_count_and_exclusions(self):
        pairs = pattern_pairs(16)
        assert len(pairs) == 16 * 13
        for j, i in pairs:
            assert i not in {(j - 1) % 16, j, (j + 1) % 16}
        assert len(set(pairs)) == len(pairs)

    @settings(max_examples=20)
    @given(e=st.integers(min_value=4, max_value=24))
    def test_pattern_properties_any_e(self, e):
        pairs = pattern_pairs(e)
        assert len(pairs) == e * (e - 3)
        assert len(set(pairs)) == len(pairs)
        for j, i in pairs:
            assert 0 <= j < e and 0 <= i < e
            assert i not in {(j - 1) % e, j, (j + 1) % e}

    def test_frame_length(self, coarse):
        frame = simulate_frame(
            coarse.mesh, coarse.layout, np.full(coarse.mesh.n_elements, 1.0)
        )
        assert len(frame) == 208

    def test_reciprocity(self, coarse):
        fields = [
            np.full(coarse.mesh.n_elements, 1.0),
            assign_conductivity(coarse.mesh, lung_model(7)),
        ]
        pairs = pattern_pairs(16)
        index = {pq: n for n, pq in enumerate(pairs)}
        for sigma in fields:
            v = simulate_frame(coarse.mesh, coarse.layout, sigma)
            vmax = np.abs(v).max()
            for (j, i), n in index.items():
                m = index.get((i, j))
                if m is not None:
                    assert abs(v[n] - v[m]) <= 1e-8 * vmax

    def test_conductivity_scaling(self, coarse):
        base = np.full(coarse.mesh.n_elements, 1.0)
        v1 = simulate_frame(coarse.mesh, coarse.layout, base)
        for c in (0.5, 2.0, 10.0):
            vc = simulate_frame(
                coarse.mesh,
                coarse.layout,
                np.full(coarse.mesh.n_elements, c),
            )
            assert np.abs(vc - v1 / c).max() <= 1e-10 * np.abs(v1).max()

    @pytest.mark.parametrize("e", [4, 7, 16])
    def test_extract_matches_loop_oracle(self, coarse, e):
        layout = place_electrodes(coarse.mesh, e)
        rng = np.random.default_rng(e)
        pots = DrivePotentials(rng.normal(size=(coarse.mesh.n_nodes, e)), current=1.0)
        got = extract_voltages(pots, layout)
        assert got.tobytes() == _reference_extract_voltages(pots, layout).tobytes()

    def test_voltage_frame_validates_length(self, tmp_path):
        for length in (0, 3, 5, 207):
            with pytest.raises(ValueError, match=f"frame length {length} is not E\\*\\(E-3\\)"):
                save_frames(tmp_path / "frames.txt", [np.zeros(208), np.zeros(length)])


class TestSensitivityMatrix:
    def test_shape(self, coarse):
        assert type(coarse.s) is np.ndarray
        assert coarse.s.shape == (208, coarse.mesh.n_elements)

    def test_matches_loop_oracle(self, coarse):
        sigma0 = np.full(coarse.mesh.n_elements, 1.0)
        pots = solve_potentials(assemble_stiffness(coarse.mesh, sigma0), coarse.layout)
        want = _reference_sensitivity_rows(coarse.mesh, coarse.layout, pots)
        assert coarse.s.flags.c_contiguous
        assert coarse.s.tobytes() == want.tobytes()

    def test_reciprocity_of_rows(self, coarse):
        pairs = pattern_pairs(16)
        index = {pq: n for n, pq in enumerate(pairs)}
        m = coarse.s
        for (j, i), n in index.items():
            swapped = index.get((i, j))
            if swapped is not None:
                assert np.array_equal(m[n], m[swapped])

    def test_column_correlation_decays_with_distance(self, coarse):
        m = coarse.s
        cols = m / np.linalg.norm(m, axis=0, keepdims=True)
        cent = coarse.mesh.element_centroids
        adjacent, far = [], []
        for k, nbrs in enumerate(coarse.mesh.element_neighbors.tolist()):
            for l in nbrs:
                if l > k:
                    adjacent.append(abs(cols[:, k] @ cols[:, l]))
        rng = np.random.default_rng(2)
        n = coarse.mesh.n_elements
        while len(far) < 2000:
            k, l = rng.integers(0, n, size=2)
            if np.linalg.norm(cent[k] - cent[l]) > 0.5 * 0.1:
                far.append(abs(cols[:, k] @ cols[:, l]))
        assert np.mean(far) < np.mean(adjacent)

    def test_uniform_perturbation_two_solve_oracle(self, coarse):
        # fixes the sign convention: S @ (eps*1) must approximate the signed
        # difference of two forward solves at sigma0 and sigma0*(1+eps)
        eps = 1e-3
        n = coarse.mesh.n_elements
        v0 = simulate_frame(coarse.mesh, coarse.layout, np.full(n, 1.0))
        v1 = simulate_frame(
            coarse.mesh, coarse.layout, np.full(n, 1.0 + eps)
        )
        observed = signed_difference(v0, v1)
        predicted = coarse.s @ (eps * np.ones(n))
        rel = np.linalg.norm(predicted - observed) / np.linalg.norm(observed)
        assert rel < 0.05
        # sign agreement, not just magnitude
        assert predicted @ observed > 0

    def test_reference_scaling(self, coarse):
        s2 = sensitivity_matrix(coarse.mesh, coarse.layout, 2.0)
        assert np.allclose(s2 * 4.0, coarse.s, rtol=1e-10, atol=0)

    def test_sign_constant_exposed(self):
        assert LINEARIZATION_SIGN == -1.0


class TestLinearization:
    def test_model7_residual_under_15_percent(self, coarse, model7):
        predicted = coarse.s @ model7.delta_true
        observed = model7.dv_clean
        rel = np.linalg.norm(predicted - observed) / np.linalg.norm(observed)
        assert rel < 0.15


class TestAddNoise:
    def _frame(self):
        rng = np.random.default_rng(5)
        return rng.normal(size=208) * 1e-3

    def test_infinite_snr_identity(self):
        f = self._frame()
        out = add_noise(f, np.inf, seed=0)
        assert np.array_equal(out, f)
        assert out is not f

    def test_zero_frame_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(208), 50.0, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_frame_whose_squares_overflow(self):
        # |frame|^2 overflows, and the noise is still scaled to |frame|
        f = self._frame()
        scaled = add_noise(f * 1e305, 50.0, seed=0) / 1e305
        assert np.allclose(scaled, add_noise(f, 50.0, seed=0), rtol=1e-14, atol=0)

    def test_deterministic(self):
        f = self._frame()
        a = add_noise(f, 50.0, seed=123)
        b = add_noise(f, 50.0, seed=123)
        assert np.array_equal(a, b)
        c = add_noise(f, 50.0, seed=124)
        assert not np.array_equal(a, c)

    def test_empirical_snr_monte_carlo(self):
        f = self._frame()
        ratios = []
        for seed in range(100):
            noisy = add_noise(f, 50.0, seed=seed)
            noise = noisy - f
            ratios.append(
                20 * np.log10(np.linalg.norm(f) / np.linalg.norm(noise))
            )
        assert np.mean(ratios) == pytest.approx(50.0, abs=0.5)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError):
            add_noise(self._frame(), float("nan"), seed=0)


class TestFrameIO:
    def test_multi_frame_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = [rng.normal(size=208) * 1e-4 for _ in range(3)]
        path = tmp_path / "frames.txt"
        save_frames(path, frames)
        back = load_frames(path)
        assert back.shape == (3, 208) and back.dtype == float
        assert np.array_equal(back, frames)

    @settings(max_examples=25)
    @given(
        e=st.integers(4, 9),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, tmp_path_factory, e, k, seed):
        rng = np.random.default_rng(seed)
        frames = [rng.normal(size=e * (e - 3)) for _ in range(k)]
        path = tmp_path_factory.mktemp("frames") / "frames.txt"
        save_frames(path, frames)
        back = load_frames(path)
        assert back.shape == (k, e * (e - 3)) and back.dtype == float
        assert np.array_equal(back, frames)

    def test_layout(self, tmp_path):
        path = tmp_path / "frames.txt"
        save_frames(path, [[0.5, -1.0, 2.0, 1e-7]])
        assert path.read_text() == "# frame 1 4\n1 3 0.5\n2 4 -1.0\n3 1 2.0\n4 2 1e-07\n"

    @pytest.mark.parametrize(
        "rows, line, match",
        [
            (["1 3 0.5", "2 4 -1.0", "3 1 2.0", "4 2 1e-07", "1 2 0.0"], 1, "E\\*\\(E-3\\)"),
            (["1 3 0.5", "2 4 -1.0", "1 3 2.0", "4 2 1e-07"], 4, "drive 3 measure 1"),
        ],
        ids=["length_not_protocol", "out_of_protocol_order"],
    )
    def test_protocol_errors_name_the_line(self, tmp_path, rows, line, match):
        path = tmp_path / "frames.txt"
        path.write_text(f"# frame 1 {len(rows)}\n" + "".join(r + "\n" for r in rows))
        with pytest.raises(ValueError, match=match) as info:
            load_frames(path)
        assert str(info.value).startswith(f"{path}:{line}: ")

    def test_signed_difference_definition(self, tmp_path):
        rng = np.random.default_rng(13)
        a = rng.normal(size=208)
        b = rng.normal(size=208)
        assert np.array_equal(signed_difference(a, b), LINEARIZATION_SIGN * (b - a))
