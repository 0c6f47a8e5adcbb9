"""Forward solver, voltage protocol, sensitivity matrix, noise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitkit import (
    ConductivityField,
    LINEARIZATION_SIGN,
    SensitivityMatrix,
    VoltageFrame,
    add_noise,
    assemble_stiffness,
    assign_conductivity,
    generate_disk_mesh,
    load_frames,
    lung_model,
    pattern_pairs,
    place_electrodes,
    save_frames,
    sensitivity_matrix,
    signed_difference,
    simulate_frame,
    solve_potentials,
)
from eitkit.mesh import TriMesh


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


class TestAssembleStiffness:
    def test_nullspace_constant(self):
        mesh = generate_disk_mesh(0.1, 1024)
        k = assemble_stiffness(mesh, ConductivityField.homogeneous(1.0, mesh.n_elements))
        resid = np.abs(k @ np.ones(mesh.n_nodes)).max()
        assert resid <= 1e-12 * np.abs(k.data).max()

    def test_linear_in_sigma(self):
        mesh = generate_disk_mesh(0.1, 512)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 2.0, mesh.n_elements)
        k1 = assemble_stiffness(mesh, ConductivityField(vals))
        # power-of-two scale: bit-exact; general scale: a few ulp
        k2 = assemble_stiffness(mesh, ConductivityField(2.0 * vals))
        assert (k2 - 2.0 * k1).nnz == 0 or np.abs((k2 - 2.0 * k1).data).max() == 0.0
        k3 = assemble_stiffness(mesh, ConductivityField(3.0 * vals))
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
            boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
            element_centroids=nodes.mean(axis=0, keepdims=True),
            element_areas=np.array([0.5]),
            element_neighbors=np.full((1, 3), -1),
        )
        k = assemble_stiffness(mesh, ConductivityField(np.array([1.0]))).toarray()
        want = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(k, want, atol=1e-15)

    def test_rejects_nonpositive_sigma(self):
        mesh = generate_disk_mesh(0.1, 256)
        with pytest.raises(ValueError):
            ConductivityField(np.zeros(mesh.n_elements))


class TestSolvePotentials:
    def test_residual_contract(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        sigma = ConductivityField.homogeneous(1.0, mesh.n_elements)
        k = assemble_stiffness(mesh, sigma)
        pots = solve_potentials(k, layout, current=1.0)
        e = layout.count
        for j in range(e):
            f = np.zeros(mesh.n_nodes)
            f[layout.node_ids[j]] = 1.0
            f[layout.node_ids[(j + 1) % e]] = -1.0
            r = np.linalg.norm(k @ pots.potentials[:, j] - f) / np.linalg.norm(f)
            assert r <= 1e-10

    def test_zero_mean_grounding(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        k = assemble_stiffness(mesh, ConductivityField.homogeneous(1.0, mesh.n_elements))
        pots = solve_potentials(k, layout)
        means = pots.potentials[layout.node_ids].mean(axis=0)
        assert np.abs(means).max() < 1e-12 * np.abs(pots.potentials).max()

    def test_antisymmetry_under_mirror_drive(self):
        # +I/-I at exact x-mirror boundary nodes: the generated mesh is
        # node-symmetric under x -> -x, and the solution flips sign
        mesh = generate_disk_mesh(0.1, 4096)
        k = assemble_stiffness(mesh, ConductivityField.homogeneous(1.0, mesh.n_elements))
        bn = mesh.boundary_nodes()
        ang = np.arctan2(mesh.nodes[bn, 1], mesh.nodes[bn, 0])
        src = bn[np.argmin(np.abs(np.angle(np.exp(1j * (ang - np.pi / 6)))))]
        key = np.round(mesh.nodes / 1e-12).astype(np.int64)
        lookup = {(int(x), int(y)): i for i, (x, y) in enumerate(key)}
        mirror = np.array([lookup[(-int(x), int(y))] for x, y in key])
        snk = mirror[src]
        assert snk != src

        from eitkit.forward import _GroundedSolver

        f = np.zeros(mesh.n_nodes)
        f[src], f[snk] = 1.0, -1.0
        u = _GroundedSolver(k).solve(f)
        u -= u.mean()
        assert np.abs(u + u[mirror]).max() <= 1e-8 * np.abs(u).max()

    def test_scaling_inverse_in_sigma(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        k1 = assemble_stiffness(mesh, ConductivityField.homogeneous(1.0, mesh.n_elements))
        k2 = assemble_stiffness(mesh, ConductivityField.homogeneous(2.0, mesh.n_elements))
        u1 = solve_potentials(k1, layout).potentials
        u2 = solve_potentials(k2, layout).potentials
        assert np.abs(u2 - u1 / 2.0).max() <= 1e-12 * np.abs(u1).max()

    def test_matches_analytic_disk_solution(self):
        # Green's-function oracle away from the injection neighborhood
        mesh = generate_disk_mesh(0.1, 4096)
        layout = place_electrodes(mesh, 16)
        k = assemble_stiffness(mesh, ConductivityField.homogeneous(1.0, mesh.n_elements))
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

    @settings(max_examples=20, deadline=None)
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
            coarse.mesh, coarse.layout, ConductivityField.homogeneous(1.0, coarse.mesh.n_elements)
        )
        assert len(frame) == 208

    def test_reciprocity(self, coarse):
        fields = [
            ConductivityField.homogeneous(1.0, coarse.mesh.n_elements),
            assign_conductivity(coarse.mesh, lung_model(7)),
        ]
        pairs = pattern_pairs(16)
        index = {pq: n for n, pq in enumerate(pairs)}
        for sigma in fields:
            v = simulate_frame(coarse.mesh, coarse.layout, sigma).data
            vmax = np.abs(v).max()
            for (j, i), n in index.items():
                m = index.get((i, j))
                if m is not None:
                    assert abs(v[n] - v[m]) <= 1e-8 * vmax

    def test_conductivity_scaling(self, coarse):
        base = ConductivityField.homogeneous(1.0, coarse.mesh.n_elements)
        v1 = simulate_frame(coarse.mesh, coarse.layout, base).data
        for c in (0.5, 2.0, 10.0):
            vc = simulate_frame(
                coarse.mesh,
                coarse.layout,
                ConductivityField.homogeneous(c, coarse.mesh.n_elements),
            ).data
            assert np.abs(vc - v1 / c).max() <= 1e-10 * np.abs(v1).max()

    def test_voltage_frame_validates_length(self):
        with pytest.raises(ValueError):
            VoltageFrame(np.zeros(207), 16)


class TestSensitivityMatrix:
    def test_shape(self, coarse):
        assert coarse.s.matrix.shape == (208, coarse.mesh.n_elements)

    def test_reciprocity_of_rows(self, coarse):
        pairs = pattern_pairs(16)
        index = {pq: n for n, pq in enumerate(pairs)}
        m = coarse.s.matrix
        for (j, i), n in index.items():
            swapped = index.get((i, j))
            if swapped is not None:
                assert np.array_equal(m[n], m[swapped])

    def test_rejects_nonhomogeneous_reference(self, coarse):
        rng = np.random.default_rng(1)
        bumpy = ConductivityField(rng.uniform(0.9, 1.1, coarse.mesh.n_elements))
        with pytest.raises(ValueError):
            sensitivity_matrix(coarse.mesh, coarse.layout, bumpy)

    def test_column_correlation_decays_with_distance(self, coarse):
        m = coarse.s.matrix
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
        v0 = simulate_frame(coarse.mesh, coarse.layout, ConductivityField.homogeneous(1.0, n))
        v1 = simulate_frame(
            coarse.mesh, coarse.layout, ConductivityField.homogeneous(1.0 + eps, n)
        )
        observed = signed_difference(v0, v1)
        predicted = coarse.s.matrix @ (eps * np.ones(n))
        rel = np.linalg.norm(predicted - observed) / np.linalg.norm(observed)
        assert rel < 0.05
        # sign agreement, not just magnitude
        assert predicted @ observed > 0

    def test_reference_scaling(self, coarse):
        s2 = sensitivity_matrix(
            coarse.mesh,
            coarse.layout,
            ConductivityField.homogeneous(2.0, coarse.mesh.n_elements),
        )
        assert np.allclose(s2.matrix * 4.0, coarse.s.matrix, rtol=1e-10, atol=0)

    def test_sign_constant_exposed(self):
        assert LINEARIZATION_SIGN == -1.0


class TestLinearization:
    def test_model7_residual_under_15_percent(self, coarse, model7):
        predicted = coarse.s.matrix @ model7.delta_true
        observed = model7.dv_clean.data
        rel = np.linalg.norm(predicted - observed) / np.linalg.norm(observed)
        assert rel < 0.15


class TestAddNoise:
    def _frame(self):
        rng = np.random.default_rng(5)
        return VoltageFrame(rng.normal(size=208) * 1e-3, 16)

    def test_infinite_snr_identity(self):
        f = self._frame()
        out = add_noise(f, np.inf, seed=0)
        assert np.array_equal(out.data, f.data)
        assert out is not f

    def test_zero_frame_rejected(self):
        with pytest.raises(ValueError):
            add_noise(VoltageFrame(np.zeros(208), 16), 50.0, seed=0)

    def test_deterministic(self):
        f = self._frame()
        a = add_noise(f, 50.0, seed=123)
        b = add_noise(f, 50.0, seed=123)
        assert np.array_equal(a.data, b.data)
        c = add_noise(f, 50.0, seed=124)
        assert not np.array_equal(a.data, c.data)

    def test_empirical_snr_monte_carlo(self):
        f = self._frame()
        ratios = []
        for seed in range(100):
            noisy = add_noise(f, 50.0, seed=seed)
            noise = noisy.data - f.data
            ratios.append(
                20 * np.log10(np.linalg.norm(f.data) / np.linalg.norm(noise))
            )
        assert np.mean(ratios) == pytest.approx(50.0, abs=0.5)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError):
            add_noise(self._frame(), float("nan"), seed=0)


class TestFrameIO:
    def test_multi_frame_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = [VoltageFrame(rng.normal(size=208) * 1e-4, 16) for _ in range(3)]
        path = tmp_path / "frames.txt"
        save_frames(path, frames)
        back = load_frames(path)
        assert len(back) == 3
        for a, b in zip(back, frames):
            assert np.array_equal(a.data, b.data)
            assert a.electrode_count == 16

    @settings(max_examples=25, deadline=None)
    @given(
        e=st.integers(4, 9),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, tmp_path_factory, e, k, seed):
        rng = np.random.default_rng(seed)
        frames = [VoltageFrame(rng.normal(size=e * (e - 3)), e) for _ in range(k)]
        path = tmp_path_factory.mktemp("frames") / "frames.txt"
        save_frames(path, frames)
        back = load_frames(path)
        assert [f.electrode_count for f in back] == [e] * k
        for a, b in zip(back, frames):
            assert np.array_equal(a.data, b.data)

    def test_layout(self, tmp_path):
        path = tmp_path / "frames.txt"
        save_frames(path, [VoltageFrame([0.5, -1.0, 2.0, 1e-7], 4)])
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
        a = VoltageFrame(rng.normal(size=208), 16)
        b = VoltageFrame(rng.normal(size=208), 16)
        assert np.array_equal(signed_difference(a, b), LINEARIZATION_SIGN * (b.data - a.data))
