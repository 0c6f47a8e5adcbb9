"""Mesh generation, electrodes, difference operators, rasterization, IO."""

import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from eitkit.forward import load_frames, save_frames
from eitkit.inverse import DIRECTION_THRESHOLD, build_difference_operators
from eitkit.mesh import (
    RING_GROWTH,
    _finish_mesh,
    generate_disk_mesh,
    load_element_values,
    load_field_series,
    place_electrodes,
    raster_extent,
    raster_index,
    rasterize,
    save_element_values,
    save_mesh,
)
from eitkit.phantom import assign_conductivity, lung_model


def _reference_disk_mesh(radius, n_rings):
    """Per-node and per-triangle loops over the rings; oracle for the
    vectorized construction in generate_disk_mesh."""
    nodes = [(0.0, 0.0)]
    for m in range(1, n_rings + 1):
        r = radius * m / n_rings
        count = RING_GROWTH * m
        for j in range(count):
            theta = 2.0 * math.pi * j / count
            nodes.append((r * math.cos(theta), r * math.sin(theta)))
    start = [1 + 3 * m * (m - 1) for m in range(n_rings + 1)]
    triangles = [(0, start[1] + j, start[1] + (j + 1) % RING_GROWTH) for j in range(RING_GROWTH)]
    for m in range(2, n_rings + 1):
        no, ni = RING_GROWTH * m, RING_GROWTH * (m - 1)
        for s in range(RING_GROWTH):
            outer = [start[m] + (s * m + t) % no for t in range(m + 1)]
            inner = [start[m - 1] + (s * (m - 1) + t) % ni for t in range(m)]
            triangles += [(outer[t], outer[t + 1], inner[t]) for t in range(m)]
            triangles += [(inner[t], outer[t + 1], inner[t + 1]) for t in range(m - 1)]
    nodes, triangles = np.asarray(nodes, dtype=float), np.asarray(triangles, dtype=int)
    p = nodes[triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    triangles[flip] = triangles[flip][:, ::-1]
    return _finish_mesh(nodes, triangles, _reference_boundary_loop(triangles)[:, 0])


def _reference_rasterize(mesh, values, resolution):
    """Per-element painting loop; the first triangle to claim a pixel
    center keeps it. Oracle for the vectorized raster index."""
    ext = raster_extent(mesh)
    step = 2.0 * ext / resolution
    centers = -ext + step * (np.arange(resolution) + 0.5)
    image = np.full((resolution, resolution), np.nan)

    eps = 1e-12 * ext
    for k in range(mesh.n_elements):
        pa, pb, pc = mesh.nodes[mesh.triangles[k]]
        xmin = min(pa[0], pb[0], pc[0])
        xmax = max(pa[0], pb[0], pc[0])
        ymin = min(pa[1], pb[1], pc[1])
        ymax = max(pa[1], pb[1], pc[1])
        ix0 = np.searchsorted(centers, xmin - eps)
        ix1 = np.searchsorted(centers, xmax + eps)
        iy0 = np.searchsorted(centers, ymin - eps)
        iy1 = np.searchsorted(centers, ymax + eps)
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        gx, gy = np.meshgrid(centers[ix0:ix1], centers[iy0:iy1])
        # inclusive barycentric sign test; first-painted triangle wins on edges
        d1 = (gx - pb[0]) * (pa[1] - pb[1]) - (pa[0] - pb[0]) * (gy - pb[1])
        d2 = (gx - pc[0]) * (pb[1] - pc[1]) - (pb[0] - pc[0]) * (gy - pc[1])
        d3 = (gx - pa[0]) * (pc[1] - pa[1]) - (pc[0] - pa[0]) * (gy - pa[1])
        inside = (d1 >= -eps) & (d2 >= -eps) & (d3 >= -eps)
        inside |= (d1 <= eps) & (d2 <= eps) & (d3 <= eps)
        block = image[iy0:iy1, ix0:ix1]
        write = inside & np.isnan(block)
        block[write] = values[k]
    return image


def _reference_neighbors(triangles):
    """Per-edge dictionary of owners; oracle for the edge table's
    neighbour array (as sorted tuples)."""
    edge_owners = {}
    for k, tri in enumerate(triangles.tolist()):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edge_owners.setdefault(key, []).append(k)
    neighbors = [[] for _ in range(len(triangles))]
    for owners in edge_owners.values():
        if len(owners) == 2:
            a, b = owners
            neighbors[a].append(b)
            neighbors[b].append(a)
    return tuple(tuple(sorted(n)) for n in neighbors)


def _reference_boundary_loop(triangles):
    """Edges owned by exactly one triangle, walked from the lowest node;
    oracle for the edge table's boundary loop."""
    owners = {}
    directed = {}
    for tri in triangles.tolist():
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            owners[key] = owners.get(key, 0) + 1
            directed[key] = (tri[a], tri[b])
    nxt = {}
    for key, n in owners.items():
        if n == 1:
            a, b = directed[key]
            nxt[a] = b
    start = min(nxt)
    loop = [start]
    cur = nxt[start]
    while cur != start:
        loop.append(cur)
        cur = nxt[cur]
    return np.array(
        [(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))], dtype=int
    )


def _reference_disk_boundary(mesh):
    """The outermost ring traversed counter-clockwise, as the disk
    generator lays it out."""
    n_rings = round(math.sqrt(mesh.n_elements / RING_GROWTH))
    sb = 1 + 3 * n_rings * (n_rings - 1)
    nb = RING_GROWTH * n_rings
    return np.array([(sb + j, sb + (j + 1) % nb) for j in range(nb)], dtype=int)


def _reference_boundary_elements(mesh):
    loop = mesh.boundary_nodes.tolist()
    edge_set = {tuple(sorted(e)) for e in zip(loop, loop[1:] + loop[:1])}
    hits = []
    for k, tri in enumerate(mesh.triangles.tolist()):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            if tuple(sorted((tri[a], tri[b]))) in edge_set:
                hits.append(k)
                break
    return np.asarray(hits, dtype=int)


def _reference_difference_operators(mesh):
    """Per-element loop over ascending neighbours with a strict `>`;
    oracle for the vectorized argmax."""
    n = mesh.n_elements
    c = mesh.element_centroids
    neighbors = _reference_neighbors(mesh.triangles)
    rows_x, cols_x, vals_x = [], [], []
    rows_y, cols_y, vals_y = [], [], []
    for k in range(n):
        best_dx, best_lx = 0.0, -1
        best_dy, best_ly = 0.0, -1
        for l in neighbors[k]:
            d = c[l] - c[k]
            dist = math.hypot(d[0], d[1])
            if d[0] > DIRECTION_THRESHOLD * dist and d[0] > best_dx:
                best_dx, best_lx = d[0], l
            if d[1] > DIRECTION_THRESHOLD * dist and d[1] > best_dy:
                best_dy, best_ly = d[1], l
        if best_lx >= 0:
            rows_x += [k, k]
            cols_x += [k, best_lx]
            vals_x += [-1.0 / best_dx, 1.0 / best_dx]
        if best_ly >= 0:
            rows_y += [k, k]
            cols_y += [k, best_ly]
            vals_y += [-1.0 / best_dy, 1.0 / best_dy]
    dx = sp.csr_matrix((vals_x, (rows_x, cols_x)), shape=(n, n))
    dy = sp.csr_matrix((vals_y, (rows_y, cols_y)), shape=(n, n))
    return dx, dy


def _read_mesh_text(path):
    """The nodes, triangles and electrode ids of a save_mesh file, parsed
    here: a count line before each block, node coordinates as their
    ``repr``, nothing after the electrode block."""
    lines = Path(path).read_text().splitlines()
    blocks, at = [], 0
    for width in (2, 3, 1):
        count = int(lines[at])
        rows = [line.split() for line in lines[at + 1 : at + 1 + count]]
        assert len(rows) == count and all(len(row) == width for row in rows)
        blocks.append(rows)
        at += 1 + count
    assert at == len(lines)
    nodes, triangles, electrodes = blocks
    assert all(cell == repr(float(cell)) for row in nodes for cell in row)
    return (
        np.array(nodes, dtype=float).reshape(-1, 2),
        np.array(triangles, dtype=int).reshape(-1, 3),
        np.array(electrodes, dtype=int).ravel(),
    )


def _assert_topology_matches_reference(mesh, tmp_dir):
    want = _reference_neighbors(mesh.triangles)
    got = mesh.element_neighbors
    assert got.shape == (mesh.n_elements, 3) and got.dtype == np.dtype(int)
    assert tuple(tuple(l for l in row if l >= 0) for row in got.tolist()) == want
    # -1 pads the end of each row
    assert ((got < 0) <= (np.roll(got, -1, axis=1) < 0))[:, :2].all()

    loop = _reference_boundary_loop(mesh.triangles)[:, 0]
    assert mesh.boundary_nodes.shape == loop.shape
    assert mesh.boundary_nodes.tobytes() == loop.tobytes()
    assert mesh.boundary_nodes.tobytes() == _reference_disk_boundary(mesh)[:, 0].tobytes()
    # the saved text holds the exact mesh, and its triangles give the same
    # topology again
    path = Path(tmp_dir) / "mesh.txt"
    layout = place_electrodes(mesh, 4)
    save_mesh(path, mesh, layout)
    nodes, triangles, electrodes = _read_mesh_text(path)
    assert nodes.tobytes() == mesh.nodes.tobytes()
    assert triangles.tobytes() == mesh.triangles.tobytes()
    assert electrodes.tobytes() == layout.node_ids.tobytes()
    rebuilt = _finish_mesh(nodes, triangles, loop)
    assert rebuilt.element_neighbors.tobytes() == got.tobytes()

    assert mesh.boundary_elements().tobytes() == (
        _reference_boundary_elements(mesh).tobytes()
    )

    d = build_difference_operators(mesh)
    n = mesh.n_elements
    for mat, ref in zip((d[:n], d[n:]), _reference_difference_operators(mesh)):
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(mat, attr), getattr(ref, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _signed_area(nodes, tri):
    a, b, c = nodes[tri]
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


class TestGenerateDiskMesh:
    def test_reference_scale_counts(self):
        mesh = generate_disk_mesh(0.1, 1024)
        assert abs(mesh.n_elements - 1024) <= 0.30 * 1024
        # published discretization for this setup: 1024 elements, 545 nodes
        assert abs(mesh.n_nodes - 545) <= 0.05 * 545

    def test_total_area_unit_disk(self):
        mesh = generate_disk_mesh(1.0, 64)
        assert mesh.element_areas.sum() == pytest.approx(np.pi, rel=0.05)

    def test_invariants_4096(self):
        mesh = generate_disk_mesh(0.1, 4096)
        assert (mesh.element_areas > 0).all()
        for tri in mesh.triangles:
            assert _signed_area(mesh.nodes, tri) > 0  # CCW
        # boundary edges: single closed loop, each owned by exactly one triangle
        loop = mesh.boundary_nodes
        assert len(set(loop.tolist())) == len(loop)
        edge_owner = {}
        for k, tri in enumerate(mesh.triangles):
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = frozenset((tri[a], tri[b]))
                edge_owner.setdefault(key, []).append(k)
        for a, b in zip(loop, np.roll(loop, -1)):
            assert len(edge_owner[frozenset((a, b))]) == 1
        # neighbor symmetry
        for k, nbrs in enumerate(mesh.element_neighbors.tolist()):
            for l in nbrs:
                if l >= 0:
                    assert k in mesh.element_neighbors[l]

    def test_boundary_nodes_on_circle(self):
        mesh = generate_disk_mesh(0.1, 1024)
        r = np.linalg.norm(mesh.nodes[mesh.boundary_nodes], axis=1)
        assert np.max(np.abs(r - 0.1)) <= 1e-9 * 0.1
        assert np.linalg.norm(mesh.nodes, axis=1).max() <= 0.1 + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_disk_mesh(0.0, 1024)
        with pytest.raises(ValueError):
            generate_disk_mesh(-1.0, 1024)
        with pytest.raises(ValueError):
            generate_disk_mesh(0.1, 63)

    def test_deterministic(self):
        m1 = generate_disk_mesh(0.1, 2048)
        m2 = generate_disk_mesh(0.1, 2048)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.triangles, m2.triangles)

    # 54, 96, 1014, 4056, 16224 and 66150 elements
    @pytest.mark.parametrize("target", [64, 100, 1024, 4096, 16384, 65536])
    def test_matches_loop_oracle(self, target, tmp_path):
        mesh = generate_disk_mesh(0.1, target)
        want = _reference_disk_mesh(0.1, math.isqrt(mesh.n_elements // RING_GROWTH))
        for name in ("nodes", "triangles", "boundary_nodes", "element_centroids",
                     "element_areas", "element_neighbors"):
            a, b = getattr(mesh, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        save_mesh(tmp_path / "want.txt", want, place_electrodes(want, 4))
        save_mesh(tmp_path / "got.txt", mesh, place_electrodes(mesh, 4))
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_element_count_tracks_target(self):
        for target in (64, 256, 1024, 4096, 16384):
            mesh = generate_disk_mesh(0.1, target)
            assert abs(mesh.n_elements - target) <= 0.30 * target


class TestEdgeTable:
    # every ring count M from 3 to 40 (64, 1024 and 4096 give M = 3, 13 and
    # 26), then M = 52 and 105 (16384 and 65536 give the 16224- and
    # 66150-element meshes)
    @pytest.mark.parametrize("target", [
        64, 1024, 4096, 16384, 65536,
        *(RING_GROWTH * m * m for m in range(4, 41) if m not in (13, 26)),
    ])
    def test_matches_reference(self, target, tmp_path):
        _assert_topology_matches_reference(generate_disk_mesh(0.1, target), tmp_path)

    @settings(max_examples=15)
    @given(
        radius=st.floats(min_value=1e-3, max_value=10.0),
        target=st.integers(min_value=64, max_value=3000),
    )
    def test_matches_reference_property(self, radius, target):
        with tempfile.TemporaryDirectory() as d:
            _assert_topology_matches_reference(generate_disk_mesh(radius, target), d)

    def test_boundary_elements_are_the_padded_rows(self):
        mesh = generate_disk_mesh(0.1, 1024)
        padded = (mesh.element_neighbors < 0).sum(axis=1)
        # each boundary edge leaves one -1 in the row of its one owner
        assert padded.sum() == len(mesh.boundary_nodes)
        assert np.array_equal(mesh.boundary_elements(), np.flatnonzero(padded))

    def test_neighbors_frozen(self):
        mesh = generate_disk_mesh(0.1, 256)
        with pytest.raises(ValueError):
            mesh.element_neighbors[0, 0] = 0


class TestPlaceElectrodes:
    def test_sixteen_near_uniform(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        assert len(set(layout.node_ids.tolist())) == 16
        bn = set(mesh.boundary_nodes.tolist())
        assert all(i in bn for i in layout.node_ids)
        # consecutive gaps within one boundary-edge length of 22.5 deg
        ang = np.sort(np.mod(layout.angles, 2 * np.pi))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
        edge_angle = 2 * np.pi / len(mesh.boundary_nodes)
        assert np.all(np.abs(gaps - 2 * np.pi / 16) <= edge_angle + 1e-12)

    def test_four_at_quadrants(self):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 4)
        pts = mesh.nodes[layout.node_ids]
        want = 0.1 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])
        edge_len = 2 * np.pi * 0.1 / len(mesh.boundary_nodes)
        for p, w in zip(pts, want):
            assert np.linalg.norm(p - w) <= edge_len

    def test_duplicate_snap_rejected(self):
        mesh = generate_disk_mesh(0.1, 64)  # boundary far coarser than 64 slots
        with pytest.raises(ValueError):
            place_electrodes(mesh, 64)

    def test_minimum_count(self):
        mesh = generate_disk_mesh(0.1, 1024)
        with pytest.raises(ValueError):
            place_electrodes(mesh, 3)

    @pytest.mark.parametrize("angles, match", [
        (np.arange(15) * 0.4, "angles must have one entry per electrode"),
        (np.zeros(16), "electrode targets snap to duplicate boundary nodes; mesh too coarse"),
    ], ids=["angle-count", "one-node"])
    def test_angle_input_checks(self, angles, match):
        mesh = generate_disk_mesh(0.1, 256)
        with pytest.raises(ValueError, match=match):
            place_electrodes(mesh, 16, angles=angles)

    def test_explicit_angles_snap_exactly(self):
        coarse = generate_disk_mesh(0.1, 1024)
        fine = generate_disk_mesh(0.1, 16384)
        lc = place_electrodes(coarse, 16)
        lf = place_electrodes(fine, 16, angles=lc.angles)
        # fine boundary contains every coarse boundary node, so positions match
        assert np.allclose(
            coarse.nodes[lc.node_ids], fine.nodes[lf.node_ids], atol=1e-15
        )


class TestDifferenceOperators:
    def test_constant_annihilated(self):
        mesh = generate_disk_mesh(0.1, 1024)
        d = build_difference_operators(mesh)
        c = 3.7 * np.ones(mesh.n_elements)
        assert np.max(np.abs(d @ c)) == 0.0

    def test_x_consistency_on_centroid_field(self):
        # sigma = x-centroid: each nonzero Dx row evaluates (x_l - x_k)/dx = 1
        mesh = generate_disk_mesh(0.1, 1024)
        d = build_difference_operators(mesh)
        n = mesh.n_elements
        gx = d[:n] @ mesh.element_centroids[:, 0]
        nz = np.asarray((np.abs(d[:n]) @ np.ones(mesh.n_elements)) > 0)
        assert nz.sum() > 0.9 * mesh.n_elements
        assert np.allclose(gx[nz], 1.0, atol=1e-9)
        gy = d[n:] @ mesh.element_centroids[:, 1]
        nzy = np.asarray((np.abs(d[n:]) @ np.ones(mesh.n_elements)) > 0)
        assert np.allclose(gy[nzy], 1.0, atol=1e-9)

    def test_transverse_slope_bounded_by_direction_threshold(self):
        # sigma = y-centroid: |Dx sigma| = |dy/dx| of the selected neighbor;
        # rows whose neighbor is axis-aligned (|dy| < 0.2|dx|) stay below 0.2
        mesh = generate_disk_mesh(0.1, 1024)
        d = build_difference_operators(mesh)
        n = mesh.n_elements
        dxc = d[:n].tocoo()
        rows = {}
        for r, c, v in zip(dxc.row, dxc.col, dxc.data):
            rows.setdefault(r, {})[c] = v
        slope = d[:n] @ mesh.element_centroids[:, 1]
        checked = 0
        for r, entries in rows.items():
            nbr = [c for c in entries if c != r]
            if not nbr:
                continue
            l = nbr[0]
            d = mesh.element_centroids[l] - mesh.element_centroids[r]
            if abs(d[1]) < 0.2 * abs(d[0]):
                checked += 1
                assert abs(slope[r]) < 0.2 + 1e-12
        assert checked > 0

    def test_row_structure(self):
        mesh = generate_disk_mesh(0.1, 2048)
        d = build_difference_operators(mesh)
        n = mesh.n_elements
        for mat in (d[:n], d[n:]):
            row_sums = np.asarray(mat.sum(axis=1)).ravel()
            assert np.max(np.abs(row_sums)) < 1e-12
            counts = np.diff(mat.tocsr().indptr)
            assert set(counts.tolist()) <= {0, 2}  # zero rows allowed

    def test_stack_layout(self):
        mesh = generate_disk_mesh(0.1, 1024)
        d = build_difference_operators(mesh)
        n = mesh.n_elements
        assert d.shape == (2 * n, n)
        v = np.random.default_rng(0).normal(size=n)
        assert np.allclose(d @ v, np.concatenate([d[:n] @ v, d[n:] @ v]))

    def test_ones_annihilated_across_random_meshes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            radius = float(rng.uniform(0.05, 2.0))
            target = int(rng.integers(64, 3000))
            mesh = generate_disk_mesh(radius, target)
            d = build_difference_operators(mesh)
            assert np.max(np.abs(d @ np.ones(mesh.n_elements))) == 0.0


class TestRasterize:
    def test_constant_field(self):
        mesh = generate_disk_mesh(0.1, 1024)
        img = rasterize(mesh, np.ones(mesh.n_elements), 256)
        inside = np.isfinite(img)
        assert np.all(img[inside] == 1.0)
        # NaN fraction approximates 1 - pi/4 (disk inscribed in the square)
        assert (~inside).mean() == pytest.approx(1 - np.pi / 4, abs=0.02)

    def test_two_level_histogram(self):
        mesh = generate_disk_mesh(0.1, 1024)
        vals = assign_conductivity(mesh, lung_model(7))
        img = rasterize(mesh, vals, 256)
        levels = np.unique(img[np.isfinite(img)])
        assert set(levels.tolist()) == {1.0, 1.1}
        # membership oracle: sampled inclusion pixels satisfy the ellipse
        # inequality of the element that painted them only up to element
        # granularity, so check against the phantom directly at centroids
        spec = lung_model(7)
        hit = spec.inclusions[0].contains(mesh.element_centroids)
        assert np.all(vals[hit] == 1.1)

    def test_resolution_one(self):
        mesh = generate_disk_mesh(0.1, 1024)
        vals = np.arange(mesh.n_elements, dtype=float)
        img = rasterize(mesh, vals, 1)
        assert img.shape == (1, 1)
        # the single pixel center is the domain center
        containing = []
        for k, tri in enumerate(mesh.triangles):
            a, b, c = mesh.nodes[tri]
            m = np.column_stack([b - a, c - a])
            try:
                lam = np.linalg.solve(m, -a)
            except np.linalg.LinAlgError:
                continue
            if lam.min() >= -1e-9 and lam.sum() <= 1 + 1e-9:
                containing.append(k)
        assert img[0, 0] in vals[containing]

    def test_rejects_mismatched_length(self):
        mesh = generate_disk_mesh(0.1, 1024)
        with pytest.raises(ValueError):
            rasterize(mesh, np.ones(mesh.n_elements - 1), 64)

    def test_orientation_row_tracks_y(self):
        mesh = generate_disk_mesh(0.1, 1024)
        vals = (mesh.element_centroids[:, 1] > 0).astype(float)
        img = rasterize(mesh, vals, 64)
        top = img[48, 32]  # row 48 -> y > 0
        bottom = img[16, 32]
        assert top == 1.0 and bottom == 0.0

    def test_assign_rasterize_idempotent(self):
        # looking up each element's centroid pixel recovers its own value
        mesh = generate_disk_mesh(0.1, 1024)
        vals = assign_conductivity(mesh, lung_model(7))
        img = rasterize(mesh, vals, 256)
        ext = raster_extent(mesh)
        step = 2.0 * ext / 256
        for k in range(mesh.n_elements):
            c, r = np.clip((mesh.element_centroids[k] + ext) / step, 0, 255).astype(int)
            assert img[r, c] == vals[k]

    def test_extent_equals_radius(self):
        mesh = generate_disk_mesh(0.25, 1024)
        assert raster_extent(mesh) == pytest.approx(0.25, rel=1e-12)


class TestRasterIndex:
    # odd resolutions put pixel centers on the x and y axes, where mesh
    # edges and the center node lie, so the lowest-index rule decides
    @pytest.mark.parametrize(
        "elements, resolution",
        [(1024, r) for r in (1, 2, 3, 16, 17, 64, 255, 256, 257)]
        + [(4096, r) for r in (3, 17, 256, 257)],
    )
    def test_matches_reference_loop(self, elements, resolution):
        mesh = generate_disk_mesh(0.1, elements)
        vals = np.random.default_rng(resolution).normal(size=mesh.n_elements)
        want = _reference_rasterize(mesh, vals, resolution)
        assert rasterize(mesh, vals, resolution).tobytes() == want.tobytes()

    @settings(max_examples=20)
    @given(
        radius=st.floats(min_value=1e-3, max_value=10.0),
        elements=st.integers(min_value=64, max_value=1500),
        resolution=st.sampled_from([1, 2, 3, 15, 16, 17, 63, 64, 65]),
    )
    def test_matches_reference_loop_property(self, radius, elements, resolution):
        mesh = generate_disk_mesh(radius, elements)
        vals = np.random.default_rng(elements).normal(size=mesh.n_elements)
        want = _reference_rasterize(mesh, vals, resolution)
        assert rasterize(mesh, vals, resolution).tobytes() == want.tobytes()

    def test_center_node_goes_to_lowest_element(self):
        mesh = generate_disk_mesh(0.1, 1024)
        index = raster_index(mesh, 17)
        # node 0 is the disk center; six triangles share it
        fan = np.flatnonzero((mesh.triangles == 0).any(axis=1))
        assert len(fan) == 6
        assert index[8, 8] == fan.min()

    def test_index_range_and_outside(self):
        mesh = generate_disk_mesh(0.1, 1024)
        index = raster_index(mesh, 64)
        assert index.shape == (64, 64)
        assert index.min() == -1 and index.max() < mesh.n_elements
        assert index[0, 0] == -1  # corner of the square lies outside the disk
        assert np.array_equal(
            np.isnan(rasterize(mesh, np.ones(mesh.n_elements), 64)), index == -1
        )

    def test_nan_value_leaves_nan_on_its_own_pixels(self):
        mesh = generate_disk_mesh(0.1, 1024)
        index = raster_index(mesh, 257)
        vals = np.random.default_rng(5).normal(size=mesh.n_elements)
        k = int(index[128, 128])  # owns the center pixel
        vals[k] = np.nan
        img = rasterize(mesh, vals, 257)
        assert np.array_equal(np.isnan(img), (index == -1) | (index == k))

    def test_rejects_resolution_below_one(self):
        mesh = generate_disk_mesh(0.1, 1024)
        with pytest.raises(ValueError, match="resolution"):
            raster_index(mesh, 0)
        with pytest.raises(ValueError, match="resolution"):
            rasterize(mesh, np.ones(mesh.n_elements), 0)

    def test_memory_bounded_at_high_resolution(self):
        # the output image and the index take 8 MiB each at 1024^2; testing
        # all ~1.8M (element, pixel) candidates at once would take ~190 MiB
        mesh = generate_disk_mesh(0.1, 1024)
        vals = np.ones(mesh.n_elements)
        tracemalloc.start()
        try:
            rasterize(mesh, vals, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestMeshIO:
    def test_roundtrip_exact(self, tmp_path):
        mesh = generate_disk_mesh(0.1, 1024)
        layout = place_electrodes(mesh, 16)
        path = tmp_path / "mesh.txt"
        save_mesh(path, mesh, layout)
        nodes, triangles, electrodes = _read_mesh_text(path)
        assert nodes.tobytes() == mesh.nodes.tobytes()
        assert triangles.tobytes() == mesh.triangles.tobytes()
        assert electrodes.tolist() == layout.node_ids.tolist()
        assert len(electrodes) == 16

    def test_element_values_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.normal(scale=1e-7, size=257)
        path = tmp_path / "field.txt"
        save_element_values(path, vals)
        back = load_element_values(path)
        assert np.array_equal(back, vals)

    @settings(max_examples=25)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=64,
        )
    )
    def test_element_values_roundtrip_property(self, values):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "field.txt"
            save_element_values(path, np.array(values))
            assert np.array_equal(load_element_values(path), np.array(values))


def _raises_at(path, line: int, match: str, loader=load_field_series):
    with pytest.raises(ValueError) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}:{line}: ")
    assert re.search(match, str(info.value))


class TestFrameFiles:
    """The one '# frame t rows' format behind field, series and voltage files."""

    @settings(max_examples=25)
    @given(
        series=st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_series_roundtrip_property(self, series):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "series.txt"
            save_element_values(path, np.array(series))
            back = load_field_series(path)
            assert back.shape == (len(series), len(series[0]))
            assert np.array_equal(back, np.array(series))

    def test_layout(self, tmp_path):
        path = tmp_path / "series.txt"
        save_element_values(path, [[0.5, -1e-7], [3.0, 0.1]])
        assert path.read_text() == "# frame 1 2\n0.5\n-1e-07\n# frame 2 2\n3.0\n0.1\n"
        assert load_field_series(path).shape == (2, 2)
        _raises_at(path, 4, "a second frame", load_element_values)

    def test_rejects_three_dimensional_values(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            save_element_values(tmp_path / "x.txt", np.zeros((2, 2, 2)))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        _raises_at(path, 1, "end of the file", load_element_values)

    def test_cut_inside_a_block(self, tmp_path):
        path = tmp_path / "cut.txt"
        save_element_values(path, np.arange(10.0).reshape(2, 5))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:9]))
        _raises_at(path, 10, "2 of 5 rows")

    def test_row_count_differs_from_frame_one(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("# frame 1 2\n1.0\n2.0\n# frame 2 3\n1.0\n2.0\n3.0\n")
        _raises_at(path, 4, "'# frame 2 2' header, got '# frame 2 3'")

    def test_out_of_order_frame_number(self, tmp_path):
        path = tmp_path / "order.txt"
        path.write_text("# frame 1 1\n1.0\n# frame 3 1\n2.0\n")
        _raises_at(path, 3, "'# frame 2 1' header, got '# frame 3 1'")

    @pytest.mark.parametrize(
        "text, line, match",
        [
            ("# frame 1 2\n1.0\n\n", 3, "holds 0 value"),
            ("# frame 1 2\n1.0 2.0\n3.0\n", 2, "holds 2 value"),
            ("# frame 1 2\n1.0\nabc\n", 3, "not a number: 'abc'"),
            ("# frame 1 1\n1.0\n2.0\n", 3, "header"),
            ("# frame 1 x\n1.0\n", 1, "header"),
        ],
        ids=["blank_row", "wide_row", "non_numeric", "trailing_row", "bad_count"],
    )
    def test_bad_rows(self, tmp_path, text, line, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        _raises_at(path, line, match)

    @pytest.mark.parametrize(
        "text, loader",
        [
            ("3\n1.0\n2.0\n3.0\n", load_element_values),
            ("# frame 0\n" + "".join(f"{j} {i} 0.5\n" for j, i in
                                   [(1, 3), (2, 4), (3, 1), (4, 2)]), load_frames),
            ("# frame 1\n2\n1.0\n2.0\n# frame 2\n2\n3.0\n4.0\n", load_field_series),
        ],
        ids=["count_line_field", "frame_zero_voltages", "frame_count_line_history"],
    )
    def test_pre_change_layouts_rejected_at_line_one(self, tmp_path, text, loader):
        path = tmp_path / "old.txt"
        path.write_text(text)
        _raises_at(path, 1, "header", loader)

    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(voltages=st.booleans(), data=st.data())
    def test_garbled_file_loads_or_raises_value_error_with_line(self, voltages, data):
        rng = np.random.default_rng(0)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "frames.txt"
            if voltages:
                loader = load_frames
                save_frames(path, [rng.normal(size=4) for _ in range(2)])
            else:
                loader = load_field_series
                save_element_values(path, rng.normal(size=(2, 5)))
            text = path.read_text()
            if data.draw(st.booleans(), label="truncate"):
                text = text[: data.draw(st.integers(0, len(text)), label="cut")]
            # even entries are tokens, odd ones the whitespace between them
            parts = re.split(r"(\s+)", text)
            for _ in range(data.draw(st.integers(0, 3), label="edits")):
                i = 2 * data.draw(st.integers(0, len(parts) // 2), label="token")
                parts[i] = data.draw(
                    st.sampled_from(
                        ["", "x", "#", "frame", "-1", "0", "1", "2", "3", "5", "1e999",
                         "nan", "0.5", "\n", "1 2", "# frame 2 5\n", str(2**70)]
                    ),
                    label="garble",
                )
            path.write_text("".join(parts))
            try:
                loaded = loader(path)
            except ValueError as exc:
                assert re.match(re.escape(str(path)) + r":[1-9][0-9]*: ", str(exc)), exc
                return
            assert len(loaded) >= 1
