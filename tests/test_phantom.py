"""Parametric lung phantoms and conductivity assignment."""

import numpy as np
import pytest

from eitkit import (
    Inclusion,
    PhantomSpec,
    assign_conductivity,
    generate_disk_mesh,
    inclusion_mask,
    load_phantom,
    lung_model,
    save_phantom,
)


class TestLungModel:
    def test_model_7_geometry(self):
        spec = lung_model(7)
        assert spec.background == 1.0
        left, right = spec.inclusions
        assert left.value == 1.1 and right.value == 1.1
        assert np.allclose(left.center, (0.04, -0.01))
        assert np.allclose(right.center, (-0.04, -0.01))
        assert np.allclose(left.axis_a, (0.019, 0.038))
        assert np.allclose(left.axis_b, (-0.019, 0.0095))
        assert np.allclose(right.axis_a, (-0.019, 0.038))
        assert np.allclose(right.axis_b, (0.019, 0.0095))

    def test_model_1_axis(self):
        spec = lung_model(1)
        assert np.allclose(spec.inclusions[0].axis_a, (0.013, 0.026))

    @pytest.mark.parametrize("k", [0, 11, -3])
    def test_out_of_range_rejected(self, k):
        with pytest.raises(ValueError):
            lung_model(k)

    def test_non_integer_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            lung_model(2.5)
        with pytest.raises((TypeError, ValueError)):
            lung_model(True)

    def test_all_models_inside_disk(self):
        # every ellipse fits in the 0.1 m disk: sample boundary points
        t = np.linspace(0, 2 * np.pi, 256)
        for k in range(1, 11):
            for inc in lung_model(k).inclusions:
                pts = (
                    np.asarray(inc.center)
                    + np.outer(np.cos(t), inc.axis_a)
                    + np.outer(np.sin(t), inc.axis_b)
                )
                assert np.linalg.norm(pts, axis=1).max() < 0.1


class TestContainment:
    def test_contains_matches_quadratic_form(self):
        # oracle: solve [a b] q = p - c and test |q| <= 1 directly
        inc = lung_model(5).inclusions[0]
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.1, 0.1, size=(500, 2))
        m = np.column_stack([inc.axis_a, inc.axis_b])
        q = np.linalg.solve(m, (pts - np.asarray(inc.center)).T)
        want = (q**2).sum(axis=0) <= 1.0
        assert np.array_equal(inc.contains(pts), want)

    def test_center_inside_axis_tip_on_edge(self):
        inc = lung_model(3).inclusions[0]
        c = np.asarray(inc.center)
        assert inc.contains(c[None, :])[0]
        tip = c + np.asarray(inc.axis_a)
        assert inc.contains(tip[None, :])[0]  # closed boundary
        outside = c + 1.01 * np.asarray(inc.axis_a)
        assert not inc.contains(outside[None, :])[0]


class TestAssignConductivity:
    def test_empty_inclusions_uniform(self):
        mesh = generate_disk_mesh(0.1, 1024)
        spec = PhantomSpec(background=0.8, inclusions=[])
        field = assign_conductivity(mesh, spec)
        assert np.all(field == 0.8)

    def test_two_connected_components(self):
        # flood-fill over element adjacency restricted to inclusion elements
        mesh = generate_disk_mesh(0.1, 1024)
        mask = inclusion_mask(mesh, lung_model(7))
        unseen = set(np.flatnonzero(mask).tolist())
        components = 0
        while unseen:
            components += 1
            stack = [unseen.pop()]
            while stack:
                k = stack.pop()
                for l in mesh.element_neighbors[k].tolist():
                    if l in unseen:
                        unseen.remove(l)
                        stack.append(l)
        assert components == 2

    def test_inclusion_outside_disk_ignored(self):
        mesh = generate_disk_mesh(0.1, 1024)
        spec = PhantomSpec(
            background=1.0,
            inclusions=[
                Inclusion(center=(10.0, 10.0), axis_a=(0.01, 0.0), axis_b=(0.0, 0.01), value=2.0)
            ],
        )
        assert np.all(assign_conductivity(mesh, spec) == 1.0)

    def test_first_inclusion_wins_on_overlap(self):
        mesh = generate_disk_mesh(0.1, 1024)
        a = Inclusion(center=(0.0, 0.0), axis_a=(0.05, 0.0), axis_b=(0.0, 0.05), value=2.0)
        b = Inclusion(center=(0.0, 0.0), axis_a=(0.03, 0.0), axis_b=(0.0, 0.03), value=3.0)
        vals = assign_conductivity(mesh, PhantomSpec(1.0, [a, b]))
        inner = np.linalg.norm(mesh.element_centroids, axis=1) < 0.02
        assert np.all(vals[inner] == 2.0)

    def test_monotone_growth_in_k(self):
        mesh = generate_disk_mesh(0.1, 1024)
        counts = [inclusion_mask(mesh, lung_model(k)).sum() for k in range(1, 11)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[0]

    def test_mirror_symmetry(self):
        # the generated mesh has an exact x -> -x node symmetry, so element
        # centroids pair up and the assigned values must match
        mesh = generate_disk_mesh(0.1, 1024)
        vals = assign_conductivity(mesh, lung_model(7))
        key = np.round(mesh.element_centroids / 1e-12).astype(np.int64)
        lookup = {(int(x), int(y)): k for k, (x, y) in enumerate(key)}
        for k, (x, y) in enumerate(key):
            j = lookup[(-int(x), int(y))]
            assert vals[j] == vals[k]


class TestValidation:
    def test_rejects_nonpositive_background(self):
        with pytest.raises(ValueError):
            PhantomSpec(background=0.0, inclusions=[])

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError):
            Inclusion(center=(0, 0), axis_a=(1, 0), axis_b=(0, 1), value=0.0)

    def test_rejects_collinear_axes(self):
        with pytest.raises(ValueError):
            Inclusion(center=(0, 0), axis_a=(1.0, 1.0), axis_b=(2.0, 2.0), value=1.0)


class TestPhantomIO:
    def test_roundtrip(self, tmp_path):
        spec = lung_model(4)
        path = tmp_path / "phantom.json"
        save_phantom(path, spec)
        back = load_phantom(path)
        assert back.background == spec.background
        assert len(back.inclusions) == 2
        for a, b in zip(back.inclusions, spec.inclusions):
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.axis_a, b.axis_a)
            assert np.array_equal(a.axis_b, b.axis_b)
            assert a.value == b.value

    def test_roundtrip_preserves_field(self, tmp_path):
        mesh = generate_disk_mesh(0.1, 512)
        spec = lung_model(9)
        path = tmp_path / "phantom.json"
        save_phantom(path, spec)
        v1 = assign_conductivity(mesh, spec)
        v2 = assign_conductivity(mesh, load_phantom(path))
        assert np.array_equal(v1, v2)
