"""RE, PSNR, profiles, grayscale image round-trips."""

import math

import numpy as np
import pytest

from eitkit import (
    assign_conductivity,
    generate_disk_mesh,
    lung_model,
    profile,
    psnr,
    rasterize,
    read_image_pgm,
    relative_error,
    write_image_pgm,
)


class TestRelativeError:
    def test_identity_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert relative_error(a, a) == 0.0

    def test_zero_estimate_one(self):
        b = np.array([1.0, -2.0, 2.0])
        assert relative_error(np.zeros(3), b) == 1.0

    def test_double_estimate_one(self):
        b = np.array([0.5, 1.5, -1.0])
        assert relative_error(2 * b, b) == pytest.approx(1.0, rel=1e-15)

    def test_error_homogeneity(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=50) + 5
        e = rng.normal(size=50)
        want = np.linalg.norm(e) / np.linalg.norm(b)
        assert relative_error(b + e, b) == pytest.approx(want, rel=1e-12)

    def test_joint_mask_ignores_sentinels(self):
        a = np.array([1.0, np.nan, 3.0, 4.0])
        b = np.array([1.0, 2.0, np.nan, 4.0])
        assert relative_error(a, b) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.ones(4))


class TestPsnr:
    def test_uniform_offset_example(self):
        # estimate = truth + 0.1 with max estimate 1.1:
        # peak = 1.21, mse = 0.01 -> 10*log10(121) dB
        truth = np.linspace(0.0, 1.0, 101)
        est = truth + 0.1
        assert psnr(est, truth) == pytest.approx(10 * math.log10(121), abs=1e-9)

    def test_common_scaling_invariance(self):
        truth = np.linspace(0.0, 1.0, 101)
        est = truth + 0.1
        assert psnr(2 * est, 2 * truth) == pytest.approx(psnr(est, truth), abs=1e-9)

    def test_identical_images_positive_infinity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert psnr(a, a) == math.inf

    def test_monotone_decreasing_in_noise(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0.5, 1.5, size=(32, 32))
        noise = rng.normal(size=(32, 32))
        values = [psnr(truth + s * noise, truth) for s in (0.01, 0.03, 0.1, 0.3, 1.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_independent_recomputation(self):
        # naive loop recomputation as the oracle
        rng = np.random.default_rng(2)
        truth = rng.uniform(0.5, 1.5, size=(16, 16))
        est = truth + rng.normal(scale=0.05, size=(16, 16))
        mse = 0.0
        peak = -np.inf
        for i in range(16):
            for j in range(16):
                mse += (est[i, j] - truth[i, j]) ** 2
                peak = max(peak, est[i, j] ** 2)
        mse /= 256
        want = 10 * math.log10(peak / mse)
        assert psnr(est, truth) == pytest.approx(want, abs=1e-9)

    def test_sentinels_excluded(self):
        truth = np.array([[1.0, np.nan], [1.0, 1.0]])
        est = np.array([[1.1, 5.0], [1.1, 1.1]])
        # the NaN pixel must not contribute to peak or mse
        want = 10 * math.log10(1.21 / 0.01)
        assert psnr(est, truth) == pytest.approx(want, abs=1e-9)


class TestProfile:
    def test_constant_image(self):
        img = np.full((32, 32), 2.5)
        out = profile(img, (10, 0), (10, 31), 16)
        assert np.all(out == 2.5)

    def test_step_phantom_two_values(self):
        mesh = generate_disk_mesh(0.1, 1024)
        vals = assign_conductivity(mesh, lung_model(7))
        img = rasterize(mesh, vals, 256)
        # horizontal line through the inclusions (y ~ -0.01 -> row ~ 115)
        out = profile(img, (115, 0), (115, 255), 256)
        levels = set(np.unique(out[np.isfinite(out)]).tolist())
        assert levels == {1.0, 1.1}

    def test_zero_length_line(self):
        img = np.arange(16.0).reshape(4, 4)
        out = profile(img, (2, 1), (2, 1), 5)
        assert np.all(out == img[2, 1])

    def test_single_sample(self):
        img = np.arange(16.0).reshape(4, 4)
        assert profile(img, (1, 1), (3, 3), 1)[0] == img[1, 1]

    def test_sentinel_propagation(self):
        img = np.ones((8, 8))
        img[4, :] = np.nan
        out = profile(img, (0, 3), (7, 3), 8)
        assert np.isnan(out).sum() == 1

    def test_endpoint_outside_rejected(self):
        img = np.ones((8, 8))
        with pytest.raises(ValueError):
            profile(img, (0, 0), (8, 0), 4)
        with pytest.raises(ValueError):
            profile(img, (-1, 0), (3, 0), 4)

    def test_transposition_commutes(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(24, 16))
        a = profile(img, (3, 2), (20, 14), 11)
        b = profile(img.T, (2, 3), (14, 20), 11)
        assert np.array_equal(a, b)


class TestImagePgm:
    def test_roundtrip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.uniform(0.9, 1.2, size=(40, 40))
        img[rng.random((40, 40)) < 0.2] = np.nan
        path = tmp_path / "img.pgm"
        write_image_pgm(path, img)
        back = read_image_pgm(path)
        assert np.array_equal(np.isnan(back), np.isnan(img))
        finite = np.isfinite(img)
        q = (1.2 - 0.9) / 65534  # one gray step
        assert np.abs(back[finite] - img[finite]).max() <= q

    def test_constant_image(self, tmp_path):
        img = np.full((8, 8), 1.5)
        img[0, 0] = np.nan
        path = tmp_path / "flat.pgm"
        write_image_pgm(path, img)
        back = read_image_pgm(path)
        assert np.isnan(back[0, 0])
        assert np.all(back[np.isfinite(back)] == 1.5)

    def test_header_format(self, tmp_path):
        img = np.ones((4, 6))
        path = tmp_path / "hdr.pgm"
        write_image_pgm(path, img)
        tokens = path.read_text().split()
        assert tokens[0] == "P2"
        assert tokens[1] == "6" and tokens[2] == "4"
        assert tokens[3] == "65535"
