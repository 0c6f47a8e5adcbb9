"""RE, PSNR, grayscale image output."""

import math

import numpy as np
import pytest

from eitkit import metrics
from eitkit.metrics import relative_error, score, write_image_pgm


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
        assert score(est, truth)[1] == pytest.approx(10 * math.log10(121), abs=1e-9)

    def test_common_scaling_invariance(self):
        truth = np.linspace(0.0, 1.0, 101)
        est = truth + 0.1
        assert score(2 * est, 2 * truth)[1] == pytest.approx(score(est, truth)[1], abs=1e-9)

    def test_identical_images_positive_infinity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert score(a, a)[1] == math.inf

    def test_zero_estimate_negative_infinity(self):
        assert score(np.zeros((2, 2)), np.ones((2, 2)))[1] == -math.inf

    def test_monotone_decreasing_in_noise(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0.5, 1.5, size=(32, 32))
        noise = rng.normal(size=(32, 32))
        values = [score(truth + s * noise, truth)[1] for s in (0.01, 0.03, 0.1, 0.3, 1.0)]
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
        assert score(est, truth)[1] == pytest.approx(want, abs=1e-9)

    def test_sentinels_excluded(self):
        truth = np.array([[1.0, np.nan], [1.0, 1.0]])
        est = np.array([[1.1, 5.0], [1.1, 1.1]])
        # the NaN pixel must not contribute to peak or mse
        want = 10 * math.log10(1.21 / 0.01)
        assert score(est, truth)[1] == pytest.approx(want, abs=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [600, 1000])
def test_scores_keep_their_bits_when_squares_overflow(k):
    # at 2**k the squares leave the float range; one power of two rescales
    # both images, which changes neither score
    rng = np.random.default_rng(3)
    truth = rng.uniform(0.5, 1.5, size=(32, 32))
    est = truth + rng.normal(scale=0.05, size=(32, 32))
    scale = 2.0**k
    assert relative_error(est * scale, truth * scale) == relative_error(est, truth)
    assert score(est * scale, truth * scale)[1] == score(est, truth)[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-700, -1000])
def test_scores_keep_their_bits_when_squares_underflow(k):
    # at 2**k the squares fall below the float range; one power of two
    # rescales both images, which changes neither score
    rng = np.random.default_rng(3)
    truth = rng.uniform(0.5, 1.5, size=(32, 32))
    est = truth + rng.normal(scale=0.05, size=(32, 32))
    scale = 2.0**k
    assert relative_error(est * scale, truth * scale) == relative_error(est, truth)
    assert score(est * scale, truth * scale)[1] == score(est, truth)[1]


@pytest.mark.filterwarnings("error")
def test_scores_of_a_reference_far_below_the_estimate():
    # the reference's squares underflow while the estimate's do not; at
    # 2**364 times both, every square is in range and no value is scaled
    rng = np.random.default_rng(3)
    est = rng.uniform(0.5, 1.5, size=(32, 32))
    truth = rng.uniform(0.5, 1.5, size=(32, 32)) * 2.0**-660
    up = 2.0**364
    assert relative_error(est, truth) == relative_error(est * up, truth * up)
    assert score(est, truth)[1] == score(est * up, truth * up)[1]
    assert math.isfinite(relative_error(est, truth))
    # the other way round, the peak's ratio to the error underflows
    assert score(truth, est)[1] == -math.inf
    # past about 2**1000 apart, the reference's squares underflow at any
    # common scale, and its RE is past the float range
    assert relative_error(est, truth * 2.0**-400) == math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("est_scale, truth_scale", [
    (1.0, 1.0), (2.0**1000, 2.0**1000), (2.0**-1000, 2.0**-1000), (1.0, 2.0**-660),
    (2.0**-660, 1.0), (1.0, 2.0**-1060),
])
def test_score_is_both_scores_from_one_pass(monkeypatch, est_scale, truth_scale):
    # RE has the bits of relative_error, also where _in_domain rescales or
    # the scores leave the float range, and both scores come from one
    # _in_domain call
    rng = np.random.default_rng(4)
    truth = rng.uniform(0.5, 1.5, size=(32, 32))
    est = truth + rng.normal(scale=0.05, size=(32, 32))
    truth[0, 0] = np.nan
    est, truth = est * est_scale, truth * truth_scale
    want = relative_error(est, truth)
    calls = []
    real = metrics._in_domain
    monkeypatch.setattr(metrics, "_in_domain", lambda a, b: calls.append(1) or real(a, b))
    assert score(est, truth)[0] == want
    assert len(calls) == 1


def test_score_of_a_zero_reference_raises_as_relative_error():
    with pytest.raises(ValueError, match="reference has zero norm"):
        score(np.ones(4), np.zeros(4))


@pytest.mark.parametrize("est, truth", [(np.full(4, np.nan), np.ones(4)),
                                        (np.array([1.0, np.nan]), np.array([np.inf, 1.0]))])
def test_an_empty_domain_is_named_before_either_score(est, truth):
    for scorer in (score, relative_error):
        with pytest.raises(ValueError, match="no jointly in-domain pixels"):
            scorer(est, truth)


def _read_pgm(path):
    """The gray levels of an ASCII PGM file and the fields of its sidecar."""
    tokens = path.read_text().split()
    width, height = int(tokens[1]), int(tokens[2])
    gray = np.array(tokens[4:], dtype=int)
    assert gray.size == width * height
    with open(str(path) + ".map") as f:
        sidecar = dict(line.split() for line in f)
    return gray.reshape(height, width), sidecar


class TestImagePgm:
    def test_roundtrip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.uniform(0.9, 1.2, size=(40, 40))
        img[rng.random((40, 40)) < 0.2] = np.nan
        path = tmp_path / "img.pgm"
        write_image_pgm(path, img)
        gray, sidecar = _read_pgm(path)
        finite = np.isfinite(img)
        lo, hi = float(np.min(img[finite])), float(np.max(img[finite]))
        assert sidecar["value_lo"] == repr(lo) and sidecar["value_hi"] == repr(hi)
        assert np.array_equal(gray == 0, ~finite)
        assert gray[finite].min() == 1 and gray[finite].max() == 65535
        # the sidecar's affine map takes each gray level back to within
        # one gray step of the value it encodes
        q = (hi - lo) / 65534  # one gray step
        back = lo + (gray[finite] - 1) * q
        assert np.abs(back - img[finite]).max() <= q

    def test_constant_image(self, tmp_path):
        img = np.full((8, 8), 1.5)
        img[0, 0] = np.nan
        path = tmp_path / "flat.pgm"
        write_image_pgm(path, img)
        gray, sidecar = _read_pgm(path)
        assert gray[0, 0] == 0
        assert np.all(gray.ravel()[1:] == 1)
        assert sidecar["value_lo"] == sidecar["value_hi"] == "1.5"

    def test_all_nan_image_is_all_outside(self, tmp_path):
        # no in-domain pixel: every gray is the outside level, and the
        # sidecar records the empty value range as 0.0 to 0.0
        path = tmp_path / "empty.pgm"
        write_image_pgm(path, np.full((3, 5), np.nan))
        gray, sidecar = _read_pgm(path)
        assert gray.shape == (3, 5) and not gray.any()
        assert sidecar["value_lo"] == sidecar["value_hi"] == "0.0"

    def test_header_format(self, tmp_path):
        img = np.ones((4, 6))
        path = tmp_path / "hdr.pgm"
        write_image_pgm(path, img)
        tokens = path.read_text().split()
        assert tokens[0] == "P2"
        assert tokens[1] == "6" and tokens[2] == "4"
        assert tokens[3] == "65535"

    @pytest.mark.filterwarnings("error")
    def test_range_past_the_float_range(self, tmp_path):
        # hi - lo overflows for values of +-1e308; the gray map does not
        img = np.array([[1e308, -1e308, 0.0], [np.nan, 1e308, -1e308]])
        path = tmp_path / "wide.pgm"
        write_image_pgm(path, img)
        gray, sidecar = _read_pgm(path)
        assert gray.tolist() == [[65535, 1, 32768], [0, 65535, 1]]
        assert sidecar["value_lo"] == "-1e+308" and sidecar["value_hi"] == "1e+308"
