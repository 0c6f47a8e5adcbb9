"""Quantitative evaluation of reconstructed conductivity images.

Images use NaN as the outside-domain sentinel; metrics operate on the
pixels finite in both inputs. Element-space vectors work in the same
functions (no sentinel present).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .mesh import _write_text


def _in_domain(sigma_n: np.ndarray, sigma_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries finite in both inputs, of which there must be one. When
    a sum of their squared differences could overflow, or the squares of
    either input underflow, both are scaled by one power of two that puts
    the largest magnitude just below the overflow bound, so the smaller
    values keep as much range as they can. A power of two changes neither
    RE nor PSNR, and between the two bounds no value is touched."""
    a = np.asarray(sigma_n, dtype=float)
    b = np.asarray(sigma_star, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    m = np.isfinite(a) & np.isfinite(b)
    if not m.any():
        raise ValueError("no jointly in-domain pixels")
    a, b = a[m], b[m]
    peaks = [p for p in (float(np.max(np.abs(x))) for x in (a, b)) if p > 0]
    hi, lo = max(peaks, default=0.0), min(peaks, default=0.0)
    # |a - b|^2 <= 4 hi^2 per entry
    if peaks and not (4.0 * a.size * hi * hi < math.inf and lo * lo >= sys.float_info.min):
        top = (1021 - a.size.bit_length()) // 2  # 4 * size * 4**top < 2**1023
        shift = top - math.frexp(hi)[1]
        a, b = np.ldexp(a, shift), np.ldexp(b, shift)
    return a, b


def relative_error(sigma_n: np.ndarray, sigma_star: np.ndarray) -> float:
    """Euclidean-norm ratio |sigma_n - sigma_star| / |sigma_star| over the
    jointly in-domain entries; +inf when the reference is nonzero but more
    than about 2**1000 times smaller than the estimate."""
    return _relative_error(*_in_domain(sigma_n, sigma_star))


def score(sigma_n: np.ndarray, sigma_star: np.ndarray) -> tuple[float, float]:
    """(relative_error, PSNR) of one pair, from one pass over its entries.

    PSNR is 10*log10(max(sigma_n^2) / mean squared error) over the jointly
    in-domain entries. Identical images score +inf; otherwise an estimate
    that is 0 on every in-domain pixel, or so small against the error that
    the ratio underflows, scores -inf.
    """
    a, b = _in_domain(sigma_n, sigma_star)
    re = _relative_error(a, b)
    mse = float(np.mean((a - b) ** 2))
    ratio = float(np.max(a**2)) / mse if mse else math.inf
    return re, 10.0 * math.log10(ratio) if ratio > 0 else -math.inf


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    if not b.any():
        raise ValueError("reference has zero norm")
    ref = float(np.linalg.norm(b))  # 0 only past that ratio, where b^2 underflows
    return float(np.linalg.norm(a - b)) / ref if ref else math.inf


# ---------------------------------------------------------------------------
# portable grayscale output (16-bit ASCII PGM) with a gray<->value sidecar

_GRAY_MAX = 65535


def write_image_pgm(path, image: np.ndarray) -> None:
    """Write a NaN-masked image as 16-bit ASCII PGM plus a ``.map`` sidecar.

    Gray 0 marks outside-domain pixels; in-domain values map linearly onto
    1..65535. The sidecar records the linear map so conductivities can be
    recovered from gray levels.
    """
    image = np.asarray(image, dtype=float)
    finite = np.isfinite(image)
    if finite.any():
        lo = float(np.min(image[finite]))
        hi = float(np.max(image[finite]))
    else:
        lo = hi = 0.0
    span = hi / 2 - lo / 2  # halves, exact for normal floats: no difference overflows
    gray = np.zeros(image.shape, dtype=int)
    if span > 0:
        gray[finite] = 1 + np.rint(
            (image[finite] / 2 - lo / 2) / span * (_GRAY_MAX - 1)
        ).astype(int)
    else:
        gray[finite] = 1
    _write_text(path, [(["P2", f"{image.shape[1]} {image.shape[0]}", str(_GRAY_MAX)],
                        gray.T.tolist())])
    _write_text(str(path) + ".map", [([], [
        ["outside_gray", "gray_lo", "gray_hi", "value_lo", "value_hi"],
        [0, 1, _GRAY_MAX, lo, hi],
    ])])
