"""Quantitative evaluation of reconstructed conductivity images.

Images use NaN as the outside-domain sentinel; metrics operate on the
pixels finite in both inputs. Element-space vectors work in the same
functions (no sentinel present).
"""

from __future__ import annotations

import math

import numpy as np


def _in_domain(sigma_n: np.ndarray, sigma_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries finite in both inputs. When a sum of their squared
    differences could overflow, both are scaled by one power of two that
    puts the largest magnitude just below that bound, so the smaller values
    keep as much range as they can. A power of two changes neither RE nor
    PSNR, and below the bound no value is touched."""
    a = np.asarray(sigma_n, dtype=float)
    b = np.asarray(sigma_star, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    m = np.isfinite(a) & np.isfinite(b)
    a, b = a[m], b[m]
    peak = float(max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0)))
    if not 4.0 * a.size * peak * peak < math.inf:  # |a - b|^2 <= 4 peak^2 per entry
        top = (1021 - a.size.bit_length()) // 2  # 4 * size * 4**top < 2**1023
        scale = math.ldexp(1.0, top - math.frexp(peak)[1])
        a, b = a * scale, b * scale
    return a, b


def relative_error(sigma_n: np.ndarray, sigma_star: np.ndarray) -> float:
    """Euclidean-norm ratio |sigma_n - sigma_star| / |sigma_star| over the
    jointly in-domain entries."""
    a, b = _in_domain(sigma_n, sigma_star)
    ref = np.linalg.norm(b)
    if ref == 0:
        raise ValueError("reference has zero norm")
    return float(np.linalg.norm(a - b) / ref)


def psnr(sigma_n: np.ndarray, sigma_star: np.ndarray) -> float:
    """10*log10(max(sigma_n^2) / mean squared error), in-domain pixels only.

    Identical images return +inf; otherwise an estimate that is 0 on every
    in-domain pixel returns -inf.
    """
    a, b = _in_domain(sigma_n, sigma_star)
    if not a.size:
        raise ValueError("no jointly in-domain pixels")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0:
        return math.inf
    peak = float(np.max(a**2))
    return 10.0 * math.log10(peak / mse) if peak > 0 else -math.inf


def profile(image: np.ndarray, start, end, samples: int) -> np.ndarray:
    """Nearest-pixel samples along the segment start -> end.

    ``start`` and ``end`` are (row, col) pixel coordinates (fractional
    allowed) and must lie inside the image; outside-domain pixels yield
    NaN samples. A zero-length segment repeats the start pixel.
    """
    image = np.asarray(image, dtype=float)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    for pt in (start, end):
        if not (0 <= pt[0] <= image.shape[0] - 1 and 0 <= pt[1] <= image.shape[1] - 1):
            raise ValueError(f"profile endpoint {pt} outside the image")
    t = np.linspace(0.0, 1.0, samples) if samples > 1 else np.zeros(1)
    rows = np.rint(start[0] + t * (end[0] - start[0])).astype(int)
    cols = np.rint(start[1] + t * (end[1] - start[1])).astype(int)
    return image[rows, cols]


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
    span = hi - lo
    gray = np.zeros(image.shape, dtype=int)
    if span > 0:
        gray[finite] = 1 + np.rint(
            (image[finite] - lo) / span * (_GRAY_MAX - 1)
        ).astype(int)
    else:
        gray[finite] = 1
    with open(path, "w") as f:
        f.write("P2\n")
        f.write(f"{image.shape[1]} {image.shape[0]}\n")
        f.write(f"{_GRAY_MAX}\n")
        for row in gray:
            f.write(" ".join(str(v) for v in row.tolist()))
            f.write("\n")
    with open(str(path) + ".map", "w") as f:
        f.write("outside_gray 0\n")
        f.write("gray_lo 1\n")
        f.write(f"gray_hi {_GRAY_MAX}\n")
        f.write(f"value_lo {lo!r}\n")
        f.write(f"value_hi {hi!r}\n")


def read_image_pgm(path) -> np.ndarray:
    """Invert :func:`write_image_pgm` using the sidecar (NaN outside)."""
    with open(path) as f:
        tokens = f.read().split()
    if tokens[0] != "P2":
        raise ValueError("not an ASCII PGM file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    gray = np.array(tokens[4 : 4 + w * h], dtype=int).reshape(h, w)
    params: dict[str, float] = {}
    with open(str(path) + ".map") as f:
        for line in f:
            key, val = line.split()
            params[key] = float(val)
    lo, hi = params["value_lo"], params["value_hi"]
    glo, ghi = params["gray_lo"], params["gray_hi"]
    image = np.full(gray.shape, np.nan)
    inside = gray > 0
    if ghi > glo:
        image[inside] = lo + (gray[inside] - glo) * (hi - lo) / (ghi - glo)
    else:
        image[inside] = lo
    return image
