"""Triangular meshes of a disk, electrode placement and pixel rasterization.

The mesh generator is fully deterministic: nodes are laid out on concentric
rings (6*m nodes on ring m) and triangulated sextant by sextant, so a given
(radius, target_elements) pair always yields the same mesh. Boundary nodes
sit exactly on the circle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import get_args, get_origin

import numpy as np

# Nodes added per ring. 6 makes radial and tangential spacing nearly equal,
# i.e. close-to-equilateral triangles.
RING_GROWTH = 6

# (element, pixel) candidates tested per batch by raster_index. Caps its
# working memory at a few MiB whatever the raster resolution.
RASTER_CHUNK = 1 << 15


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangulation of the disk.

    nodes              (n_nodes, 2) coordinates in meters
    triangles          (n_elements, 3) node indices, counter-clockwise
    boundary_nodes     (n_boundary,) the boundary loop's nodes,
                       counter-clockwise from its lowest node
    element_centroids  (n_elements, 2)
    element_areas      (n_elements,)
    element_neighbors  (n_elements, 3) edge-adjacent element indices, each
                       row ascending and padded with -1 (one -1 per
                       boundary edge of the element)
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    element_centroids: np.ndarray
    element_areas: np.ndarray
    element_neighbors: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def boundary_elements(self) -> np.ndarray:
        """Indices of elements owning at least one boundary edge."""
        return np.flatnonzero((self.element_neighbors < 0).any(axis=1))


@dataclass(frozen=True)
class ElectrodeLayout:
    """Point electrodes snapped to boundary nodes."""

    count: int
    angles: np.ndarray  # realized boundary angles, radians in [0, 2pi)
    node_ids: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _ring_start(m: int) -> int:
    # nodes before ring m: center + 6*(1 + 2 + ... + (m-1))
    return 1 + 3 * m * (m - 1)


def _element_count(target_elements: int) -> int:
    """The element count 6*M^2 of the disk mesh of M rings for ``target_elements``:
    of the two M around it, the closer (within 30% from 64 elements up)."""
    raw = math.sqrt(target_elements / RING_GROWTH)
    lo, hi = max(1, math.floor(raw)), math.ceil(raw)
    return min(RING_GROWTH * lo * lo, RING_GROWTH * hi * hi, key=lambda n: abs(n - target_elements))


def generate_disk_mesh(radius: float, target_elements: int) -> TriMesh:
    """Build a deterministic triangular mesh of the disk of given radius,
    with ``_element_count(target_elements)`` elements. Boundary nodes lie
    exactly on the circle.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if target_elements < 64:
        raise ValueError(f"target_elements must be >= 64, got {target_elements}")

    n_rings = math.isqrt(_element_count(target_elements) // RING_GROWTH)

    # ring m holds 6m nodes at angles 2 pi j / 6m; the angles are exact
    # integer arithmetic in floats, and math.cos/math.sin per node keep the
    # coordinates independent of numpy's vectorized libm
    ring = np.repeat(np.arange(1, n_rings + 1), RING_GROWTH * np.arange(1, n_rings + 1))
    count = RING_GROWTH * ring
    j = np.arange(1, len(ring) + 1) - _ring_start(ring)
    theta = (2.0 * math.pi * j / count).tolist()
    r = radius * ring / n_rings
    nodes = np.zeros((len(ring) + 1, 2))
    nodes[1:, 0] = r * np.array(list(map(math.cos, theta)))
    nodes[1:, 1] = r * np.array(list(map(math.sin, theta)))

    # innermost ring: fan around the center node
    fan = np.arange(RING_GROWTH)
    first = np.column_stack([np.zeros_like(fan), 1 + fan, 1 + (fan + 1) % RING_GROWTH])
    # ring m >= 2: per sextant s, m+1 outer nodes face m inner nodes; the
    # sextant's m triangles (outer t, outer t+1, inner t) come first, then
    # its m-1 triangles (inner t, outer t+1, inner t+1)
    ms = np.arange(2, n_rings + 1)
    m = np.repeat(ms, RING_GROWTH * (2 * ms - 1))
    q = np.arange(len(m)) - RING_GROWTH * ((m - 1) ** 2 - 1)  # index within ring m
    s, k = np.divmod(q, 2 * m - 1)
    outer_first = k < m
    t = np.where(outer_first, k, k - m)

    def outer(i):
        return _ring_start(m) + (s * m + i) % (RING_GROWTH * m)

    def inner(i):
        return _ring_start(m - 1) + (s * (m - 1) + i) % (RING_GROWTH * (m - 1))

    triangles = np.concatenate([first, np.column_stack([
        np.where(outer_first, outer(t), inner(t)),
        outer(t + 1),
        np.where(outer_first, inner(t), inner(t + 1)),
    ])])

    # every triangle above is counter-clockwise, and the boundary is ring M
    # traced counter-clockwise from its first (lowest) node
    return _finish_mesh(nodes, triangles, np.arange(_ring_start(n_rings), len(nodes)))


def _finish_mesh(nodes: np.ndarray, triangles: np.ndarray, boundary_nodes: np.ndarray) -> TriMesh:
    """Geometry and topology of a triangulation with CCW triangles whose
    boundary loop is ``boundary_nodes``.

    Neighbours come from one edge table: the 3N edges, triangle k's edge j
    joining node j to node j + 1 mod 3, sorted by their undirected key.
    Equal keys are an interior edge and pair its two owners.
    """
    p = nodes[triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if not np.all(areas > 0):
        raise ValueError("degenerate or mis-oriented triangle encountered")
    centroids = p.mean(axis=1)

    n = len(triangles)
    heads = triangles.ravel()
    tails = np.roll(triangles, -1, axis=1).ravel()
    keys = np.minimum(heads, tails) * len(nodes) + np.maximum(heads, tails)
    order = np.argsort(keys)
    pairs = np.flatnonzero(np.diff(keys[order]) == 0)
    first, second = order[pairs], order[pairs + 1]
    neighbors = np.full(3 * n, n)  # n sorts last, then becomes the -1 padding
    neighbors[first] = second // 3
    neighbors[second] = first // 3
    neighbors = np.sort(neighbors.reshape(n, 3), axis=1)
    neighbors[neighbors == n] = -1

    return TriMesh(
        nodes=_freeze(np.ascontiguousarray(nodes, dtype=float)),
        triangles=_freeze(np.ascontiguousarray(triangles, dtype=int)),
        boundary_nodes=_freeze(boundary_nodes),
        element_centroids=_freeze(centroids),
        element_areas=_freeze(areas),
        element_neighbors=_freeze(neighbors),
    )


def place_electrodes(
    mesh: TriMesh, count: int, angles: np.ndarray | None = None
) -> ElectrodeLayout:
    """Snap ``count`` point electrodes to the boundary nodes nearest the
    target angles (uniform 2*pi*i/count when ``angles`` is not given).

    Passing explicit ``angles`` lets a second, finer mesh reuse the realized
    electrode positions of a coarser one.
    """
    if count < 4:
        raise ValueError(f"electrode count must be >= 4, got {count}")
    bnodes = mesh.boundary_nodes
    if len(bnodes) < count:
        raise ValueError(
            f"mesh boundary has {len(bnodes)} nodes, fewer than {count} electrodes"
        )
    xy = mesh.nodes[bnodes]
    node_angles = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * np.pi)
    if angles is None:
        targets = 2.0 * np.pi * np.arange(count) / count
    else:
        targets = np.mod(np.asarray(angles, dtype=float), 2.0 * np.pi)
        if targets.shape != (count,):
            raise ValueError("angles must have one entry per electrode")

    chosen = []
    for t in targets:
        d = np.abs(node_angles - t)
        d = np.minimum(d, 2.0 * np.pi - d)
        chosen.append(int(np.argmin(d)))
    if len(set(chosen)) != count:
        raise ValueError(
            "electrode targets snap to duplicate boundary nodes; mesh too coarse"
        )
    node_ids = bnodes[chosen]
    return ElectrodeLayout(
        count=count,
        angles=_freeze(node_angles[chosen].copy()),
        node_ids=_freeze(np.asarray(node_ids, dtype=int)),
    )


def raster_extent(mesh: TriMesh) -> float:
    """Half-width of the square pixel grid covering the mesh."""
    return float(np.max(np.abs(mesh.nodes)))


def pixel_centers(extent: float, resolution: int) -> np.ndarray:
    """Center coordinates along either axis of the resolution x resolution
    pixel grid covering the square [-extent, extent]^2."""
    step = 2.0 * extent / resolution
    return -extent + step * (np.arange(resolution) + 0.5)


def raster_index(mesh: TriMesh, resolution: int) -> np.ndarray:
    """Pixel -> element lookup table of a resolution x resolution grid.

    Entry (iy, ix) is the lowest index of the triangles that contain the
    pixel center (closed triangles, with a tolerance of 1e-12 x the
    extent), or -1 when none does. Row index iy increases with y.

    Each element is tested against the pixel centers in its bounding box.
    These (element, pixel) candidates are processed in element order,
    RASTER_CHUNK at a time, so the working memory stays bounded at any
    resolution.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    ext = raster_extent(mesh)
    centers = pixel_centers(ext, resolution)
    eps = 1e-12 * ext
    n = mesh.n_elements
    corners = mesh.nodes[mesh.triangles]  # (n, 3, 2): pa, pb, pc
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    ix0 = np.searchsorted(centers, lo[:, 0] - eps)
    ix1 = np.searchsorted(centers, hi[:, 0] + eps)
    iy0 = np.searchsorted(centers, lo[:, 1] - eps)
    iy1 = np.searchsorted(centers, hi[:, 1] + eps)
    width = ix1 - ix0
    offset = np.concatenate([[0], np.cumsum(width * (iy1 - iy0))])

    # edge j runs from p = corners[:, j] to q = corners[:, j + 1 mod 3]; the
    # sign of (g - q) x (p - q) tells on which side of it the center g lies
    q = np.roll(corners, -1, axis=1)
    qx, qy = q[:, :, 0], q[:, :, 1]
    ex, ey = corners[:, :, 0] - qx, corners[:, :, 1] - qy

    index = np.full(resolution * resolution, n)
    for start in range(0, int(offset[-1]), RASTER_CHUNK):
        cand = np.arange(start, min(start + RASTER_CHUNK, offset[-1]))
        k = np.searchsorted(offset, cand, side="right") - 1
        row, col = np.divmod(cand - offset[k], width[k])
        iy, ix = iy0[k] + row, ix0[k] + col
        gx, gy = centers[ix], centers[iy]
        all_pos = np.ones(len(cand), dtype=bool)
        all_neg = np.ones(len(cand), dtype=bool)
        for j in range(3):
            d = (gx - qx[k, j]) * ey[k, j] - ex[k, j] * (gy - qy[k, j])
            all_pos &= d >= -eps
            all_neg &= d <= eps
        inside = all_pos | all_neg
        np.minimum.at(index, iy[inside] * resolution + ix[inside], k[inside])
    index[index == n] = -1
    return index.reshape(resolution, resolution)


def raster_image(index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Element values gathered onto the pixels of a raster_index table;
    pixels outside the mesh (index -1) are NaN."""
    image = np.asarray(values, dtype=float)[index]
    image[index < 0] = np.nan
    return image


def rasterize(mesh: TriMesh, values: np.ndarray, resolution: int) -> np.ndarray:
    """Sample element values on a resolution x resolution pixel grid.

    Pixel (iy, ix) takes the value of the triangle containing its center;
    where several triangles contain it (a center on a shared edge or
    vertex), the lowest element index wins. Pixel centers outside the mesh
    are NaN. Row index iy increases with y. To sample many fields on one
    grid, build ``raster_index`` once and gather with ``raster_image``.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_elements,):
        raise ValueError(
            f"expected {mesh.n_elements} element values, got shape {values.shape}"
        )
    return raster_image(raster_index(mesh, resolution), values)


# ---------------------------------------------------------------------------
# plain-text serialization


def save_mesh(path, mesh: TriMesh, layout: ElectrodeLayout) -> None:
    """Write nodes, triangles and electrode node ids as plain text."""
    _write_text(path, [
        ([str(mesh.n_nodes)], mesh.nodes.T.tolist()),
        ([str(mesh.n_elements)], mesh.triangles.T.tolist()),
        ([str(layout.count)], [layout.node_ids.tolist()]),
    ])


def _write_text(path, blocks, sep: str = " ") -> None:
    """Write blocks of (head lines, columns): the head lines, then row t
    as the t-th cell of each column joined by ``sep``. A column of strings
    is written as it is, any other as the ``repr`` of each cell, so numbers
    must be Python ones (``tolist()``: numpy 2 scalars repr with their
    type). Cells are formatted a column at a time, with no join per row in
    a one-column block."""
    with open(path, "w") as f:
        for head, columns in blocks:
            cells = [c if c and isinstance(c[0], str) else map(repr, c) for c in columns]
            rows = cells[0] if len(cells) == 1 else map(sep.join, zip(*cells))
            f.write("\n".join([*head, *rows]) + "\n")


def _write_json(path, doc) -> None:
    """Write ``doc`` as strict JSON, indented by 2 and ending in a newline:
    a non-finite float is the string of its repr ('inf', '-inf', 'nan'),
    and a value JSON has no type for is its ``str``."""
    def strict(v):
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [strict(x) for x in v]
        return repr(float(v)) if isinstance(v, float) and not math.isfinite(v) else v

    with open(path, "w") as f:
        json.dump(strict(doc), f, indent=2, default=str)
        f.write("\n")


def _json_fits(value, hint) -> bool:
    """Whether a JSON value has the type ``hint``: a bool is not a number, an
    int is fine where a float is expected, every list item is checked, and a
    dict hint is an object of exactly its keys, each value checked."""
    if isinstance(hint, dict):
        return (isinstance(value, dict) and value.keys() == hint.keys()
                and all(_json_fits(value[k], h) for k, h in hint.items()))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_json_fits(v, get_args(hint)[0]) for v in value)
    if get_args(hint):  # a union such as int | None
        return any(_json_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _write_frames(path, frames) -> None:
    """Write a frame file: for t = 1..K, a '# frame t rows' line, then the
    rows of frame t, a list of equal-length columns (see _write_text)."""
    _write_text(path, (([f"# frame {t} {len(c[0])}"], c) for t, c in enumerate(frames, start=1)))


def _read_frames(path, width: int) -> np.ndarray:
    """Read a frame file of rows with ``width`` values each into a
    (K, rows, width) array.

    Raises ValueError("<path>:<line>: ...") at the first header, row count,
    row width or value that does not parse as a finite number: frames are
    numbered 1..K in order, all hold as many rows as frame 1, and nothing
    follows the last.
    """
    with open(path, errors="replace") as f:  # undecodable bytes fail as values
        lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line

    def fail(index: int, why: str) -> ValueError:
        return ValueError(f"{path}:{index + 1}: {why}")

    def parse(first: int, body: list[str]) -> list[float]:
        if width == 1:
            try:  # float() also rejects blank rows and rows of two values
                out = list(map(float, body))
                if all(map(math.isfinite, out)):
                    return out
            except ValueError:
                pass  # find the bad row below
        out = []
        for index, row in enumerate(body, start=first):
            cells = row.split()
            if len(cells) != width:
                raise fail(index, f"row holds {len(cells)} value(s), expected {width}")
            for cell in cells:
                try:
                    out.append(float(cell))
                except ValueError:
                    raise fail(index, f"not a number: {cell!r}") from None
                if not math.isfinite(out[-1]):  # float() parses 'nan', 'inf', '1e999'
                    raise fail(index, f"not a finite number: {cell!r}")
        return out

    values: list[float] = []
    k, rows, at = 0, 0, 0  # frames read, rows per frame, index of the next header
    while at < len(lines) or k == 0:
        line = lines[at] if at < len(lines) else ""
        head = line.split()
        if (head[:3] != ["#", "frame", str(k + 1)] or len(head) != 4
                or not head[3].isdecimal() or (k and int(head[3]) != rows)):
            want = f"# frame {k + 1} {rows if k else '<rows>'}"
            got = repr(line) if at < len(lines) else "the end of the file"
            raise fail(at, f"expected a '{want}' header, got {got}")
        rows = int(head[3])
        body = lines[at + 1 : at + 1 + rows]
        if len(body) < rows:
            raise fail(at + 1 + len(body), f"file ends after {len(body)} of {rows} rows")
        values.extend(parse(at + 1, body))
        k, at = k + 1, at + 1 + rows
    return np.array(values, dtype=float).reshape(k, rows, width)


def save_element_values(path, values: np.ndarray) -> None:
    """Write an (N,) field as one frame, or a (K, N) series as K frames, of
    one value per row."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2):
        raise ValueError(f"expected an (N,) field or a (K, N) series, got shape {values.shape}")
    _write_frames(path, [[row] for row in np.atleast_2d(values).tolist()])


def load_field_series(path) -> np.ndarray:
    """The (K, N) series of a frame file of one value per row."""
    return _read_frames(path, 1)[:, :, 0]


def load_element_values(path) -> np.ndarray:
    """The (N,) field of a one-frame file written by save_element_values."""
    series = load_field_series(path)
    if len(series) > 1:
        raise ValueError(f"{path}:{series.shape[1] + 2}: a second frame; expected one field")
    return series[0]
