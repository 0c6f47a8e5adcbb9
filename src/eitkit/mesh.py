"""Triangular meshes of a disk, electrode placement, difference operators,
and pixel rasterization.

The mesh generator is fully deterministic: nodes are laid out on concentric
rings (6*m nodes on ring m) and triangulated sextant by sextant, so a given
(radius, target_elements) pair always yields the same mesh. Boundary nodes
sit exactly on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Nodes added per ring. 6 makes radial and tangential spacing nearly equal,
# i.e. close-to-equilateral triangles.
RING_GROWTH = 6

# A neighbor qualifies for the x (or y) difference only if the centroid
# displacement has an x (or y) component exceeding this fraction of the
# centroid distance.
DIRECTION_THRESHOLD = 0.2

# (element, pixel) candidates tested per batch by raster_index. Caps its
# working memory at a few MiB whatever the raster resolution.
RASTER_CHUNK = 1 << 15


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangulation of the disk.

    nodes              (n_nodes, 2) coordinates in meters
    triangles          (n_elements, 3) node indices, counter-clockwise
    boundary_edges     (n_boundary, 2) node pairs tracing the boundary loop
                       counter-clockwise from its lowest node
    element_centroids  (n_elements, 2)
    element_areas      (n_elements,)
    element_neighbors  (n_elements, 3) edge-adjacent element indices, each
                       row ascending and padded with -1 (one -1 per
                       boundary edge of the element)
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    element_centroids: np.ndarray
    element_areas: np.ndarray
    element_neighbors: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def boundary_nodes(self) -> np.ndarray:
        """Node indices on the boundary, in loop order."""
        return self.boundary_edges[:, 0]

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


def generate_disk_mesh(radius: float, target_elements: int) -> TriMesh:
    """Build a deterministic triangular mesh of the disk of given radius.

    The ring count M is chosen so the element count 6*M^2 is as close as
    possible to ``target_elements`` (always within 30%). Boundary nodes lie
    exactly on the circle.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if target_elements < 64:
        raise ValueError(f"target_elements must be >= 64, got {target_elements}")

    raw = math.sqrt(target_elements / RING_GROWTH)
    lo, hi = max(1, math.floor(raw)), math.ceil(raw)
    n_rings = min(
        (lo, hi),
        key=lambda m: abs(RING_GROWTH * m * m - target_elements),
    )

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
    loop = np.arange(_ring_start(n_rings), len(nodes))
    return _finish_mesh(nodes, triangles, np.column_stack([loop, np.roll(loop, -1)]))


def _finish_mesh(nodes: np.ndarray, triangles: np.ndarray, boundary_edges: np.ndarray) -> TriMesh:
    """Geometry and topology of a triangulation with CCW triangles whose
    boundary loop is ``boundary_edges``.

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
        boundary_edges=_freeze(boundary_edges),
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
    bnodes = mesh.boundary_nodes()
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


def build_difference_operators(mesh: TriMesh) -> sp.csr_matrix:
    """Single-neighbor forward differences on element values, as the 2N x N
    matrix D whose first N rows are the x differences and last N rows the y
    differences. Every row sums to zero, so D annihilates constants.

    For the x operator, element k is paired with the edge-neighbor whose
    centroid displacement has the largest x component, provided that
    component exceeds ``DIRECTION_THRESHOLD`` times the centroid distance;
    the row is then (value[l] - value[k]) / dx. On a tie the lowest
    neighbor index wins (``argmax`` over the ascending neighbor columns
    keeps the first maximum). Rows with no qualifying neighbor are zero.
    The y operator is built the same way.
    """
    n = mesh.n_elements
    c = mesh.element_centroids
    nbrs = mesh.element_neighbors
    d = c[nbrs] - c[:, None, :]  # (n, 3, 2) centroid displacements
    dist = np.hypot(d[:, :, 0], d[:, :, 1])
    qualifies = (nbrs >= 0)[:, :, None] & (d > DIRECTION_THRESHOLD * dist[:, :, None])
    d = np.where(qualifies, d, 0.0)  # qualifying components are > 0
    best = d.argmax(axis=1)  # (n, 2)
    step = np.take_along_axis(d, best[:, None, :], axis=1)[:, 0]
    blocks = []
    for axis in (0, 1):
        rows = np.flatnonzero(step[:, axis] > 0)
        cols = nbrs[rows, best[rows, axis]]
        h = step[rows, axis]
        vals = np.column_stack([-1.0 / h, 1.0 / h]).ravel()
        coords = (np.repeat(rows, 2), np.column_stack([rows, cols]).ravel())
        blocks.append(sp.csr_matrix((vals, coords), shape=(n, n)))
    return sp.vstack(blocks).tocsr()


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
    with open(path, "w") as f:
        f.write(f"{mesh.n_nodes}\n")
        for x, y in mesh.nodes.tolist():
            f.write(f"{x!r} {y!r}\n")
        f.write(f"{mesh.n_elements}\n")
        for a, b, c in mesh.triangles.tolist():
            f.write(f"{a} {b} {c}\n")
        f.write(f"{layout.count}\n")
        for nid in layout.node_ids:
            f.write(f"{nid}\n")


def _write_frames(path, frames) -> None:
    """Write a frame file: for t = 1..K, a '# frame t rows' line, then one
    line per row holding the ``repr`` of that row's entry in each column,
    space-separated. Each frame is a list of equal-length columns (lists of
    Python ints or floats)."""
    with open(path, "w") as f:
        for t, columns in enumerate(frames, start=1):
            cells = [map(repr, column) for column in columns]
            rows = cells[0] if len(cells) == 1 else map(" ".join, zip(*cells))
            f.write("\n".join([f"# frame {t} {len(columns[0])}", *rows]) + "\n")


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
