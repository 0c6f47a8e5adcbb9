"""Parametric conductivity phantoms: elliptical inclusions on a disk.

An inclusion is an ellipse given by its center and two linearly independent
semi-axis vectors a, b: the point p lies inside iff the coordinates of
p - center in the (a, b) basis have Euclidean norm <= 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh, _json_fits, _write_json


@dataclass(frozen=True)
class Inclusion:
    center: tuple[float, float]
    axis_a: tuple[float, float]
    axis_b: tuple[float, float]
    value: float  # S/m

    def __post_init__(self):
        if any(len(v) != 2 for v in (self.center, self.axis_a, self.axis_b)):
            raise ValueError("inclusion center and semi-axes must have two components each")
        if not np.all(np.isfinite([*self.center, *self.axis_a, *self.axis_b, self.value])):
            raise ValueError("inclusion center, semi-axes and conductivity must be finite")
        if not self.value > 0:
            raise ValueError(f"inclusion conductivity must be positive, got {self.value}")
        # independence is a matter of direction: tested on the axes over their largest entry
        scale = max(abs(v) for v in (*self.axis_a, *self.axis_b))
        a0, a1, b0, b1 = (v / scale if scale else 0.0 for v in (*self.axis_a, *self.axis_b))
        if abs(a0 * b1 - a1 * b0) <= 1e-12:
            raise ValueError("inclusion semi-axis vectors must be linearly independent")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership test for an (n, 2) array of points, solved on the axes
        over a power of two near their largest entry and scaled back: exact,
        so subnormal axes lose no digits and others keep an unscaled solve's bits."""
        scale = 2.0 ** np.frexp(max(abs(v) for v in (*self.axis_a, *self.axis_b)))[1]
        m = np.array([self.axis_a, self.axis_b], dtype=float).T / scale  # columns a, b
        local = np.linalg.solve(m, (np.atleast_2d(points) - np.asarray(self.center)).T)
        with np.errstate(over="ignore"):  # past the float range: inf, outside
            return ((local / scale) ** 2).sum(axis=0) <= 1.0


@dataclass(frozen=True)
class PhantomSpec:
    background: float  # S/m
    inclusions: tuple[Inclusion, ...]

    def __post_init__(self):
        if not 0 < self.background < np.inf:
            raise ValueError(f"background conductivity must be finite and > 0, got {self.background}")

    def conductivity_at(self, points: np.ndarray) -> np.ndarray:
        """Conductivity at an (n, 2) array of points: the value of the first
        inclusion containing a point, or the background when none does."""
        values = np.full(len(points), self.background, dtype=float)
        unset = np.ones(len(points), dtype=bool)
        for inc in self.inclusions:
            hit = unset & inc.contains(points)
            values[hit] = inc.value
            unset &= ~hit
        return values


def lung_model(k: int) -> PhantomSpec:
    """Two-ellipse lung phantom, size parameter k in 1..10.

    Both ellipses grow with k; conductivity is 1.0 S/m background and
    1.1 S/m inside the inclusions. The two ellipses are mirror images of
    each other across the y axis.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"model index must be an integer, got {k!r}")
    if not 1 <= k <= 10:
        raise ValueError(f"model index must be in 1..10, got {k}")
    s = 0.012 + 0.001 * k
    left = Inclusion(
        center=(0.04, -0.01),
        axis_a=(s, 0.024 + 0.002 * k),
        axis_b=(-s, 0.006 + 0.0005 * k),
        value=1.1,
    )
    right = Inclusion(
        center=(-0.04, -0.01),
        axis_a=(-s, 0.024 + 0.002 * k),
        axis_b=(s, 0.006 + 0.0005 * k),
        value=1.1,
    )
    return PhantomSpec(background=1.0, inclusions=(left, right))


def assign_conductivity(mesh: TriMesh, spec: PhantomSpec) -> np.ndarray:
    """Evaluate the phantom at element centroids: an (N,) array.

    An element takes the value of the first inclusion containing its
    centroid, or the background value when none does.
    """
    return spec.conductivity_at(mesh.element_centroids)


# the document of save_phantom, as mesh._json_fits types
_INCLUSION = {"center": list[float], "axis_a": list[float], "axis_b": list[float], "value": float}
_DOCUMENT = {"background": float, "inclusions": list[_INCLUSION]}


def save_phantom(path, spec: PhantomSpec) -> None:
    _write_json(path, {
        "background": spec.background,
        "inclusions": [
            {
                "center": list(inc.center),
                "axis_a": list(inc.axis_a),
                "axis_b": list(inc.axis_b),
                "value": inc.value,
            }
            for inc in spec.inclusions
        ],
    })


def load_phantom(path) -> PhantomSpec:
    """Read a file written by :func:`save_phantom`. Raises ValueError when it
    is not JSON, not ``_DOCUMENT`` under the config's JSON rule (a bool is not
    a number, no key is unknown), or holds values Inclusion or PhantomSpec refuse."""
    with open(path) as f:
        doc = json.load(f, parse_int=float)  # an integer past the float range is inf
    if not _json_fits(doc, _DOCUMENT):
        raise ValueError(f'{path}: not a phantom document {{"background": number, "inclusions": '
                         f'[{{"center", "axis_a", "axis_b": [x, y], "value": number}}, ...]}}')
    return PhantomSpec(background=doc["background"], inclusions=tuple(
        Inclusion(tuple(d["center"]), tuple(d["axis_a"]), tuple(d["axis_b"]), d["value"])
        for d in doc["inclusions"]))
