"""Parametric conductivity phantoms: elliptical inclusions on a disk.

An inclusion is an ellipse given by its center and two linearly independent
semi-axis vectors a, b: the point p lies inside iff the coordinates of
p - center in the (a, b) basis have Euclidean norm <= 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh


@dataclass(frozen=True)
class Inclusion:
    center: tuple[float, float]
    axis_a: tuple[float, float]
    axis_b: tuple[float, float]
    value: float  # S/m

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"inclusion conductivity must be positive, got {self.value}")
        det = self.axis_a[0] * self.axis_b[1] - self.axis_a[1] * self.axis_b[0]
        scale = max(abs(v) for v in (*self.axis_a, *self.axis_b))
        if scale == 0 or abs(det) <= 1e-12 * scale * scale:
            raise ValueError("inclusion semi-axis vectors must be linearly independent")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership test for an (n, 2) array of points."""
        m = np.array([self.axis_a, self.axis_b], dtype=float).T  # columns a, b
        local = np.linalg.solve(m, (np.atleast_2d(points) - np.asarray(self.center)).T)
        return (local**2).sum(axis=0) <= 1.0


@dataclass(frozen=True)
class PhantomSpec:
    background: float  # S/m
    inclusions: tuple[Inclusion, ...]

    def __post_init__(self):
        if not self.background > 0:
            raise ValueError(f"background conductivity must be positive, got {self.background}")


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
    values = np.full(mesh.n_elements, spec.background, dtype=float)
    unset = np.ones(mesh.n_elements, dtype=bool)
    for inc in spec.inclusions:
        hit = unset & inc.contains(mesh.element_centroids)
        values[hit] = inc.value
        unset &= ~hit
    return values


def inclusion_mask(mesh: TriMesh, spec: PhantomSpec) -> np.ndarray:
    """Boolean per-element mask of centroids inside any inclusion."""
    mask = np.zeros(mesh.n_elements, dtype=bool)
    for inc in spec.inclusions:
        mask |= inc.contains(mesh.element_centroids)
    return mask


def save_phantom(path, spec: PhantomSpec) -> None:
    doc = {
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
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_phantom(path) -> PhantomSpec:
    """Read a file written by :func:`save_phantom`; raises ValueError when
    it is not JSON or not a valid phantom document."""
    with open(path) as f:
        try:
            doc = json.load(f)
            inclusions = tuple(
                Inclusion(
                    center=tuple(d["center"]),
                    axis_a=tuple(d["axis_a"]),
                    axis_b=tuple(d["axis_b"]),
                    value=d["value"],
                )
                for d in doc["inclusions"]
            )
            return PhantomSpec(background=doc["background"], inclusions=inclusions)
        except (LookupError, TypeError, ValueError) as exc:
            why = f"{type(exc).__name__}: {exc}"
            raise ValueError(f"{path}: not a phantom document ({why})") from None
