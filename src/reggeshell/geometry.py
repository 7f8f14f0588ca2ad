"""Benchmark surface charts and isoparametric element maps.

A chart is a point map that embeds a 2D parameter rectangle into 3D (or is
the identity for flat tests).  The model reads no other geometry than the
degree-g nodal interpolant of the chart on each parameter-space triangle:
every gradient, weight and normal comes from this element map, so curved
elements of any order are evaluated with the same machinery, one batch of
reference points at a time.

Each benchmark is one record of ``BENCHMARKS``: its chart, parameter
rectangle, level-0 grid and boundary markers, and what the sweep of
``reggeshell.bench`` reads: material, load, thickness factor, measurement
point and direction.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh as meshmod
from .elements import GeometryError, barycentric, lagrange_basis

__all__ = [
    "ChartGeometry",
    "ElementMap",
    "MapEvaluation",
    "flat_chart",
    "flat3_chart",
    "make_benchmark_mesh",
    "BENCHMARKS",
    "BENCHMARK_NAMES",
]


class ConfigurationError(Exception):
    """Unknown benchmark name or unusable benchmark configuration."""


@dataclass
class ChartGeometry:
    """Smooth embedding of a parameter rectangle.

    ``phi`` maps parameter points (..., 2) to (..., ambient_dim), so one call
    evaluates a whole batch."""

    name: str
    ambient_dim: int
    phi: Callable[[np.ndarray], np.ndarray]


def _coordinates(p):
    """The two coordinates of parameter points (..., 2)."""
    p = np.asarray(p, dtype=float)
    return p[..., 0], p[..., 1]


def _stack(components):
    """Array (..., n) of n components that broadcast against each other."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def flat_chart():
    """Identity chart for flat 2D tests."""
    return ChartGeometry(
        name="flat",
        ambient_dim=2,
        phi=lambda p: np.asarray(p, dtype=float),
    )


def flat3_chart():
    """Flat plate embedded in the z = 0 plane of 3-space."""
    return ChartGeometry(
        name="flat3",
        ambient_dim=3,
        phi=lambda p: _stack(_coordinates(p) + (0.0,)),
    )


@dataclass
class MapEvaluation:
    """Geometry quantities of an element map at a batch of reference points:
    the mapped points X, where a load is evaluated, the gradient F, the
    determinant J and the unit normal, each with a point axis after the
    element axis of a map of several triangles."""

    X: np.ndarray        # (..., dim) mapped points
    F: np.ndarray        # (..., dim, 2) gradient w.r.t. reference coordinates
    J: np.ndarray        # (...,) surface determinant |F_0 x F_1|, det F if flat
    nu: np.ndarray       # (..., 3) unit normal (surface case) or None


class ElementMap:
    """Degree-g isoparametric map of one (possibly curved) triangle, or of
    several at once when ``triangle_id`` is an index array: the control
    points and every evaluated field then have a leading element axis."""

    def __init__(self, mesh, geometry, triangle_id, geometry_order=1):
        if geometry_order < 1:
            raise ValueError("geometry order must be >= 1")
        self.geometry_order = geometry_order
        self.ambient_dim = geometry.ambient_dim
        self._basis = lagrange_basis(geometry_order)
        # affine map of the reference nodes into the parameter triangles
        pnodes = barycentric(self._basis.nodes) @ mesh.vertices[mesh.triangles[triangle_id]]
        self.control_points = geometry.phi(pnodes)
        if not np.all(np.isfinite(self.control_points)):
            raise GeometryError(f"chart '{geometry.name}' has non-finite points on the mesh")

    def evaluate(self, points):
        """Evaluate the mapped points, F, J and the normal at a batch of
        reference points (n, 2): every field has a point axis of length n
        after the element axis, if any.  The map is degenerate where
        J <= 1e-14 |F|^2 (Frobenius norm): the ratio of two areas, so the
        test reads the same at every length scale."""
        pts = np.asarray(points, dtype=float)
        F = np.swapaxes(self.control_points, -1, -2)[..., None, :, :] @ self._basis.grad(pts)
        # J = |F_0 x F_1| = sqrt(det F^T F) on surfaces, det F on flat charts
        nu = np.cross(F[..., 0], F[..., 1]) if self.ambient_dim == 3 else None
        J = np.linalg.det(F) if nu is None else np.linalg.norm(nu, axis=-1)
        if not np.all(J > 1e-14 * np.einsum("...ij,...ij->...", F, F)):
            raise GeometryError("degenerate element map (J <= 1e-14 |F|^2)")
        if nu is not None:
            nu = nu / J[..., None]
        X = self._basis.eval(pts) @ self.control_points
        return MapEvaluation(X=X, F=F, J=J, nu=nu)


# --- benchmarks -------------------------------------------------------------


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# One record per benchmark.  The mesh: parameter rectangle, level-0 grid,
# boundary markers and chart; phi maps the two parameters to the three
# ambient coordinates, and symmetry markers are named sym:<axis> after the
# normal of the symmetry plane.  The sweep: material (E, nu), the keyword
# arguments of a thickness-free LoadSpec with its thickness factor ``scale``
# (which keeps the deflections O(1) as t -> 0), the measurement point in
# parameter space and the measured direction at the physical point.
BENCHMARKS = {
    "cylinder": dict(
        phi=lambda th, z: (np.cos(th), np.sin(th), z),
        xlim=(0.0, math.pi / 2.0), ylim=(0.0, 1.0), grid=(2, 2),
        sides={"left": "sym:y", "right": "sym:x", "bottom": "sym:z", "top": "free"},
        material=(3.0e4, 0.3),
        load=dict(volume=lambda X, nu: math.cos(2.0 * math.atan2(X[1], X[0])) * nu),
        scale=lambda t: t ** 3,
        point=(0.0, 1.0),
        direction=lambda X: _unit([X[0], X[1], 0.0]),
        # start from 32 elements; the 8-element grid under-resolves the
        # reference deflection even with the reduction
        base_refinement=1,
    ),
    "hyperboloid": dict(
        phi=lambda th, z: (np.sqrt(1.0 + z * z) * np.cos(th),
                           np.sqrt(1.0 + z * z) * np.sin(th), z),
        xlim=(0.0, math.pi / 2.0), ylim=(0.0, 1.0), grid=(2, 2),
        sides={"left": "sym:y", "right": "sym:x", "bottom": "sym:z", "top": "free"},
        material=(2.85e4, 0.3),
        load=dict(volume=lambda X, nu: (math.cos(2.0 * math.atan2(X[1], X[0]))
                                        / math.hypot(X[0], X[1])
                                        * np.array([X[0], X[1], 0.0]))),
        scale=lambda t: t ** 3,
        # measured at the waist: the inextensional mode vanishes at the free edge
        point=(0.0, 0.0),
        direction=lambda X: _unit([X[0], X[1], 0.0]),
    ),
    "unibend_cylinder": dict(
        phi=lambda th, y: (0.1 * np.sin(th), y, 0.1 * np.cos(th)),
        xlim=(0.0, math.pi / 2.0), ylim=(0.0, 0.025), grid=(8, 1),
        sides={"left": "clamped", "right": "loaded", "bottom": "free", "top": "free"},
        material=(2.0e5, 0.0),
        load=dict(edge_moments={"loaded": lambda X: np.array([1.0, 0.0])}),
        scale=lambda t: (t / 0.1) ** 3,
        point=(math.pi / 2.0, 0.0125),
        # deflection orthogonal to the radial direction, in the bending plane
        direction=lambda X: _unit([X[2], 0.0, -X[0]]),
    ),
    "hyperbolic_paraboloid": dict(
        phi=lambda x, y: (x, y, 0.2 * (y * y - x * x)),
        xlim=(0.0, 3.0), ylim=(0.0, 1.0), grid=(2, 2),
        sides={"bottom": "clamped", "right": "sym:x", "left": "free", "top": "free"},
        material=(2.85e4, 0.3),
        load=dict(volume=lambda X, nu: 8.0 * nu),
        scale=lambda t: t ** 3,
        point=(0.0, 1.0),
        direction=lambda X: np.array([0.0, 0.0, 1.0]),
    ),
    # parameters: azimuth, then the polar angle measured from the pole
    "hemisphere": dict(
        phi=lambda pa, tp: (10.0 * (np.sin(tp) * np.cos(pa)),
                            10.0 * (np.sin(tp) * np.sin(pa)), 10.0 * np.cos(tp)),
        xlim=(0.0, math.pi / 2.0), ylim=(math.pi / 10.0, math.pi / 2.0), grid=(2, 2),
        sides={"left": "sym:y", "right": "sym:x", "bottom": "clamped", "top": "clamped"},
        material=(6.825e7, 0.3),
        load=dict(volume=lambda X, nu: math.cos(2.0 * math.atan2(X[1], X[0])) * nu),
        scale=lambda t: t / 10.0,
        point=(0.0, 0.3 * math.pi),
        direction=lambda X: np.array([1.0, 0.0, 0.0]),
    ),
}


BENCHMARK_NAMES = tuple(BENCHMARKS)


def make_benchmark_mesh(name, refinement_level=0):
    """Structured mesh and chart of the computational subdomain of a benchmark."""
    if name not in BENCHMARKS:
        raise ConfigurationError(
            f"unknown benchmark '{name}'; choose one of {BENCHMARK_NAMES}"
        )
    spec = BENCHMARKS[name]
    m = meshmod.rectangle_mesh(*spec["grid"], spec["xlim"], spec["ylim"], spec["sides"])
    for _ in range(refinement_level):
        m = meshmod.refine_uniform(m)
    return m, ChartGeometry(name, 3, lambda p: _stack(spec["phi"](*_coordinates(p))))
