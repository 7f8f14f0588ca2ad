"""Benchmark surface charts and isoparametric element maps.

A chart is a point map that embeds a 2D parameter rectangle into 3D (or is
the identity for flat tests).  The model reads no other geometry than the
degree-g nodal interpolant of the chart on each parameter-space triangle:
every gradient, weight and normal comes from this element map, so curved
elements of any order are evaluated with the same machinery.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh as meshmod
from .elements import GeometryError, barycentric, edge_tangent, lagrange_basis

__all__ = [
    "ChartGeometry",
    "ElementMap",
    "MapEvaluation",
    "flat_chart",
    "flat3_chart",
    "make_benchmark_mesh",
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
    """Geometry quantities of an element map at reference points.

    The fields carry the leading axes of the evaluation: an element axis for
    a map of several triangles, then a point axis for a batch of points."""

    F: np.ndarray        # (..., dim, 2) gradient w.r.t. reference coordinates
    J: np.ndarray        # (...,) surface determinant |F_0 x F_1|, det F if flat
    nu: np.ndarray       # (..., 3) unit normal (surface case) or None

    def Jb(self, edge):
        """Boundary determinant ||F t|| of a local edge at this point."""
        t, _ = edge_tangent(edge)
        return np.linalg.norm(self.F @ t, axis=-1)


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

    def evaluate(self, points):
        """Evaluate F, J and the normal.

        A single point (2,) gives the fields of one point; a batch (n, 2)
        adds a point axis of length n after the element axis, if any."""
        pts = np.asarray(points, dtype=float)
        grads = self._basis.grad(np.atleast_2d(pts))  # (n, nshapes, 2)
        F = np.swapaxes(self.control_points, -1, -2)[..., None, :, :] @ grads
        # J = |F_0 x F_1| = sqrt(det F^T F) on surfaces, det F on flat charts
        nu = np.cross(F[..., 0], F[..., 1]) if self.ambient_dim == 3 else None
        J = np.linalg.det(F) if nu is None else np.linalg.norm(nu, axis=-1)
        if np.any(J <= 1e-14):
            raise GeometryError("degenerate element map (J <= 0)")
        if nu is not None:
            nu = nu / J[..., None]
        if pts.ndim == 1:
            return MapEvaluation(F=F[..., 0, :, :],
                                 J=float(J[0]) if J.ndim == 1 else J[..., 0],
                                 nu=None if nu is None else nu[..., 0, :])
        return MapEvaluation(F=F, J=J, nu=nu)


# --- benchmark geometries -------------------------------------------------

def _cylinder_chart(R):
    def phi(p):
        th, z = _coordinates(p)
        return _stack([R * np.cos(th), R * np.sin(th), z])

    return ChartGeometry("cylinder", 3, phi)


def _hyperboloid_chart(R):
    def phi(p):
        th, z = _coordinates(p)
        r = np.sqrt(R * R + z * z)
        return _stack([r * np.cos(th), r * np.sin(th), z])

    return ChartGeometry("hyperboloid", 3, phi)


def _unibend_chart(R):
    def phi(p):
        th, y = _coordinates(p)
        return _stack([R * np.sin(th), y, R * np.cos(th)])

    return ChartGeometry("unibend_cylinder", 3, phi)


def _hyppar_chart(alpha):
    def phi(p):
        x, y = _coordinates(p)
        return _stack([x, y, alpha * (y * y - x * x)])

    return ChartGeometry("hyperbolic_paraboloid", 3, phi)


def _hemisphere_chart(R):
    # parameters: azimuth phi_a, polar angle theta_p measured from the pole
    def phi(p):
        pa, tp = _coordinates(p)
        return R * _stack([
            np.sin(tp) * np.cos(pa),
            np.sin(tp) * np.sin(pa),
            np.cos(tp),
        ])

    return ChartGeometry("hemisphere", 3, phi)


# parameter rectangle, level-0 grid, boundary markers and chart per benchmark;
# symmetry markers are named sym:<axis> after the normal of the symmetry plane
_BENCHMARKS = {
    "cylinder": dict(
        chart=lambda: _cylinder_chart(1.0),
        xlim=(0.0, math.pi / 2.0), ylim=(0.0, 1.0), grid=(2, 2),
        sides={"left": "sym:y", "right": "sym:x", "bottom": "sym:z", "top": "free"},
    ),
    "hyperboloid": dict(
        chart=lambda: _hyperboloid_chart(1.0),
        xlim=(0.0, math.pi / 2.0), ylim=(0.0, 1.0), grid=(2, 2),
        sides={"left": "sym:y", "right": "sym:x", "bottom": "sym:z", "top": "free"},
    ),
    "unibend_cylinder": dict(
        chart=lambda: _unibend_chart(0.1),
        xlim=(0.0, math.pi / 2.0), ylim=(0.0, 0.025), grid=(8, 1),
        sides={"left": "clamped", "right": "loaded", "bottom": "free", "top": "free"},
    ),
    "hyperbolic_paraboloid": dict(
        chart=lambda: _hyppar_chart(0.2),
        xlim=(0.0, 3.0), ylim=(0.0, 1.0), grid=(2, 2),
        sides={"bottom": "clamped", "right": "sym:x", "left": "free", "top": "free"},
    ),
    "hemisphere": dict(
        chart=lambda: _hemisphere_chart(10.0),
        xlim=(0.0, math.pi / 2.0), ylim=(math.pi / 10.0, math.pi / 2.0), grid=(2, 2),
        sides={"left": "sym:y", "right": "sym:x", "bottom": "clamped", "top": "clamped"},
    ),
}


BENCHMARK_NAMES = tuple(_BENCHMARKS)


def make_benchmark_mesh(name, refinement_level=0):
    """Structured mesh and chart of the computational subdomain of a benchmark."""
    if name not in _BENCHMARKS:
        raise ConfigurationError(
            f"unknown benchmark '{name}'; choose one of {BENCHMARK_NAMES}"
        )
    spec = _BENCHMARKS[name]
    m = meshmod.rectangle_mesh(*spec["grid"], spec["xlim"], spec["ylim"], spec["sides"])
    for _ in range(refinement_level):
        m = meshmod.refine_uniform(m)
    return m, spec["chart"]()
