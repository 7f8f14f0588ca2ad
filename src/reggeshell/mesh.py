"""Triangulations with oriented global edge lists.

Edges are stored as sorted vertex-index pairs; the edge tangent always runs
from the lower to the higher global vertex index, which removes every sign
ambiguity for degrees of freedom shared between elements.  Local edges of a
triangle (v0, v1, v2) are (v0,v1), (v0,v2), (v1,v2), matching the edge
ordering of the reference element.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "LOCAL_EDGES",
    "build_mesh",
    "refine_uniform",
    "count_entities",
    "rectangle_mesh",
    "read_mesh",
]

# local vertex index pairs of the three triangle edges
LOCAL_EDGES = ((0, 1), (0, 2), (1, 2))


class MeshError(Exception):
    """Raised for structurally invalid (e.g. non-manifold) input."""


@dataclass
class Mesh:
    """Immutable triangulation of a 2D parameter domain.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
    edges : (ne, 2) int array, each row sorted ascending
    tri_edges : (nt, 3) int array, global edge index per local edge
    tri_edge_signs : (nt, 3) int array, +1 if the local edge direction
        agrees with the global (low -> high) orientation
    boundary_markers : dict mapping a name to a sorted tuple of edge indices
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray = field(default=None)
    tri_edges: np.ndarray = field(default=None)
    tri_edge_signs: np.ndarray = field(default=None)
    boundary_markers: dict = field(default_factory=dict)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    def boundary_edges(self):
        """Indices of edges adjacent to exactly one triangle."""
        counts = np.zeros(self.num_edges, dtype=int)
        for te in self.tri_edges:
            counts[te] += 1
        return np.flatnonzero(counts == 1)

    def edges_with_marker(self, name):
        return np.asarray(self.boundary_markers.get(name, ()), dtype=int)


def build_edges(mesh):
    """Populate the global edge list and triangle-edge incidence of a mesh."""
    tris = mesh.triangles
    edge_index = {}
    edges = []
    tri_edges = np.zeros((len(tris), 3), dtype=int)
    signs = np.zeros((len(tris), 3), dtype=int)
    adjacency = []
    for t, tri in enumerate(tris):
        for le, (a, b) in enumerate(LOCAL_EDGES):
            va, vb = int(tri[a]), int(tri[b])
            key = (min(va, vb), max(va, vb))
            if key not in edge_index:
                edge_index[key] = len(edges)
                edges.append(key)
                adjacency.append(0)
            e = edge_index[key]
            adjacency[e] += 1
            if adjacency[e] > 2:
                raise MeshError(f"edge {key} shared by more than two triangles")
            tri_edges[t, le] = e
            signs[t, le] = 1 if va < vb else -1
    mesh.edges = np.array(edges, dtype=int)
    mesh.tri_edges = tri_edges
    mesh.tri_edge_signs = signs
    return mesh


def build_mesh(vertices, triangles, boundary_markers=None):
    """Create a mesh from raw arrays and build its edge connectivity."""
    mesh = Mesh(
        vertices=np.asarray(vertices, dtype=float),
        triangles=np.asarray(triangles, dtype=int),
    )
    build_edges(mesh)
    if boundary_markers:
        edge_ids = {tuple(e): i for i, e in enumerate(mesh.edges.tolist())}
        markers = {}
        for name, pairs in boundary_markers.items():
            ids = []
            for a, b in pairs:
                key = (min(a, b), max(a, b))
                if key not in edge_ids:
                    raise MeshError(f"marker '{name}' references unknown edge {key}")
                ids.append(edge_ids[key])
            markers[name] = tuple(sorted(ids))
        mesh.boundary_markers = markers
    return mesh


def refine_uniform(mesh):
    """Split every triangle into four by its edge midpoints.

    Boundary markers are inherited by both halves of a split marked edge.
    """
    nv = mesh.num_vertices
    mid = nv + np.arange(mesh.num_edges)
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    tris = []
    for t, (v0, v1, v2) in enumerate(mesh.triangles):
        m01 = mid[mesh.tri_edges[t, 0]]
        m02 = mid[mesh.tri_edges[t, 1]]
        m12 = mid[mesh.tri_edges[t, 2]]
        tris.extend([
            (v0, m01, m02),
            (m01, v1, m12),
            (m02, m12, v2),
            (m01, m12, m02),
        ])

    marker_pairs = {}
    for name, eids in mesh.boundary_markers.items():
        pairs = []
        for e in eids:
            a, b = mesh.edges[e]
            pairs.extend([(int(a), int(mid[e])), (int(mid[e]), int(b))])
        marker_pairs[name] = pairs
    return build_mesh(vertices, np.array(tris, dtype=int), marker_pairs)


def count_entities(mesh):
    """Entity counts (#T, #E, #V, #V_B, #V_I) of a chart mesh."""
    boundary = mesh.boundary_edges()
    bverts = set()
    for e in boundary:
        bverts.update(mesh.edges[e].tolist())
    nvb = len(bverts)
    return (
        mesh.num_triangles,
        mesh.num_edges,
        mesh.num_vertices,
        nvb,
        mesh.num_vertices - nvb,
    )


def rectangle_mesh(nx, ny, xlim, ylim, side_markers=None):
    """Structured triangulation of a parameter rectangle.

    Each of the nx * ny cells is split along the (low, low) -> (high, high)
    diagonal into two triangles.  ``side_markers`` maps the side names
    'left', 'right', 'bottom', 'top' to boundary-marker names; several sides
    may share a marker.
    """
    x = np.linspace(xlim[0], xlim[1], nx + 1)
    y = np.linspace(ylim[0], ylim[1], ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    verts = [(xi, yj) for yj in y for xi in x]
    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))

    markers = {}
    if side_markers:
        side_pairs = {
            "bottom": [(vid(i, 0), vid(i + 1, 0)) for i in range(nx)],
            "top": [(vid(i, ny), vid(i + 1, ny)) for i in range(nx)],
            "left": [(vid(0, j), vid(0, j + 1)) for j in range(ny)],
            "right": [(vid(nx, j), vid(nx, j + 1)) for j in range(ny)],
        }
        for side, name in side_markers.items():
            markers.setdefault(name, []).extend(side_pairs[side])
    return build_mesh(np.array(verts), np.array(tris, dtype=int), markers)


def read_mesh(path):
    """Read the plain-text mesh format.

    Header line ``#V #T``, then #V vertex lines ``x y``, then #T triangle
    lines ``i j k`` (0-based), then optional lines ``edge i j name``.
    Raises MeshError when the line counts disagree with the header, a vertex
    index is out of range or a triangle is not positively oriented in the
    parameter plane.
    """
    with open(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    try:
        nv, nt = (int(v) for v in lines[0])
        verts = [_fields(lines, 1 + i, 2, float) for i in range(nv)]
        tris = [_fields(lines, 1 + nv + i, 3, int) for i in range(nt)]
        markers = {}
        for t in lines[1 + nv + nt:]:
            if t[0] != "edge" or len(t) != 4:
                raise MeshError(f"unexpected trailing line: {' '.join(t)}")
            markers.setdefault(t[3], []).append((int(t[1]), int(t[2])))
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from exc
    verts = np.array(verts, dtype=float).reshape(-1, 2)
    tris = np.array(tris, dtype=int).reshape(-1, 3)
    if tris.size and (tris.min() < 0 or tris.max() >= nv):
        raise MeshError(f"triangle vertex index outside [0, {nv})")
    d1, d2 = verts[tris[:, 1]] - verts[tris[:, 0]], verts[tris[:, 2]] - verts[tris[:, 0]]
    bad = np.flatnonzero(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] <= 0)
    if bad.size:
        raise MeshError(f"triangle {bad[0]} is not positively oriented")
    return build_mesh(verts, tris, markers)


def _fields(lines, i, count, kind):
    """The ``count`` values of line ``i``, which must have exactly that many."""
    if len(lines[i]) != count:
        raise MeshError(f"expected {count} values, got line: {' '.join(lines[i])}")
    return [kind(v) for v in lines[i]]
