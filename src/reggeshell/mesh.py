"""Triangulations with oriented global edge lists.

A mesh is its vertices, triangles and marked vertex pairs; ``Mesh`` derives
the rest.  Edges are stored as sorted vertex-index pairs; the edge tangent
always runs from the lower to the higher global vertex index, which removes
every sign ambiguity for degrees of freedom shared between elements.  Local
edges of a triangle (v0, v1, v2) are (v0,v1), (v0,v2), (v1,v2), matching the
edge ordering of the reference element.

``Mesh`` finds the edges with one ``np.unique`` of the keys min·nV + max and
numbers them in the order the triangles first reach them; that numbering
fixes the dof numbering, and with it the round-off of every solve.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "LOCAL_EDGES",
    "refine_uniform",
    "count_entities",
    "rectangle_mesh",
    "read_mesh",
]

# local vertex index pairs of the three triangle edges, also on the reference element
LOCAL_EDGES = ((0, 1), (0, 2), (1, 2))


class MeshError(Exception):
    """Raised for structurally invalid (e.g. non-manifold) input."""


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation of a 2D parameter domain, built from its
    vertices, triangles and ``marker_pairs``, a map of names to vertex pairs
    that must be edges.  It copies them, derives the edge connectivity, and
    makes every array read-only; ``dataclasses.replace`` derives it anew.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
    marker_pairs : dict mapping a name to an (n, 2) int array of vertex pairs
    edges : (ne, 2) int array, each row sorted ascending
    tri_edges : (nt, 3) int array, global edge index per local edge
    tri_edge_signs : (nt, 3) int array, +1 if the local edge direction
        agrees with the global (low -> high) orientation
    boundary_markers : dict mapping a name to a sorted tuple of edge indices
    """

    vertices: np.ndarray
    triangles: np.ndarray
    marker_pairs: dict = field(default_factory=dict)
    edges: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False)
    tri_edge_signs: np.ndarray = field(init=False)
    boundary_markers: dict = field(init=False)

    def __post_init__(self):
        """Derive the edges and check the mesh: finite coordinates, vertex
        indices in range, at least one triangle and every vertex in one,
        marked pairs that are edges, each edge in one or two triangles, every
        triangle positively oriented in the parameter plane, and the two
        triangles of an edge on either side of it (no fold)."""
        # copies, so that the caller's arrays cannot change the mesh afterwards
        verts = np.array(self.vertices, dtype=float)
        tris = np.array(self.triangles, dtype=int).reshape(-1, 3)
        nv = len(verts)
        pairs = {name: np.array(p, dtype=int).reshape(-1, 2)
                 for name, p in (self.marker_pairs or {}).items()}
        if not np.all(np.isfinite(verts)):
            raise MeshError("vertex coordinates must be finite")
        # outside [0, nv) the keys min·nv + max alias valid edges
        for what, index in [("triangle", tris), *(("marker", p) for p in pairs.values())]:
            if index.size and (index.min() < 0 or index.max() >= nv):
                raise MeshError(f"{what} vertex index outside [0, {nv})")
        unused = np.flatnonzero(np.bincount(tris.ravel(), minlength=nv) == 0)
        if not len(tris) or unused.size:
            raise MeshError("the mesh has no triangles" if not len(tris)
                            else f"vertex {unused[0]} lies in no triangle")
        a, b = np.moveaxis(tris[:, LOCAL_EDGES], -1, 0)
        keys, first, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                         return_index=True, return_inverse=True)
        # number the edges by first appearance, not by key
        order = np.argsort(first)
        rank = np.argsort(order)

        markers = {}
        for name, p in pairs.items():
            pk = p.min(axis=1) * nv + p.max(axis=1)
            pos = np.searchsorted(keys, pk)
            unknown = pk[np.append(keys, -1)[pos] != pk]  # -1 is no key
            if unknown.size:
                raise MeshError(f"marker '{name}' references unknown edge "
                                f"{divmod(int(unknown[0]), nv)}")
            markers[name] = tuple(np.sort(rank[pos]).tolist())

        edges = np.column_stack(divmod(keys[order], nv))
        tri_edges, signs = rank[inverse].reshape(-1, 3), np.where(a < b, 1, -1)
        counts = np.bincount(tri_edges.ravel())
        if counts.max() > 2:
            bad = counts.argmax()
            raise MeshError(f"edge {tuple(edges[bad].tolist())} lies in {counts[bad]} "
                            f"triangles, not in one or two")
        d1, d2 = verts[tris[:, 1]] - verts[tris[:, 0]], verts[tris[:, 2]] - verts[tris[:, 0]]
        bad = np.flatnonzero(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] <= 0)
        if bad.size:
            raise MeshError(f"triangle {bad[0]} is not positively oriented")
        # a counterclockwise triangle runs local edge le in its global direction
        # times (1, -1, 1); the two triangles of an edge must run it both ways
        run = np.bincount(tri_edges.ravel(), weights=(signs * (1, -1, 1)).ravel())
        folded = np.flatnonzero(np.abs(run) == 2)
        if folded.size:
            raise MeshError(f"the two triangles of edge {tuple(edges[folded[0]].tolist())} "
                            f"lie on the same side of it")
        for array in (verts, tris, edges, tri_edges, signs, *pairs.values()):
            array.flags.writeable = False
        for name, value in dict(vertices=verts, triangles=tris, marker_pairs=pairs, edges=edges,
                                tri_edges=tri_edges, tri_edge_signs=signs,
                                boundary_markers=markers).items():
            object.__setattr__(self, name, value)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    def edges_with_marker(self, name):
        return np.asarray(self.boundary_markers.get(name, ()), dtype=int)

    def locate(self, point):
        """Triangle index and barycentric coordinates of a parameter point.

        The point belongs to the triangle whose smallest barycentric
        coordinate is largest (the first such triangle at a tie)."""
        p = np.asarray(point, dtype=float)
        if p.shape != (2,) or not np.all(np.isfinite(p)):
            raise ValueError(f"parameter point {p} is not two finite numbers")
        verts = self.vertices[self.triangles]
        Amat = np.concatenate([np.swapaxes(verts, 1, 2),
                               np.ones((len(verts), 1, 3))], axis=1)
        rhs = np.broadcast_to(np.append(p, 1.0), (len(verts), 3))
        lam = np.linalg.solve(Amat, rhs[..., None])[..., 0]
        margin = lam.min(axis=1)
        t = int(np.argmax(margin))
        if margin[t] < -1e-8:
            raise ValueError(f"parameter point {p} outside the mesh")
        return t, lam[t]


def refine_uniform(mesh):
    """Split every triangle into four by its edge midpoints.

    Boundary markers are inherited by both halves of a split marked edge.
    """
    nv = mesh.num_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    v0, v1, v2 = mesh.triangles.T
    m01, m02, m12 = (nv + mesh.tri_edges).T
    tris = np.stack([v0, m01, m02, m01, v1, m12, m02, m12, v2, m01, m12, m02],
                    axis=1).reshape(-1, 3)

    # the two halves of each edge e = (a, b): (a, nv + e) and (nv + e, b)
    mid = nv + np.arange(mesh.num_edges)
    halves = np.stack([mesh.edges[:, 0], mid, mid, mesh.edges[:, 1]], axis=1).reshape(-1, 2, 2)
    marker_pairs = {name: halves[mesh.edges_with_marker(name)].reshape(-1, 2)
                    for name in mesh.boundary_markers}
    return Mesh(np.vstack([mesh.vertices, midpoints]), tris, marker_pairs)


def count_entities(mesh):
    """Entity counts (#T, #E, #V, #V_B, #V_I) of a chart mesh."""
    boundary = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.num_edges) == 1
    nvb = len(np.unique(mesh.edges[boundary]))
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
    X, Y = np.meshgrid(np.linspace(*xlim, nx + 1), np.linspace(*ylim, ny + 1))
    # vid[j, i] is the vertex at (X[j, i], Y[j, i])
    vid = np.arange(X.size).reshape(X.shape)
    a, b, c, d = vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:], vid[1:, :-1]
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)

    sides = {"bottom": vid[0], "top": vid[ny], "left": vid[:, 0], "right": vid[:, nx]}
    markers = {}
    for side, name in (side_markers or {}).items():
        pairs = np.column_stack([sides[side][:-1], sides[side][1:]])
        markers[name] = np.vstack([markers.get(name, np.empty((0, 2), int)), pairs])
    return Mesh(np.column_stack([X.ravel(), Y.ravel()]), tris, markers)


def read_mesh(path):
    """Read the plain-text mesh format.

    Header line ``#V #T``, then #V vertex lines ``x y``, then #T triangle
    lines ``i j k`` (0-based), then optional lines ``edge i j name``.
    Raises MeshError when the line counts disagree with the header or a
    trailing line is not a marker, and where ``Mesh`` rejects the mesh.
    """
    with open(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    try:
        nv, nt = (int(v) for v in lines[0])
        verts = _block(lines[1:1 + nv], nv, 2, float)
        tris = _block(lines[1 + nv:1 + nv + nt], nt, 3, int)
        marks = _block(lines[1 + nv + nt:], len(lines) - 1 - nv - nt, 4, str)
        pairs = marks[:, 1:3].astype(int)
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from exc
    if np.any(marks[:, 0] != "edge"):
        raise MeshError("trailing lines must read 'edge i j name'")
    names = marks[:, 3]
    return Mesh(verts, tris, {name: pairs[names == name] for name in dict.fromkeys(names.tolist())})


def _block(lines, count, width, kind):
    """``count`` lines of exactly ``width`` values each as a (count, width) array."""
    block = np.array(lines, dtype=kind).reshape(-1, width)
    if len(lines) != count or len(block) != count:
        raise MeshError(f"expected {count} lines of {width} values")
    return block
