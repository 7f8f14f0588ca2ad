"""Shell benchmark driver: thickness/refinement sweeps and result tables.

Five standard locking benchmarks are provided, each one record of
``geometry.BENCHMARKS``.  Each run solves the shell problem over a list of
thicknesses and uniform refinement levels, measures a deflection component
at a benchmark-specific point and reports the relative error against a
self-computed reference (order-4 displacements on the finest mesh of the
sweep).  Each benchmark load is a thickness-free load times a thickness
factor (t^3, (t/0.1)^3 or t/10), so every model assembles its load vector
once and each thickness solves with the scaled vector.  Results are
emitted as CSV with a fixed column set, or as a simple SVG error plot.
"""

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .assembly import SolverError
from .geometry import BENCHMARK_NAMES, BENCHMARKS, ConfigurationError, make_benchmark_mesh
from .mesh import read_mesh, refine_uniform
from .shell import (LoadSpec, MaterialParams, ShellConfig, ShellModel, _is_integer_at_least,
                    _is_real)

__all__ = [
    "BenchmarkConfig",
    "ResultTable",
    "run_benchmark",
    "emit_table",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "benchmark", "t", "level", "n_elements", "n_dofs", "reduction",
    "value", "reference", "rel_error", "newton_iters",
)

DEFAULT_THICKNESSES = (0.1, 0.01, 0.001, 0.0001)

SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 560, 400, 50   # pixels of the convergence plot


@dataclass
class BenchmarkConfig:
    benchmark: str
    thicknesses: tuple = DEFAULT_THICKNESSES
    levels: int = 3
    order: int = 2
    geometry_order: int = None
    reference_order: int = 4
    regge: bool = True
    shear_reduction: bool = True
    base_refinement: int = None
    mesh_file: str = None

    def __post_init__(self):
        if self.benchmark not in BENCHMARK_NAMES:
            raise ConfigurationError(
                f"unknown benchmark '{self.benchmark}'; choose one of {BENCHMARK_NAMES}"
            )
        if not isinstance(self.thicknesses, (tuple, list)):
            raise ConfigurationError("the thicknesses must be a tuple or list of numbers")
        if not self.thicknesses:
            raise ConfigurationError("thickness list is empty")
        if not all(_is_real(t) and 0.0 < t < math.inf for t in self.thicknesses):
            raise ConfigurationError("thickness values must be positive finite numbers")
        orders = (self.order, self.reference_order,
                  1 if self.geometry_order is None else self.geometry_order)
        if not all(_is_integer_at_least(k, 1) for k in orders):
            raise ConfigurationError("element and geometry orders must be integers >= 1")
        if not _is_integer_at_least(self.levels, 1):
            raise ConfigurationError("the number of refinement levels must be an integer >= 1")
        if self.base_refinement is not None and not _is_integer_at_least(self.base_refinement, 0):
            raise ConfigurationError("base refinement must be an integer >= 0")
        if not all(isinstance(on, (bool, np.bool_)) for on in (self.regge, self.shear_reduction)):
            raise ConfigurationError("regge and shear_reduction must be booleans")
        if self.mesh_file is not None and not isinstance(self.mesh_file, (str, os.PathLike)):
            raise ConfigurationError("the mesh file must be a path, a str or os.PathLike")


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def add(self, **kwargs):
        self.rows.append({c: kwargs[c] for c in CSV_COLUMNS})

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([_format_cell(c, row[c]) for c in CSV_COLUMNS])
        return buf.getvalue()


def _format_cell(column, value):
    if column in ("value", "reference", "rel_error"):
        return f"{value:.12e}"
    if column == "t":
        return f"{value:g}"
    return str(value)


def _meshes(config):
    """Mesh and chart of each level of the sweep: the structured or imported
    base mesh, refined ``base_refinement`` times, then once per level."""
    spec = BENCHMARKS[config.benchmark]
    mesh, chart = make_benchmark_mesh(config.benchmark)
    base = config.base_refinement
    if config.mesh_file is not None:
        mesh = read_mesh(config.mesh_file)
        # an imported mesh is level 0 as given; the refinement of the
        # structured grid is no property of it
        base = base or 0
    elif base is None:
        base = spec.get("base_refinement", 0)
    missing = set(spec["load"].get("edge_moments", ())) - set(mesh.boundary_markers)
    if missing:
        raise ConfigurationError(f"the mesh has no '{missing.pop()}' marker for the load")
    try:
        mesh.locate(spec["point"])
    except ValueError:
        raise ConfigurationError(f"the mesh does not cover the point {spec['point']}") from None
    for _ in range(base):
        mesh = refine_uniform(mesh)
    yield mesh, chart
    for _ in range(config.levels - 1):
        mesh = refine_uniform(mesh)
        yield mesh, chart


def _solves(config, mesh, chart, order, regge):
    """(t, n_dofs, deflection, Newton iterations) per thickness on one mesh.

    The model and its thickness-free load vector are built once; a failed
    solve yields a NaN deflection after 0 iterations."""
    spec = BENCHMARKS[config.benchmark]
    model = ShellModel(mesh, chart, MaterialParams(*spec["material"]), ShellConfig(
        thickness=config.thicknesses[0],
        order=order,
        geometry_order=config.geometry_order,
        membrane_reduction="regge" if regge else "none",
        shear_reduction="edge_tangential" if config.shear_reduction else "none",
    ))
    f = model.load_vector(LoadSpec(**spec["load"]))
    X = chart.phi(np.asarray(spec["point"], dtype=float))
    direction = np.asarray(spec["direction"](X), dtype=float)
    for t in config.thicknesses:
        model.config.thickness = t
        try:
            state, iters = model.solve(spec["scale"](t) * f)
        except SolverError:
            value, iters = math.nan, 0
        else:
            value = float(model.evaluate_displacement(state.vector, spec["point"]) @ direction)
        yield t, model.num_dofs, value, iters


def compute_references(config):
    """Reference deflections per thickness: order-4 method, finest mesh."""
    *_, (mesh, chart) = _meshes(config)
    return {t: value for t, _, value, _ in
            _solves(config, mesh, chart, config.reference_order, regge=True)}


def run_benchmark(config, references=None):
    """Full sweep over thicknesses and levels for one reduction setting.

    ``references`` allows sharing the (expensive) reference solves between
    runs with and without the membrane reduction.
    """
    if references is None:
        references = compute_references(config)
    missing = [t for t in config.thicknesses if t not in references]
    if missing:
        raise ConfigurationError(f"the references have no value for thickness {missing[0]:g}")
    table = ResultTable()
    for level, (mesh, chart) in enumerate(_meshes(config)):
        for t, n_dofs, value, iters in _solves(config, mesh, chart, config.order, config.regge):
            ref = references[t]
            rel = abs(value - ref) / abs(ref) if ref != 0 else math.nan
            table.add(benchmark=config.benchmark, t=t, level=level,
                      n_elements=mesh.num_triangles, n_dofs=n_dofs,
                      reduction="on" if config.regge else "off", value=value,
                      reference=ref, rel_error=rel, newton_iters=iters)
    return table


# --- output ----------------------------------------------------------------


def emit_table(table, path, fmt="csv"):
    """Write a result table as CSV or as an SVG relative-error plot."""
    if fmt == "csv":
        data = table.to_csv()
    elif fmt == "svg":
        data = _render_svg(table)
    else:
        raise ConfigurationError(f"unknown output format '{fmt}'")
    with open(path, "w") as fh:
        fh.write(data)
    return path


def _render_svg(table):
    """Relative error against refinement level, one polyline per thickness."""
    series = {}
    for row in table.rows:
        if row["rel_error"] != row["rel_error"] or row["rel_error"] <= 0:
            continue
        series.setdefault(row["t"], []).append((row["level"], row["rel_error"]))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    if series:
        levels = sorted({lv for pts in series.values() for lv, _ in pts})
        errs = [e for pts in series.values() for _, e in pts]
        lo, hi = math.log10(min(errs)), math.log10(max(errs))
        if hi - lo < 1e-12:
            hi = lo + 1.0
        span_x = max(levels) - min(levels) or 1

        def sx(lv):
            return SVG_MARGIN + (lv - min(levels)) / span_x * (SVG_WIDTH - 2 * SVG_MARGIN)

        def sy(err):
            frac = (math.log10(err) - lo) / (hi - lo)
            return SVG_HEIGHT - SVG_MARGIN - frac * (SVG_HEIGHT - 2 * SVG_MARGIN)

        palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
        for i, t in enumerate(sorted(series, reverse=True)):
            pts = sorted(series[t])
            path = " ".join(f"{sx(lv):.2f},{sy(e):.2f}" for lv, e in pts)
            color = palette[i % len(palette)]
            lines.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{path}"/>'
            )
            lines.append(
                f'<text x="{SVG_WIDTH - SVG_MARGIN + 4}" y="{sy(pts[-1][1]):.2f}" '
                f'font-size="11" fill="{color}">t={t:g}</text>'
            )
        lines.append(
            f'<line x1="{SVG_MARGIN}" y1="{SVG_HEIGHT - SVG_MARGIN}" '
            f'x2="{SVG_WIDTH - SVG_MARGIN}" y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>'
        )
        lines.append(
            f'<line x1="{SVG_MARGIN}" y1="{SVG_MARGIN}" x2="{SVG_MARGIN}" '
            f'y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
