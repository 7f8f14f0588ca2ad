"""Shell benchmark driver: thickness/refinement sweeps and result tables.

Five standard locking benchmarks are provided.  Each run solves the shell
problem over a list of thicknesses and uniform refinement levels, measures
a deflection component at a benchmark-specific point and reports the
relative error against a self-computed reference (order-4 displacements on
the finest mesh of the sweep).  Each benchmark load is a thickness-free
load times a thickness factor (t^3, (t/0.1)^3 or t/10), so every model
assembles its load vector once and each thickness solves with the scaled
vector.  Results are emitted as CSV with a fixed column set, or as a simple
SVG error plot.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import SolverError
from .geometry import BENCHMARK_NAMES, ConfigurationError, make_benchmark_mesh
from .mesh import read_mesh, refine_uniform
from .shell import LoadSpec, MaterialParams, ShellConfig, ShellModel

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


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _azimuth(X):
    return math.atan2(X[1], X[0])


# material, thickness-free load with its thickness factor, measurement point
# (parameter space) and measured direction (as a function of the physical
# point) per benchmark; the factor keeps the deflections O(1) as t -> 0
_RUNS = {
    "cylinder": dict(
        material=MaterialParams(3.0e4, 0.3),
        load=LoadSpec(volume=lambda X, nu: math.cos(2.0 * _azimuth(X)) * nu),
        scale=lambda t: t ** 3,
        point=(0.0, 1.0),
        direction=lambda X: _unit([X[0], X[1], 0.0]),
        # start from 32 elements; the 8-element grid under-resolves the
        # reference deflection even with the reduction
        base_refinement=1,
    ),
    "hyperboloid": dict(
        material=MaterialParams(2.85e4, 0.3),
        load=LoadSpec(
            volume=lambda X, nu: (
                math.cos(2.0 * _azimuth(X)) / math.hypot(X[0], X[1])
                * np.array([X[0], X[1], 0.0])
            )
        ),
        scale=lambda t: t ** 3,
        # measured at the waist: the inextensional mode vanishes at the free edge
        point=(0.0, 0.0),
        direction=lambda X: _unit([X[0], X[1], 0.0]),
    ),
    "unibend_cylinder": dict(
        material=MaterialParams(2.0e5, 0.0),
        load=LoadSpec(edge_moments={"loaded": lambda X: np.array([1.0, 0.0])}),
        scale=lambda t: (t / 0.1) ** 3,
        point=(math.pi / 2.0, 0.0125),
        # deflection orthogonal to the radial direction, in the bending plane
        direction=lambda X: _unit([X[2], 0.0, -X[0]]),
    ),
    "hyperbolic_paraboloid": dict(
        material=MaterialParams(2.85e4, 0.3),
        load=LoadSpec(volume=lambda X, nu: 8.0 * nu),
        scale=lambda t: t ** 3,
        point=(0.0, 1.0),
        direction=lambda X: np.array([0.0, 0.0, 1.0]),
    ),
    "hemisphere": dict(
        material=MaterialParams(6.825e7, 0.3),
        load=LoadSpec(volume=lambda X, nu: math.cos(2.0 * _azimuth(X)) * nu),
        scale=lambda t: t / 10.0,
        point=(0.0, 0.3 * math.pi),
        direction=lambda X: np.array([1.0, 0.0, 0.0]),
    ),
}


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
        if not self.thicknesses:
            raise ConfigurationError("thickness list is empty")
        if not all(0.0 < t < math.inf for t in self.thicknesses):
            raise ConfigurationError("thickness values must be positive and finite")
        orders = (self.order, self.reference_order, self.geometry_order)
        if any(k is not None and k < 1 for k in orders):
            raise ConfigurationError("element and geometry orders must be >= 1")
        if self.levels < 1:
            raise ConfigurationError("need at least one refinement level")
        if self.base_refinement is None:
            # an imported mesh is level 0 as given; the refinement of the
            # structured grid is no property of it
            self.base_refinement = (0 if self.mesh_file is not None
                                    else _RUNS[self.benchmark].get("base_refinement", 0))
        if self.base_refinement < 0:
            raise ConfigurationError("base refinement must be >= 0")


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
        return "nan" if value != value else f"{value:.12e}"
    if column == "t":
        return f"{value:g}"
    return str(value)


def _benchmark_meshes(config):
    """Base mesh plus chart; the base mesh is refined per level."""
    if config.mesh_file is not None:
        mesh = read_mesh(config.mesh_file)
        _, chart = make_benchmark_mesh(config.benchmark)
    else:
        mesh, chart = make_benchmark_mesh(config.benchmark)
    for _ in range(config.base_refinement):
        mesh = refine_uniform(mesh)
    return mesh, chart


def _make_model(mesh, chart, material, config, order, regge):
    shell_cfg = ShellConfig(
        thickness=config.thicknesses[0],
        order=order,
        geometry_order=config.geometry_order,
        membrane_reduction="regge" if regge else "none",
        shear_reduction="edge_tangential" if config.shear_reduction else "none",
    )
    return ShellModel(mesh, chart, material, shell_cfg)


def _measure(model, state, run):
    u = model.evaluate_displacement(state.vector, run["point"])
    X = model.chart.phi(np.asarray(run["point"], dtype=float))
    return float(u @ np.asarray(run["direction"](X), dtype=float))


def _solve_and_measure(model, t, run, f):
    """Solve at thickness t under the model's thickness-free load vector f."""
    model.config.thickness = t
    try:
        state, iters = model.solve(run["scale"](t) * f)
    except SolverError:
        return math.nan, 0
    return _measure(model, state, run), iters


def compute_references(config):
    """Reference deflections per thickness: order-4 method, finest mesh."""
    run = _RUNS[config.benchmark]
    mesh, chart = _benchmark_meshes(config)
    for _ in range(config.levels - 1):
        mesh = refine_uniform(mesh)
    model = _make_model(mesh, chart, run["material"], config,
                        config.reference_order, regge=True)
    f = model.load_vector(run["load"])
    return {t: _solve_and_measure(model, t, run, f)[0] for t in config.thicknesses}


def run_benchmark(config, references=None):
    """Full sweep over thicknesses and levels for one reduction setting.

    ``references`` allows sharing the (expensive) reference solves between
    runs with and without the membrane reduction.
    """
    run = _RUNS[config.benchmark]
    if references is None:
        references = compute_references(config)
    table = ResultTable()
    mesh, chart = _benchmark_meshes(config)
    for level in range(config.levels):
        if level > 0:
            mesh = refine_uniform(mesh)
        model = _make_model(mesh, chart, run["material"], config,
                            config.order, regge=config.regge)
        f = model.load_vector(run["load"])
        for t in config.thicknesses:
            value, iters = _solve_and_measure(model, t, run, f)
            ref = references[t]
            rel = abs(value - ref) / abs(ref) if ref == ref and ref != 0 else math.nan
            table.add(
                benchmark=config.benchmark,
                t=t,
                level=level,
                n_elements=mesh.num_triangles,
                n_dofs=model.num_dofs,
                reduction="on" if config.regge else "off",
                value=value,
                reference=ref,
                rel_error=rel,
                newton_iters=iters,
            )
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


def _render_svg(table, width=560, height=400, margin=50):
    """Relative error against refinement level, one polyline per thickness."""
    series = {}
    for row in table.rows:
        if row["rel_error"] != row["rel_error"] or row["rel_error"] <= 0:
            continue
        series.setdefault(row["t"], []).append((row["level"], row["rel_error"]))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if series:
        levels = sorted({lv for pts in series.values() for lv, _ in pts})
        errs = [e for pts in series.values() for _, e in pts]
        lo, hi = math.log10(min(errs)), math.log10(max(errs))
        if hi - lo < 1e-12:
            hi = lo + 1.0
        span_x = max(levels) - min(levels) or 1

        def sx(lv):
            return margin + (lv - min(levels)) / span_x * (width - 2 * margin)

        def sy(err):
            frac = (math.log10(err) - lo) / (hi - lo)
            return height - margin - frac * (height - 2 * margin)

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
                f'<text x="{width - margin + 4}" y="{sy(pts[-1][1]):.2f}" '
                f'font-size="11" fill="{color}">t={t:g}</text>'
            )
        lines.append(
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>'
        )
        lines.append(
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="black"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
