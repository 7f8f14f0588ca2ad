"""The benchmark's span tracer (perfbench/tracer.py) still finds every layer.

The tracer wraps library entry points by name from outside the library, so
renaming one of them silently empties a per-layer metric.  One small
full-Green solve must enter every span listed below.
"""

import importlib.util
from pathlib import Path

import numpy as np

import reggeshell.bench  # noqa: F401  (the tracer needs every layer imported)
from reggeshell.geometry import make_benchmark_mesh
from reggeshell.shell import LoadSpec, MaterialParams, ShellConfig, ShellModel

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

SPANS = (
    "mesh.rectangle",
    "shell.build",
    "geometry.evaluate",
    "interpolation.functionals",
    "interpolation.dual_solve",
    "shell.load_vector",
    "shell.gradient",
    "shell.hessian",
    "assembly.assemble",
    "assembly.factor_solve",
    "shell.solve",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_green_solve_enters_every_traced_layer():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        mesh, chart = make_benchmark_mesh("unibend_cylinder")
        model = ShellModel(mesh, chart, MaterialParams(2.0e5, 0.0), ShellConfig(
            thickness=0.01, order=1, membrane_reduction="regge", model="full_green"))
        model.solve(LoadSpec(edge_moments={"loaded": lambda X: np.array([1.0, 0.0])}))
    finally:
        tracer.remove()
    summary = tracer.summary()
    missing = [name for name in SPANS if summary.get(name, {}).get("calls", 0) == 0]
    assert not missing
    # the hooks read the assembled matrix back through ``matrix`` and
    # ``reduced()``, after the solve has scaled and restored its values;
    # ``matrix`` holds the free block alone
    assert tracer.counters["assembly.nnz"] == len(model._pattern.block_indices) == 1850
    assert tracer.counters.get("assembly.fallbacks", 0) == 0
