"""Span tracer that measures reggeshell's layers from outside the library.

The tracer replaces public functions and methods of the ``reggeshell``
modules with wrappers that record one span per call: name, start, end, the
span that was open when the call began, and the benchmark phase (``setup``
or ``timed``).  Spans stay in memory; ``summary`` reduces them to calls,
total time and self time (duration minus the time of the child spans) per
span name.

A function that a module imports by name (``from .assembly import
factor_solve`` in ``reggeshell.shell``) is a separate attribute of that
module, so wrapping ``reggeshell.assembly.factor_solve`` alone would record
nothing.  ``wrap_function`` therefore replaces every attribute of every
loaded reggeshell module that refers to the function, which is the name each
caller actually looks up.
"""

import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, phase]
        self.phase = "setup"
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _wrapper(self, name, fn, before=None, after=None):
        """Callable that records a span around ``fn``.

        ``before`` may rewrite the arguments outside the span, ``after`` sees
        the arguments and the result once the span has ended.  Calls that
        raise are counted in ``counters[name + ".errors"]``.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_function(self, module, attr, name, **hooks):
        """Wrap a module-level function under every name that refers to it."""
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "reggeshell" and not mod_name.startswith("reggeshell."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def wrap_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, **hooks))
        self._patches.append((cls, attr, original))

    def remove(self):
        """Restore every wrapped name."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def summary(self, phase=None):
        """{name: {"calls", "total_s", "self_s"}} over all spans or one phase."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, span_phase) in enumerate(self.spans):
            if phase is not None and span_phase != phase:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out


def install(tracer):
    """Wrap the public entry points of every reggeshell layer.

    Needs ``reggeshell.bench`` imported, which imports the other modules.
    """
    from reggeshell import assembly, bench, geometry, interpolation, mesh, shell

    counters = tracer.counters

    def materialize(args, kwargs):
        # ShellModel.hessian passes a generator that computes the element
        # forms; consume it before the assembly span opens so that this work
        # is charged to the caller, not to assembly
        args = list(args)
        args[1] = list(args[1])
        return tuple(args), kwargs

    def count_nnz(args, kwargs, result):
        counters["assembly.nnz"] = max(counters["assembly.nnz"], result.matrix.nnz)

    def check_residual(args, kwargs, x):
        # relative residual of the returned solution, recomputed outside the
        # solver: above RESIDUAL_TOL means the solve was accepted only by the
        # backward-error fallback
        matrix, rhs = args[0], np.asarray(args[1])
        if not isinstance(matrix, assembly.SparseSymMatrix):
            return
        reduced, idx = matrix.reduced()
        b = rhs[idx]
        bnorm = np.linalg.norm(b)
        res = np.linalg.norm(reduced @ x[idx] - b)
        if bnorm > 0 and res > assembly.RESIDUAL_TOL * bnorm:
            counters["assembly.fallbacks"] += 1

    def count_iterations(args, kwargs, result):
        counters["shell.newton_iters"] += result[1]

    tracer.wrap_method(geometry.ElementMap, "evaluate", "geometry.evaluate")
    tracer.wrap_method(shell.ShellModel, "__init__", "shell.build")
    tracer.wrap_method(shell.ShellModel, "solve", "shell.solve",
                       after=count_iterations)
    tracer.wrap_method(shell.ShellModel, "hessian", "shell.hessian")
    tracer.wrap_method(shell.ShellModel, "gradient", "shell.gradient")
    tracer.wrap_method(shell.ShellModel, "load_vector", "shell.load_vector")
    tracer.wrap_method(shell.ShellModel, "evaluate_displacement", "bench.measure")
    tracer.wrap_method(interpolation.InterpolationOperator, "functionals",
                       "interpolation.functionals")
    tracer.wrap_method(interpolation.DualMassMatrix, "solve",
                       "interpolation.dual_solve")
    tracer.wrap_function(assembly, "assemble", "assembly.assemble",
                         before=materialize, after=count_nnz)
    tracer.wrap_function(assembly, "factor_solve", "assembly.factor_solve",
                         after=check_residual)
    tracer.wrap_function(mesh, "rectangle_mesh", "mesh.rectangle")
    tracer.wrap_function(mesh, "refine_uniform", "mesh.refine")
    tracer.wrap_function(bench, "compute_references", "bench.references")


def layer_metrics(tracer):
    """Per-layer metrics of a traced run (see NOTES.md for what each moves)."""
    total = tracer.summary()
    timed = tracer.summary("timed")
    c = tracer.counters

    def calls(name, table=total):
        return table.get(name, {}).get("calls", 0)

    def seconds(name, kind="total_s", table=total):
        return table.get(name, {}).get(kind, 0.0)

    factor_calls = calls("assembly.factor_solve")
    metrics = {
        "geometry.evaluate_calls": (calls("geometry.evaluate"), "count"),
        "geometry.evaluate_s": (seconds("geometry.evaluate"), "s"),
        "geometry.timed_evaluate_calls": (calls("geometry.evaluate", timed), "count"),
        "shell.models": (calls("shell.build"), "count"),
        "shell.build_self_s": (seconds("shell.build", "self_s"), "s"),
        "interpolation.functionals_calls": (calls("interpolation.functionals"), "count"),
        "interpolation.functionals_s": (seconds("interpolation.functionals"), "s"),
        "interpolation.dual_solve_calls": (calls("interpolation.dual_solve"), "count"),
        "interpolation.dual_solve_s": (seconds("interpolation.dual_solve"), "s"),
        "interpolation.timed_calls": (
            calls("interpolation.functionals", timed)
            + calls("interpolation.dual_solve", timed), "count"),
        "shell.hessian_calls": (calls("shell.hessian"), "count"),
        "shell.hessian_self_s": (seconds("shell.hessian", "self_s"), "s"),
        "shell.load_vector_self_s": (seconds("shell.load_vector", "self_s"), "s"),
        "shell.gradient_self_s": (seconds("shell.gradient", "self_s"), "s"),
        "shell.timed_hessian_self_s": (seconds("shell.hessian", "self_s", timed), "s"),
        "shell.timed_load_vector_self_s": (
            seconds("shell.load_vector", "self_s", timed), "s"),
        "shell.timed_gradient_self_s": (seconds("shell.gradient", "self_s", timed), "s"),
        "shell.solves": (calls("shell.solve"), "count"),
        "shell.newton_iters": (int(c["shell.newton_iters"]), "count"),
        "shell.solve_failures": (int(c["shell.solve.errors"]), "count"),
        "assembly.assemble_calls": (calls("assembly.assemble"), "count"),
        "assembly.assemble_s": (seconds("assembly.assemble"), "s"),
        "assembly.nnz": (int(c["assembly.nnz"]), "count"),
        "assembly.factor_calls": (factor_calls, "count"),
        "assembly.factor_s": (seconds("assembly.factor_solve"), "s"),
        "assembly.timed_factor_s": (seconds("assembly.factor_solve", "total_s", timed), "s"),
        "assembly.fallback_share": (
            c["assembly.fallbacks"] / factor_calls if factor_calls else 0.0, "share"),
        "mesh.refine_calls": (calls("mesh.refine"), "count"),
        "mesh.build_s": (seconds("mesh.rectangle", "self_s")
                         + seconds("mesh.refine", "self_s"), "s"),
        "bench.references_calls": (calls("bench.references"), "count"),
        "bench.measure_s": (seconds("bench.measure"), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}
