"""One benchmark workload, run in a fresh process started by ``run.py``.

Usage (normally through run.py, which sets the environment):

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --record NAME      # print every case's value
    python3 perfbench/workload.py --regge-off-check  # locking cases, Regge off

The process imports reggeshell from ``src/`` of the checkout, sets up the
workload, then runs passes of the workload's timed work until ``--seconds``
have elapsed (at least one pass).  Every solve's measured value is checked
against ``expected.json``.  The last line of standard output is one JSON
object with the result.
"""

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import numpy as np  # noqa: E402

from reggeshell import assembly, bench, geometry, shell  # noqa: E402

import tracer as tracing  # noqa: E402

# Relative tolerance of every checked value.  A 1e-15 relative perturbation
# of the right-hand side moves the thinnest hyperboloid value (t = 1e-4) by
# 2.8e-9, so reordering the sums of a refactor (a few ulps per entry) can
# move values by ~1e-8; 1e-6 keeps a margin of about 100 above that.  Turning
# the Regge interpolation off moves the locking values by 1e-3 to O(1).
TOLERANCE = 1e-6

HYPERBOLOID_MATERIAL = shell.MaterialParams(2.85e4, 0.3)
UNIBEND_MATERIAL = shell.MaterialParams(2.0e5, 0.0)

# thickness_scan grid: 19 log-spaced thicknesses in [1e-4, 1e-1]
THICKNESS_GRID = tuple(10.0 ** (-4.0 + i / 6.0) for i in range(19))
# green_newton end moments, each step starting from the previous state
MOMENTS = (1.0, 2.0, 5.0, 10.0)
# green_newton measurement points on the free and loaded edges
GREEN_POINTS = (
    (math.pi / 2.0, 0.0), (math.pi / 2.0, 0.0125), (math.pi / 2.0, 0.025),
    (math.pi / 4.0, 0.0), (math.pi / 4.0, 0.025), (3.0 * math.pi / 8.0, 0.0125),
)
GREEN_POINTS_PER_RUN = 3


def hyperboloid_load(t):
    """Thickness-scaled radial cos(2 phi) pressure of the hyperboloid benchmark."""
    def volume(X, nu):
        r = math.hypot(X[0], X[1])
        return t ** 3 / r * math.cos(2.0 * math.atan2(X[1], X[0])) * np.array(
            [X[0], X[1], 0.0])
    return shell.LoadSpec(volume=volume)


def end_moment(M):
    return shell.LoadSpec(edge_moments={"loaded": lambda X: np.array([M, 0.0])})


# Each workload function does the set-up and returns (setup_solves, one_pass):
# setup_solves lists the solves made during set-up, one_pass() runs the timed
# work and returns the same kind of list.  A solve is (name, parts), where
# parts is a list of (case, values) with values a list of floats, or None
# when the solve raised SolverError.  The cases are the keys of expected.json.


def locking_sweep(rng, record=False):
    """README/CLI sweep: cylinder, levels=2, Regge on and off, shared references."""
    thicknesses = [0.1, 0.001]
    if not record:
        rng.shuffle(thicknesses)
    config = bench.BenchmarkConfig("cylinder", thicknesses=tuple(thicknesses),
                                   levels=2)
    refs = bench.compute_references(config)
    setup_solves = [_scalar(f"reference/t={t:g}", refs[t]) for t in thicknesses]

    def one_pass():
        solves = []
        for regge in (True, False):
            table = bench.run_benchmark(dataclasses.replace(config, regge=regge), refs)
            solves += [_scalar(_sweep_case(regge, row), row["value"])
                       for row in table.rows]
        return solves

    return setup_solves, one_pass


def _sweep_case(regge, row):
    return f"{'on' if regge else 'off'}/level={row['level']}/t={row['t']:g}"


def _scalar(case, value):
    """A solve that measured one value; run_benchmark reports failures as NaN."""
    return case, (None if value != value else [(case, [float(value)])])


def thickness_scan(rng, record=False):
    """One hyperboloid model (512 elements, order 2, Regge) over many thicknesses."""
    mesh, chart = geometry.make_benchmark_mesh("hyperboloid", 3)
    model = shell.ShellModel(mesh, chart, HYPERBOLOID_MATERIAL, shell.ShellConfig(
        thickness=0.1, order=2, membrane_reduction="regge"))
    point = (0.0, 0.0)   # the waist, where the radial deflection is measured
    X = chart.phi(np.asarray(point))
    radial = np.array([X[0], X[1], 0.0]) / math.hypot(X[0], X[1])

    def solve(t):
        model.config.thickness = t
        try:
            state, _ = model.solve(hyperboloid_load(t))
        except assembly.SolverError:
            return math.nan
        return float(model.evaluate_displacement(state.vector, point) @ radial)

    # the warm-up solve fills the per-element form cache
    setup_solves = [_scalar("warmup/t=0.1", solve(0.1))]
    order = list(THICKNESS_GRID)
    if not record:
        rng.shuffle(order)

    def one_pass():
        return [_scalar(f"t={t:.6e}", solve(t)) for t in order]

    return setup_solves, one_pass


def green_newton(rng, record=False):
    """Geometrically nonlinear Newton: end moment on the unibend cylinder."""
    mesh, chart = geometry.make_benchmark_mesh("unibend_cylinder")
    model = shell.ShellModel(mesh, chart, UNIBEND_MATERIAL, shell.ShellConfig(
        thickness=0.01, order=2, membrane_reduction="regge", model="full_green"))
    points = list(GREEN_POINTS) if record else rng.sample(GREEN_POINTS,
                                                          GREEN_POINTS_PER_RUN)

    def step(M, x0):
        """(state vector, solve) of one load step; the vector is None on failure."""
        if x0 is None and M != MOMENTS[0]:
            return None, (f"M={M:g}", None)   # the previous step failed
        try:
            state, _ = model.solve(end_moment(M), x0=x0)
        except assembly.SolverError:
            return None, (f"M={M:g}", None)
        parts = [(f"M={M:g}/point=({p[0]:.6f},{p[1]:.6f})",
                  [float(v) for v in model.evaluate_displacement(state.vector, p)])
                 for p in points]
        return state.vector, (f"M={M:g}", parts)

    x1, first = step(MOMENTS[0], None)

    def one_pass():
        solves, x = [], x1
        for M in MOMENTS[1:]:
            x, solve = step(M, x)
            solves.append(solve)
        return solves

    return [first], one_pass


WORKLOADS = {
    "locking_sweep": locking_sweep,
    "thickness_scan": thickness_scan,
    "green_newton": green_newton,
}


def load_expected():
    with open(HERE / "expected.json") as fh:
        return json.load(fh)["values"]


def matches(values, expected):
    """True when values agree with the recorded ones within TOLERANCE."""
    if expected is None or len(values) != len(expected):
        return False
    diff = math.sqrt(sum((v - e) ** 2 for v, e in zip(values, expected)))
    return diff <= TOLERANCE * math.sqrt(sum(e * e for e in expected))


def passed(parts, expected):
    """A solve passes when it returned and every value it measured matches."""
    return parts is not None and all(matches(values, expected.get(case))
                                     for case, values in parts)


def run(args):
    t0 = float(os.environ["PERFBENCH_T0"])   # run.py's clock just before start
    expected = load_expected()[args.workload]
    rng = random.Random(args.seed)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    setup_solves, one_pass = WORKLOADS[args.workload](rng)
    checked = list(setup_solves)

    untraced_s = None
    if args.trace:
        # one untraced pass gives the reference for the tracing overhead
        tracer.remove()
        start = time.perf_counter()
        checked += one_pass()
        untraced_s = time.perf_counter() - start
        tracing.install(tracer)
        tracer.phase = "timed"

    timed_start = time.monotonic()
    setup_s = timed_start - t0
    passes = []
    while True:
        start = time.perf_counter()
        checked += one_pass()
        passes.append(time.perf_counter() - start)
        if time.monotonic() - timed_start >= args.seconds:
            break
    tracer.remove()

    failed = [name for name, parts in checked if not passed(parts, expected)]
    run_s = statistics.median(passes)
    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = {"value": run_s - untraced_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "ok_share": {"value": (len(checked) - len(failed)) / len(checked),
                         "unit": "share"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    info = {"pass_s": passes, "failed_solves": failed[:20]}
    if args.trace:
        info["spans"] = {phase: tracer.summary(phase) for phase in ("setup", "timed")}
    return {"correct": not failed, "attempted": len(checked), "failed": len(failed),
            "metrics": metrics, "info": info}


def record(name):
    """Every case of a workload, in canonical order, from a single pass."""
    setup_solves, one_pass = WORKLOADS[name](random.Random(0), record=True)
    values = {}
    for solve, parts in setup_solves + one_pass():
        if parts is None:
            raise RuntimeError(f"{name}: solve {solve} failed while recording")
        values.update(parts)
    return values


def regge_off_check():
    """Run the locking sweep with Regge off against the Regge-on expectations.

    The check behind ok_share must reject these values: membrane locking
    changes them by far more than TOLERANCE.
    """
    expected = load_expected()["locking_sweep"]
    refs = {t: expected[f"reference/t={t:g}"][0] for t in (0.1, 0.001)}
    config = bench.BenchmarkConfig("cylinder", thicknesses=(0.1, 0.001), levels=2,
                                   regge=False)
    table = bench.run_benchmark(config, refs)
    results = []
    for row in table.rows:
        case = _sweep_case(True, row)
        reference = expected[case][0]
        results.append({"case": case,
                        "rel_diff": abs(row["value"] - reference) / abs(reference),
                        "accepted": matches([row["value"]], [reference])})
    return results


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", choices=sorted(WORKLOADS))
    p.add_argument("--regge-off-check", action="store_true")
    args = p.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(bench.__file__).resolve().parents[1] != src:
        print(f"error: reggeshell imported from {bench.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.record:
        result = record(args.record)
    elif args.regge_off_check:
        result = regge_off_check()
    elif args.workload:
        result = run(args)
    else:
        p.error("give --workload, --record or --regge-off-check")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
