"""reggeshell benchmark: three workloads, each in its own fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # all workloads, one table
    python3 perfbench/run.py --self-test         # tracer wiring and checks
    python3 perfbench/run.py --record            # rewrite expected.json

Run from the root of a checkout; reggeshell is imported from its ``src/``.
Each workload runs in a child process (``workload.py``) started with BLAS and
OpenMP threads set to 1.  With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is the result as one JSON object; the line
before it records the Python, numpy and scipy versions, ``nproc`` and the
host-speed diagnostic.  See NOTES.md for why each workload exists.
"""

import os

# before numpy is imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("locking_sweep", "thickness_scan", "green_newton")
CHILD_TIMEOUT_S = 170


def ref_kernel_s():
    """Time of a fixed numpy and pure-Python loop: the host's speed, not the
    program's.  Recorded with every run, never gated on or divided by."""
    start = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((160, 160))
    for _ in range(40):
        a = np.tanh(a @ a.T / 160.0)
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return time.perf_counter() - start


def environment():
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def child(*args):
    """Run workload.py in a fresh process; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *map(str, args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_one(name, seed, seconds, trace):
    """Result of one workload run, with the host diagnostic around it."""
    ref_kernel_s()   # the first call in a process pays for numpy's set-up
    kernel_before = ref_kernel_s()
    result = child("--workload", name, "--seed", seed, "--seconds", seconds,
                   "--trace", int(trace))
    kernel_after = ref_kernel_s()
    info = dict(result.pop("info"), workload=name, seed=seed, **environment(),
                host_ref_kernel_s=[kernel_before, kernel_after])
    if trace:
        result["metrics"]["host.ref_kernel_s"] = {
            "value": 0.5 * (kernel_before + kernel_after), "unit": "s"}
    return result, info


def run_all(seed, seconds, trace):
    """Every workload in turn; metrics named <workload>/<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result, info = run_one(name, seed, seconds, trace)
        print(json.dumps(info))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    for metric, entry in combined["metrics"].items():
        print(f"{metric:48s} {entry['value']:>14.6g} {entry['unit']}")
    return combined


def self_test(seed, seconds):
    """Tracer wiring and correctness-check checks; returns a list of failures."""
    failures = []
    # layer metric -> workload it is listed for (NOTES.md)
    must_count = {
        "geometry.evaluate_calls": "locking_sweep",
        "shell.models": "locking_sweep",
        "mesh.refine_calls": "locking_sweep",
        "bench.references_calls": "locking_sweep",
        "interpolation.functionals_calls": "green_newton",
        "interpolation.dual_solve_calls": "green_newton",
        "shell.hessian_calls": "green_newton",
        "shell.solves": "green_newton",
        "shell.newton_iters": "green_newton",
        "assembly.assemble_calls": "thickness_scan",
        "assembly.nnz": "thickness_scan",
        "assembly.factor_calls": "thickness_scan",
    }
    # self-time metrics: the span they come from must have been entered
    must_enter = {
        "shell.load_vector": "thickness_scan",
        "shell.gradient": "thickness_scan",
        "bench.measure": "locking_sweep",
        "mesh.rectangle": "green_newton",
    }
    results = {}
    for name in WORKLOADS:
        results[name] = run_one(name, seed, seconds, trace=True)
        if not results[name][0]["correct"]:
            failures.append(f"{name}: traced run failed its correctness check")
    for metric, name in must_count.items():
        value = results[name][0]["metrics"][metric]["value"]
        if not value > 0:
            failures.append(f"{name}: {metric} = {value}, expected > 0")
    for span, name in must_enter.items():
        if not any(spans.get(span) for spans in results[name][1]["spans"].values()):
            failures.append(f"{name}: no {span} span recorded")
    timed = results["thickness_scan"][0]["metrics"]
    for metric in ("geometry.timed_evaluate_calls", "interpolation.timed_calls"):
        if timed[metric]["value"] != 0:
            failures.append(f"thickness_scan: {metric} = {timed[metric]['value']}, "
                            "expected 0 in the timed section")
    if not results["thickness_scan"][0]["metrics"]["assembly.fallback_share"]["value"] > 0:
        failures.append("thickness_scan: no solve reached the backward-error fallback")
    for row in child("--regge-off-check"):
        print(json.dumps(row))
        if row["accepted"]:
            failures.append(f"Regge-off value accepted for {row['case']}")
    return failures


def record():
    values = {name: child("--record", name) for name in WORKLOADS}
    data = {"recorded_with": environment(), "values": values}
    with open(HERE / "expected.json", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "reggeshell" / "__init__.py").is_file():
        print(f"error: no reggeshell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record()
            return 0
        if args.self_test:
            failures = self_test(args.seed, args.seconds)
            for line in failures:
                print(f"FAIL {line}")
            print("self-test " + ("failed" if failures else "passed"))
            return 1 if failures else 0
        if args.workload is None:
            p.error("give --workload, --self-test or --record")
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result, info = run_one(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(info))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
