"""Command-line entry point for the shell locking benchmarks."""

import argparse
import sys

from .bench import BenchmarkConfig, emit_table, run_benchmark
from .geometry import BENCHMARK_NAMES, ConfigurationError
from .mesh import MeshError


def build_parser():
    p = argparse.ArgumentParser(
        prog="reggeshell-bench",
        description="Run shell locking benchmarks and write result tables.",
    )
    p.add_argument("--benchmark", required=True, choices=BENCHMARK_NAMES)
    p.add_argument("--order", type=int, default=2,
                   help="displacement order of the method (default 2)")
    p.add_argument("--geom-order", type=int, default=None,
                   help="geometry order (default: same as --order)")
    p.add_argument("--thickness", default="0.1,0.01,0.001,0.0001",
                   help="comma-separated thickness list")
    p.add_argument("--levels", type=int, default=3,
                   help="number of uniform refinement levels (default 3)")
    p.add_argument("--regge", choices=("on", "off"), default="on",
                   help="membrane strain interpolation (default on)")
    p.add_argument("--shear-reduction", choices=("on", "off"), default="on",
                   help="shear strain reduction (default on)")
    p.add_argument("--mesh", default=None,
                   help="import a parameter-space mesh file instead of the "
                        "structured grid")
    p.add_argument("--out", default=None,
                   help="output path (default <benchmark>.<format>)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    return p


def parse_thicknesses(text):
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad thickness list '{text}'") from exc
    if not values:
        raise ConfigurationError("thickness list is empty")
    return values


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = BenchmarkConfig(
            benchmark=args.benchmark,
            thicknesses=parse_thicknesses(args.thickness),
            levels=args.levels,
            order=args.order,
            geometry_order=args.geom_order,
            regge=args.regge == "on",
            shear_reduction=args.shear_reduction == "on",
            mesh_file=args.mesh,
        )
        table = run_benchmark(config)
        out = args.out or f"{args.benchmark}.{args.format}"
        emit_table(table, out, args.format)
    except (ConfigurationError, MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(table.rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
