import csv
import io
import math

import numpy as np
import pytest

from reggeshell import bench
from reggeshell.bench import (
    CSV_COLUMNS,
    BenchmarkConfig,
    ResultTable,
    _render_svg,
    emit_table,
    run_benchmark,
)
from reggeshell.geometry import BENCHMARK_NAMES, ConfigurationError, make_benchmark_mesh
from reggeshell.shell import LoadSpec

from test_unstructured import write_mesh


def _azimuth(X):
    return math.atan2(X[1], X[0])


# The benchmark loads as one closure per thickness, as the sweep built them
# before each became a thickness-free load times a thickness factor: the
# oracle of TestThicknessFactors.
PER_THICKNESS_LOADS = {
    "cylinder": lambda t: LoadSpec(
        volume=lambda X, nu: t ** 3 * math.cos(2.0 * _azimuth(X)) * nu),
    "hyperboloid": lambda t: LoadSpec(
        volume=lambda X, nu: (t ** 3 / math.hypot(X[0], X[1])
                              * math.cos(2.0 * _azimuth(X))
                              * np.array([X[0], X[1], 0.0]))),
    "unibend_cylinder": lambda t: LoadSpec(
        edge_moments={"loaded": lambda X: np.array([(t / 0.1) ** 3, 0.0])}),
    "hyperbolic_paraboloid": lambda t: LoadSpec(
        volume=lambda X, nu: 8.0 * t ** 3 * nu),
    "hemisphere": lambda t: LoadSpec(
        volume=lambda X, nu: (t / 10.0) * math.cos(2.0 * _azimuth(X)) * nu),
}


def sample_row(**overrides):
    row = dict(
        benchmark="cylinder", t=0.01, level=1, n_elements=32, n_dofs=450,
        reduction="on", value=1.25e-6, reference=1.3e-6,
        rel_error=abs(1.25e-6 - 1.3e-6) / 1.3e-6, newton_iters=1,
    )
    row.update(overrides)
    return row


class TestResultTable:
    def test_empty_table_is_header_only(self):
        assert ResultTable().to_csv() == ",".join(CSV_COLUMNS) + "\n"

    def test_row_round_trips_through_csv(self):
        table = ResultTable()
        table.add(**sample_row())
        parsed = list(csv.DictReader(io.StringIO(table.to_csv())))
        assert len(parsed) == 1
        rec = parsed[0]
        assert rec["benchmark"] == "cylinder"
        assert float(rec["t"]) == 0.01
        assert int(rec["level"]) == 1
        assert float(rec["value"]) == pytest.approx(1.25e-6, rel=1e-12)
        assert rec["reduction"] == "on"

    def test_failed_solve_renders_as_nan(self):
        table = ResultTable()
        table.add(**sample_row(value=math.nan, rel_error=math.nan))
        line = table.to_csv().splitlines()[1]
        assert ",nan," in line and line.endswith("nan,1")


class TestSvg:
    def make_table(self):
        table = ResultTable()
        for t in (0.1, 0.001):
            for level in (0, 1, 2):
                table.add(**sample_row(t=t, level=level,
                                       rel_error=0.1 / (level + 1) * t))
        return table

    def test_one_polyline_per_thickness(self):
        svg = _render_svg(self.make_table())
        assert svg.count("<polyline") == 2
        assert svg.count("<text") == 2

    def test_nan_rows_are_skipped(self):
        table = self.make_table()
        table.add(**sample_row(t=0.01, rel_error=math.nan))
        assert _render_svg(table).count("<polyline") == 2

    def test_empty_table_still_valid_svg(self):
        svg = _render_svg(ResultTable())
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


class TestEmit:
    def test_csv_file_written(self, tmp_path):
        table = ResultTable()
        table.add(**sample_row())
        out = tmp_path / "result.csv"
        emit_table(table, str(out), "csv")
        assert out.read_text() == table.to_csv()

    def test_svg_file_written(self, tmp_path):
        out = tmp_path / "result.svg"
        emit_table(ResultTable(), str(out), "svg")
        assert out.read_text().startswith("<svg")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_table(ResultTable(), str(tmp_path / "x"), "pdf")


class TestConfig:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchmarkConfig("moebius_strip")

    def test_every_benchmark_has_one_run(self):
        assert set(bench._RUNS) == set(BENCHMARK_NAMES)

    def test_invalid_parameters_rejected(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                BenchmarkConfig("cylinder", thicknesses=(0.1, bad))
        with pytest.raises(ConfigurationError):
            BenchmarkConfig("cylinder", levels=0)
        with pytest.raises(ConfigurationError):
            BenchmarkConfig("cylinder", order=0)

    @pytest.mark.parametrize("field", [dict(thicknesses=()), dict(geometry_order=0),
                                       dict(base_refinement=-2)],
                             ids=["no_thickness", "geometry_order_0", "base_refinement_-2"])
    def test_unrunnable_config_rejected(self, field):
        with pytest.raises(ConfigurationError):
            BenchmarkConfig("cylinder", **field)

    def test_base_refinement_defaults(self):
        # the cylinder starts one level finer than its 8-element grid
        assert BenchmarkConfig("cylinder").base_refinement == 1
        assert BenchmarkConfig("hyperboloid").base_refinement == 0
        assert BenchmarkConfig("cylinder", base_refinement=0).base_refinement == 0
        # an imported mesh is level 0 as given, unless a refinement is asked for
        assert BenchmarkConfig("cylinder", mesh_file="m.txt").base_refinement == 0
        assert BenchmarkConfig("cylinder", mesh_file="m.txt",
                               base_refinement=1).base_refinement == 1

    def test_imported_mesh_is_level_0(self, tmp_path):
        mesh, _ = make_benchmark_mesh("cylinder")
        assert mesh.num_triangles == 8
        config = BenchmarkConfig("cylinder", mesh_file=str(write_mesh(mesh, tmp_path)),
                                 thicknesses=(0.1,), levels=1, reference_order=2)
        table = run_benchmark(config)
        assert [row["n_elements"] for row in table.rows] == [8]


class TestRun:
    def test_small_run_table_shape(self):
        config = BenchmarkConfig(
            "unibend_cylinder", thicknesses=(0.01, 0.001), levels=1,
            order=1, reference_order=2,
        )
        table = run_benchmark(config)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row["reduction"] == "on"
            assert row["n_elements"] == 16
            assert row["rel_error"] < 0.3


class TestThicknessFactors:
    @pytest.mark.parametrize("t", [0.1, 1e-4])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_scaled_load_matches_per_thickness_load(self, name, t):
        run = bench._RUNS[name]
        config = BenchmarkConfig(name, levels=1)
        model = bench._make_model(*bench._benchmark_meshes(config), run["material"],
                                  config, 2, regge=False)
        scaled = run["scale"](t) * model.load_vector(run["load"])
        reference = model.load_vector(PER_THICKNESS_LOADS[name](t))
        size = np.max(np.abs(reference))
        assert size > 0.0
        assert np.max(np.abs(scaled - reference)) <= 1e-14 * size


class TestLoadAssembledOncePerModel:
    def count_load_points(self, monkeypatch, thicknesses):
        """Calls of the hyperboloid's volume load in compute_references and in
        run_benchmark, and the energy points of the models each built."""
        run = bench._RUNS["hyperboloid"]
        volume = run["load"].volume
        calls = [0]

        def counted(X, nu):
            calls[0] += 1
            return volume(X, nu)

        models, build = [], bench._make_model

        def make_model(*args, **kwargs):
            models.append(build(*args, **kwargs))
            return models[-1]

        config = BenchmarkConfig("hyperboloid", thicknesses=thicknesses, levels=2,
                                 order=1, reference_order=2)
        with monkeypatch.context() as patch:
            patch.setitem(run, "load", LoadSpec(volume=counted))
            patch.setattr(bench, "_make_model", make_model)
            refs = bench.compute_references(config)
            reference_calls = calls[0]
            run_benchmark(config, refs)
        points = [m._X.shape[0] * m._X.shape[1] for m in models]
        return (reference_calls, calls[0] - reference_calls), (points[0], sum(points[1:]))

    def test_volume_load_evaluated_once_per_model_point(self, monkeypatch):
        one = self.count_load_points(monkeypatch, (0.01,))
        four = self.count_load_points(monkeypatch, bench.DEFAULT_THICKNESSES)
        assert one == four
        calls, points = four
        assert calls == points
