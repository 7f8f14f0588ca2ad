import csv
import io
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from reggeshell import bench
from reggeshell.assembly import SolverError
from reggeshell.bench import (
    CSV_COLUMNS,
    BenchmarkConfig,
    ResultTable,
    _render_svg,
    emit_table,
    run_benchmark,
)
from reggeshell.geometry import (
    BENCHMARK_NAMES,
    BENCHMARKS,
    ConfigurationError,
    make_benchmark_mesh,
)
from reggeshell.shell import LoadSpec, MaterialParams

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

    def test_equal_errors_give_finite_coordinates(self):
        # one error value spans no decade: the log axis gets a unit span
        table = ResultTable()
        for level in (0, 1):
            table.add(**sample_row(level=level, rel_error=0.05))
        svg = _render_svg(table)
        ET.fromstring(svg)
        attrs = re.findall(r' (?:points|x|y|x1|y1|x2|y2)="([^"]*)"', svg)
        coords = [float(v) for a in attrs for v in re.split(r"[ ,]", a)]
        assert len(coords) == 14 and all(math.isfinite(v) for v in coords)

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

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_record_holds_what_the_sweep_reads(self, name):
        spec = BENCHMARKS[name]
        fields = {"phi", "xlim", "ylim", "grid", "sides", "material", "load", "scale",
                  "point", "direction"}
        assert fields <= set(spec) <= fields | {"base_refinement"}
        MaterialParams(*spec["material"])
        assert set(LoadSpec(**spec["load"]).edge_moments) <= set(spec["sides"].values())
        (x0, x1), (y0, y1), (x, y) = spec["xlim"], spec["ylim"], spec["point"]
        assert x0 <= x <= x1 and y0 <= y <= y1

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

    @pytest.mark.parametrize("name, value", [
        ("levels", 1.5), ("levels", 2.0), ("order", 2.0), ("reference_order", 4.0),
        ("geometry_order", 1.5), ("geometry_order", 0), ("base_refinement", 0.5),
        ("base_refinement", -1), ("levels", None), ("levels", True), ("order", True),
        ("geometry_order", True), ("base_refinement", False)])
    def test_integer_fields_checked_at_construction(self, name, value):
        # a float level count or order failed inside run_benchmark with a
        # TypeError; a bool was taken for 0 or 1
        with pytest.raises(ConfigurationError, match="integer"):
            BenchmarkConfig("cylinder", **{name: value})
        BenchmarkConfig("cylinder", **{name: np.int64(1)})

    @pytest.mark.parametrize("name", ["regge", "shear_reduction"])
    @pytest.mark.parametrize("value", ["no", "off", 0, 1, None, 1.0])
    def test_on_off_fields_must_be_booleans(self, name, value):
        # regge="no" ran with the Regge reduction on, shear_reduction=0 was kept as 0
        with pytest.raises(ConfigurationError, match="booleans"):
            BenchmarkConfig("cylinder", **{name: value})
        for on in (False, True, np.False_, np.True_):
            assert getattr(BenchmarkConfig("cylinder", **{name: on}), name) == on

    @pytest.mark.parametrize("field", [
        dict(thicknesses=(0.1, "0.01")), dict(thicknesses="0.1"), dict(thicknesses=0.1),
        dict(thicknesses=(0.1, None)), dict(thicknesses=(True,)),
        dict(thicknesses=(np.array([0.1]),)), dict(mesh_file=3), dict(mesh_file=b"mesh.txt")],
        ids=["str_thickness", "str_thicknesses", "float_thicknesses", "none_thickness",
             "bool_thickness", "array_thickness", "int_mesh_file", "bytes_mesh_file"])
    def test_field_types_checked_at_construction(self, field):
        # the non-numbers raised a bare TypeError from a comparison, a bool
        # thickness and mesh_file=3 (a file descriptor for read_mesh) were accepted
        with pytest.raises(ConfigurationError):
            BenchmarkConfig("cylinder", **field)

    def test_numpy_scalars_and_paths_accepted(self, tmp_path):
        config = BenchmarkConfig("cylinder", thicknesses=[np.float64(0.1), np.float32(0.01)],
                                 levels=np.int64(1), mesh_file=tmp_path / "mesh.txt")
        assert config.mesh_file == tmp_path / "mesh.txt"

    def test_base_refinement_defaults(self, tmp_path):
        def size(config):
            return next(bench._meshes(config))[0].num_triangles

        # the cylinder starts one level finer than its 8-element grid
        assert size(BenchmarkConfig("cylinder")) == 32
        assert size(BenchmarkConfig("hyperboloid")) == 8
        assert size(BenchmarkConfig("cylinder", base_refinement=0)) == 8
        # a replaced config keeps no default of the benchmark it was made for
        cylinder = BenchmarkConfig("cylinder", levels=1)
        assert size(replace(cylinder, benchmark="hyperboloid")) == 8
        # an imported mesh is level 0 as given, unless a refinement is asked for
        path = str(write_mesh(make_benchmark_mesh("cylinder")[0], tmp_path))
        assert size(BenchmarkConfig("cylinder", mesh_file=path)) == 8
        assert size(replace(cylinder, mesh_file=path)) == 8
        assert size(BenchmarkConfig("cylinder", mesh_file=path, base_refinement=1)) == 32

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


def record_models(patch):
    """Patch the sweep's ShellModel with a subclass that lists every model it
    builds; the list."""
    models = []

    class Model(bench.ShellModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    patch.setattr(bench, "ShellModel", Model)
    return models


class TestThicknessFactors:
    @pytest.mark.parametrize("t", [0.1, 1e-4])
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_scaled_load_matches_per_thickness_load(self, monkeypatch, name, t):
        # the load vector the sweep solves with at thickness t
        solved = []

        def record(model, loads):
            solved.append(loads)
            raise SolverError("recorded, not solved")

        models = record_models(monkeypatch)
        monkeypatch.setattr(bench.ShellModel, "solve", record)
        config = BenchmarkConfig(name, thicknesses=(t,), levels=1)
        mesh, chart = next(bench._meshes(config))
        [(_, _, value, iters)] = bench._solves(config, mesh, chart, 2, regge=False)
        assert math.isnan(value) and iters == 0
        [model], [scaled] = models, solved
        reference = model.load_vector(PER_THICKNESS_LOADS[name](t))
        size = np.max(np.abs(reference))
        assert size > 0.0
        assert np.max(np.abs(scaled - reference)) <= 1e-14 * size


class TestLoadAssembledOncePerModel:
    def count_load_points(self, monkeypatch, thicknesses):
        """Calls of the hyperboloid's volume load in compute_references and in
        run_benchmark, and the energy points of the models each built."""
        load = BENCHMARKS["hyperboloid"]["load"]
        volume = load["volume"]
        calls = [0]

        def counted(X, nu):
            calls[0] += 1
            return volume(X, nu)

        config = BenchmarkConfig("hyperboloid", thicknesses=thicknesses, levels=2,
                                 order=1, reference_order=2)
        with monkeypatch.context() as patch:
            patch.setitem(load, "volume", counted)
            models = record_models(patch)
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


class TestSweepWork:
    def test_one_model_and_load_per_mesh_and_one_refinement_per_level(self, monkeypatch):
        # the cylinder starts one refinement above its grid: 1 + 2 refinements
        # for the references, as many for the sweep
        counts = dict(refine=0, load=0)
        refine, load = bench.refine_uniform, bench.ShellModel.load_vector

        def counted_refine(mesh):
            counts["refine"] += 1
            return refine(mesh)

        def counted_load(model, loads):
            counts["load"] += 1
            return load(model, loads)

        monkeypatch.setattr(bench, "refine_uniform", counted_refine)
        monkeypatch.setattr(bench.ShellModel, "load_vector", counted_load)
        models = record_models(monkeypatch)
        config = BenchmarkConfig("cylinder", thicknesses=(0.1, 0.01), levels=3,
                                 order=1, reference_order=1)
        table = run_benchmark(config)
        assert counts == dict(refine=6, load=4)
        assert [m.mesh.num_triangles for m in models] == [512, 32, 128, 512]
        assert [row["n_elements"] for row in table.rows] == [32, 32, 128, 128, 512, 512]


# imported meshes that do not fit their benchmark, and the error's message
UNFIT_MESHES = [
    # the unibend load acts on the edge marked 'loaded'
    pytest.param("unibend_cylinder", "4 2\n0 0\n1.5 0\n1.5 0.025\n0 0.025\n0 1 2\n0 2 3\n"
                 "edge 0 3 clamped\n", "the mesh has no 'loaded' marker",
                 id="unibend_without_loaded_marker"),
    # the cylinder measures at (0, 1), outside these two triangles
    pytest.param("cylinder", "4 2\n0.5 0\n1.5 0\n1.5 0.5\n0.5 0.5\n0 1 3\n1 2 3\n",
                 "the mesh does not cover the point (0.0, 1.0)", id="cylinder_point_outside"),
]


class TestSharedReferences:
    def test_missing_thickness_rejected_before_any_model_is_built(self, monkeypatch):
        models = record_models(monkeypatch)
        config = BenchmarkConfig("unibend_cylinder", thicknesses=(0.1, 0.001), levels=1,
                                 order=1)
        with pytest.raises(ConfigurationError, match="no value for thickness 0.001"):
            run_benchmark(config, {0.1: 1.0})
        assert models == []


class TestImportedMeshFitsBenchmark:
    @pytest.mark.parametrize("name, text, message", UNFIT_MESHES)
    def test_rejected_before_any_model_is_built(self, monkeypatch, tmp_path,
                                                name, text, message):
        models = record_models(monkeypatch)
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        config = BenchmarkConfig(name, mesh_file=str(path), levels=1, thicknesses=(0.01,))
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            run_benchmark(config)
        assert models == []
