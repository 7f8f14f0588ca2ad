import pytest

from reggeshell import cli
from reggeshell.bench import DEFAULT_THICKNESSES
from reggeshell.cli import build_parser, main, parse_thicknesses
from reggeshell.geometry import ConfigurationError, make_benchmark_mesh

from test_bench import UNFIT_MESHES
from test_mesh import FOLDED_MESH
from test_unstructured import write_mesh


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--benchmark", "cylinder"])
        assert args.order == 2
        assert args.geom_order is None
        assert args.levels == 3
        assert args.regge == "on"
        assert args.format == "csv"
        assert parse_thicknesses(args.thickness) == DEFAULT_THICKNESSES

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--benchmark", "torus"])
        assert exc.value.code == 2

    def test_thickness_parsing(self):
        assert parse_thicknesses("0.1,0.01") == (0.1, 0.01)
        assert parse_thicknesses("1e-4") == (1e-4,)
        with pytest.raises(ConfigurationError):
            parse_thicknesses("0.1,abc")


class TestMain:
    def test_configuration_error_returns_2(self, capsys):
        code = main(["--benchmark", "cylinder", "--thickness", "-0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_thickness_list_returns_2(self, tmp_path, capsys):
        # BenchmarkConfig rejects the empty list that "," parses to
        out = tmp_path / "c.csv"
        code = main(["--benchmark", "cylinder", "--thickness", ",", "--out", str(out)])
        assert code == 2
        assert "error: thickness list is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_thickness_returns_2(self, tmp_path, capsys):
        out = tmp_path / "uni.csv"
        code = main(["--benchmark", "unibend_cylinder", "--levels", "1", "--order", "1",
                     "--thickness", "nan", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_rejected_before_the_sweep(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "run_benchmark",
                            lambda config: pytest.fail("the sweep ran"))
        code = main(["--benchmark", "cylinder", "--out", str(tmp_path / "missing" / "c.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("before", [None, "an earlier table\n"])
    def test_failed_sweep_leaves_the_output_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                      before):
        def fail(config):
            raise ConfigurationError("sweep failed")

        out = tmp_path / "c.csv"
        if before is not None:
            out.write_text(before)
        monkeypatch.setattr(cli, "run_benchmark", fail)
        code = main(["--benchmark", "cylinder", "--out", str(out)])
        assert code == 2
        assert "error: sweep failed" in capsys.readouterr().err
        assert (out.read_text() if out.exists() else None) == before

    def test_small_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "uni.csv"
        code = main([
            "--benchmark", "unibend_cylinder", "--order", "1",
            "--thickness", "0.01", "--levels", "1", "--out", str(out),
        ])
        assert code == 0
        assert "wrote 1 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("benchmark,t,level")

    def test_failed_solves_return_1(self, tmp_path, capsys):
        # without its clamped edges the hemisphere keeps rigid motions, so its
        # solves fail and the table holds NaN rows
        path = write_mesh(make_benchmark_mesh("hemisphere")[0], tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.endswith(" clamped\n")))
        out = tmp_path / "out.csv"
        code = main(["--benchmark", "hemisphere", "--mesh", str(path), "--levels", "1",
                     "--thickness", "0.01", "--out", str(out)])
        assert code == 1
        assert ("error: 1 of 1 rows have no value or reference, the first at t=0.01, level 0"
                in capsys.readouterr().err)
        assert out.read_text().splitlines()[1] == "hemisphere,0.01,0,8,125,on,nan,nan,nan,0"

    def test_malformed_mesh_file_reports_error(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text("3 1\n0 0\n1 0\n0 1\n0 2 1\n")
        code = main(["--benchmark", "cylinder", "--mesh", str(mesh), "--levels", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "not positively oriented" in capsys.readouterr().err

    def test_degenerate_mesh_element_reports_error(self, tmp_path, capsys):
        # the first triangle is positively oriented but has an area of order
        # 1e-17, so its quadratic element map is degenerate; vertex 3 is the
        # cylinder's measurement point (0, 1)
        mesh = tmp_path / "mesh.txt"
        mesh.write_text("4 3\n0 0\n1.570796 0\n0.785398 1e-17\n0 1\n"
                        "0 1 2\n0 2 3\n2 1 3\n")
        code = main(["--benchmark", "cylinder", "--mesh", str(mesh), "--levels", "1",
                     "--thickness", "0.01", "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error: degenerate element map" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("0 0\n", "the mesh has no triangles"),
        ("4 1\n0 0\n1 0\n0 1\n1 1\n0 1 2\n", "vertex 3 lies in no triangle"),
        (FOLDED_MESH, "the two triangles of edge (0, 1) lie on the same side of it"),
    ], ids=["no_triangles", "unused_vertex", "folded"])
    def test_unmeshable_file_reports_error(self, tmp_path, capsys, text, message):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(text)
        code = main(["--benchmark", "cylinder", "--mesh", str(mesh), "--levels", "1",
                     "--thickness", "0.01", "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", UNFIT_MESHES)
    def test_mesh_unfit_for_benchmark_reports_error(self, tmp_path, capsys,
                                                    name, text, message):
        # reported as an error, not as the traceback of a bare ValueError
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(text)
        out = tmp_path / "out.csv"
        code = main(["--benchmark", name, "--mesh", str(mesh), "--levels", "1",
                     "--thickness", "0.01", "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("marker", ["sym:w", "sym:X", "sym:xy"])
    def test_malformed_symmetry_marker_reports_error(self, tmp_path, capsys, marker):
        # "sym:w" printed a traceback of a bare ValueError, "sym:xy" acted as sym:x
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(f"3 1\n0 0\n1 0\n0 1\n0 1 2\nedge 0 1 {marker}\n")
        code = main(["--benchmark", "cylinder", "--mesh", str(mesh), "--levels", "1",
                     "--thickness", "0.01", "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert f"error: unknown symmetry marker '{marker}'" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--mesh", "{tmp}/missing.txt"],
        ["--out", "{tmp}/no/such/dir/x.csv"],
        ["--geom-order", "0"],
    ], ids=["missing_mesh", "missing_out_dir", "geom_order_0"])
    def test_file_and_order_errors_return_2(self, tmp_path, capsys, args):
        code = main(["--benchmark", "unibend_cylinder", "--order", "1", "--levels", "1",
                     "--thickness", "0.01", "--out", str(tmp_path / "out.csv")]
                    + [a.format(tmp=tmp_path) for a in args])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
