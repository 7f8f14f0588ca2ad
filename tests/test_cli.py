import pytest

from reggeshell.cli import build_parser, main, parse_thicknesses
from reggeshell.geometry import ConfigurationError


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--benchmark", "cylinder"])
        assert args.order == 2
        assert args.geom_order is None
        assert args.levels == 3
        assert args.regge == "on"
        assert args.format == "csv"

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--benchmark", "torus"])
        assert exc.value.code == 2

    def test_thickness_parsing(self):
        assert parse_thicknesses("0.1,0.01") == (0.1, 0.01)
        assert parse_thicknesses("1e-4") == (1e-4,)
        with pytest.raises(ConfigurationError):
            parse_thicknesses("0.1,abc")
        with pytest.raises(ConfigurationError):
            parse_thicknesses(",")


class TestMain:
    def test_configuration_error_returns_2(self, capsys):
        code = main(["--benchmark", "cylinder", "--thickness", "-0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_thickness_returns_2(self, tmp_path, capsys):
        out = tmp_path / "uni.csv"
        code = main(["--benchmark", "unibend_cylinder", "--levels", "1", "--order", "1",
                     "--thickness", "nan", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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

    def test_malformed_mesh_file_reports_error(self, tmp_path, capsys):
        mesh = tmp_path / "mesh.txt"
        mesh.write_text("3 1\n0 0\n1 0\n0 1\n0 2 1\n")
        code = main(["--benchmark", "cylinder", "--mesh", str(mesh), "--levels", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "not positively oriented" in capsys.readouterr().err

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
