"""Every ``python`` code block of README.md runs as written, and so does
every ``reggeshell-bench`` command of its ``sh`` blocks."""

import re
import shlex
from pathlib import Path

import pytest

from reggeshell import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
COMMANDS = [shlex.split(line) for block in
            re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
            for line in block.splitlines() if line.startswith("reggeshell-bench ")]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 2
    assert all("--out" in argv for argv in COMMANDS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[-1])
def test_readme_cli_example_runs(argv, tmp_path, capsys):
    args = argv[1:]
    out = args.index("--out") + 1
    args[out] = str(tmp_path / Path(args[out]).name)
    assert cli.main(args) == 0
    assert Path(args[out]).stat().st_size > 0
    assert "wrote" in capsys.readouterr().out
