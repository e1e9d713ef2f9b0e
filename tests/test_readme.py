"""README.md's library quickstart and CLI examples run against the current
API."""

import re
import shlex
from pathlib import Path

import numpy as np

from mobisim.cli import main
from mobisim.graph import hex_grid, save_graph

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    m = namespace["m"]
    assert m.values.shape == (2, 2)
    assert not np.diagonal(m.values).any()
    assert namespace["result"].medoids in ((0,), (1,))


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    save_graph(hex_grid(6, 6), "coverage.txt")
    for argv in commands:
        assert argv[0] == "mobisim"
        assert main(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""
