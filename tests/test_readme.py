"""README.md's library quickstart runs against the current API."""

import re
from pathlib import Path

import numpy as np

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
