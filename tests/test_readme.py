"""README's Python examples run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {number}", "exec"), namespace)
