"""The README's Python examples run exactly as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out
