"""The README's Python examples run exactly as written, and its commands
parse."""

import re
import shlex
from pathlib import Path

from aecomm import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_commands_parse():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("aecomm ")]
    assert len(lines) >= 8
    for line in lines:
        cli.parse_args(shlex.split(line)[1:])  # parsed only, nothing is run
