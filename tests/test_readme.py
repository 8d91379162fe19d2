"""The README's Python examples run exactly as written, its commands parse,
and the package names it cites exist."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import aecomm
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


def test_readme_names_resolve():
    # every backticked `module.name` (or `module.name(...)`, `module.A.b`)
    # whose module is an aecomm module names an attribute of that module
    modules = {info.name for info in pkgutil.iter_modules(aecomm.__path__)}
    cited = re.findall(r"`(\w+)((?:\.\w+)+)", README.read_text())
    cited = [(module, path) for module, path in cited if module in modules]
    assert cited
    missing = []
    for module, path in cited:
        obj = importlib.import_module(f"aecomm.{module}")
        for attr in path[1:].split("."):
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(module + path)
    assert not missing, f"README cites names aecomm lacks: {sorted(set(missing))}"
