"""The benchmark's tracer names aecomm functions by attribute; every name
it rebinds must exist, so a rename in the package fails here and not only
when the benchmark runs."""

import sys
from pathlib import Path

from aecomm import hamming

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def _holders(owner, attr, original):
    """Every object whose `attr` the tracer rebinds for one target: the class
    for a method, else each aecomm module holding the function."""
    if isinstance(owner, type):
        return [owner]
    return [m for key, m in sys.modules.items()
            if (key == "aecomm" or key.startswith("aecomm."))
            and getattr(m, attr, None) is original]


def test_every_traced_name_resolves():
    for name, (owner, attr, _) in tracing.TARGETS.items():
        assert callable(getattr(owner, attr, None)), name


def test_installed_rebinds_every_name_and_restores_it():
    originals = {name: getattr(owner, attr)
                 for name, (owner, attr, _) in tracing.TARGETS.items()}
    holders = {name: _holders(owner, attr, originals[name])
               for name, (owner, attr, _) in tracing.TARGETS.items()}
    tracer = tracing.Tracer()
    with tracer.installed():
        for name, (owner, attr, _) in tracing.TARGETS.items():
            for holder in holders[name]:
                traced = getattr(holder, attr)
                assert traced is not originals[name], (name, holder)
                assert traced.__wrapped__ is originals[name], (name, holder)
        hamming.hamming_encode([1, 0, 1, 1])
    assert [span[0] for span in tracer.spans] == ["hamming.hamming_encode"]
    for name, (owner, attr, _) in tracing.TARGETS.items():
        for holder in holders[name]:
            assert getattr(holder, attr) is originals[name], (name, holder)
