import numpy as np
import pytest

from aecomm import figures

N_CHANNEL_USES = figures.N_CHANNEL_USES

# verdict lines from the release-gate suite, replayed after the test table
_GATE_LINES = []


def record_verdict(line: str) -> None:
    _GATE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _GATE_LINES:
        terminalreporter.section("release gate")
        for line in _GATE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def model_zoo():
    """The recipes' trained-model cache, `figures.trained_model`: training is
    deterministic, so tests and recipes share every model they both need."""
    return figures.trained_model


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
