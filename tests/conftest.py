import pytest

from bipratio import WeightedGraph
from bipratio.generators import complete, cycle


@pytest.fixture(autouse=True)
def no_seed_from_the_caller(monkeypatch):
    """Run every test without the caller's BIPRATIO_SEED, so outputs pinned
    at the default seeds hold in any environment; a test that wants the
    variable sets it itself."""
    monkeypatch.delenv("BIPRATIO_SEED", raising=False)


@pytest.fixture
def k3() -> WeightedGraph:
    return complete(3)


@pytest.fixture
def k4() -> WeightedGraph:
    return complete(4)


@pytest.fixture
def c4() -> WeightedGraph:
    return cycle(4)


@pytest.fixture
def single_edge() -> WeightedGraph:
    return WeightedGraph(2, ((0, 1, 1),), (1, 1))


@pytest.fixture
def accept_report(request):
    """Write one live line per acceptance criterion into the terminal."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def _report(line: str) -> None:
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:
            print(line)

    return _report
