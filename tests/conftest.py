import pytest

from mdma_relay import analytic, default_paper_setup, simulator

# One pass/fail line per acceptance criterion, printed even under capture.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def paper_setup():
    return default_paper_setup()


@pytest.fixture(autouse=True)
def _fresh_step_outages():
    # `step_outages` keeps its last result; without this a test could read
    # the one an earlier test left and count no calls to what it spies on.
    analytic._step_outages.cache_clear()


@pytest.fixture
def draw_cap(monkeypatch):
    """`draw_cap(n)` caps every stream's draws at n episodes: broadcast draws
    (`_BCAST_CHUNK`) and NOMA's joint draws (`_CHUNK`, which caps nothing else)."""
    def cap(n):
        for name in ("_BCAST_CHUNK", "_CHUNK"):
            monkeypatch.setattr(simulator, name, n)
    return cap


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"{status} {name}" + (f" ({detail})" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
