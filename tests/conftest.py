import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--run-deep",
        action="store_true",
        default=False,
        help="run scans that take many minutes",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-deep"):
        return
    marker = pytest.mark.skip(reason="deep scan; enable with --run-deep")
    for item in items:
        if "deep" in item.keywords:
            item.add_marker(marker)


def record_pools(monkeypatch) -> list[int]:
    """The size of every process pool the walk asks for, from a stand-in
    pool that records it and runs the jobs in-process. The walk imports
    multiprocessing only when it opens a pool, so the stand-in replaces
    multiprocessing.Pool itself."""
    import multiprocessing

    sizes: list[int] = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return sizes


@pytest.fixture
def pool_sizes(monkeypatch):
    return record_pools(monkeypatch)


# criterion number -> (description, outcome); filled in by test_acceptance
ACCEPTANCE: dict[int, tuple[str, str]] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        description, outcome = ACCEPTANCE[num]
        terminalreporter.write_line(f"ACCEPTANCE {num:>2}: {outcome} - {description}")
