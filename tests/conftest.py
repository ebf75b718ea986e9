"""Shared pytest wiring: the acceptance verdict summary, and the
``helpers`` fixture of the tests of forked children.

``test_acceptance.py`` records one (number, status, description) triple per
criterion; printing happens here, after capture ends, so the verdict lines
show up on a plain ``pytest`` run.
"""

import os

import pytest

from slfm import model

acceptance_verdicts = []


@pytest.fixture
def helpers(monkeypatch):
    """The pids of the children forked while the test runs: train's fill
    helpers and the takers of ``model._run_ranges``.  The process counts as
    running one thread, whatever pool numpy's BLAS started, so that both
    may fork."""
    monkeypatch.setattr(model, "_thread_count", lambda: 1)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num, status, description in sorted(acceptance_verdicts):
        terminalreporter.write_line(f"ACCEPTANCE {num}: {status} - {description}")
