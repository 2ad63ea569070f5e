"""Fixtures and helpers shared by the split tests (the trial, branch and stage
splits over ``ppcplab.pool``'s forked helpers)."""

import os
from pathlib import Path

import pytest

from ppcplab import pool


@pytest.fixture
def no_helpers():
    """The test starts and ends with no helper alive."""
    pool._stop_helpers()
    yield
    pool._stop_helpers(kill=True)


def force_cpus(monkeypatch, count):
    """Make the process look as if it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def helper_pids():
    return [helper.pid for helper in pool._helpers]


def alive(pid):
    """Whether ``pid`` is a process that is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"), reason="needs os.fork and affinity"
)
