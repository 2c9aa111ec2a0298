"""Shared fixtures for the test suite."""

import glob
import itertools
import multiprocessing
import threading
import time

import pytest

from tests.helpers import make_mlp_trainer  # noqa: F401 (re-export)
from repro.storage import CheckpointStore, InMemoryBackend
from repro.utils.rng import Rng


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def store():
    return CheckpointStore(InMemoryBackend())


@pytest.fixture
def mlp_trainer():
    return make_mlp_trainer()


THREAD_GRACE_S = 2.0
_FLIGHT_DIRS = itertools.count()


@pytest.fixture(autouse=True)
def no_leaked_persist_resources(request, monkeypatch, tmp_path_factory):
    """A test fails at teardown if a persist engine it built outlives it:
    no child process may still run, no shared-memory segment created
    during the test may remain, and no non-daemon thread the test started
    may still be alive after a grace join of ``THREAD_GRACE_S`` in total
    (a leaked worker pool, shm ring or writer thread is a teardown bug of
    that test).

    A flight-recorder post-mortem the test provokes (an mp-engine
    fail-stop, a degraded-mode entry) lands in its ``tmp_path`` — or, for
    a test without one, in a directory of its own under the session's
    base temp, made only if a dump happens — never in the system tmpdir."""
    if "tmp_path" in request.fixturenames:
        flight = request.getfixturevalue("tmp_path") / "flight"
    else:
        flight = tmp_path_factory.getbasetemp() / "flight" \
            / str(next(_FLIGHT_DIRS))
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(flight))
    segments_before = set(glob.glob("/dev/shm/psm_*"))
    threads_before = set(threading.enumerate())
    yield
    children = multiprocessing.active_children()
    segments = sorted(set(glob.glob("/dev/shm/psm_*")) - segments_before)
    assert not children, f"live child processes after the test: {children}"
    assert not segments, f"leaked shared-memory segments: {segments}"
    deadline = time.monotonic() + THREAD_GRACE_S
    threads = [thread for thread in threading.enumerate()
               if thread not in threads_before and not thread.daemon]
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [thread for thread in threads if thread.is_alive()]
    assert not alive, f"live non-daemon threads after the test: {alive}"
