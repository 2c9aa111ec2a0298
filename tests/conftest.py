"""Shared fixtures for the test suite."""

import glob
import multiprocessing

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


@pytest.fixture(autouse=True)
def no_leaked_persist_resources():
    """A test fails at teardown if a persist engine it built outlives it:
    no child process may still run, and no shared-memory segment created
    during the test may remain (a leaked worker pool or shm ring is a
    teardown bug of that test)."""
    segments_before = set(glob.glob("/dev/shm/psm_*"))
    yield
    children = multiprocessing.active_children()
    segments = sorted(set(glob.glob("/dev/shm/psm_*")) - segments_before)
    assert not children, f"live child processes after the test: {children}"
    assert not segments, f"leaked shared-memory segments: {segments}"
