"""Tests for storage backends: round-trips, atomicity, throttling, faults."""

import errno
import os

import numpy as np
import pytest

from repro.storage.backends import (
    FlakyBackend,
    InMemoryBackend,
    LocalDiskBackend,
    PrefixBackend,
    ThrottledBackend,
)
from repro.storage.resilience import ResilientBackend, RetryPolicy, TieredBackend


BACKEND_FACTORIES = [
    ("memory", lambda tmp: InMemoryBackend()),
    ("disk", lambda tmp: LocalDiskBackend(str(tmp))),
]


@pytest.mark.parametrize("name,factory", BACKEND_FACTORIES)
class TestBackendContract:
    def test_write_read_roundtrip(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        backend.write("a/b.ckpt", b"hello")
        assert backend.read("a/b.ckpt") == b"hello"

    def test_overwrite(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        backend.write("k", b"one")
        backend.write("k", b"two")
        assert backend.read("k") == b"two"

    def test_missing_key_raises(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        with pytest.raises(FileNotFoundError):
            backend.read("nope")

    def test_exists_delete(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        backend.write("k", b"x")
        assert backend.exists("k")
        backend.delete("k")
        assert not backend.exists("k")
        backend.delete("k")  # idempotent

    def test_list_keys_prefix(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        backend.write("full/1", b"a")
        backend.write("full/2", b"b")
        backend.write("diff/1", b"c")
        assert backend.list_keys("full/") == ["full/1", "full/2"]
        assert len(backend.list_keys()) == 3

    def test_accounting(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        backend.write("k", b"12345")
        backend.read("k")
        assert backend.bytes_written == 5
        assert backend.bytes_read == 5
        assert backend.write_count == 1

    def test_rejects_non_bytes(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        with pytest.raises(TypeError):
            backend.write("k", "a string")


IOV_MAX = os.sysconf("SC_IOV_MAX")

# Every stack that ends on disk writes through ``os.writev``.
GATHER_STACKS = [
    ("memory", lambda tmp: InMemoryBackend()),
    ("disk", lambda tmp: LocalDiskBackend(str(tmp))),
    ("prefix", lambda tmp: PrefixBackend(LocalDiskBackend(str(tmp)),
                                         "shard-0000/")),
    ("throttled", lambda tmp: ThrottledBackend(LocalDiskBackend(str(tmp)),
                                               bandwidth=1e6, latency=1e-3)),
    ("resilient-over-flaky", lambda tmp: ResilientBackend(
        FlakyBackend(LocalDiskBackend(str(tmp)), fail_on_write=1),
        retry=RetryPolicy(max_attempts=2))),
    ("tiered-primary-down", lambda tmp: TieredBackend(
        FlakyBackend(InMemoryBackend(), fail_on_write=1),
        LocalDiskBackend(str(tmp)), retry=RetryPolicy(max_attempts=1))),
]


def gather_parts(many: bool) -> list:
    """Parts as the serializer hands them over, empty ones included; with
    ``many``, more than one ``os.writev`` call accepts (a BERT-large full
    under Adam is ~1 170 parts)."""
    if many:
        return [bytes([index % 251]) * (index % 3)
                for index in range(2 * IOV_MAX + 3)]
    return [b"header", b"", bytearray(b"blob"),
            memoryview(np.arange(12.0)).cast("B"), b""]


def short_writev(real_writev):
    """An ``os.writev`` that, like the kernel may, writes at most 5 bytes
    per call — usually ending mid-part — and rejects > IOV_MAX views."""
    def writev(fd, views):
        if len(views) > IOV_MAX:
            raise OSError(errno.EINVAL, "more views than IOV_MAX")
        kept, room = [], 5
        for view in views:
            kept.append(memoryview(view)[:room])
            room -= len(kept[-1])
            if not room:
                break
        return real_writev(fd, kept)
    return writev


@pytest.mark.parametrize("many", [False, True], ids=["mixed", "iov_max"])
@pytest.mark.parametrize("name,factory", GATHER_STACKS,
                         ids=[name for name, _ in GATHER_STACKS])
class TestGatherWrite:
    """``write(key, parts)`` stores the parts back to back through every
    backend stack: reads return the joined bytes, and every counter charges
    the total byte count."""

    def check(self, name, factory, tmp_path, many):
        parts = gather_parts(many)
        joined = b"".join(parts)
        backend = factory(tmp_path)
        backend.write("diff/1_1.ckpt", parts)
        assert backend.bytes_written == len(joined)
        assert backend.write_count == 1
        if name == "throttled":
            assert backend.virtual_time_s == pytest.approx(
                backend.cost_of(len(joined)))
        if name == "resilient-over-flaky":
            assert backend.retries == 1
        if name == "tiered-primary-down":
            assert backend.fallback_writes == 1
        assert backend.read("diff/1_1.ckpt") == joined
        if name != "memory":
            assert not list(tmp_path.rglob("*.tmp"))

    def test_parts_read_back_joined(self, name, factory, tmp_path, many):
        self.check(name, factory, tmp_path, many)

    def test_short_writes_resume_mid_part(self, name, factory, tmp_path, many,
                                          monkeypatch):
        monkeypatch.setattr(os, "writev", short_writev(os.writev))
        self.check(name, factory, tmp_path, many)


class TestLocalDisk:
    def test_rejects_path_escape(self, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        with pytest.raises(ValueError):
            backend.write("../escape", b"x")
        with pytest.raises(ValueError):
            backend.write("/abs", b"x")

    def test_no_tmp_files_left_behind(self, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        for i in range(5):
            backend.write(f"k{i}", b"data")
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_nested_keys_create_directories(self, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        backend.write("a/b/c/d.ckpt", b"deep")
        assert backend.read("a/b/c/d.ckpt") == b"deep"


class TestThrottled:
    def test_virtual_time_accumulates(self):
        backend = ThrottledBackend(InMemoryBackend(), bandwidth=100.0, latency=0.5)
        backend.write("k", b"x" * 200)
        assert backend.virtual_time_s == pytest.approx(0.5 + 2.0)
        backend.read("k")
        assert backend.virtual_time_s == pytest.approx(2 * (0.5 + 2.0))

    def test_cost_of(self):
        backend = ThrottledBackend(InMemoryBackend(), bandwidth=1000.0)
        assert backend.cost_of(500) == pytest.approx(0.5)

    def test_data_passes_through(self):
        inner = InMemoryBackend()
        backend = ThrottledBackend(inner, bandwidth=1e9)
        backend.write("k", b"payload")
        assert inner.read("k") == b"payload"
        assert backend.exists("k")
        assert backend.list_keys() == ["k"]

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            ThrottledBackend(InMemoryBackend(), bandwidth=0)


@pytest.mark.parametrize("name,factory", GATHER_STACKS,
                         ids=[name for name, _ in GATHER_STACKS])
class TestAppend:
    """``append(key, data)`` through every backend stack: it creates the
    key, extends it in order, and every counter charges the appended
    bytes; a fault-injecting layer fails it like a write."""

    def test_appends_extend_the_key_in_order(self, name, factory, tmp_path):
        backend = factory(tmp_path)
        backend.write("manifest.json", b"{}")  # makes a shard's directory
        for line in (b"one\n", b"two\n", b"three\n"):
            backend.append("manifest.1.journal", line)
        assert backend.read("manifest.1.journal") == b"one\ntwo\nthree\n"
        assert backend.bytes_written == 2 + 14
        assert backend.write_count == 4
        if name == "throttled":
            assert backend.virtual_time_s == pytest.approx(
                sum(map(backend.cost_of, (2, 4, 4, 6, 14))))  # + the read
        if name == "resilient-over-flaky":
            assert backend.retries == 1
        if name == "tiered-primary-down":
            assert backend.fallback_writes == 1


class TestFlaky:
    def test_injected_append_failure(self):
        inner = InMemoryBackend()
        backend = FlakyBackend(inner, fail_on_write=2)
        backend.append("j", b"1\n")
        with pytest.raises(IOError):
            backend.append("j", b"2\n")
        assert inner.read("j") == b"1\n"

    def test_disk_append_is_durable_in_place(self, tmp_path):
        disk = LocalDiskBackend(str(tmp_path))
        disk.append("j", b"1\n")
        disk.append("j", b"2\n")
        assert LocalDiskBackend(str(tmp_path)).read("j") == b"1\n2\n"
        assert disk.list_keys() == ["j"]  # no temp file, no rename

    def test_injected_write_failure(self):
        inner = InMemoryBackend()
        backend = FlakyBackend(inner, fail_on_write=2)
        backend.write("a", b"1")
        with pytest.raises(IOError):
            backend.write("b", b"2")
        # First write landed; failed write did not corrupt anything.
        assert inner.read("a") == b"1"
        assert not inner.exists("b")
        backend.write("c", b"3")  # subsequent writes succeed

    def test_injected_read_failure(self):
        backend = FlakyBackend(InMemoryBackend(), fail_on_read=1)
        backend.write("a", b"1")
        with pytest.raises(IOError):
            backend.read("a")
        assert backend.read("a") == b"1"

    def test_atomicity_on_disk_after_crash(self, tmp_path):
        """A write that fails mid-flight never tears the previous value."""
        disk = LocalDiskBackend(str(tmp_path))
        disk.write("k", b"original")

        class ExplodingBytes(bytes):
            pass

        # Simulate failure during write by patching fsync to raise once.
        real_fsync = os.fsync
        calls = {"n": 0}

        def flaky_fsync(fd):
            calls["n"] += 1
            raise OSError("injected")

        os.fsync = flaky_fsync
        try:
            with pytest.raises(OSError):
                disk.write("k", b"replacement")
        finally:
            os.fsync = real_fsync
        assert disk.read("k") == b"original"
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []
