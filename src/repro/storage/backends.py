"""Storage backends: where checkpoint bytes land.

``LocalDiskBackend`` is the paper's local-SSD target; ``InMemoryBackend``
backs fast tests and the Gemini-style CPU-memory tier; ``ThrottledBackend``
adds a bandwidth/latency cost model (virtual time, no sleeping) so the
functional layer can report realistic write times; ``FlakyBackend``
injects deterministic one-shot failures and ``ChaosBackend`` seeded
probabilistic faults (transient errors, torn writes, bit flips, latency
spikes) for the resilience tests.
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro.utils.rng import Rng
from repro.utils.validation import check_positive


def total_bytes(data) -> int:
    """Byte count of ``write``'s ``data``: bytes or a list of parts."""
    return sum(map(len, data)) if isinstance(data, list) else len(data)


class StorageBackend:
    """Abstract key→bytes store with write accounting."""

    #: True when concurrent ``read`` calls are safe *and* acceptable —
    #: parallel recovery will only overlap reads on backends that opt in.
    #: Fault-injecting wrappers keep this False so their seeded RNG draws
    #: stay replayable under a deterministic access order.
    thread_safe_reads = False

    def __init__(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0
        self.write_count = 0

    # Subclass interface -------------------------------------------------------
    def _write(self, key: str, parts: list) -> None:
        raise NotImplementedError

    def _read(self, key: str) -> bytes:
        raise NotImplementedError

    def _append(self, key: str, data: bytes) -> None:
        """Read + rewrite: as atomic as ``_write``, whose faults apply."""
        try:
            head = self._read(key)
        except FileNotFoundError:
            head = b""
        self._write(key, [head, data])

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def list_keys(self, prefix: str = "") -> list[str]:
        raise NotImplementedError

    def purge_debris(self) -> int:
        """Delete crash debris (e.g. orphaned ``.tmp`` files); returns count.

        The default store has none; wrapping backends forward to the
        wrapped store, so ``CheckpointStore.gc`` can call this through any
        stack of decorators.
        """
        return 0

    def process_safe_spec(self) -> tuple | None:
        """Picklable recipe for re-opening this backend in a child process.

        The multi-process persistence engine hands each spawned worker a
        spec instead of the backend object itself — backend instances hold
        locks, counters, and (for fault injectors) seeded RNG state that
        must not be duplicated across address spaces.  Returns ``None``
        when the backend cannot be re-opened from another process (the
        in-memory and fault-injecting backends), which routes callers to
        the thread engine instead.  :func:`backend_from_spec` is the
        inverse.
        """
        return None

    # Public API with accounting --------------------------------------------------
    def write(self, key: str, data) -> None:
        """Write ``data`` under ``key``: bytes, bytearray or memoryview, or
        a list of them stored back to back (``pack_tree_parts``'s parts).

        ``_write`` always gets a list, with no defensive copy: the parts
        may be views of arrays the caller owns.  Backends that retain the
        data beyond the call (e.g. the in-memory store) must join or copy
        it; callers must keep the parts stable until ``write`` returns.
        """
        parts = data if isinstance(data, list) else [data]
        for part in parts:
            if not isinstance(part, (bytes, bytearray, memoryview)):
                raise TypeError(
                    f"backend write expects bytes, got {type(part).__name__}")
        self._write(key, parts)
        self.bytes_written += total_bytes(parts)
        self.write_count += 1

    def append(self, key: str, data: bytes) -> None:
        """Durably add ``data`` to the end of ``key`` (created if absent)."""
        self._append(key, data)
        self.bytes_written += len(data)
        self.write_count += 1

    def read(self, key: str) -> bytes:
        data = self._read(key)
        self.bytes_read += len(data)
        return data


class InMemoryBackend(StorageBackend):
    """Dict-backed store; also models a CPU-memory checkpoint tier."""

    thread_safe_reads = True

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def _write(self, key: str, parts: list) -> None:
        # Own one contiguous copy: the parts may be views of arrays the
        # caller reuses after we return (a lone ``bytes`` joins uncopied).
        owned = b"".join(parts)
        with self._lock:
            self._data[key] = owned

    def _append(self, key: str, data: bytes) -> None:
        with self._lock:
            self._data[key] = self._data.get(key, b"") + data

    def _read(self, key: str) -> bytes:
        with self._lock:
            try:
                return self._data[key]
            except KeyError:
                raise FileNotFoundError(f"no such checkpoint key: {key}") from None

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def delete(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def list_keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._data if k.startswith(prefix))

    def total_stored_bytes(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._data.values())


#: Views one ``os.writev`` call accepts; more raise ``EINVAL``.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _write_all(fd: int, parts: list) -> None:
    """Gather-write ``parts`` in order to ``fd`` — at most ``_IOV_MAX``
    views per ``os.writev``, resuming mid-part after a short write — then
    fsync and close it."""
    views = [memoryview(part).cast("B") for part in parts]
    start = 0
    try:
        while start < len(views):
            batch = views[start:start + _IOV_MAX]
            written = os.writev(fd, batch)
            for view in batch:
                if written < len(view):
                    views[start] = view[written:]
                    break
                written -= len(view)
                start += 1
        os.fsync(fd)
    finally:
        os.close(fd)


class LocalDiskBackend(StorageBackend):
    """Filesystem store with atomic writes (tmp file + rename).

    Atomicity matters: a failure mid-write must never leave a torn
    checkpoint that recovery would then trust.
    """

    thread_safe_reads = True  # independent files; plain pread per key

    def __init__(self, root: str):
        super().__init__()
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        if ".." in key.split("/") or key.startswith("/"):
            raise ValueError(f"invalid checkpoint key: {key!r}")
        return os.path.join(self.root, key)

    def _write(self, key: str, parts: list) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            _write_all(fd, parts)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    def _append(self, key: str, data: bytes) -> None:
        _write_all(os.open(self._path(key),
                           os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644),
                   [data])

    def _read(self, key: str) -> bytes:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise FileNotFoundError(f"no such checkpoint key: {key}") from None

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def delete(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    def list_keys(self, prefix: str = "") -> list[str]:
        keys = []
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                key = os.path.relpath(full, self.root).replace(os.sep, "/")
                if key.startswith(prefix) and not key.endswith(".tmp"):
                    keys.append(key)
        return sorted(keys)

    def process_safe_spec(self) -> tuple | None:
        # Independent processes can safely share a directory: every write
        # is tmp-file + atomic rename, every read a plain open.
        return ("local_disk", self.root)

    def purge_debris(self) -> int:
        """Delete orphaned ``.tmp`` files left by writes a crash interrupted.

        The atomic write path unlinks its temp file on a clean failure, but
        a hard kill (power loss, SIGKILL) between ``mkstemp`` and
        ``os.replace`` strands it; ``CheckpointStore.gc`` sweeps these.
        """
        purged = 0
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(dirpath, filename))
                        purged += 1
                    except FileNotFoundError:  # pragma: no cover - race
                        pass
        return purged


class PrefixBackend(StorageBackend):
    """A key-prefix view over another backend.

    The sharded checkpoint store gives each shard its own
    :class:`~repro.storage.checkpoint_store.CheckpointStore` over
    ``PrefixBackend(backend, "shard-0003/")`` — every shard sees a plain
    private namespace (``full/…``, ``diff/…``, ``manifest.*``) while
    all records land in one physical store under one root.  Reads,
    writes, appends, listing and debris sweeps translate keys both ways;
    accounting stays on the wrapping view *and* the parent (the parent's
    ``write``/``read`` are called, so its counters and any fault
    injection wrapped around it apply to sharded traffic too).
    """

    def __init__(self, inner: StorageBackend, prefix: str):
        super().__init__()
        if not prefix or not prefix.endswith("/"):
            raise ValueError(f"prefix must be non-empty and end with '/', "
                             f"got {prefix!r}")
        self.inner = inner
        self.prefix = prefix

    @property
    def thread_safe_reads(self) -> bool:  # delegate, not a class constant
        return self.inner.thread_safe_reads

    def _write(self, key: str, data: bytes) -> None:
        self.inner.write(self.prefix + key, data)

    def _append(self, key: str, data: bytes) -> None:
        self.inner.append(self.prefix + key, data)

    def _read(self, key: str) -> bytes:
        return self.inner.read(self.prefix + key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(self.prefix + key)

    def delete(self, key: str) -> None:
        self.inner.delete(self.prefix + key)

    def list_keys(self, prefix: str = "") -> list[str]:
        skip = len(self.prefix)
        return [key[skip:] for key in self.inner.list_keys(self.prefix + prefix)]

    def purge_debris(self) -> int:
        # The parent sweeps the whole tree; per-shard views must not each
        # re-trigger a global sweep, so debris under this prefix is handled
        # by whoever owns the parent (the sharded store's own gc).
        return 0

    def process_safe_spec(self) -> tuple | None:
        inner_spec = self.inner.process_safe_spec()
        if inner_spec is None:
            return None
        return ("prefix", self.prefix, inner_spec)


def backend_from_spec(spec: tuple) -> StorageBackend:
    """Re-open a backend from a :meth:`StorageBackend.process_safe_spec`.

    Runs in persist-worker child processes; the child gets its own handle
    (own accounting, own locks) onto the same durable store.
    """
    kind = spec[0]
    if kind == "local_disk":
        return LocalDiskBackend(spec[1])
    if kind == "prefix":
        return PrefixBackend(backend_from_spec(spec[2]), spec[1])
    raise ValueError(f"unknown process-safe backend spec: {spec!r}")


class WrappingBackend(StorageBackend):
    """A decorator over one ``inner`` backend.  Reads, ``exists``,
    ``delete``, ``list_keys`` and ``purge_debris`` forward unchanged;
    subclasses wrap what they change.  ``_append`` is left to the base
    (read + ``_write``) unless a subclass forwards it, so a wrapper that
    only overrides ``_write`` still sees every append."""

    def __init__(self, inner: StorageBackend):
        super().__init__()
        self.inner = inner

    def _read(self, key: str) -> bytes:
        return self.inner.read(key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        return self.inner.list_keys(prefix)

    def purge_debris(self) -> int:
        return self.inner.purge_debris()


class ThrottledBackend(WrappingBackend):
    """Wrap a backend with a virtual bandwidth/latency cost model.

    Does not sleep; it accumulates the time writes *would* take at
    ``bandwidth`` bytes/s plus ``latency`` per operation into
    ``virtual_time_s``.  The functional checkpointers report this as their
    persist cost, mirroring the paper's SSD-bound persistence.
    """

    def __init__(self, inner: StorageBackend, bandwidth: float, latency: float = 0.0):
        super().__init__(inner)
        check_positive("bandwidth", bandwidth)
        check_positive("latency", latency, strict=False)
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.virtual_time_s = 0.0

    def cost_of(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def _write(self, key: str, parts: list) -> None:
        self.inner.write(key, parts)
        self.virtual_time_s += self.cost_of(total_bytes(parts))

    def _append(self, key: str, data: bytes) -> None:
        self.inner.append(key, data)
        self.virtual_time_s += self.cost_of(len(data))

    def _read(self, key: str) -> bytes:
        data = self.inner.read(key)
        self.virtual_time_s += self.cost_of(len(data))
        return data


class FlakyBackend(WrappingBackend):
    """Fault injection: fail the N-th write (and optionally reads).

    Used to verify that a failure mid-persist never corrupts the
    checkpoint series the recovery path reads.
    """

    def __init__(self, inner: StorageBackend, fail_on_write: int | None = None,
                 fail_on_read: int | None = None):
        super().__init__(inner)
        self.fail_on_write = fail_on_write
        self.fail_on_read = fail_on_read
        self._writes_seen = 0
        self._reads_seen = 0

    def _write(self, key: str, data: bytes) -> None:
        self._writes_seen += 1
        if self.fail_on_write is not None and self._writes_seen == self.fail_on_write:
            raise IOError(f"injected write failure on write #{self._writes_seen}")
        self.inner.write(key, data)

    def _read(self, key: str) -> bytes:
        self._reads_seen += 1
        if self.fail_on_read is not None and self._reads_seen == self.fail_on_read:
            raise IOError(f"injected read failure on read #{self._reads_seen}")
        return self.inner.read(key)


class ChaosBackend(WrappingBackend):
    """Seeded probabilistic fault injection for resilience drills.

    Generalizes :class:`FlakyBackend` from one-shot deterministic failures
    to the fault mix real storage exhibits:

    * **transient failures** — a write/read raises ``IOError`` but leaves
      the store intact (retry succeeds);
    * **torn writes** — a random prefix of the data lands and the write
      raises, modelling a non-atomic store dying mid-write (the integrity
      framing must catch the stub on read);
    * **bit flips** — the write succeeds but one random bit is corrupted
      *silently* (only checksums can catch this);
    * **latency spikes** — the operation succeeds but accrues extra
      virtual time (no sleeping; feeds retry/backoff tests).

    All draws come from a seeded :class:`~repro.utils.rng.Rng`, so every
    drill is replayable bit-exactly from its seed.  ``protect_prefixes``
    exempts keys (e.g. a quarantine area) from injection.
    """

    def __init__(self, inner: StorageBackend, rng: Rng | int,
                 write_fail_prob: float = 0.0, read_fail_prob: float = 0.0,
                 torn_write_prob: float = 0.0, bit_flip_prob: float = 0.0,
                 latency_spike_prob: float = 0.0, latency_spike_s: float = 0.1,
                 protect_prefixes: tuple[str, ...] = ()):
        super().__init__(inner)
        for name, prob in (("write_fail_prob", write_fail_prob),
                           ("read_fail_prob", read_fail_prob),
                           ("torn_write_prob", torn_write_prob),
                           ("bit_flip_prob", bit_flip_prob),
                           ("latency_spike_prob", latency_spike_prob)):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {prob}")
        self.rng = rng if isinstance(rng, Rng) else Rng(int(rng))
        self.write_fail_prob = write_fail_prob
        self.read_fail_prob = read_fail_prob
        self.torn_write_prob = torn_write_prob
        self.bit_flip_prob = bit_flip_prob
        self.latency_spike_prob = latency_spike_prob
        self.latency_spike_s = latency_spike_s
        self.protect_prefixes = tuple(protect_prefixes)
        self.virtual_time_s = 0.0
        self.injected = {"write_fail": 0, "read_fail": 0, "torn_write": 0,
                         "bit_flip": 0, "latency_spike": 0}

    def _protected(self, key: str) -> bool:
        return any(key.startswith(p) for p in self.protect_prefixes)

    def _maybe_spike(self) -> None:
        if self.latency_spike_prob and \
                float(self.rng.random()) < self.latency_spike_prob:
            self.virtual_time_s += self.latency_spike_s
            self.injected["latency_spike"] += 1

    def _flip_one_bit(self, data: bytes) -> bytes:
        if not data:
            return data
        corrupted = bytearray(data)
        position = int(self.rng.integers(0, len(corrupted)))
        corrupted[position] ^= 1 << int(self.rng.integers(0, 8))
        return bytes(corrupted)

    def _write(self, key: str, parts: list) -> None:
        # Faults act on the whole container: draws see only its length.
        self._inject(key, b"".join(parts), self.inner.write)

    def _append(self, key: str, data: bytes) -> None:
        # ...and on the appended bytes only, as on a real file.
        self._inject(key, data, self.inner.append)

    def _inject(self, key: str, data: bytes, put) -> None:
        if self._protected(key):
            put(key, data)
            return
        self._maybe_spike()
        if self.torn_write_prob and \
                float(self.rng.random()) < self.torn_write_prob and len(data) > 1:
            cut = int(self.rng.integers(1, len(data)))
            put(key, data[:cut])
            self.injected["torn_write"] += 1
            raise IOError(f"chaos: torn write of {key} ({cut}/{len(data)} bytes)")
        if self.write_fail_prob and \
                float(self.rng.random()) < self.write_fail_prob:
            self.injected["write_fail"] += 1
            raise IOError(f"chaos: transient write failure for {key}")
        if self.bit_flip_prob and float(self.rng.random()) < self.bit_flip_prob:
            data = self._flip_one_bit(data)
            self.injected["bit_flip"] += 1
        put(key, data)

    def _read(self, key: str) -> bytes:
        if self._protected(key):
            return self.inner.read(key)
        self._maybe_spike()
        if self.read_fail_prob and float(self.rng.random()) < self.read_fail_prob:
            self.injected["read_fail"] += 1
            raise IOError(f"chaos: transient read failure for {key}")
        return self.inner.read(key)

    def resilience_stats(self) -> dict:
        """Injected-fault counters (merged into drill reports)."""
        return {f"chaos_{name}": count for name, count in self.injected.items()}
