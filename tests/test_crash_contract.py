"""The crash contract, model-checked: after any crash, recovery returns the
run's exact state at a step between the last acknowledged commit and the
last submitted one (the paper's ``b/2`` lost-work model).

One hypothesis state machine drives the real ``CheckpointStore`` or
``ShardedCheckpointStore`` (S in {1, 2, 3}, codec none or lossless, plain
SGD or Adam, inline or thread-engine persistence, drawn per example) over
a ``CrashingBackend``.  Rules persist diffs with a full every F steps, save
a full, compact, gc, damage one blob, verify with repair, arm a crash or a
failure at the k-th next backend mutation, reopen, and ``sweep`` one
operation on clones at every crash point (appends also torn).  A crash
kills the process (engine aborted, handle dropped, bytes reopened); after
a failure the handle re-submits from the last acked step.

Every reopen, damage and teardown checks (``_check``) against the states
of the uninterrupted run, never a copy of recovery: the durable index
names no missing key and no open rebuilds one; serial recovery lands where
a walk over the listed records predicts (newest undamaged full, then its
chain up to the first damaged record), quarantines just what that walk
meets, and is bit-equal to the run; undamaged, in [acked, submitted]
(acked: the store call returned, or every shard part's ``PendingWrite``
resolved without error); after ``gc(1)`` the next diff appended replays;
parallel recovery agrees on step and quarantine, and on state under plain
SGD within the fp32 merge tree's rounding, not under Adam, where one
update over a merged window is gradient accumulation (ROADMAP item 12).
A merge (plain SGD only) is not the run either: after one, states compare
within 1e-5 and no blob is damaged.  Out of scope: checkpointer- and
trainer-level drills (``FailureDrill``, supervisor, collective gate,
elastic N->M), batched records (a batched Adam record is not the run's
state), the process executor, and power loss (``InMemoryBackend`` keeps
every byte a mutation wrote).  ``CHAOS_SEED`` is the hypothesis seed; a
failing example's printed steps rerun through ``replay``.
"""

import copy
import json
import os
import zlib
from contextlib import suppress
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, seed, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core.recovery import parallel_recover, serial_recover
from repro.storage import (CheckpointStore, InMemoryBackend, RetentionPolicy,
                           ShardedCheckpointStore)
from repro.storage.checkpoint_store import MANIFEST_KEY, journal_key
from repro.storage.serializer import CorruptCheckpointError
from repro.storage.sharded import open_persist_engine, shard_prefix
from tests.helpers import (CrashingBackend, SimulatedCrash, adam_factory,
                           assert_optimizers_equal, assert_states_equal,
                           clone_backend, model_factory, reference_run,
                           sgd_factory)

pytestmark = pytest.mark.chaos
STEPS = 40
FACTORIES = {"adam": adam_factory, "sgd": sgd_factory}
REBASE = RetentionPolicy(keep_fulls=1, max_chain_len=4)
MERGE = RetentionPolicy(keep_fulls=1, max_chain_len=4, compact_run=4)


@cache
def reference(optimizer):
    """``(payloads, snapshots)`` of the uninterrupted run."""
    return reference_run(STEPS, FACTORIES[optimizer])


def indexed_keys(backend, prefix):
    """The keys the durable index under ``prefix`` names, from its bytes:
    the snapshot, then its journal's complete lines."""
    if not backend.exists(prefix + MANIFEST_KEY):
        return set()
    snapshot = json.loads(backend.read(prefix + MANIFEST_KEY))
    records = snapshot["fulls"] + snapshot["diffs"]
    journal = prefix + journal_key(snapshot.get("gen", 0))
    if snapshot.get("gen") and backend.exists(journal):
        records += [json.loads(line.rpartition(b" ")[0]) for line in
                    backend.read(journal).split(b"\n")[:-1]]
    return {prefix + record["key"] for record in records}


class CrashContract(RuleBasedStateMachine):
    @initialize(shards=st.sampled_from([1, 2, 3]),
                codec=st.sampled_from([None, "lossless"]),
                optimizer=st.sampled_from(["sgd", "adam"]),
                persist=st.sampled_from(["inline", "thread"]),
                full_every=st.sampled_from([4, 7]))
    def init(self, shards, codec, optimizer, persist, full_every):
        self.shards, self.codec, self.optimizer = shards, codec, optimizer
        self.threaded, self.full_every = persist == "thread", full_every
        self.prefixes = [shard_prefix(s) for s in range(shards)] \
            if shards > 1 else [""]
        self.payloads, self.snapshots = reference(optimizer)
        self.inner = InMemoryBackend()
        self.fault = CrashingBackend(self.inner)
        self.store = self._open(self.fault)
        self.engine = self._engine(self.store)
        self.inflight, self.flipped, self.deleted = [], {}, set()
        self.pos, self.acked, self.submitted = 0, -1, 0
        self.broken = self.failed = self.merged = False
        self._submit("full", 0)

    # The process: submit, settle, crash and resume --------------------------
    def _open(self, backend):
        if self.shards == 1:
            return CheckpointStore(backend, codec=self.codec)
        return ShardedCheckpointStore(backend, self.shards, codec=self.codec)

    def _engine(self, store):
        return open_persist_engine(store, "thread", writer_threads=2,
                                   queue_depth=4) if self.threaded else None

    def _save(self, target, kind, step):
        if kind == "full":
            return target.save_full(step, *copy.deepcopy(self.snapshots[step]))
        return target.save_diff(step, step, self.payloads[step])

    def _submit(self, kind, step):
        """One record to the engine or the store; False if it did not go."""
        self.submitted = max(self.submitted, step)
        try:
            handles = self._save(self.engine or self.store, kind, step)
        except SimulatedCrash:
            return self._restart()
        except (OSError, RuntimeError):  # failed, or the engine fail-stopped
            self.inflight.append((kind, step, None))
            return self._settle()
        if self.engine is None:   # the store call returned: acked
            self.inflight.append((kind, step, []))
            return self._account()
        self.inflight.append((kind, step, handles if isinstance(
            handles, list) else [handles]))
        return True

    def _account(self):
        """Ack what resolved, in submission order; True if all did."""
        for kind, step, handles in self.inflight:
            if handles is None or any(h.error for h in handles):
                self.broken = self.failed = True
            elif kind == "full" and step >= self.acked:
                self.acked, self.broken = step, False
            elif kind == "diff" and step == self.acked + 1 and not self.broken:
                self.acked = step
        self.inflight = []
        return not self.failed

    def _settle(self):
        """Wait out the engine and take stock until nothing is in flight: a
        crash restarts the process, a failure re-submits from acked."""
        for _ in range(4):   # one armed fault at a time: a crash or a failure
            if self.engine is not None:
                with suppress(RuntimeError):
                    self.engine.drain()
            if self.fault.crashed:
                self._restart()
            elif self._account():
                return False
            else:
                if self.engine is not None:
                    self.engine.abort()
                    self.engine = self._engine(self.store)
                self._resume()
        raise AssertionError("the store fails with no fault armed")

    def _call(self, operation):
        self._settle()
        try:
            operation()
        except SimulatedCrash:
            self._restart()
        except OSError:
            self.inflight.append(("call", 0, None))
            self._settle()

    def _restart(self, resume=True):
        """The process ends (engine aborted, handle dropped); a new one
        reopens, recovers, is checked, and resumes where recovery landed."""
        if self.engine is not None:
            self.engine.abort()
        self._account()
        self.fault = CrashingBackend(self.inner)
        step, self.store = self._check(self.fault, self._window())
        self.engine = self._engine(self.store) if resume else None
        if resume:
            self.acked = -1 if step is None else step
            self._resume()
        return False

    def _resume(self):
        self.pos, self.broken, self.failed = max(self.acked, 0), False, False
        if self.acked < 0:
            self._submit("full", 0)

    def _window(self, submitted=0):
        """[acked, submitted], unless a blob was ever damaged."""
        if not (self.flipped or self.deleted):
            return self.acked, max(self.submitted, submitted)

    def _skip(self, op):
        """Merges run under plain SGD on undamaged stores only."""
        self._settle()
        return op == "merge" and (self.optimizer != "sgd"
                                  or self._window() is None)

    # Rules --------------------------------------------------------------------
    @rule(n=st.integers(1, 6))
    def persist(self, n=1):
        for _ in range(n):
            if self.pos == STEPS:
                return
            self.pos += 1
            if not self._submit("diff", self.pos) or (
                    self.pos % self.full_every == 0
                    and not self._submit("full", self.pos)):
                return

    @rule()
    def full(self):
        if not self._skip("full"):
            self._submit("full", self.pos)

    @rule(mode=st.sampled_from(["rebase", "merge"]))
    def compact(self, mode):
        if not self._skip(mode):
            self.merged |= mode == "merge"
            self._call(lambda: OPS[mode](self, self.store, None))

    @rule(keep=st.sampled_from([1, 2]))
    def gc(self, keep):
        self._call(lambda: self.store.gc(keep_fulls=keep))

    @rule(kind=st.sampled_from(["diff", "full"]),
          how=st.sampled_from(["flip", "delete"]),
          shard=st.integers(0, 2), pick=st.integers(0, STEPS))
    def damage(self, kind, how, shard, pick):
        """One blob of one shard's part: a full, or a diff inside the newest
        full's chain when it has one."""
        self._settle()
        sub = self.store.part_stores[shard % self.shards]
        fulls = sub.fulls()
        chain = [r for r in sub.diffs() if not fulls or r.end > fulls[-1].step]
        records = fulls if kind == "full" else chain[:-1] or chain
        key = records and self.prefixes[shard % self.shards] + records[
            pick % len(records)].key
        if self.merged or self._damaged(self.inner) or not key \
                or not self.inner.exists(key):
            return
        if how == "delete":
            self.inner.delete(key)
            self.deleted.add(key)
        else:
            raw = bytearray(self.inner.read(key))
            raw[len(raw) // 2] ^= 0xFF
            self.inner.write(key, bytes(raw))
            self.flipped[key] = bytes(raw)
        self._check(clone_backend(self.inner), None)   # a restart now

    @rule()
    def verify(self):
        self._call(lambda: self.store.verify(repair=True))

    @rule(mode=st.sampled_from(["crash", "fail"]), after=st.integers(0, 12),
          cut=st.sampled_from([0, 1, 7, 60]))
    def arm(self, mode, after, cut=0):
        self.fault.arm(after, mode, cut)

    @rule()
    def reopen(self):
        self._settle()
        self._restart()

    @rule(op=st.sampled_from(["full", "rebase", "persist", "merge", "gc1",
                              "gc2"]))
    def sweep(self, op, offsets="some"):
        """``op`` on clones of the durable bytes, crashed at each of its
        mutations in turn; an append also torn at several offsets (or at
        ``"every"`` one)."""
        if self._skip(op) or op == "persist" and self.pos == STEPS:
            return
        probe = CrashingBackend(clone_backend(self.inner))
        self._run(op, probe)
        window = self._window(self.pos + (op == "persist"))
        self.merged |= op == "merge"    # its crash states hold super-diffs
        checked = set()
        for index in range(probe.mutations):
            size = probe.appends.get(index, 0)
            cuts = range(size) if offsets == "every" else {
                0, 1, size // 2, size - 1} if size else {0}
            for cut in sorted(cuts):
                fault = CrashingBackend(clone_backend(self.inner))
                fault.arm(index, "crash", cut)
                with suppress(RuntimeError):   # the crash, or the engine's
                    self._run(op, fault)       # fail-stop wrapping it
                assert fault.crashed, (op, index)
                # The same index over the same blobs recovers the same way.
                state = self._indexed(fault.inner)
                if state not in checked:
                    checked.add(state)
                    self._check(fault.inner, window)

    def _run(self, op, backend):
        store = self._open(backend)
        engine = self._engine(store)
        try:
            OPS[op](self, store, engine)
            if engine is not None:
                engine.drain()
        finally:
            if engine is not None:
                engine.abort()

    def teardown(self):
        self._settle()
        self._restart(resume=False)

    # The contract -------------------------------------------------------------
    def _indexed(self, backend):
        """Assert the durable index names no missing key; return what
        recovery reads: every index file and every indexed blob."""
        keys = set(backend.list_keys())
        listed = set().union(*(indexed_keys(backend, prefix)
                               for prefix in self.prefixes))
        assert listed - keys <= self.deleted, listed - keys
        return frozenset((key, zlib.crc32(backend.read(key))) for key in keys
                         if key in listed
                         or "full/" not in key and "diff/" not in key)

    def _damaged(self, backend):
        return {key for key, raw in self.flipped.items()
                if backend.exists(key) and backend.read(key) == raw}

    def _walk(self, store, damaged):
        """Where recovery must land, from the listed records alone:
        ``(step or None, the damaged keys it meets)``."""
        def bad(view):
            keys = (prefix + record.key for prefix, (_, record)
                    in zip(self.prefixes, store.parts(view)))
            return [key for key in keys if key in damaged][:1]
        met = []
        for full in reversed(store.fulls()):
            if not bad(full):
                break
            met += bad(full)
        else:
            return None, met
        step = full.step
        for view in store.diffs_after(step):
            if bad(view):
                return step, met + bad(view)
            step = view.end
        return step, met

    def _recover(self, store, recover):
        model = model_factory()
        optimizer = FACTORIES[self.optimizer](model)
        return recover(store, model, optimizer), model, optimizer

    def _assert_run(self, step, model, optimizer, atol=0.0):
        atol += 1e-5 * self.merged
        run_model, run_optimizer = self.snapshots[step]
        assert_states_equal(model.state_dict(), run_model, exact=not atol,
                            atol=atol)
        assert_optimizers_equal(optimizer.state_dict(), run_optimizer,
                                exact=not atol)

    def _check(self, backend, window):
        """Every invariant over ``backend``'s bytes.  Returns the step serial
        recovery reached (None: nothing recoverable) and the store it
        recovered, opened over ``backend`` itself."""
        self._indexed(backend)
        damaged = self._damaged(backend)
        indexed = [backend.exists(prefix + MANIFEST_KEY)
                   for prefix in self.prefixes]
        parallel_store = self._open(clone_backend(backend))
        store = self._open(backend)
        # Only a store whose first index write never landed is rebuilt.
        assert not any(sub.manifest_rebuilt and had for sub, had in zip(
            store.part_stores, indexed))
        step, met = self._walk(store, damaged)
        if window is not None:
            assert step is not None or window[0] < 0, window
            assert step is None or window[0] <= step <= window[1], window
        if step is None:
            with pytest.raises((FileNotFoundError, CorruptCheckpointError)):
                self._recover(store, serial_recover)
            return None, store
        result, model, optimizer = self._recover(store, serial_recover)
        assert (result.step, sorted(store.quarantined)) == (step, sorted(met))
        self._assert_run(step, model, optimizer)
        result, model, optimizer = self._recover(parallel_store,
                                                 parallel_recover)
        assert (result.step, sorted(parallel_store.quarantined)) == (
            step, sorted(met))
        if self.optimizer == "sgd":   # each tree level rounds an fp32 sum
            largest = max(float(np.abs(values).max()) for payload in
                          self.payloads.values() for _, values in
                          payload.entries.values())
            self._assert_run(step, model, optimizer, atol=optimizer.lr * step
                             * np.finfo(np.float32).eps * largest
                             * (result.merge_depth + 1))
        if step < STEPS:
            appended = self._open(clone_backend(backend))
            appended.gc(keep_fulls=1)
            appended.save_diff(step + 1, step + 1, self.payloads[step + 1])
            result, model, optimizer = self._recover(
                self._open(appended.backend), serial_recover)
            assert result.step > step
            self._assert_run(result.step, model, optimizer)
        return step, store


OPS = {
    "persist": lambda m, store, engine: [
        m._save(engine or store, kind, m.pos + 1)
        for kind in ("diff", "full")[:1 + ((m.pos + 1) % m.full_every == 0)]],
    "full": lambda m, store, engine: m._save(engine or store, "full", m.pos),
    "rebase": lambda m, store, engine: store.compact(
        REBASE, model_factory=model_factory,
        optimizer_factory=FACTORIES[m.optimizer]),
    "merge": lambda m, store, engine: store.compact(MERGE),
    "gc1": lambda m, store, engine: store.gc(keep_fulls=1),
    "gc2": lambda m, store, engine: store.gc(keep_fulls=2),
}


def replay(script, shards=1, optimizer="adam", codec=None, persist="inline",
           full_every=STEPS + 1):
    """Run one fixed rule sequence, ``;``-separated rule calls with their
    arguments (``"persist 6; arm crash 3; gc 1; reopen"``); returns the
    stopped machine."""
    machine = CrashContract()
    machine.init(shards, codec, optimizer, persist, full_every)
    try:
        for name, *args in filter(None, map(str.split, script.split(";"))):
            getattr(machine, name)(*(int(arg) if arg.lstrip("-").isdigit()
                                     else arg for arg in args))
    finally:
        machine.teardown()
    return machine


def test_resave_never_overwrites_the_indexed_bytes():
    """A merge leaves a full at the chain's tail holding a merged replay's
    state; re-saving the run's other bytes at that step, crashed at each
    mutation, leaves the index naming intact bytes."""
    replay("persist 5; compact merge; compact rebase; compact rebase; "
           "sweep full", shards=2, optimizer="sgd", persist="thread")


CHAOS_SEED = os.environ.get("CHAOS_SEED")
CrashContract.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, derandomize=CHAOS_SEED is None,
    database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
if CHAOS_SEED:
    seed(int(CHAOS_SEED))(CrashContract)
TestCrashContract = CrashContract.TestCase
