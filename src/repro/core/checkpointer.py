"""The lifecycle every checkpointing strategy shares.

:class:`~repro.core.lowdiff.LowDiffCheckpointer`,
:class:`~repro.core.lowdiff_plus.LowDiffPlusCheckpointer` and the four
baselines differ in *what* they persist and *when*; how a checkpointer is
wired to a trainer, stopped, and read back is the same for all six and
lives here once (ARCHITECTURE.md §2), so drills and the supervisor call
one contract instead of probing for methods.
"""

from __future__ import annotations

from repro.core.recovery import (
    RecoveryResult,
    parallel_recover,
    serial_recover,
)


class Checkpointer:
    """``attach``, four ways to end — ``finalize`` / ``crash`` / ``abort``
    / ``quiesce``, each through :meth:`_stop_intake`, each leaving the
    checkpointer dead (a restarted job attaches a fresh one) — and
    ``recover``.  A subclass sets ``self.store`` (and ``self.engine`` when
    it persists through one) and supplies ``_on_post_update``."""

    #: The persist engine, when records go through one.
    engine = None
    #: Tier the last :meth:`recover` restored from (``None``: none ran).
    last_recovery_tier: str | None = None
    _trainer = None

    # Training-side wiring ---------------------------------------------------
    def attach(self, trainer, resume_from: int | None = None) -> None:
        """Register this checkpointer's hooks on a trainer.

        Fresh jobs write the base full at step 0, so recovery has a base
        even before the first periodic checkpoint.  A job restarting after
        recovery passes the recovered optimizer step as ``resume_from``:
        the base is written *there*, restarting the chain cleanly past
        anything lost to the failure.
        """
        self._trainer = trainer
        self._save_base(0 if resume_from is None else int(resume_from),
                        trainer.model_state(), trainer.optimizer_state())
        self._register_hooks(trainer)

    def _save_base(self, step: int, model_state: dict,
                   optimizer_state: dict) -> None:
        self.store.save_full(step, model_state, optimizer_state)

    def _register_hooks(self, trainer) -> None:
        trainer.register_post_update_hook(self._on_post_update)

    # Lifecycle ----------------------------------------------------------------
    def _stop_intake(self) -> None:
        """First act of every way to end: no record is accepted past here,
        so the trainer is no longer needed — and must be let go, or it and
        this object (whose bound hooks it holds) keep each other and the
        whole training state alive until a full gc."""
        self._trainer = None

    def _flush_pending(self) -> None:
        """Hand records still buffered on the training side to the persist
        target (a clean end)."""

    def _discard_pending(self) -> None:
        """Drop records still buffered on the training side: they die
        with the training process."""

    def finalize(self) -> None:
        """Flush everything; call when training ends (or before recovery)."""
        self._stop_intake()
        self._flush_pending()
        if self.engine is not None:
            self.engine.finalize()

    def crash(self) -> None:
        """Emulate a training-process death for failure drills.

        The paper runs checkpointing in a *separate* process, so records
        already handed off (submitted to the engine) still persist, while
        whatever the training side still buffered dies with it.  Draining
        the engine (rather than aborting it) keeps the persisted series
        identical to a synchronous run up to the crash point, which is
        what makes chaos drills bit-exactly replayable in async mode.
        """
        self._stop_intake()
        self._discard_pending()
        if self.engine is not None:
            self.engine.finalize()

    def abort(self) -> None:
        """Hard-stop the persistence engine without draining (queued writes
        are dropped); used when even the checkpointing side is dying."""
        self._stop_intake()
        if self.engine is not None:
            self.engine.abort()

    def quiesce(self, timeout: float | None = None) -> None:
        """Deadline-bounded stop for supervisor-orchestrated recovery.

        Discards what the training side still buffered (in-flight records
        newer than the last committed one die here — recovery must only
        see the committed full+chain prefix) and drains the engine within
        ``timeout`` seconds.  A stuck backend raises
        :class:`~repro.storage.async_engine.DrainTimeout` after dropping
        queued writes instead of hanging recovery forever.
        """
        self._stop_intake()
        self._discard_pending()
        if self.engine is not None:
            self.engine.drain(timeout=timeout)

    # Recovery -------------------------------------------------------------------
    def recover(self, model, optimizer, parallel: bool = False
                ) -> RecoveryResult:
        """Restore ``model``/``optimizer`` from the persisted series."""
        recover = parallel_recover if parallel else serial_recover
        result = recover(self.store, model, optimizer)
        self.last_recovery_tier = "storage"
        return result
