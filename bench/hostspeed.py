"""Host-speed probe: what the end-to-end timings are corrected with.

The sandbox is a few cores of a shared host.  Core-bound code on it runs in
a fast state or one ~35 % slower, alternating every few seconds, and the
share of the slow state drifts over minutes: ten-run sweeps of the timings
as measured spread 14-57 % (IQR/median) on a bad hour, which no run length
inside the driver's time limit averages out.  So every run times a fixed
reference kernel whenever the program under test is quiescent
(``PhaseProbes``) and reports its timings *as they would read on a host
where the kernel takes* ``REFERENCE_S``:
``timing * REFERENCE_S / mean probe of the cycle``.  The kernel lives here,
outside the program, so no change to the program can alter what it does.
bench/README.md has the measurements behind this.

The kernel touches the resources the program's hot paths use: the
interpreter (per-record Python overhead of pack/manifest code), BLAS and a
partition over arrays larger than L2 (training step, top-k) and zlib/CRC32
(codec, blob checksums).  One pass takes ~13 ms.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

# The kernel's reading on this 2-core sandbox in its fast state, so that
# corrected values read as plain milliseconds here.
REFERENCE_S = 0.0135

_inputs = None


def _build_inputs():
    # splitmix64 of the index: deterministic, incompressible, and no
    # numpy.random import (the program's own set-up cost must not move here).
    state = np.arange(1 << 20, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9),
                              (27, 0x94D049BB133111EB)):
        state = (state ^ (state >> np.uint64(shift))) * np.uint64(multiplier)
    state ^= state >> np.uint64(31)
    vector = (state >> np.uint64(40)).astype(np.float32) / np.float32(2 ** 24)
    vector -= np.float32(0.5)
    batch = vector[:16 * 1024].reshape(16, 1024)
    # Outputs are preallocated: a fresh 4 MB buffer costs more in page
    # faults than the work on it, and how many depends on what the program
    # freed last.
    return (batch, vector.reshape(1024, 1024), np.empty_like(batch),
            vector, np.empty_like(vector),
            (state[:1 << 18] & np.uint64(0xFF)).astype(np.uint8).tobytes())


def _interpreter():
    table = {}
    total = 0
    for i in range(40000):
        total += i * 3 % 7
        table[i & 255] = total


def _arrays(batch, weights, product, vector, scratch):
    for _ in range(4):
        np.matmul(batch, weights, out=product)
    np.copyto(scratch, vector)
    scratch.partition(vector.size - 50000)


def _checksum(data):
    zlib.compress(data, 1)
    zlib.crc32(data)


def probe() -> float:
    """Seconds one pass of the reference kernel takes now."""
    global _inputs
    if _inputs is None:
        _inputs = _build_inputs()
    *arrays, data = _inputs
    start = time.perf_counter()
    _interpreter()
    _arrays(*arrays)
    _checksum(data)
    return time.perf_counter() - start


class PhaseProbes:
    """Probes through one phase in which the program is quiescent between
    timed samples (a block of restores; the ends of a train phase).

    The host flips between a fast and a ~35 % slower state every few
    seconds, so a single probe is a coin toss: a phase is probed when it
    opens, after any sample that ends more than ``EVERY_S`` after the
    previous probe, and when it closes, and a cycle is corrected with the
    mean of all its probes (``correction``).  A train loop is probed at its
    ends only: with an asynchronous engine the program's persist workers
    are busy on the other core throughout, which slows the kernel by ~30 %
    -- a probe inside the loop would measure the program, not the host."""

    EVERY_S = 0.5

    def __init__(self):
        self.readings = [probe()]
        self._last = time.perf_counter()

    def sample_done(self) -> None:
        """Call right after each timed sample."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.close()

    def close(self) -> None:
        self.readings.append(probe())
        self._last = time.perf_counter()


def correction(readings: list[float]) -> float:
    """Factor that turns a timing taken among ``readings`` into its reading
    at the reference host speed."""
    return REFERENCE_S * len(readings) / sum(readings)
