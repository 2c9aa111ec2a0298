"""Byte/time unit helpers used across the storage and simulation layers.

The paper quotes decimal units for network/storage bandwidth (25 Gbps,
GB/s) and binary units for memory (80 GB HBM); both families are provided.
"""

from __future__ import annotations

# Decimal (SI) units — used for bandwidths and checkpoint sizes on storage.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# Binary units — used for device memory capacities.
KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30


def format_bytes(num_bytes: float, binary: bool = False) -> str:
    """Render a byte count human-readably (e.g. ``1.4 GB`` / ``1.3 GiB``)."""
    if num_bytes < 0:
        return "-" + format_bytes(-num_bytes, binary)
    table = (
        [("TiB", 1 << 40), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)]
        if binary
        else [("TB", 10**12), ("GB", GB), ("MB", MB), ("KB", KB)]
    )
    for suffix, factor in table:
        if num_bytes >= factor:
            return f"{num_bytes / factor:.2f} {suffix}"
    return f"{num_bytes:.0f} B"


def format_seconds(seconds: float) -> str:
    """Render a duration (e.g. ``1.25 h``, ``3.2 s``, ``480 ms``)."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    if seconds >= 60:
        return f"{seconds / 60:.2f} min"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.1f} us"
