"""Shared utilities: deterministic RNG, units, validation."""

from repro.utils.rng import Rng, seed_everything, derive_seed
from repro.utils.units import (
    KB,
    MB,
    GB,
    GiB,
    KiB,
    MiB,
    format_bytes,
    format_seconds,
)
from repro.utils.metrics import accuracy, perplexity, evaluate_classifier
from repro.utils.validation import (
    check_positive,
    check_in_range,
    check_type,
    check_probability,
)

__all__ = [
    "Rng",
    "seed_everything",
    "derive_seed",
    "KB",
    "MB",
    "GB",
    "KiB",
    "MiB",
    "GiB",
    "format_bytes",
    "format_seconds",
    "accuracy",
    "perplexity",
    "evaluate_classifier",
    "check_positive",
    "check_in_range",
    "check_type",
    "check_probability",
]
