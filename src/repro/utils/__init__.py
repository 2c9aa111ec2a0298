"""Shared utilities: deterministic RNG, units, validation."""

from repro.utils.exports import exports

exports(globals(), {
    ".rng": "Rng seed_everything derive_seed",
    ".units": "KB MB GB GiB KiB MiB format_bytes format_seconds",
    ".metrics": "accuracy perplexity evaluate_classifier",
    ".validation": "check_positive check_in_range check_type "
                   "check_probability",
})
