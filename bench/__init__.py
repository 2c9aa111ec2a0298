"""LowDiff train -> crash -> restore benchmark (see bench/README.md)."""
