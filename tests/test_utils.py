"""Unit tests for repro.utils: rng, units, validation, export tables."""

import ast
import importlib
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.utils import (
    GB,
    KB,
    KiB,
    MB,
    Rng,
    check_in_range,
    check_positive,
    check_probability,
    check_type,
    derive_seed,
    format_bytes,
    format_seconds,
    seed_everything,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        np.testing.assert_array_equal(a.normal(size=10), b.normal(size=10))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal(size=10), Rng(2).normal(size=10))

    def test_child_streams_are_stable(self):
        a = Rng(5).child("worker", 3)
        b = Rng(5).child("worker", 3)
        np.testing.assert_array_equal(a.uniform(size=4), b.uniform(size=4))

    def test_child_streams_are_independent(self):
        parent = Rng(5)
        first = parent.child("a").normal(size=100)
        second = parent.child("b").normal(size=100)
        assert not np.array_equal(first, second)

    def test_child_does_not_consume_parent_stream(self):
        parent = Rng(9)
        parent.child("x")
        after_child = parent.normal(size=5)
        np.testing.assert_array_equal(after_child, Rng(9).normal(size=5))

    def test_derive_seed_stable_across_calls(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)

    def test_integers_bounds(self):
        values = Rng(0).integers(0, 10, size=1000)
        assert values.min() >= 0 and values.max() < 10

    def test_seed_everything_reproducible(self):
        seed_everything(7)
        first = np.random.rand(3)
        seed_everything(7)
        np.testing.assert_array_equal(first, np.random.rand(3))

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestUnits:
    # Ids name the paper's size strings; each renders back from its bytes.
    @pytest.mark.parametrize("num_bytes,binary,rendered", [
        pytest.param(541_000_000, False, "541.00 MB", id="541M-541000000"),
        pytest.param(8_700_000_000, False, "8.70 GB", id="8.7 GB-8700000000"),
        pytest.param(1_300_000_000, False, "1.30 GB", id="1.3G-1300000000"),
        pytest.param(239 * (1 << 20), True, "239.00 MiB",
                     id="239MiB-250609664"),
        pytest.param(100, False, "100 B", id="100-100"),
        pytest.param(500, False, "500 B", id="0.5KB-500"),
    ])
    def test_parse_bytes(self, num_bytes, binary, rendered):
        assert format_bytes(num_bytes, binary=binary) == rendered

    def test_parse_bytes_rejects_garbage(self):
        """Each unit starts exactly at its factor."""
        assert format_bytes(999) == "999 B"
        assert format_bytes(KB) == "1.00 KB"
        assert format_bytes(MB - 1) == "1000.00 KB"
        assert format_bytes(KiB - 1, binary=True) == "1023 B"
        assert format_bytes(KiB, binary=True) == "1.00 KiB"

    def test_format_bytes(self):
        assert format_bytes(1_400_000_000) == "1.40 GB"
        assert format_bytes(512) == "512 B"
        assert format_bytes(3 * (1 << 20), binary=True) == "3.00 MiB"

    def test_format_negative(self):
        assert format_bytes(-1000).startswith("-")

    @given(st.integers(min_value=0, max_value=10**13))
    def test_format_parse_roundtrip_within_rounding(self, n):
        value, suffix = format_bytes(n).split()
        factor = {"B": 1, "KB": KB, "MB": MB, "GB": GB, "TB": 10**12}[suffix]
        assert abs(float(value) * factor - n) <= max(0.01 * n, 1)

    def test_format_seconds(self):
        assert format_seconds(7200) == "2.00 h"
        assert format_seconds(90) == "1.50 min"
        assert format_seconds(1.5) == "1.50 s"
        assert format_seconds(0.25) == "250.0 ms"
        assert format_seconds(2e-5) == "20.0 us"


class TestTimers:
    """``format_seconds``, the duration renderer the reports use."""

    def test_timer_measures_elapsed(self):
        """Each unit starts exactly at its threshold."""
        assert format_seconds(3600) == "1.00 h"
        assert format_seconds(3599) == "59.98 min"
        assert format_seconds(60) == "1.00 min"
        assert format_seconds(1) == "1.00 s"
        assert format_seconds(1e-3) == "1.0 ms"
        assert format_seconds(9e-4) == "900.0 us"

    @given(st.floats(min_value=1e-9, max_value=1e6))
    def test_stopwatch_accumulates(self, seconds):
        assert format_seconds(-seconds) == "-" + format_seconds(seconds)

    def test_stopwatch_mean_empty(self):
        assert format_seconds(0.0) == "0.0 us"
        assert format_bytes(0) == "0 B"


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1.0)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        check_positive("x", 0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)
        with pytest.raises(TypeError):
            check_positive("x", "nan")

    def test_check_in_range(self):
        check_in_range("x", 0.5, 0, 1)
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 0, 1, inclusive=False)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.1)

    def test_check_type(self):
        check_type("x", 3, int)
        with pytest.raises(TypeError):
            check_type("x", 3, str)


# Export tables -----------------------------------------------------------------
TABLES = ["repro", "repro.baselines", "repro.compression", "repro.core",
          "repro.distributed", "repro.obs", "repro.optim", "repro.sim",
          "repro.sim.strategies", "repro.storage", "repro.tensor",
          "repro.tensor.models", "repro.utils"]
# Module-level ``repro`` imports a package ``__init__`` may hold besides the
# export helper: the switchboard's own registry and tracer types, and the
# experiment registry, which is a dict of modules (no job imports it).
INIT_IMPORTS = {
    "obs": {"repro.obs.metrics", "repro.obs.trace"},
    "harness": {"repro.harness", "repro.harness.common"},
}


class TestExportTables:
    @pytest.mark.parametrize("name", TABLES)
    def test_table_is_the_public_surface(self, name):
        package = importlib.import_module(name)
        table = package.__exports__
        own = package.__all__[:len(package.__all__) - len(table)]
        assert package.__all__[len(own):] == list(table)
        assert all(attr in vars(package) for attr in own)
        for attr, module in table.items():
            value = getattr(package, attr)
            if module == ".":
                assert value is importlib.import_module(f"{name}.{attr}")
            else:
                assert value is getattr(
                    importlib.import_module(module, name), attr)
        assert set(package.__all__) <= set(dir(package))
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        with pytest.raises(AttributeError):
            package.no_such_name

    def test_package_inits_import_only_the_export_helper(self):
        """Every name a package re-exports loads on first use, so no
        ``__init__`` imports a ``repro`` module at module level."""
        root = pathlib.Path(repro.__file__).parent
        for init in root.rglob("__init__.py"):
            package = init.parent.relative_to(root).as_posix()
            found, nodes = set(), list(ast.parse(init.read_text()).body)
            while nodes:
                node = nodes.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(node, ast.Import):
                    found.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add("." * node.level + (node.module or ""))
                nodes.extend(ast.iter_child_nodes(node))
            found = {module for module in found
                     if module.split(".")[0] in ("repro", "")}
            allowed = {"repro.utils.exports"} | INIT_IMPORTS.get(package, set())
            assert found <= allowed, (package, found - allowed)
