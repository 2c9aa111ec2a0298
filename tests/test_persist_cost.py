"""What one persisted record costs: rows of ``tests/test_costs.py``'s
table, which these ids call (listed in ``tests/FLOOR_DROPPABLE.md``)."""

import pathlib
import re

import pytest

import repro
from tests.test_costs import check


def test_packing_a_sparse_diff_costs_bytes_not_blobs():
    check(("persist", "inline", 1, "none"))


def test_store_commit_encodes_the_manifest_once():
    check(("index", "snapshot"))


def test_a_diff_commit_costs_the_same_at_16_and_1024_records():
    check(("persist", "inline", 1, "none", 1024))


@pytest.mark.shm
@pytest.mark.parametrize("shards", [1, 2])
def test_ring_transit_is_one_walk_and_no_checksums_but_stored_blobs_carry_them(
        shards):
    check(("persist", "process", shards, "none"))


def test_no_crc_combine_left_in_src():
    """Replace, not fork: the pure-Python GF(2) combine is gone, not kept
    beside the one ``zlib.crc32`` over the finished container."""
    root = pathlib.Path(repro.__file__).parent
    pattern = re.compile(r"_gf2_|crc32_combine|_whole_crc")
    hits = [str(path) for path in root.rglob("*.py")
            if pattern.search(path.read_text())]
    assert not hits
