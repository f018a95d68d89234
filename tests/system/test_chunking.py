"""Tests for set -> chunk splitting (Table II granularity)."""

import pytest

from repro.errors import CollectiveError
from repro.system.collective_set import split_into_chunks


class TestSplitIntoChunks:
    def test_even_split(self):
        assert split_into_chunks(16384, 4) == [4096.0] * 4

    def test_sum_preserved(self):
        chunks = split_into_chunks(1_000_003, 16)
        assert sum(chunks) == pytest.approx(1_000_003)
        assert len(chunks) == 16

    def test_tiny_sets_collapse(self):
        """Sets below splits x 1 KB keep chunk sizes meaningful."""
        chunks = split_into_chunks(2048, 16)
        assert len(chunks) == 2

    def test_sub_kb_set_is_single_chunk(self):
        assert split_into_chunks(100, 16) == [100.0]

    def test_single_split(self):
        assert split_into_chunks(5000, 1) == [5000.0]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(CollectiveError):
            split_into_chunks(0, 4)

    def test_rejects_nonpositive_splits(self):
        with pytest.raises(CollectiveError):
            split_into_chunks(1024, 0)

    def test_chunks_equal_sized(self):
        chunks = split_into_chunks(999_999, 7)
        assert len(set(chunks)) == 1
