"""Tests for the VA2PA translation table."""

import pytest

from repro.memory.va2pa import TranslationError, VA2PATable


class TestVA2PATable:
    def test_translate_within_chunk(self):
        table = VA2PATable(chunk_bytes=1024)
        table.extend(request_id=1, chunks=[5])
        assert table.translate(1, 0) == 5 * 1024
        assert table.translate(1, 100) == 5 * 1024 + 100

    def test_translate_across_chunks(self):
        table = VA2PATable(chunk_bytes=1024)
        table.extend(1, [5, 2])
        assert table.translate(1, 1024 + 8) == 2 * 1024 + 8

    def test_per_request_isolation(self):
        # The paper's example: the same virtual address resolves to different
        # physical locations for different requests.
        table = VA2PATable(chunk_bytes=1024)
        table.extend(1, [22])
        table.extend(2, [33])
        assert table.translate(1, 0) == 22 * 1024
        assert table.translate(2, 0) == 33 * 1024

    def test_unmapped_access_raises(self):
        table = VA2PATable(chunk_bytes=1024)
        with pytest.raises(TranslationError):
            table.translate(1, 0)

    def test_translate_past_last_chunk_raises(self):
        table = VA2PATable(chunk_bytes=1024)
        table.extend(1, [5, 2])
        assert table.translate(1, 2 * 1024 - 1) == 3 * 1024 - 1
        with pytest.raises(TranslationError):
            table.translate(1, 2 * 1024)

    def test_extend_with_negative_chunk_rejected(self):
        table = VA2PATable(chunk_bytes=1024)
        with pytest.raises(ValueError):
            table.extend(1, [3, -1])
        assert table.chunks_of(1) == []

    def test_release_removes_only_that_request(self):
        table = VA2PATable(chunk_bytes=1024)
        table.extend(1, [5])
        table.extend(2, [7])
        freed = table.release(1)
        assert freed == [5]
        assert table.num_entries == 1
        assert table.translate(2, 0) == 7 * 1024

    def test_chunks_listed_in_virtual_order(self):
        table = VA2PATable(chunk_bytes=1024)
        table.extend(1, [9])
        table.extend(1, [4, 7])
        assert table.chunks_of(1) == [9, 4, 7]
        # A copy: mutating it leaves the table alone.
        table.chunks_of(1).append(0)
        assert table.chunks_of(1) == [9, 4, 7]

    def test_table_bytes_scales_with_entries(self):
        table = VA2PATable(chunk_bytes=1024)
        assert table.table_bytes == 0
        table.extend(1, [1, 2])
        assert table.table_bytes == 16

    def test_extend_runs_splits_block_in_request_order(self):
        table = VA2PATable(chunk_bytes=1024)
        table.extend(2, [9])
        table.extend_runs([2, 5, 1], [1, 2, 1], [4, 7, 3, 8])
        assert table.chunks_of(2) == [9, 4]
        assert table.chunks_of(5) == [7, 3]
        assert table.chunks_of(1) == [8]

    def test_extend_runs_rejects_bad_blocks_before_mapping(self):
        table = VA2PATable(chunk_bytes=1024)
        with pytest.raises(ValueError):
            table.extend_runs([1, 2], [1, 1], [3, -1])
        with pytest.raises(ValueError):
            table.extend_runs([1, 2], [1, 1], [3, 4, 5])
        assert table.num_entries == 0
