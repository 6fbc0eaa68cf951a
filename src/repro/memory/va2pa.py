"""Virtual-to-physical address translation table (paper Sec. VI-C).

The on-module dispatcher keeps, per request, the list of physical chunks
backing that request's KV cache in virtual order: entry ``i`` is the
physical chunk of virtual chunk ``i``.  The table is what allows DPA
instructions to reference dynamically allocated, non-contiguous memory.
A request's KV cache only ever grows at its end, so the allocator appends
whole runs of chunks with :meth:`VA2PATable.extend` (or, for a whole
decoding batch at once, :meth:`VA2PATable.extend_runs`) and hands them all
back with :meth:`VA2PATable.release`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field


class TranslationError(KeyError):
    """Raised when a virtual address has no physical mapping."""


@dataclass
class VA2PATable:
    """Per-module VA-to-PA chunk translation table.

    Attributes:
        chunk_bytes: Size of one allocation chunk.
    """

    chunk_bytes: int
    _chunks: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")

    def extend(self, request_id: int, chunks: Sequence[int]) -> None:
        """Map ``chunks`` to a request's next virtual chunks, in order."""
        if chunks and min(chunks) < 0:
            raise ValueError("chunk indices must be non-negative")
        self._chunks.setdefault(request_id, []).extend(chunks)

    def extend_runs(
        self, request_ids: Sequence[int], counts: Sequence[int], chunks: Sequence[int]
    ) -> None:
        """Split ``chunks`` into consecutive runs, one per request, in order.

        Request ``request_ids[i]`` gets the next ``counts[i]`` chunks, so
        the result equals one :meth:`extend` per request with its run.  The
        runs must cover ``chunks`` exactly; the non-negative check runs once
        over the whole block, before anything is mapped.
        """
        if sum(counts) != len(chunks):
            raise ValueError("run lengths must add up to the number of chunks")
        if chunks and min(chunks) < 0:
            raise ValueError("chunk indices must be non-negative")
        table = self._chunks
        start = 0
        for request_id, count in zip(request_ids, counts, strict=True):
            end = start + count
            table.setdefault(request_id, []).extend(chunks[start:end])
            start = end

    def translate(self, request_id: int, virtual_address: int) -> int:
        """Translate a virtual byte address of a request to a physical one."""
        if virtual_address < 0:
            raise ValueError("virtual_address must be non-negative")
        virtual_chunk, offset = divmod(virtual_address, self.chunk_bytes)
        chunks = self._chunks.get(request_id, ())
        if virtual_chunk >= len(chunks):
            raise TranslationError(f"no mapping for request {request_id} chunk {virtual_chunk}")
        return chunks[virtual_chunk] * self.chunk_bytes + offset

    def chunks_of(self, request_id: int) -> list[int]:
        """Physical chunks mapped for a request, in virtual order."""
        return list(self._chunks.get(request_id, ()))

    def release(self, request_id: int) -> list[int]:
        """Remove all mappings of a request and return the freed chunks."""
        return self._chunks.pop(request_id, [])

    @property
    def num_entries(self) -> int:
        return sum(len(chunks) for chunks in self._chunks.values())

    @property
    def table_bytes(self) -> int:
        """Approximate SRAM footprint of the table (8B per entry)."""
        return 8 * self.num_entries
