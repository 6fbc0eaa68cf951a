"""Dynamic PIM Access (DPA) controller, paper Sec. VI.

DPA is the PIM-side mechanism that makes dynamic KV-cache memory management
possible: compact ``DYN-LOOP`` / ``DYN-MODI`` instructions whose loop bounds
and operand addresses are resolved at dispatch time against a per-module
VA2PA table, plus lazy chunk-granular allocation on the host side.  The
controller below is that chunked allocator for one module.  It is the only
allocator with physical placement: it owns the module's free list of chunk
ids and the VA2PA table that maps each request's virtual chunks onto them,
and it exposes the instruction-buffer footprints DPA trades against.  The
serving engine does not need placement, so it runs the count-only
:class:`~repro.memory.chunked_alloc.ChunkedAllocator` this class extends.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.compiler.dpa_encoding import dpa_instruction_footprint, static_instruction_footprint
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.va2pa import VA2PATable


@dataclass
class DPAController(ChunkedAllocator):
    """Per-module dynamic memory controller: a placing :class:`ChunkedAllocator`.

    The base class runs every lifecycle check and count; this class only
    overrides its placement hooks.  Free chunks form a stack, initially
    ``range(total_chunks)`` with the lowest id on top; freed chunks are
    pushed back.  A claim takes one slice off the top, so every request
    gets the same chunks, in the same order, as one ``pop()`` per chunk
    would give it, whether its growth arrives as ``grow`` or ``grow_many``
    calls.

    Attributes:
        capacity_bytes: KV-cache capacity of the module.
        bytes_per_token: KV bytes appended per token (model dependent, for
            the shard of heads/layers this module owns).
        chunk_bytes: Allocation granularity (1MB in the paper).
    """

    _table: VA2PATable = field(init=False, repr=False)
    _free_chunks: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._table = VA2PATable(chunk_bytes=self.chunk_bytes)
        self._free_chunks = list(range(self.total_chunks))[::-1]

    @property
    def table(self) -> VA2PATable:
        """The VA2PA translation table maintained by the dispatcher."""
        return self._table

    @property
    def va2pa(self) -> VA2PATable:
        """The module's VA2PA table (each request's chunks in virtual order)."""
        return self._table

    def _take(self, count: int) -> list[int]:
        """Remove ``count`` (positive) chunks from the free list.

        One slice takes the same chunks, in the same order, as ``count``
        successive ``pop()``s would, so placement does not depend on how
        growth is batched.
        """
        free = self._free_chunks
        taken = free[-count:][::-1]
        del free[-count:]
        return taken

    def _claim(self, request_ids: Sequence[int], counts: Sequence[int]) -> None:
        """Map one slice of the free list onto the requests' runs, in order."""
        self._table.extend_runs(request_ids, counts, self._take(sum(counts)))
        super()._claim(request_ids, counts)

    def _free(self, request_id: int, count: int) -> None:
        """Return a request's mapped chunks to the free list."""
        self._free_chunks.extend(self._table.release(request_id))
        super()._free(request_id, count)

    def instruction_footprint(self, context_length: int, kv_heads: int, layers: int = 1) -> int:
        """Instruction-buffer bytes with DPA encoding (context independent)."""
        return dpa_instruction_footprint(context_length, kv_heads=kv_heads, layers=layers)

    @staticmethod
    def static_instruction_footprint(context_length: int, kv_heads: int, layers: int = 1) -> int:
        """Instruction-buffer bytes a static compiler would need."""
        return static_instruction_footprint(context_length, kv_heads=kv_heads, layers=layers)
