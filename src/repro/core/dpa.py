"""Dynamic PIM Access (DPA) controller, paper Sec. VI.

DPA is the PIM-side mechanism that makes dynamic KV-cache memory management
possible: compact ``DYN-LOOP`` / ``DYN-MODI`` instructions whose loop bounds
and operand addresses are resolved at dispatch time against a per-module
VA2PA table, plus lazy chunk-granular allocation on the host side.  The
controller below is that chunked allocator for one module, exposing its
translation table and the instruction-buffer footprints DPA trades against.
"""

from __future__ import annotations

from repro.compiler.dpa_encoding import dpa_instruction_footprint, static_instruction_footprint
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.va2pa import VA2PATable


class DPAController(ChunkedAllocator):
    """Per-module dynamic memory controller: a :class:`ChunkedAllocator`.

    Attributes:
        capacity_bytes: KV-cache capacity of the module.
        bytes_per_token: KV bytes appended per token (model dependent, for
            the shard of heads/layers this module owns).
        chunk_bytes: Allocation granularity (1MB in the paper).
    """

    @property
    def va2pa(self) -> VA2PATable:
        """The module's VA2PA table (each request's chunks in virtual order)."""
        return self.table

    def instruction_footprint(self, context_length: int, kv_heads: int, layers: int = 1) -> int:
        """Instruction-buffer bytes with DPA encoding (context independent)."""
        return dpa_instruction_footprint(context_length, kv_heads=kv_heads, layers=layers)

    @staticmethod
    def static_instruction_footprint(context_length: int, kv_heads: int, layers: int = 1) -> int:
        """Instruction-buffer bytes a static compiler would need."""
        return static_instruction_footprint(context_length, kv_heads=kv_heads, layers=layers)
