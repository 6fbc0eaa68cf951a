"""KV-cache memory management: static reservation vs. lazy chunk allocation."""

from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.memory.static_alloc import AllocationError, StaticAllocator
from repro.memory.va2pa import VA2PATable

__all__ = [
    "AllocationError",
    "CapacityExceeded",
    "PreemptedState",
    "StaticAllocator",
    "ChunkedAllocator",
    "VA2PATable",
]
