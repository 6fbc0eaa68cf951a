"""KV-cache memory management: static reservation vs. lazy chunk allocation."""
