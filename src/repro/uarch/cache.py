"""Set-associative cache timing model (tags only, LRU, per Table 1).

Data values live in the simulator's memory image; the cache only decides
hit-or-miss latency.  The D-cache is dual ported and non-blocking: each
access resolves independently with its own latency, and the core arbitrates
the two ports per cycle through :class:`PortTracker`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .config import CacheConfig


class SetAssocCache:
    """LRU set-associative tag store."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.line_shift = config.line_bytes.bit_length() - 1
        if (1 << self.line_shift) != config.line_bytes:
            raise ValueError("line size must be a power of two")
        self.num_sets = config.num_sets
        self.set_mask = self.num_sets - 1
        if self.num_sets & self.set_mask:
            raise ValueError("set count must be a power of two")
        # Each set is an MRU-first list of tags.
        self.sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address >> self.line_shift
        return line & self.set_mask, line >> (self.set_mask.bit_length())

    def lookup(self, address: int) -> bool:
        """Probe without updating LRU state or statistics."""
        set_index, tag = self._locate(address)
        return tag in self.sets[set_index]

    def access(self, address: int) -> bool:
        """Access a line: returns True on hit; allocates on miss (LRU)."""
        set_index, tag = self._locate(address)
        ways = self.sets[set_index]
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.config.associativity:
            ways.pop()
        return False

    def access_latency(self, address: int) -> int:
        """Access and return latency: 0 extra on hit, miss penalty on miss."""
        return 0 if self.access(address) else self.config.miss_latency

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class PortTracker:
    """Per-cycle port arbitration for a multi-ported structure."""

    def __init__(self, ports: int):
        self.ports = ports
        self._cycle = -1
        self._used = 0
        self.grants = 0
        self.denials = 0

    def try_acquire(self, cycle: int) -> bool:
        """Claim one port in *cycle*; returns False when all ports are busy."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._used = 0
        if self._used < self.ports:
            self._used += 1
            self.grants += 1
            return True
        self.denials += 1
        return False

    def available(self, cycle: int) -> int:
        if cycle != self._cycle:
            return self.ports
        return self.ports - self._used
