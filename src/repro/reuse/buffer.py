"""The Reuse Buffer (RB) backing scheme S_{n+d} (Sections 2 and 4.1.2).

Structure per Section 4.1.3: 4K entries, 4-way set associative (up to four
*instances* per static instruction), LRU replacement.  Each entry stores,
alongside the result:

* the operand register names and the operand *values* (first augmentation
  from Section 4.1.2 — a start entry is stale only when the new operand
  value actually differs from the stored one, and an entry whose operand
  values become current again is valid again; storing values and comparing
  at test time implements both augmentations exactly),
* for memory operations, the effective address and a memory-valid bit
  that conflicting stores clear.

The dependence pointers of S_{n+d} (the "d"), which let a dependent
chain be reused in a single cycle even though the interior values are
not yet available from the register file, need no stored field: the
reuse test follows the in-flight producer edge and reads the producer's
same-cycle ``reuse_value`` (:meth:`ReuseEngine._value_available`).

Load entries whose data was forwarded from a not-yet-committed store are
inserted with ``result_valid=False`` (address-only): their stored data is
not guaranteed to match committed memory, mirroring the conservative
handling of loads the paper describes (compress reuses mostly addresses
for exactly this reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..uarch.config import IRConfig

OperandSignature = Tuple[Tuple[int, int], ...]  # ((reg, value), ...)

_BLOCK_SHIFT = 2  # 4-byte granules for the store-invalidation index


@dataclass
class RBEntry:
    """One reuse-buffer instance."""

    pc: int
    operands: OperandSignature
    result: Optional[int] = None  # register result / branch outcome / target
    result_hi: Optional[int] = None  # HI for mult/div
    is_mem: bool = False
    is_load: bool = False
    address: Optional[int] = None
    mem_bytes: int = 0
    mem_valid: bool = True  # cleared when a store hits `address`
    result_valid: bool = True  # False for address-only load entries
    from_squashed: bool = False  # producer was squashed (wrong-path work)
    recovery_counted: bool = False

    def blocks(self) -> range:
        first = self.address >> _BLOCK_SHIFT
        last = (self.address + self.mem_bytes - 1) >> _BLOCK_SHIFT
        return range(first, last + 1)


class ReuseBuffer:
    """PC-indexed, set-associative, LRU store of :class:`RBEntry`."""

    def __init__(self, config: IRConfig):
        self.config = config
        self.assoc = config.associativity
        self.num_sets = max(1, config.entries // self.assoc)
        self.set_mask = self.num_sets - 1
        if self.num_sets & self.set_mask:
            raise ValueError("RB set count must be a power of two")
        self.sets: List[List[RBEntry]] = [[] for _ in range(self.num_sets)]
        # Store-invalidation index: memory block -> load entries caching it.
        self._mem_index: Dict[int, Set[int]] = {}
        self._entries_by_id: Dict[int, RBEntry] = {}
        self.insertions = 0
        self.invalidations = 0

    def _set_for(self, pc: int) -> List[RBEntry]:
        return self.sets[(pc >> 2) & self.set_mask]

    def instances(self, pc: int) -> List[RBEntry]:
        """All instances currently stored for the instruction at *pc*."""
        return [entry for entry in self._set_for(pc) if entry.pc == pc]

    def touch(self, entry: RBEntry) -> None:
        """Mark *entry* most recently used."""
        ways = self._set_for(entry.pc)
        try:
            ways.remove(entry)
        except ValueError:
            return  # already evicted
        ways.insert(0, entry)

    def insert(self, entry: RBEntry) -> RBEntry:
        """Insert (or refresh) *entry*; returns the resident entry."""
        ways = self._set_for(entry.pc)
        for index, existing in enumerate(ways):
            if existing.pc == entry.pc and existing.operands == entry.operands:
                self._unindex(existing)
                ways[index] = entry
                self.touch(entry)
                self._index(entry)
                self.insertions += 1
                return entry
        ways.insert(0, entry)
        if len(ways) > self.assoc:
            victim = ways.pop()
            self._unindex(victim)
        self._index(entry)
        self.insertions += 1
        return entry

    # -- store invalidation --------------------------------------------------------

    def _index(self, entry: RBEntry) -> None:
        if entry.is_load and entry.address is not None and entry.result_valid:
            for block in entry.blocks():
                self._mem_index.setdefault(block, set()).add(id(entry))
                self._entries_by_id[id(entry)] = entry

    def _unindex(self, entry: RBEntry) -> None:
        if entry.is_load and entry.address is not None:
            for block in entry.blocks():
                bucket = self._mem_index.get(block)
                if bucket:
                    bucket.discard(id(entry))
                    if not bucket:
                        del self._mem_index[block]
            self._entries_by_id.pop(id(entry), None)

    def invalidate_stores(self, address: int, nbytes: int) -> int:
        """A store to [address, address+nbytes) committed: clear loads."""
        first = address >> _BLOCK_SHIFT
        last = (address + nbytes - 1) >> _BLOCK_SHIFT
        cleared = 0
        for block in range(first, last + 1):
            for entry_id in list(self._mem_index.get(block, ())):
                entry = self._entries_by_id.get(entry_id)
                if entry is None:
                    continue
                if (entry.address < address + nbytes
                        and address < entry.address + entry.mem_bytes):
                    entry.mem_valid = False
                    self._unindex(entry)
                    cleared += 1
        self.invalidations += cleared
        return cleared

    def __len__(self) -> int:
        return sum(len(ways) for ways in self.sets)
