"""Content-addressed warm-state checkpoint store.

Every timing simulation of a workload starts with the same purely
functional warm-up skip, and the sweep runs ~19 configurations per
workload: the warm-up is identical for every one of them, since skip
executes architecturally with no machine configuration in sight.  This
module captures the complete architectural state after a warm-up once —
registers, memory image, PC, executed-instruction count — and lets
every later configuration, worker process or CLI invocation *restore* it
instead of re-executing the warm-up.

Checkpoints are content-addressed: the key is a digest of

* the program's :meth:`~repro.isa.program.Program.canonical_digest`
  (any semantic edit to a workload invalidates its checkpoints),
* the requested skip count,
* :data:`STATE_FORMAT_VERSION` (bumping it orphans old files rather
  than misreading them).

The on-disk format is ``MAGIC || sha256(payload) || payload`` with a
zlib-compressed payload of packed registers and sorted memory pages.  A
file that fails *any* of the magic/checksum/structure checks is
discarded and regenerated — a checkpoint is a pure cache and is never
trusted over recomputation.  Writes go through a per-key
:class:`~repro.util.locking.FileLock` plus
:func:`~repro.util.locking.atomic_write_bytes`, so concurrent
``--jobs N`` workers cooperate and readers never observe a partial
file (the same discipline as the experiment result cache).

:func:`capture` is the one warm-up in the tree: ``OutOfOrderCore.skip``
restores what it returns, and so do the experiment runner and
``repro-sim`` through the store.  It stops *in front of* a halt
instruction (``hit_halt``), which is the timing core's convention;
:attr:`WarmState.executed` then counts only the instructions actually
executed.  The functional simulator's ``restore`` places the PC on the
halt so its next step executes it, exactly like stepping from reset
would.
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional

from ..isa.program import Program
from ..util.locking import FileLock, atomic_write_bytes
from .compiled import FFFn, compile_ff
from .memory import PAGE_SIZE, Memory
from .simulator import ArchState, SimulationError

#: Bump whenever the serialized layout (or the meaning of any field)
#: changes: old files become unreachable instead of misread.
STATE_FORMAT_VERSION = 1

_MAGIC = b"RPWARM01"
_CHECKSUM_BYTES = 32
# version, pc, executed, skip, hit_halt, num_regs, num_pages
_HEADER = struct.Struct("<IIQQBII")


class WarmState:
    """Complete architectural state after a warm-up skip.

    ``executed`` is the number of instructions actually executed; it is
    less than ``skip`` only when the warm-up ran into a halt
    (``hit_halt``), in which case ``pc`` sits on the halt instruction.
    """

    __slots__ = ("regs", "pages", "pc", "executed", "skip", "hit_halt")

    def __init__(self, regs: List[int], pages: Dict[int, bytes], pc: int,
                 executed: int, skip: int, hit_halt: bool):
        self.regs = regs
        self.pages = pages
        self.pc = pc
        self.executed = executed
        self.skip = skip
        self.hit_halt = hit_halt

    def make_memory(self) -> Memory:
        """A fresh, independently mutable memory with the warm image."""
        return Memory.from_pages(self.pages)


def capture(program: Program, skip: int) -> WarmState:
    """Execute the warm-up functionally and snapshot the resulting state.

    Drives the :func:`~repro.functional.compiled.compile_ff` closures,
    built once per reached PC, and stops in front of a halt instruction
    (the timing core's skip convention); consumers that must *execute*
    the halt — the functional simulator — do so on their first
    post-restore step.
    """
    state = ArchState(program)
    closures: Dict[int, Optional[FFFn]] = {}  # None: a halt
    pc = state.pc
    executed = 0
    hit_halt = False
    while executed < skip:
        try:
            ff = closures[pc]
        except KeyError:
            inst = program.fetch(pc)
            if inst is None:
                raise SimulationError(
                    f"warm-up ran off program at {pc:#x}") from None
            ff = closures[pc] = (None if inst.opcode.is_halt
                                 else compile_ff(inst))
        if ff is None:
            hit_halt = True
            break
        pc = ff(state)
        executed += 1
    return WarmState(list(state.regs), state.memory.snapshot_pages(),
                     pc, executed, skip, hit_halt)


def serialize(warm: WarmState) -> bytes:
    """Pack *warm* into the self-checking on-disk representation."""
    parts = [_HEADER.pack(STATE_FORMAT_VERSION, warm.pc, warm.executed,
                          warm.skip, int(warm.hit_halt), len(warm.regs),
                          len(warm.pages))]
    parts.append(struct.pack(f"<{len(warm.regs)}I", *warm.regs))
    for number in sorted(warm.pages):  # sorted: stable bytes on disk
        page = warm.pages[number]
        parts.append(struct.pack("<I", number))
        parts.append(page)
    payload = zlib.compress(b"".join(parts), level=1)
    return _MAGIC + hashlib.sha256(payload).digest() + payload


def deserialize(blob: bytes) -> WarmState:
    """Unpack a :func:`serialize` blob; raises ``ValueError`` on any
    corruption (bad magic, checksum mismatch, truncation, bad layout)."""
    prefix = len(_MAGIC) + _CHECKSUM_BYTES
    if len(blob) < prefix or not blob.startswith(_MAGIC):
        raise ValueError("bad checkpoint magic")
    checksum, payload = blob[len(_MAGIC):prefix], blob[prefix:]
    if hashlib.sha256(payload).digest() != checksum:
        raise ValueError("checkpoint checksum mismatch")
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise ValueError(f"checkpoint payload corrupt: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise ValueError("checkpoint header truncated")
    version, pc, executed, skip, hit_halt, num_regs, num_pages = \
        _HEADER.unpack_from(raw)
    if version != STATE_FORMAT_VERSION:
        raise ValueError(f"checkpoint format v{version} != "
                         f"v{STATE_FORMAT_VERSION}")
    offset = _HEADER.size
    expected = offset + 4 * num_regs + num_pages * (4 + PAGE_SIZE)
    if len(raw) != expected:
        raise ValueError("checkpoint body truncated")
    regs = list(struct.unpack_from(f"<{num_regs}I", raw, offset))
    offset += 4 * num_regs
    pages: Dict[int, bytes] = {}
    for _ in range(num_pages):
        (number,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        pages[number] = raw[offset:offset + PAGE_SIZE]
        offset += PAGE_SIZE
    return WarmState(regs, pages, pc, executed, skip, bool(hit_halt))


def warm_key(program: Program, skip: int) -> str:
    """Content address of the (program, skip) warm state."""
    hasher = hashlib.sha256()
    hasher.update(program.canonical_digest().encode())
    hasher.update(struct.pack("<QI", skip, STATE_FORMAT_VERSION))
    return f"v{STATE_FORMAT_VERSION}-{hasher.hexdigest()[:32]}"


class CheckpointStore:
    """Get-or-capture warm states, shared across processes via *root*.

    ``root=None`` disables the on-disk layer: states are still captured
    and memoized per process (so e.g. 19 configs of one workload in one
    process share a single warm-up), just never persisted.
    """

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else None
        self._memo: Dict[str, WarmState] = {}
        # Where the most recent get() found its state ("memo" / "disk" /
        # "captured"; "" before the first); recorded in run manifests as
        # warm-up provenance.
        self.last_source = ""

    def get(self, program: Program, skip: int) -> WarmState:
        """The warm state for (program, skip): memoized, loaded, or
        captured — in that order of preference."""
        key = warm_key(program, skip)
        warm = self._memo.get(key)
        if warm is not None:
            self.last_source = "memo"
            return warm
        if self.root is None:
            warm = capture(program, skip)
            self._memo[key] = warm
            self.last_source = "captured"
            return warm
        path = self.root / f"{key}.warm"
        warm = self._read(path)
        self.last_source = "disk"
        if warm is None:
            with FileLock(path.with_suffix(".lock")):
                # Another process may have produced it while we waited
                # (or the corrupt file we saw was already replaced).
                warm = self._read(path)
                if warm is None:
                    with contextlib.suppress(OSError):
                        path.unlink()  # corrupt leftover, if any
                    warm = capture(program, skip)
                    self._write(path, warm)
                    self.last_source = "captured"
        self._memo[key] = warm
        return warm

    def _read(self, path: Path) -> Optional[WarmState]:
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            return deserialize(blob)
        except ValueError:
            return None  # never trusted: caller recaptures under lock

    def _write(self, path: Path, warm: WarmState) -> None:
        atomic_write_bytes(path, serialize(warm))

    def __len__(self) -> int:
        return len(self._memo)