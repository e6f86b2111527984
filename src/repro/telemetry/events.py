"""Structured event tracing: typed records in a bounded ring buffer.

Every instrumented point in the core emits a :class:`TraceEvent` — a
flat ``(kind, cycle, seq, pc, data)`` record — into an
:class:`EventTrace`, a ``deque(maxlen=capacity)`` ring buffer: tracing a
billion-cycle run costs bounded memory and keeps the *most recent*
window, which is the one a "why did IPC collapse at the end" question
needs.  The serialized form is versioned JSONL (one header object, then
one object per event) so saved traces survive schema growth; the
``repro-trace`` CLI (:mod:`repro.telemetry.cli`) filters and renders
saved traces, including reconstructing the Figure-2 pipeline view from
``commit`` events.

Event kinds and their ``data`` payloads are documented in
``docs/telemetry.md``; :data:`EVENT_KINDS` is the closed registry the
tests assert against.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Dict, Iterable, Iterator, List, Optional

TRACE_FORMAT = "repro-trace-v1"

#: Default ring-buffer capacity (events, not instructions).
DEFAULT_CAPACITY = 65_536

# The closed set of event kinds the core can emit.  ``data`` keys per
# kind are documented in docs/telemetry.md.
EVENT_KINDS = (
    "dispatch",            # instruction entered the window
    "issue",               # an execution started (incl. re-executions)
    "complete",            # an execution finished
    "commit",              # instruction retired (full pipeline lifetime)
    "vp_predict",          # a value/address prediction was made
    "vp_verify",           # prediction checked at commit (correct flag)
    "reexec",              # selective re-execution scheduled
    "reuse_hit",           # reuse test succeeded (full and/or address)
    "reuse_miss",          # reuse test failed, with the reason
    "branch_resolve",      # control instruction resolved (maybe spurious)
    "squash",              # wrong-path instructions discarded
)


class TraceEvent:
    """One typed telemetry event.

    ``seq``/``pc`` are ``-1`` for events not tied to one dynamic
    instruction (there are none today, but the schema allows it).
    ``data`` holds the kind-specific payload.
    """

    __slots__ = ("kind", "cycle", "seq", "pc", "data")

    def __init__(self, kind: str, cycle: int, seq: int = -1, pc: int = -1,
                 data: Optional[Dict] = None):
        self.kind = kind
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.data = data if data is not None else {}

    def as_dict(self) -> Dict:
        return {"kind": self.kind, "cycle": self.cycle, "seq": self.seq,
                "pc": self.pc, "data": self.data}

    @classmethod
    def from_dict(cls, payload: Dict) -> "TraceEvent":
        return cls(payload["kind"], payload["cycle"],
                   payload.get("seq", -1), payload.get("pc", -1),
                   payload.get("data") or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{self.kind}@{self.cycle} seq={self.seq} "
                f"pc={self.pc:#x}>")


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.emitted = 0  # total emits, including evicted ones

    # -- recording (hot path when tracing is on) ---------------------------------

    def emit(self, kind: str, cycle: int, seq: int = -1, pc: int = -1,
             data: Optional[Dict] = None) -> None:
        self.events.append(TraceEvent(kind, cycle, seq, pc, data))
        self.emitted += 1

    # -- querying -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (oldest-first)."""
        return self.emitted - len(self.events)

    def counts(self) -> Dict[str, int]:
        """Events per kind currently in the buffer."""
        return dict(Counter(event.kind for event in self.events))

    def select(self, kinds: Optional[Iterable[str]] = None,
               pc: Optional[int] = None,
               since: Optional[int] = None,
               until: Optional[int] = None) -> List[TraceEvent]:
        """Filter the buffered events (all filters optional, ANDed)."""
        wanted = frozenset(kinds) if kinds is not None else None
        out = []
        for event in self.events:
            if wanted is not None and event.kind not in wanted:
                continue
            if pc is not None and event.pc != pc:
                continue
            if since is not None and event.cycle < since:
                continue
            if until is not None and event.cycle > until:
                continue
            out.append(event)
        return out

    # -- serialization ---------------------------------------------------------------

    def header(self, **context) -> Dict:
        header = {"format": TRACE_FORMAT, "capacity": self.capacity,
                  "emitted": self.emitted, "dropped": self.dropped}
        header.update(context)
        return header

    def dumps(self, **context) -> str:
        """Versioned JSONL: header line, then one line per event."""
        lines = [json.dumps(self.header(**context), sort_keys=True)]
        lines.extend(json.dumps(event.as_dict(), sort_keys=True)
                     for event in self.events)
        return "\n".join(lines) + "\n"


def load_trace(path) -> "LoadedTrace":
    """Parse a saved trace; raises ``ValueError`` on a foreign file."""
    from pathlib import Path
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) \
            or header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
    events = [TraceEvent.from_dict(json.loads(line))
              for line in lines[1:] if line.strip()]
    return LoadedTrace(header, events)


class LoadedTrace:
    """A deserialized trace: the header plus the event list.

    Exposes the same ``select``/``counts`` queries as the live
    :class:`EventTrace`, so CLI code works on either.
    """

    def __init__(self, header: Dict, events: List[TraceEvent]):
        self.header = header
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    counts = EventTrace.counts
    select = EventTrace.select
