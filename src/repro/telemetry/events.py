"""Structured event tracing: typed records in a bounded ring buffer.

Every instrumented point in the core emits a :class:`TraceEvent` — a
flat ``(kind, cycle, seq, pc, data)`` record — into an
:class:`EventTrace`, a ``deque(maxlen=capacity)`` ring buffer: tracing a
billion-cycle run costs bounded memory and keeps the *most recent*
window, which is the one a "why did IPC collapse at the end" question
needs.  The serialized form is versioned JSONL (one header object, then
one object per event) so saved traces survive schema growth; the
``repro-trace`` CLI (:mod:`repro.telemetry.cli`) filters and renders
saved traces, and :func:`figure2_table` renders the Figure-2 pipeline
view from ``commit`` events, for them and for ``repro-sim --trace``.

Event kinds and their ``data`` payloads are documented in
``docs/telemetry.md``; :data:`EVENT_KINDS` is the closed registry the
tests assert against.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

    def counts(self, **filters) -> Dict[str, int]:
        """Events per kind among those :meth:`select` keeps for
        *filters* (all buffered events without any)."""
        return dict(Counter(event.kind for event in self.select(**filters)))

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


def load_trace(path) -> Tuple[Dict, EventTrace]:
    """Parse a saved trace into its header and an :class:`EventTrace`
    of its events, whose ``dropped`` is the recorded run's; raises
    ``ValueError`` on a foreign file."""
    from pathlib import Path
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) \
            or header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
    trace = EventTrace(header.get("capacity", DEFAULT_CAPACITY))
    trace.events.extend(TraceEvent.from_dict(json.loads(line))
                        for line in lines[1:] if line.strip())
    trace.emitted = header.get("emitted", len(trace))
    return header, trace


# -- the Figure-2 view ------------------------------------------------------------

_HEADERS = ("pc", "instruction", "disp", "issue", "done", "commit", "how")
_RIGHT_ALIGNED = frozenset((2, 3, 4, 5))  # the cycle-number columns


def _how(data: Dict) -> str:
    """How a committed instruction got its value."""
    if data["reused"]:
        return "reused"
    if data["predicted"]:
        return "predicted" if data["correct"] else "predicted (wrong)"
    return "executed"


def figure2_rows(events: Iterable[TraceEvent],
                 relative: bool = True) -> List[Tuple]:
    """One Figure-2 row ``(pc, text, dispatch, issue, complete, commit,
    how)`` per ``commit`` event among *events*: cycles relative to the
    earliest dispatch unless not *relative*, ``issue`` ``None`` if the
    instruction never issued."""
    commits = [event for event in events if event.kind == "commit"]
    origin = min((event.data["dispatch"] for event in commits), default=0) \
        if relative else 0
    rows = []
    for event in commits:
        data = event.data
        issue = data["issue"]
        rows.append((event.pc, data["text"], data["dispatch"] - origin,
                     None if issue is None else issue - origin,
                     data["complete"] - origin, event.cycle - origin,
                     _how(data)))
    return rows


def figure2_table(events: Iterable[TraceEvent],
                  relative: bool = True) -> str:
    """:func:`figure2_rows` as a text table, one row per line.

    Column widths are computed over headers *and* cells, so arbitrarily
    long disassembly strings (or a text column narrower than its
    header) can never shear the columns out of alignment.
    """
    rows = [(f"{pc:#010x}", text, str(dispatch),
             "-" if issue is None else str(issue), str(complete),
             str(commit), how)
            for pc, text, dispatch, issue, complete, commit, how
            in figure2_rows(events, relative)]
    if not rows:
        return "(no instructions traced)"
    widths = [max(len(_HEADERS[col]), max(len(row[col]) for row in rows))
              for col in range(len(_HEADERS))]

    def fmt(cells) -> str:
        parts = []
        for col, cell in enumerate(cells):
            if col in _RIGHT_ALIGNED:
                parts.append(cell.rjust(widths[col]))
            else:
                parts.append(cell.ljust(widths[col]))
        return "  ".join(parts).rstrip()

    full_width = sum(widths) + 2 * (len(_HEADERS) - 1)
    lines = [fmt(_HEADERS), "-" * full_width]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
