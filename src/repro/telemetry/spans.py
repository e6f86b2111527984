"""Hierarchical span tracing for sweeps: sweep -> job -> phase.

A *span* is one timed region of sweep execution.  Three kinds nest:

* ``sweep`` — one :meth:`ExperimentRunner.run_many` invocation;
* ``job`` — one (workload x config) cell, keyed by its result cache
  key, whether it simulated or was served from the cache;
* ``phase`` — one stage inside a simulated job: ``decode`` (program
  assembly), ``warm-restore`` (checkpoint restore or functional
  fast-forward), ``simulate`` (the timing run) and ``cache-write``
  (canonical result + manifest output).

Span identity is **content-derived, never random**: a span id is a
truncated SHA-256 over the span's kind, its key (the result cache key
for jobs/phases, the sweep digest for sweeps) and its name — so the
same cell always produces the same span id, a run manifest can name the
job span of the result it describes without coordination, and two
serial sweeps over the same cells emit byte-identical span structure
(:func:`identity_lines`).  Only *timing* differs between runs, and the
timing comes exclusively from monotonic clocks (``time.perf_counter``;
the ``monotonic-tracing`` lint rule bans wallclock here): ``t_start``
is seconds since the recording process's :class:`SpanRecorder` epoch,
``duration_s`` is the span's width.  Spans from different processes
therefore share durations but not a common timeline — the report layer
only ever aggregates durations ("where did the time go"), never
cross-process ordering.

Spans are observation-only, exactly like the rest of the telemetry
package: they never enter cache keys, and a traced sweep leaves the
result cache and ``SimStats`` byte-identical to an untraced one
(``tests/experiments/test_tracing.py`` pins this).

Per-job resource accounting rides on job spans: ``resource.getrusage``
deltas for user/system CPU seconds and the absolute peak RSS
(``ru_maxrss``; kilobytes on Linux) at span exit.

Serialization is canonical JSONL: a header object, then one canonical
JSON record per line, records sorted by (trace, kind rank, key, phase
rank) so the file layout does not depend on pool scheduling.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from ..util.locking import atomic_write_text
from ..util.serial import canonical_dumps

try:  # POSIX; absent on Windows — resource attrs degrade to zeros.
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]

SPAN_FORMAT = "repro-span-v1"

#: The phases of one simulated job, in execution order (the sort order
#: of phase records within a job).
PHASE_ORDER = ("decode", "warm-restore", "simulate", "cache-write")

_KIND_RANK = {"sweep": 0, "job": 1, "phase": 2}

#: Record fields that legitimately differ between byte-identical
#: sweeps (timing, process identity, host resources, and the
#: process-topology-dependent checkpoint source: which worker captures
#: vs restores a shared warm-up depends on pool scheduling); everything
#: else is content-derived.  :func:`identity_lines` strips these.
TIMING_FIELDS = ("t_start", "duration_s", "pid")
TIMING_ATTRS = ("cpu_user_s", "cpu_sys_s", "rss_peak_kb", "host",
                "wall_s", "checkpoint")


def span_id(kind: str, key: str, name: str = "") -> str:
    """Deterministic 16-hex span id from (kind, key, name).

    For ``job``/``phase`` spans *key* is the result cache key (which
    already embeds workload, config, budgets and source digest); for
    ``sweep`` spans it is the sweep digest over the sorted run keys —
    so identity follows content, never wallclock or randomness.

    ``job``/``sweep`` ids use the empty name (the key alone identifies
    them, so a run manifest can name its job span without knowing the
    display label); phase ids include the phase name.
    """
    payload = f"repro-span:{kind}:{key}:{name}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def sweep_digest(run_keys: List[str]) -> str:
    """Order-independent digest of a sweep's run keys (the same value
    :func:`repro.telemetry.manifest.sweep_manifest` embeds)."""
    return hashlib.sha256(
        "\n".join(sorted(run_keys)).encode()).hexdigest()[:12]


def _phase_rank(record: Dict) -> int:
    try:
        return PHASE_ORDER.index(record.get("name", ""))
    except ValueError:
        return len(PHASE_ORDER)


def _sort_key(record: Dict):
    return (record.get("trace") or "",
            _KIND_RANK.get(record.get("kind", ""), 9),
            record.get("key") or "",
            _phase_rank(record),
            record.get("name") or "",
            record.get("span") or "")


class SpanRecorder:
    """Collects span records for one process; merged across processes.

    Workers drain their recorder over the pool result channel and the
    parent adopts the records under its sweep span
    (:meth:`ExperimentRunner.run_many`), so one ``spans.jsonl`` covers
    the whole sweep regardless of where each cell ran.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.records: List[Dict] = []
        self._seen: set = set()

    def __len__(self) -> int:
        return len(self.records)

    def rel(self, t: float) -> float:
        """*t* (a ``perf_counter`` reading) relative to this recorder's
        epoch, rounded to microseconds."""
        return round(t - self._epoch, 6)

    def add(self, record: Dict) -> bool:
        """Append *record*, deduplicating on span id.

        Dedup matters for cache-hit job spans: ``repro-experiment all``
        asks for the same cached cell from many experiments, and the
        deterministic id makes the repeats collapse to one record.
        """
        sid = record.get("span")
        if sid in self._seen:
            return False
        self._seen.add(sid)
        self.records.append(record)
        return True

    def extend(self, records: List[Dict]) -> None:
        for record in records:
            self.add(record)

    def drain(self) -> List[Dict]:
        """Return and clear the collected records (the worker-to-parent
        handoff over the pool result channel)."""
        records, self.records = self.records, []
        self._seen = set()
        return records

    @contextlib.contextmanager
    def measure(self, kind: str, key: str, name: str,
                parent: Optional[str] = None,
                trace: Optional[str] = None,
                attrs: Optional[Dict] = None,
                rusage: bool = False) -> Iterator[Dict]:
        """Time a region as one span; yields the mutable attrs dict."""
        record = self._record(kind, key, name, parent, trace, attrs)
        ru0 = (resource.getrusage(resource.RUSAGE_SELF)
               if rusage and resource is not None else None)
        start = time.perf_counter()
        record["t_start"] = self.rel(start)
        try:
            yield record["attrs"]
        finally:
            record["duration_s"] = round(time.perf_counter() - start, 6)
            if ru0 is not None:
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                record["attrs"].update({
                    "cpu_user_s": round(ru1.ru_utime - ru0.ru_utime, 6),
                    "cpu_sys_s": round(ru1.ru_stime - ru0.ru_stime, 6),
                    # Peak RSS is a process high-water mark, not a
                    # delta: report the absolute peak at span exit.
                    "rss_peak_kb": int(ru1.ru_maxrss),
                    "host": platform.node(),
                })
            self.add(record)

    def point(self, kind: str, key: str, name: str,
              parent: Optional[str] = None,
              trace: Optional[str] = None,
              attrs: Optional[Dict] = None) -> Dict:
        """Record a zero-duration span (e.g. a cache-hit job)."""
        record = self._record(kind, key, name, parent, trace, attrs)
        record["t_start"] = self.rel(time.perf_counter())
        record["duration_s"] = 0.0
        self.add(record)
        return record

    def _record(self, kind: str, key: str, name: str,
                parent: Optional[str], trace: Optional[str],
                attrs: Optional[Dict]) -> Dict:
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown span kind {kind!r} "
                             f"(one of {sorted(_KIND_RANK)})")
        return {
            "kind": kind,
            "key": key,
            "name": name,
            "span": span_id(kind, key, name if kind == "phase" else ""),
            "parent": parent,
            "trace": trace,
            "pid": os.getpid(),
            "attrs": dict(attrs) if attrs else {},
        }

    def adopt(self, trace: str, parent: str) -> None:
        """Attach orphan records to a sweep: fill in the trace id
        everywhere it is missing and re-parent parentless job spans
        (workers do not know the sweep span; the parent does)."""
        for record in self.records:
            if record.get("trace") is None:
                record["trace"] = trace
            if record.get("kind") == "job" \
                    and record.get("parent") is None:
                record["parent"] = parent

    def write(self, path) -> None:
        """Canonical JSONL export (atomic, deterministically sorted)."""
        atomic_write_text(Path(path), dumps(self.records))


def dumps(records: List[Dict]) -> str:
    """Header line + one canonical JSON record per line, sorted."""
    ordered = sorted(records, key=_sort_key)
    header = {"format": SPAN_FORMAT, "records": len(ordered)}
    lines = [canonical_dumps(header, indent=None)]
    lines.extend(canonical_dumps(record, indent=None)
                 for record in ordered)
    return "\n".join(lines) + "\n"


def identity_lines(records: List[Dict]) -> str:
    """The canonical JSONL with every timing/host field stripped.

    Two serial sweeps over the same cells must produce byte-identical
    identity lines — this is the span analogue of the cache-bytes
    determinism contract, and what the byte-stability test compares.
    """
    redacted = []
    for record in sorted(records, key=_sort_key):
        clean = {name: value for name, value in record.items()
                 if name not in TIMING_FIELDS}
        clean["attrs"] = {name: value
                          for name, value in record.get("attrs",
                                                        {}).items()
                          if name not in TIMING_ATTRS}
        redacted.append(clean)
    return "\n".join(canonical_dumps(record, indent=None)
                     for record in redacted) + "\n"


def load_spans(path) -> List[Dict]:
    """Read a span file written by :meth:`SpanRecorder.write`."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty span file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) \
            or header.get("format") != SPAN_FORMAT:
        raise ValueError(f"{path}: not a {SPAN_FORMAT} span file")
    records = []
    for line in lines[1:]:
        if not line.strip():
            continue
        record = json.loads(line)
        if isinstance(record, dict):
            records.append(record)
    return records
