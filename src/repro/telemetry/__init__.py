"""Observability for the simulator: traces, time-series, manifests.

Three layers, all observation-only (the golden-stats corpus pins that
attaching any of them never changes a statistic), and one reader:

* :mod:`repro.telemetry.interval` — columnar per-interval time-series
  (IPC, occupancies, capture/misprediction rates every N cycles),
  serialized as versioned JSONL;
* :mod:`repro.telemetry.events` — a bounded ring buffer of typed event
  records from the core's dispatch/issue/complete/commit, VP and reuse
  paths, with a filterable ``repro-trace`` CLI;
* :mod:`repro.telemetry.manifest` — per-run and per-sweep provenance
  manifests written by the experiment harness (on by default), with
  each simulated job's phase seconds and CPU/RSS use;
* :mod:`repro.telemetry.progress` — the ``repro-top`` CLI, which
  follows a running sweep through its run and sweep manifests.

Attach with ``core.enable_telemetry()`` (see
:class:`~repro.telemetry.sink.TelemetrySink`) or the ``repro-sim
--telemetry-out`` / ``--trace-out`` flags; sweeps capture interval
time-series via ``ExperimentRunner(telemetry_dir=...)`` / ``repro-experiment
--telemetry-dir``.  ``docs/telemetry.md`` documents the schemas and the
measured overhead.
"""

from .events import (
    EVENT_KINDS,
    EventTrace,
    TraceEvent,
    load_trace,
)
from .interval import (
    INTERVAL_COLUMNS,
    INTERVAL_FORMAT,
    IntervalSeries,
    load_timeseries,
)
from .manifest import (
    MANIFEST_FORMAT,
    config_digest,
    load_manifests,
    run_manifest,
    sweep_digest,
    sweep_manifest,
    write_manifest,
)
from .sink import TelemetrySink

__all__ = [
    "TelemetrySink",
    "TraceEvent",
    "EventTrace",
    "EVENT_KINDS",
    "load_trace",
    "IntervalSeries",
    "INTERVAL_COLUMNS",
    "INTERVAL_FORMAT",
    "load_timeseries",
    "MANIFEST_FORMAT",
    "config_digest",
    "run_manifest",
    "sweep_digest",
    "sweep_manifest",
    "write_manifest",
    "load_manifests",
]
