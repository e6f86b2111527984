"""Interval metrics: a columnar time-series sampled every N cycles.

The collector samples the core at fixed cycle boundaries and stores one
row per interval in plain column lists (columnar so report code can
compute per-column summaries without materializing row objects).  Two
kinds of quantity appear in a row:

* **deltas** over the interval (committed instructions, squashes, reuse
  tests, ...) — differences of cumulative counters, so they sum to the
  end-of-run totals;
* **instantaneous** values at the sample point (ROB/LSQ/fetch-queue
  occupancy) — cheap and exact, because the core steps every cycle and
  the sink samples at the boundary cycle itself.

Serialized as versioned JSONL (header object + one array per row);
:func:`load_timeseries` reads it back.  The column set is part of the
format version: adding a column bumps :data:`INTERVAL_FORMAT`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..util.locking import atomic_write_text

INTERVAL_FORMAT = "repro-interval-v1"

#: Default sampling period in cycles.
DEFAULT_INTERVAL = 500

#: The fixed column order of a row (and of the serialized formats).
INTERVAL_COLUMNS = (
    "cycle",              # interval end (inclusive sample point)
    "cycles",             # interval width (last row may be partial)
    "committed",          # instructions retired in the interval
    "ipc",                # committed / cycles
    "rob_occupancy",      # instantaneous, at the sample point
    "lsq_occupancy",
    "fetch_queue",
    "fetch_stall_cycles",  # cycles fetch could not proceed
    "dispatched",
    "executions",         # execution attempts (incl. re-executions)
    "vp_predicted",       # predictions made at dispatch
    "vp_verified",        # predictions checked at commit
    "vp_mispredicted",    # checked and wrong
    "reuse_tests",
    "reuse_hits",         # reuse-test successes (full or address)
    "reuse_misses",
    "squashes",           # control-squash events
    "spurious_squashes",  # squashes on value-speculative operands
    "reexecs",            # selective re-executions scheduled
    "branch_resolutions",
)


class IntervalSeries:
    """Columnar per-interval samples plus their serialization."""

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 columns: Sequence[str] = INTERVAL_COLUMNS):
        self.interval = interval
        self.columns = tuple(columns)
        self.data: Dict[str, List[float]] = {name: []
                                             for name in self.columns}
        self.context: Dict[str, object] = {}

    def append(self, row: Dict[str, float]) -> None:
        """Add one sample; *row* must cover every column."""
        for name in self.columns:
            self.data[name].append(row[name])

    def __len__(self) -> int:
        return len(self.data[self.columns[0]])

    def rows(self) -> List[List[float]]:
        return [[self.data[name][i] for name in self.columns]
                for i in range(len(self))]

    def column(self, name: str) -> List[float]:
        return self.data[name]

    def summary(self, name: str) -> Dict[str, float]:
        """min/mean/max of one column (0s when the series is empty)."""
        values = self.data[name]
        if not values:
            return {"min": 0.0, "mean": 0.0, "max": 0.0}
        return {"min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values)}

    # -- serialization ---------------------------------------------------------------

    def header(self) -> Dict:
        header = {"format": INTERVAL_FORMAT, "interval": self.interval,
                  "columns": list(self.columns), "rows": len(self)}
        header.update(self.context)
        return header

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header(), sort_keys=True)]
        # A row is a list in declared column order: sort_keys is a no-op.
        lines.extend(json.dumps(row, sort_keys=True) for row in self.rows())
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        atomic_write_text(path, self.to_jsonl())


def load_timeseries(path) -> IntervalSeries:
    """Read a series written by :meth:`IntervalSeries.write`."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty time-series file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) \
            or header.get("format") != INTERVAL_FORMAT:
        raise ValueError(f"{path}: not a {INTERVAL_FORMAT} time-series")
    series = IntervalSeries(interval=header.get("interval", 0),
                            columns=header["columns"])
    series.context = {key: value for key, value in header.items()
                      if key not in ("format", "interval", "columns",
                                     "rows")}
    for line in lines[1:]:
        if not line.strip():
            continue
        values = json.loads(line)
        series.append(dict(zip(series.columns, values)))
    return series
