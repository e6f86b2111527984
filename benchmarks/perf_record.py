"""The two perf gates' measuring convention and committed records.

Both gates (``test_core_throughput.py`` and ``test_sweep_throughput.py``)
measure the way ``simbench/run.py`` does, with its ``Calibrator``: a
fixed object-graph walk, timed in a process of its own before the first
repetition and after each one.  The run's speed factor is the median
walk time over simbench's ``CALIBRATION_REFERENCE_S``; throughput is
multiplied by it and seconds are divided by it.  So ``BENCH_core.json``
and ``BENCH_sweep.json`` hold figures at simbench's reference host
speed, not at the speed of the host that recorded them.

simbench's calibration constants (``CALIBRATION_NODES``,
``CALIBRATION_STEPS`` and ``CALIBRATION_REFERENCE_S``) set those units:
a change to any of them must re-record both files.

Each gate run rewrites its file: the new entry goes at the top level
and is appended to a bounded ``history``.  Entries recorded before
calibration keep their raw-wallclock keys (``current_ips``,
``cold_seconds``, ``warm_seconds``); calibrated entries use
``calibrated_`` keys and carry their ``speed_factor``.
"""

import importlib.util
import json
import sys
from pathlib import Path

SIMBENCH_RUN = Path(__file__).resolve().parents[1] / "simbench" / "run.py"

#: A gate flags a measurement this much worse than the committed record.
REGRESSION_TOLERANCE = 0.05
#: Entries kept in each file's ``history``.
HISTORY_LIMIT = 20


def calibrated(repetition, repetitions):
    """Call *repetition* *repetitions* times under simbench's calibrator.

    Returns the list of its results and the run's speed factor.
    """
    spec = importlib.util.spec_from_file_location("simbench_run",
                                                  SIMBENCH_RUN)
    simbench = importlib.util.module_from_spec(spec)
    # @dataclass looks its defining module up in sys.modules.
    sys.modules[spec.name] = simbench
    spec.loader.exec_module(simbench)
    with simbench.Calibrator() as calibrator:
        calibrator.sample()
        results = []
        for _ in range(repetitions):
            results.append(repetition())
            calibrator.sample()
        return results, calibrator.speed()


def load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def save(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1) + "\n")


def rewrite(path: Path, committed: dict, kernel, entry: dict,
            keep=()) -> None:
    """Write *kernel*, *entry*, the committed values of the *keep* keys
    and the committed ``history`` with *entry* appended."""
    record = {"kernel": kernel, **entry}
    record.update((key, committed[key]) for key in keep if key in committed)
    history = committed.get("history", []) + [entry]
    record["history"] = history[-HISTORY_LIMIT:]
    save(path, record)
