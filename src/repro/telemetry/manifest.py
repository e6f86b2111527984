"""Run provenance manifests for the experiment harness.

A *run manifest* records everything needed to answer "where did this
cached number come from": the cache key and the digests it embeds
(machine configuration, program content), whether the run came from the
result cache and where its warm-up came from, wallclock, host and
software versions.  A simulated run's manifest also answers "where did
the time go": the seconds of each job phase (``phase_seconds``, keyed
by :data:`PHASE_ORDER`) and the job's ``getrusage`` CPU seconds and the
process's peak RSS.  A *sweep manifest* ties one ``run_many`` invocation
together: the run keys it covered, how many were simulated vs already
cached, pool size and total wallclock (``null`` while the sweep runs).

Manifests are provenance, **not** results: they live in a
``manifests/`` subdirectory of the result cache, deliberately outside
the determinism contract (wallclock and host naturally differ between
the serial and parallel sweeps that must produce byte-identical result
caches).  Everything in a manifest that *is* content-derived — the
digests — is deterministic and is what tests assert against.
"""

from __future__ import annotations

import dataclasses
import enum
import getpass
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..util.locking import atomic_write_text
from ..util.serial import canonical_dumps

MANIFEST_FORMAT = "repro-manifest-v1"

#: The phases of one simulated job, in execution order: ``decode``
#: (program assembly), ``warm-restore`` (checkpoint restore or
#: functional fast-forward), ``simulate`` (the timing run) and
#: ``cache-write`` (the canonical result write).
PHASE_ORDER = ("decode", "warm-restore", "simulate", "cache-write")

_REPO_ROOT = Path(__file__).resolve().parents[3]


def _jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _jsonable(item)
                for name, item in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def config_digest(config) -> str:
    """Content digest of a :class:`MachineConfig` (or any dataclass).

    Canonical JSON over every field (enums by value), hashed — two
    configs with the same semantics digest identically regardless of
    how they were constructed; any field change changes the digest.
    """
    payload = json.dumps(_jsonable(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


_GIT_DESCRIBE: Dict[str, Optional[str]] = {}


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the repo, or ``None``.

    Best-effort and memoized: manifests must never fail (or get slower
    per run) because the tree is not a git checkout.
    """
    if "value" not in _GIT_DESCRIBE:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=str(_REPO_ROOT), capture_output=True, text=True,
                timeout=5)
            _GIT_DESCRIBE["value"] = (out.stdout.strip()
                                      if out.returncode == 0 else None)
        except (OSError, subprocess.SubprocessError):
            _GIT_DESCRIBE["value"] = None
    return _GIT_DESCRIBE["value"]


def _package_version() -> str:
    try:
        from .. import __version__
        return __version__
    except ImportError:  # pragma: no cover - package always importable
        return "unknown"


def environment_fields() -> Dict[str, Optional[str]]:
    """The host/software identity block shared by run and sweep
    manifests."""
    try:
        user = getpass.getuser()
    except (KeyError, OSError):  # no passwd entry (containers)
        user = None
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "package_version": _package_version(),
        "git_describe": git_describe(),
        "user": user,
        "pid": os.getpid(),
    }


def run_manifest(*, cache_key: str, workload: str, config,
                 program_digest: str, source_sha12: str,
                 max_instructions: int, max_cycles: int,
                 cache_hit: bool, checkpoint: str,
                 wallclock_seconds: Optional[float],
                 stats=None,
                 phase_seconds: Optional[Dict[str, float]] = None,
                 usage: Optional[Dict] = None) -> Dict:
    """Build one run's manifest dictionary (see module docstring).

    *phase_seconds* and *usage* (``cpu_user_s``, ``cpu_sys_s``,
    ``rss_peak_kb``) are given for simulated runs only; cache-hit
    manifests carry neither, so readers treat them as optional.
    """
    manifest = {
        "format": MANIFEST_FORMAT,
        "kind": "run",
        "cache_key": cache_key,
        "workload": workload,
        "config_name": config.name,
        "config_digest": config_digest(config),
        "program_digest": program_digest,
        "source_sha12": source_sha12,
        "max_instructions": max_instructions,
        "max_cycles": max_cycles,
        "cache_hit": cache_hit,
        # Where the warm-up came from: "captured" (executed here),
        # "disk" (restored from the store), "memo" (already in this
        # process), "cached" (no simulation: the run was a cache hit)
        # or "disabled".
        "checkpoint": checkpoint,
        "wallclock_seconds": (round(wallclock_seconds, 3)
                              if wallclock_seconds is not None else None),
        "created_unix": round(time.time(), 3),
    }
    manifest.update(environment_fields())
    if stats is not None:
        manifest["stats"] = {
            "cycles": stats.cycles,
            "committed": stats.committed,
            "ipc": round(stats.ipc, 4),
        }
    if phase_seconds is not None:
        manifest["phase_seconds"] = {
            name: round(seconds, 6)
            for name, seconds in phase_seconds.items()}
    if usage is not None:
        manifest.update({name: round(value, 6)
                         for name, value in usage.items()})
    return manifest


def sweep_digest(run_keys: List[str]) -> str:
    """Order-independent digest of a sweep's run keys."""
    return hashlib.sha256(
        "\n".join(sorted(run_keys)).encode()).hexdigest()[:12]


def sweep_manifest(*, run_keys: List[str], simulated: int, cached: int,
                   jobs: int, wallclock_seconds: Optional[float]) -> Dict:
    """Build the manifest for one ``run_many`` sweep.

    ``run_many`` writes it when the sweep starts, with
    *wallclock_seconds* ``None`` ("running"), and again when it ends.
    """
    manifest = {
        "format": MANIFEST_FORMAT,
        "kind": "sweep",
        "sweep_digest": sweep_digest(run_keys),
        "runs": sorted(run_keys),
        "total_runs": len(run_keys),
        "simulated": simulated,
        "cached": cached,
        "jobs": jobs,
        "wallclock_seconds": (round(wallclock_seconds, 3)
                              if wallclock_seconds is not None else None),
        "created_unix": round(time.time(), 3),
    }
    manifest.update(environment_fields())
    return manifest


def write_manifest(path, manifest: Dict) -> None:
    """Atomically write *manifest* as canonical JSON (sorted keys,
    the same byte discipline as the result cache)."""
    atomic_write_text(Path(path), canonical_dumps(manifest) + "\n")


def load_manifests(directory) -> List[Dict]:
    """All parseable manifests under *directory*, sorted by file name.

    Unreadable or foreign JSON files are skipped: a manifest directory
    is informational and must never crash a report.
    """
    directory = Path(directory)
    manifests = []
    if not directory.is_dir():
        return manifests
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) \
                and payload.get("format") == MANIFEST_FORMAT:
            payload["_path"] = str(path)
            manifests.append(payload)
    return manifests
