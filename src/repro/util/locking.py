"""Advisory per-file locks and the atomic-write path for on-disk stores.

Three on-disk stores are written concurrently by ``--jobs N`` worker
processes: the experiment result cache
(:class:`~repro.experiments.runner.ExperimentRunner`), the warm-state
checkpoint store (:class:`~repro.functional.checkpoint.CheckpointStore`)
and the run-manifest directory (:mod:`repro.telemetry.manifest`).  In
all of them, racing producers may try to create the same entry (e.g.
the base run every speedup divides by, or the shared warm-up of a
workload's first two configs).  Each key gets a sidecar ``<key>.lock``
file; a producer holds the lock while it re-checks the store and
(re-)produces, so an entry is never computed twice and a reader can
never observe a half-written file.

The lock is ``fcntl.flock``: kernel-mediated and crash-safe, because
the lock dies with the process that held it, so a killed worker can
never leave a stale lock behind.  The stores are POSIX-only.

:func:`atomic_write_bytes` / :func:`atomic_write_text` are the one
sanctioned write path for those stores (tempfile in the destination
directory + ``os.replace``, temp file unlinked on any failure).  The
``atomic-write`` lint rule (:mod:`repro.analysis.rules`, run over
``src/repro`` by the tier-1 ``tests/analysis/test_self_gate.py``)
flags any raw write (``write_text``/``write_bytes``, ``open`` in a
write mode) and any hand-rolled ``tempfile``/``os.replace`` use
outside ``repro/util``, so the discipline cannot silently fork.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import tempfile
from pathlib import Path
from typing import Union


class FileLock:
    """Context manager: exclusive advisory lock on *path*.

    Reentrant within a process is NOT supported (and not needed: the
    runner acquires one lock per cache key, once).
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._fd: int | None = None

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        fcntl.flock(self._fd, fcntl.LOCK_EX)

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write *data* to *path* so readers never observe a partial file.

    The bytes land in a ``.tmp`` sibling in the destination directory
    (same filesystem, so the final ``os.replace`` is atomic) and the
    temp file is removed on any failure.  Concurrent writers of the
    same *path* are safe: the last replace wins and every intermediate
    state is a complete file.  Parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=f".{path.stem}.",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: Union[str, Path], text: str,
                      encoding: str = "utf-8") -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))

