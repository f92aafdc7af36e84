"""Durable files: the one implementation of crash-safe persistence.

Every document the repo keeps on disk — the tuner's cycle cache
(:mod:`repro.tune.cache`), the artifact store's entries and the
request journal (:mod:`repro.service.store`), saved tuned schedules
(:func:`repro.tune.schedule.save_schedules`) — is written and guarded
through these five helpers.  The contract they implement (lock,
pid-tagged temp file, file and directory fsync, atomic rename, sweep,
quarantine) is stated once, in ``docs/ROBUSTNESS.md`` ("Durable
files").
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` is alive.

    Answers True whenever it cannot tell (someone else's process, an
    unexpected error), so a live writer's temp file is never deleted.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):
        return True
    return True


@contextmanager
def locked(lock_path: str | Path):
    """Hold an exclusive advisory ``flock`` on ``lock_path``.

    A no-op where ``fcntl`` is missing.  The lock file is never
    removed: the kernel drops a dead holder's lock, so a leftover file
    cannot block the next writer, and unlinking it would race live
    lockers onto different inodes.
    """
    lock_path = Path(lock_path)
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is None:
        yield
        return
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def atomic_write(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``; a reader sees old or new, never a mix.

    Writes ``<name>.<pid>.tmp``, flushes and fsyncs it, renames it over
    ``path``, then fsyncs the directory so the rename itself survives a
    power loss.  A writer killed mid-write leaves only its temp file,
    which :func:`sweep_stale_tmp` removes once the pid is dead.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - fs without directory fsync
        pass


def sweep_stale_tmp(directory: str | Path, prefix: str = "") -> None:
    """Remove ``<prefix>*.<pid>.tmp`` files in ``directory`` whose
    writer pid is dead.

    The pid in the name proves who owned the file, so a dead pid makes
    it garbage; a live writer's temp file is left alone.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if not (name.startswith(prefix) and name.endswith(".tmp")):
            continue
        _, dot, pid_text = name[: -len(".tmp")].rpartition(".")
        if not (dot and pid_text.isdigit()) or pid_alive(int(pid_text)):
            continue
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:  # pragma: no cover - raced away
            pass


def quarantine(path: str | Path, reason: str) -> None:
    """Rename a corrupt file to ``<name>.corrupt`` and warn.

    The bytes survive for inspection, and the next write cannot
    clobber the only evidence.  Raises a :class:`RuntimeWarning` that
    names the file, the reason and where it went.
    """
    path = Path(path)
    corrupt = path.with_name(path.name + ".corrupt")
    try:
        path.replace(corrupt)
        where = str(corrupt)
    except OSError:
        where = "(quarantine rename failed; file left in place)"
    warnings.warn(
        f"{path} is corrupt ({reason}); quarantined to {where}",
        RuntimeWarning,
        stacklevel=3,
    )


__all__ = [
    "atomic_write",
    "locked",
    "pid_alive",
    "quarantine",
    "sweep_stale_tmp",
]
