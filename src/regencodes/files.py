"""File I/O: read_regular is the package's only reader of input files, write_files its only writer.

An input (data, design, code.json, node file) must be a regular file. It is opened without
blocking, so a FIFO, a device or a pipe is refused (exit 2) before a read can wait on it, and
it is read no further than its caller's cap + 1 bytes. Only the bundled designs, package
data, are read elsewhere (designs.bundled_design).

Every command hands write_files one list of (path, text or bytes), its manifest included. It
checks every target in list order, and makes its missing parents, before it writes a temp file
beside each target (TARGET.PID.N.tmp, mode 0600, N the first count whose name is free), and
only once all are written does it rename the temps over the targets, in list order. A target
that is not a regular file, lies under a file or repeats an earlier one (a name in the same
os.path.realpath directory), or an OSError before the first rename, removes the temps and the
directories made, leaves every target as it was and exits 2 with "cannot write PATH: ..."; an
OSError in a rename keeps the renames before it. Until the renames the new contents sit beside
the old, so a re-encode briefly needs twice the directory's space.
"""

from __future__ import annotations

import contextlib
import os
import stat
from itertools import count, takewhile
from pathlib import Path
from typing import Sequence

from .errors import ValidationError


def read_regular(path, what: str, cap: int) -> tuple[bytes, int]:
    """A regular file's first cap + 1 bytes and its size from stat; any failure raises
    ValidationError "cannot read WHAT PATH: ..." (what is "node file ", say, or "")."""
    try:
        with open(path, "rb",
                  opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise OSError("it is not a regular file")
            return fh.read(cap + 1), st.st_size
    except OSError as ex:
        raise ValidationError(f"cannot read {what}{path}: {ex}") from None


def read_regular_text(path, what: str, cap: int) -> str:
    """read_regular's file as UTF-8 text, refused past cap bytes: "WHAT PATH is longer than the
    CAP bytes it may hold", or "cannot read WHAT PATH: ..." when it is not UTF-8."""
    blob = read_regular(path, what, cap)[0]
    if len(blob) > cap:
        raise ValidationError(f"{what}{path} is longer than the {cap} bytes it may hold")
    try:
        return blob.decode()
    except UnicodeDecodeError as ex:
        raise ValidationError(f"cannot read {what}{path}: {ex}") from None


def write_files(files: Sequence[tuple[Path, object]]) -> list[str]:
    """Write every (path, text or bytes), or none of them, in the order and with the refusals
    the module docstring gives (ValidationError "cannot write PATH: ..."); returns the paths."""
    made, temps, real, seen = [], [], {}, set()
    try:
        for path, _ in files:
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # nothing there yet
                if not stat.S_ISREG(os.stat(path).st_mode):  # the rename would replace it
                    raise ValidationError(f"cannot write {path}: it is not a regular file")
            if path.parent not in real:
                # deepest first, ahead of earlier targets' ones: each is empty when removed
                made[:0] = takewhile(lambda d: not d.is_dir(), path.parents)
                path.parent.mkdir(parents=True, exist_ok=True)
                real[path.parent] = os.path.realpath(path.parent)  # once per directory
            entry = (real[path.parent], path.name)  # the directory entry the rename replaces
            if entry in seen:  # the later rename would replace the earlier output
                raise ValidationError(f"cannot write {path}: it is named twice among the outputs")
            seen.add(entry)
        pid = os.getpid()
        for path, data in files:
            for n in count():  # the first free name: an earlier process's stale temp stays
                tmp = f"{path}.{pid}.{n}.tmp"
                with contextlib.suppress(FileExistsError):
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
                    break
            temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data if isinstance(data, bytes) else data.encode())
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    except BaseException as ex:
        for tmp in temps:  # a renamed one is gone already
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for directory in made:  # one that a rename filled stays
            with contextlib.suppress(OSError):
                directory.rmdir()
        if isinstance(ex, (FileExistsError, NotADirectoryError)):  # mkdir met a file
            raise ValidationError(f"cannot write {path}: a parent is not a directory") from None
        if isinstance(ex, OSError):
            raise ValidationError(f"cannot write {path}: {ex.strerror or ex}") from None
        raise
    return [str(path) for path, _ in files]
