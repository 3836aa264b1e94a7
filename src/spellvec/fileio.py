"""Atomic file writes (outputs appear fully written or not at all), the
text-line reading shared by the parsers, and the errors an unusable input raises."""

import io
import os
import tempfile
from typing import IO, Iterable, Iterator


class InputError(ValueError):
    """An input the program cannot use: a parse error, or an input that parses
    but cannot serve as a whole (a table of one word, a corpus of no tokens).
    The command line names the file it came from."""


class LineError(InputError):
    """A parse error, whose message names the line of its input (from 1)."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def text_lines(source: IO[str] | str) -> Iterator[str]:
    """The lines of a string or a text file one at a time, without their line
    endings. A string splits as a file opened in text mode would: at "\n",
    "\r\n" and "\r" only, not at the other breaks str.splitlines() knows."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    return (line.rstrip("\n") for line in source)


def atomic_write_bytes(path: str, parts: Iterable) -> None:
    """Write the bytes-like parts through a synced temp file renamed over path, then
    sync the directory, so a crash leaves the old file or the new one, never a torn one."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])
