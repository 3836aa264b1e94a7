"""Single-file model archives.

Byte layout:

    bytes 0..7    magic b"SPELLVEC"
    bytes 8..15   little-endian uint64, manifest length M
    bytes 16..16+M  manifest JSON (UTF-8, sorted keys, no whitespace)
    remainder     tensor payloads, little-endian float64, row-major,
                  in manifest["tensors"] order

The manifest holds format_version, kind, free-form metadata, and the
ordered tensor name/shape list. Save/load round-trips are bit-exact and
identical models serialize to identical bytes. A tensor holding NaN or an
infinity is neither written nor read.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from contextlib import contextmanager
from stat import S_ISREG
from typing import IO

import numpy as np

from .fileio import atomic_write_bytes

MAGIC = b"SPELLVEC"
FORMAT_VERSION = 1


class ArchiveError(ValueError):
    pass


def _require_finite(path: str, name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ArchiveError(f"{path}: tensor {name!r} holds a non-finite value")


def save_archive(path: str, kind: str, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    for name, arr in tensors.items():
        _require_finite(path, name, arr)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<Q", len(blob)), blob]
    parts += (np.ascontiguousarray(arr, dtype="<f8") for arr in tensors.values())
    atomic_write_bytes(path, parts)


def load_archive(path: str, expect_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (manifest, tensors); validates magic, version, kind, and sizes.
    Each tensor is read from the file straight into its own array."""
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        if S_ISREG(stat.st_mode):
            file_size = stat.st_size
        else:  # a pipe or a device: its size is known only once read
            raw = handle.read()
            handle, file_size = io.BytesIO(raw), len(raw)
        return _read_archive(path, handle, file_size, expect_kind)


def _read_archive(
    path: str, handle: IO[bytes], file_size: int, expect_kind: str | None
) -> tuple[dict, dict[str, np.ndarray]]:
    head = handle.read(len(MAGIC) + 8)
    if len(head) < len(MAGIC) + 8 or not head.startswith(MAGIC):
        raise ArchiveError(f"{path}: not a model archive")
    (manifest_len,) = struct.unpack_from("<Q", head, len(MAGIC))
    header_end = len(MAGIC) + 8 + manifest_len
    if file_size < header_end:
        raise ArchiveError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(handle.read(manifest_len).decode("utf-8"))
    except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, over-long ints, deep nesting
        raise ArchiveError(f"{path}: unreadable manifest: {err}") from None
    if not isinstance(manifest, dict):
        raise ArchiveError(f"{path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    kind = manifest.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise ArchiveError(f"{path}: archive kind {kind!r}, expected {expect_kind!r}")

    if not isinstance(manifest.get("meta"), dict):
        raise ArchiveError(f"{path}: manifest meta is not a JSON object")
    specs = manifest.get("tensors")
    if not isinstance(specs, list):
        raise ArchiveError(f"{path}: manifest has no tensor list")

    tensors: dict[str, np.ndarray] = {}
    offset = header_end
    for spec in specs:
        if not (
            isinstance(spec, dict)
            and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)
            and all(type(d) is int for d in spec["shape"])
        ):
            raise ArchiveError(f"{path}: tensor entry {spec!r} is not {{name: str, shape: [int]}}")
        if spec["name"] in tensors:
            raise ArchiveError(f"{path}: duplicate tensor {spec['name']!r}")
        shape = tuple(spec["shape"])
        if any(d < 0 for d in shape):
            raise ArchiveError(f"{path}: tensor {spec['name']!r} has negative shape {list(shape)}")
        size = 8 * math.prod(shape)
        if offset + size > file_size:
            raise ArchiveError(f"{path}: truncated tensor {spec['name']!r}")
        arr = np.empty(size // 8, dtype="<f8")
        if handle.readinto(arr) != size:  # the file shrank while it was read
            raise ArchiveError(f"{path}: truncated tensor {spec['name']!r}")
        try:  # numpy refuses a zero-size shape with a dimension past its index range
            arr = arr.reshape(shape)
        except ValueError as err:
            raise ArchiveError(f"{path}: tensor {spec['name']!r}: {err}") from None
        _require_finite(path, spec["name"], arr)
        tensors[spec["name"]] = arr.astype(np.float64, copy=False)
        offset += size
    if offset != file_size:
        raise ArchiveError(f"{path}: {file_size - offset} trailing bytes past declared tensors")
    return manifest, tensors


@contextmanager
def reading_meta(path: str):
    """While a model is rebuilt from an archive's meta, report a missing key or
    a value the model cannot be built from as an ArchiveError naming the file."""
    try:
        yield
    except ArchiveError:
        raise
    except KeyError as err:
        raise ArchiveError(f"{path}: meta has no key {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise ArchiveError(f"{path}: meta does not describe a model: {err}") from None
