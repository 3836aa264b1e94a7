"""Single-file model archives.

Byte layout:

    bytes 0..7    magic b"SPELLVEC"
    bytes 8..15   little-endian uint64, manifest length M
    bytes 16..16+M  manifest JSON (UTF-8, sorted keys, no whitespace)
    remainder     tensor payloads, little-endian float64, row-major,
                  in manifest["tensors"] order

The manifest holds format_version, kind, free-form metadata, and the
ordered tensor name/shape list. Save/load round-trips are bit-exact and
identical models serialize to identical bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .fileio import atomic_write_bytes

MAGIC = b"SPELLVEC"
FORMAT_VERSION = 1


class ArchiveError(ValueError):
    pass


def save_archive(path: str, kind: str, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<Q", len(blob)), blob]
    for arr in tensors.values():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_archive(path: str, expect_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (manifest, tensors); validates magic, version, kind, and sizes."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < len(MAGIC) + 8 or not raw.startswith(MAGIC):
        raise ArchiveError(f"{path}: not a model archive")
    (manifest_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header_end = len(MAGIC) + 8 + manifest_len
    if len(raw) < header_end:
        raise ArchiveError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[len(MAGIC) + 8 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ArchiveError(f"{path}: unreadable manifest: {err}") from None
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    kind = manifest.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise ArchiveError(f"{path}: archive kind {kind!r}, expected {expect_kind!r}")

    tensors: dict[str, np.ndarray] = {}
    offset = header_end
    for spec in manifest["tensors"]:
        shape = tuple(spec["shape"])
        if any(d < 0 for d in shape):
            raise ArchiveError(f"{path}: tensor {spec['name']!r} has negative shape {list(shape)}")
        size = 8 * int(np.prod(shape, dtype=np.int64))
        if offset + size > len(raw):
            raise ArchiveError(f"{path}: truncated tensor {spec['name']!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=size // 8, offset=offset).reshape(shape)
        tensors[spec["name"]] = arr.astype(np.float64)
        offset += size
    if offset != len(raw):
        raise ArchiveError(f"{path}: {len(raw) - offset} trailing bytes past declared tensors")
    return manifest, tensors
