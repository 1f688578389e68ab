"""The binary container shared by SGDS dataset splits and SGCK checkpoints.

Layout: 4-byte magic | u32 format version | u32 header length | u32 CRC-32 |
canonical JSON header (sorted keys, no whitespace) | little-endian body.  All
integers are little-endian.  The CRC-32 covers the header and the body, so a
truncated file or a flipped byte fails the check before anything is parsed.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .errors import FormatError

PREFIX = struct.Struct("<4sIII")


def write(path, magic: bytes, version: int, header: dict, body: list) -> None:
    """Write one file; ``body`` lists contiguous bytes-like pieces in order."""
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(raw)
    for piece in body:
        crc = zlib.crc32(piece, crc)
    with open(path, "wb") as fh:
        fh.write(PREFIX.pack(magic, version, len(raw), crc))
        fh.write(raw)
        fh.writelines(body)


def read(path, magic: bytes, version: int, kind: str) -> tuple[np.ndarray, dict, int]:
    """Read one file and check its prefix and checksum; returns the whole
    file as a uint8 array, the header and the offset of the body.

    numpy backs a large array with huge pages where the kernel allows it, so
    reading a dataset split into one takes a few hundred page faults where a
    bytes object takes one per 4 KiB page."""
    with open(path, "rb") as fh:
        blob = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        blob = blob[:fh.readinto(blob)]
    if blob[:4].tobytes() != magic:
        raise FormatError(f"{path}: not a {kind} file (magic {blob[:4].tobytes()!r})")
    if len(blob) < PREFIX.size:
        raise FormatError(f"{path}: truncated before the {kind} header")
    _, found, header_len, crc = PREFIX.unpack_from(blob)
    if found != version:
        raise FormatError(f"{path}: unsupported {kind} format version {found}")
    if zlib.crc32(memoryview(blob)[PREFIX.size:]) != crc:
        raise FormatError(f"{path}: {kind} file is truncated or corrupt (checksum mismatch)")
    offset = PREFIX.size + header_len
    try:
        header = json.loads(blob[PREFIX.size:offset].tobytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: corrupt {kind} header ({exc})") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: {kind} header is not a JSON object")
    return blob, header, offset
