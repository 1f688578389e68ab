"""The binary container shared by SGDS dataset splits and SGCK checkpoints.

Layout: 4-byte magic | u32 format version | u32 header length | u32 CRC-32 |
canonical JSON header (sorted keys, no whitespace) | little-endian body.  All
integers are little-endian.  The CRC-32 covers the header and the body.

``read`` streams the body straight into the arrays it returns: the header
says how long the body is, that length must equal what the file holds
before any array is allocated, and the checksum runs over each piece as it
lands.  So nothing from a truncated, padded or corrupt file is returned, and
no allocation exceeds the file's size.
"""

from __future__ import annotations

import json
import math
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


def _is_size(x) -> bool:
    return type(x) is int and x >= 0


def read(path, magic: bytes, version: int, kind: str, layout) -> tuple[dict, list]:
    """Read one file into fresh arrays; returns (header, sections).

    ``layout(header)`` checks the parsed header, may normalize its values in
    place, and returns the body's sections in file order.  A section is
    ``(rows, fields)``: ``rows`` records, each holding one value of every
    ``(dtype, shape)`` field in turn, the dtype as stored (``"<f8"``).
    Each field becomes one ``(rows, *shape)`` array, and a section's entry
    in ``sections`` lists those arrays in field order.  Any file this module
    did not write intact, or whose header ``layout`` rejects with a
    ``ValueError``, ``KeyError``, ``TypeError`` or ``OverflowError``, raises
    ``FormatError``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(PREFIX.size)
        if prefix[:4] != magic:
            raise FormatError(f"{path}: not a {kind} file (magic {prefix[:4]!r})")
        if len(prefix) < PREFIX.size:
            raise FormatError(f"{path}: truncated before the {kind} header")
        _, found, header_len, crc = PREFIX.unpack(prefix)
        if found != version:
            raise FormatError(f"{path}: unsupported {kind} format version {found}")
        body_len = size - PREFIX.size - header_len
        if body_len < 0:
            raise FormatError(f"{path}: truncated inside the {kind} header")
        raw = fh.read(header_len)
        try:
            # the checksum has not been checked yet, so the parser may see
            # any bytes; canonical headers nest two levels deep
            header = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise FormatError(f"{path}: corrupt {kind} header ({exc})") from None
        if not isinstance(header, dict):
            raise FormatError(f"{path}: {kind} header is not a JSON object")
        try:
            sections = [(rows, [(np.dtype(dt), tuple(shape)) for dt, shape in fields])
                        for rows, fields in layout(header)]
        except (ValueError, KeyError, TypeError, OverflowError) as exc:  # int(inf)
            raise FormatError(f"{path}: corrupt {kind} header ({exc})") from exc
        if not all(_is_size(rows) and all(map(_is_size, shape))
                   for rows, fields in sections for _, shape in fields):
            raise FormatError(f"{path}: a {kind} header size is not a non-negative int")
        implied = sum(rows * sum(dt.itemsize * math.prod(shape) for dt, shape in fields)
                      for rows, fields in sections)
        if implied != body_len:
            raise FormatError(f"{path}: the {kind} header implies {implied} body bytes, "
                              f"the file holds {body_len}")

        crc_found = zlib.crc32(raw)
        out = []
        for rows, fields in sections:
            arrays = [np.empty((rows, *shape), dtype=dt) for dt, shape in fields]
            for r in range(rows):
                for a in arrays:
                    piece = a[r:r + 1]
                    if fh.readinto(piece) != piece.nbytes:
                        raise FormatError(f"{path}: {kind} file is truncated")
                    crc_found = zlib.crc32(piece, crc_found)
            out.append(arrays)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the {kind} body")
    if crc_found != crc:
        raise FormatError(f"{path}: {kind} file is corrupt (checksum mismatch)")
    return header, out
