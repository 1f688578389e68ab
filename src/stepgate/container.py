"""The binary container shared by SGDS dataset splits and SGCK checkpoints.

Layout: 4-byte magic | u32 format version | u32 header length | u32 CRC-32 |
canonical JSON header (sorted keys, no whitespace) | little-endian body.  All
integers are little-endian.  The CRC-32 covers the header and the body but
not the prefix, so the header's ``format_version`` must be the prefix's int.

The body is a list of whole arrays whose dtypes and shapes the header
implies.  ``read`` streams it straight into the arrays it returns: the
implied length must equal what the file holds before any array is
allocated, and the checksum runs over each array as it lands.  So nothing
from a truncated, padded or corrupt file is returned, and no allocation
exceeds the file's size.  ``all_finite`` is the one finiteness rule for
the arrays either format stores.
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


def int_field(header: dict, key: str) -> int:
    """``header[key]``, which must be a JSON integer: a float such as 3.7 or
    3.0, a bool or a string raises ``TypeError``, which ``read`` reports as
    ``FormatError``."""
    value = header[key]
    if type(value) is not int:
        raise TypeError(f"{key} {value!r} is not an int")
    return value


def all_finite(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite: min and max propagate NaN."""
    return not a.size or bool(np.isfinite([a.min(), a.max()]).all())


def read(path, magic: bytes, version: int, kind: str, layout) -> tuple[dict, list]:
    """Read one file into fresh arrays; returns (header, arrays).

    ``layout(header)`` checks the parsed header, may normalize its values in
    place, and returns the body's fields in file order, each a ``(dtype,
    shape)`` pair with the dtype as stored.  Each field becomes one array of
    that shape, read whole.  Any file this module did not write intact, or
    whose header ``layout`` rejects with a ``ValueError``, ``KeyError``,
    ``TypeError`` or ``OverflowError``, raises ``FormatError``.
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
            if int_field(header, "format_version") != version:
                raise ValueError("the header's format_version is not the prefix's")
            fields = [(np.dtype(dt), tuple(shape)) for dt, shape in layout(header)]
        except (ValueError, KeyError, TypeError, OverflowError) as exc:  # int(inf)
            raise FormatError(f"{path}: corrupt {kind} header ({exc})") from exc
        if not all(type(n) is int and n >= 0 for _, shape in fields for n in shape):
            raise FormatError(f"{path}: a {kind} header size is not a non-negative int")
        implied = sum(dt.itemsize * math.prod(shape) for dt, shape in fields)
        if implied != body_len:
            raise FormatError(f"{path}: the {kind} header implies {implied} body bytes, "
                              f"the file holds {body_len}")

        crc_found = zlib.crc32(raw)
        arrays = []
        for dt, shape in fields:
            a = np.empty(shape, dtype=dt)
            if fh.readinto(a) != a.nbytes:
                raise FormatError(f"{path}: {kind} file is truncated")
            crc_found = zlib.crc32(a, crc_found)
            arrays.append(a)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the {kind} body")
    if crc_found != crc:
        raise FormatError(f"{path}: {kind} file is corrupt (checksum mismatch)")
    return header, arrays
