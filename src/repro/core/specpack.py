"""The blob codec: named flat arrays plus a JSON header in one buffer.

The model store (:mod:`repro.core.modelstore`) persists each RSPN as one
blob: ``[8-byte header length][JSON header][16-byte-aligned payload]``,
where the header records each array's dtype/shape/offset, so a reader
gets zero-copy :func:`numpy.frombuffer` views straight into the buffer
(an mmapped store file).  The codec is deliberately meta-preserving:
whatever the writer puts in ``meta`` rides the header verbatim, which
is how the store carries the fused-plan signature
(``meta["plan_signature"]``, see :mod:`repro.core.compiled`).  Headers
carry a layout version (:data:`BLOB_LAYOUT_VERSION`); readers accept
versionless blobs (the pre-versioning layout is identical) but refuse
blobs from a newer layout instead of misreading them.
"""

from __future__ import annotations

import json
import struct

import numpy as np

_ALIGN = 16

# Bump when the byte layout (header framing, alignment, array table
# schema) changes incompatibly.  Version 1 is byte-identical to the
# original unversioned layout, so old readers still parse new blobs and
# new readers treat a missing version as 1.
BLOB_LAYOUT_VERSION = 1


class SpecPackError(TypeError):
    """A buffer is not a readable blob (truncated, garbled or from a
    newer layout)."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def blob_layout(meta: dict, arrays: dict):
    """Plan a blob: returns ``(header_bytes, payload_base, total_nbytes)``.

    ``meta`` must be JSON-serializable; the array table is appended to
    it.  Array offsets are relative to ``payload_base`` so the header's
    own length never feeds back into them.
    """
    table, offset = [], 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        table.append(
            {
                "name": name,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    document = dict(meta)
    document["layout_version"] = BLOB_LAYOUT_VERSION
    document["arrays"] = table
    header = json.dumps(document, separators=(",", ":")).encode("utf-8")
    payload_base = _align(8 + len(header))
    return header, payload_base, payload_base + max(offset, 1)


def write_blob(buf, header: bytes, payload_base: int, arrays: dict):
    """Write a planned blob into a writable buffer."""
    buf[0:8] = struct.pack("<Q", len(header))
    buf[8:8 + len(header)] = header
    offset = 0
    for array in arrays.values():
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        if array.nbytes:
            view = np.frombuffer(
                buf, dtype=array.dtype, count=array.size,
                offset=payload_base + offset,
            )
            view[:] = array.ravel()
        offset += array.nbytes


def blob_bytes(meta: dict, arrays: dict) -> bytearray:
    """The blob as an in-memory buffer."""
    header, payload_base, total = blob_layout(meta, arrays)
    buf = bytearray(total)
    write_blob(buf, header, payload_base, arrays)
    return buf


def read_blob(buf):
    """``(meta, {name: read-only array view})`` from a blob buffer.

    Views alias ``buf`` directly -- zero copies.  Callers reading a
    mapping must drop every view (and anything derived from it) before
    closing the mapping.

    Every frame bound is validated against ``len(buf)`` before any view
    is taken, so a truncated or garbled buffer raises
    :class:`SpecPackError` -- never a numpy shape error, and never a
    view silently reading past the payload.
    """
    available = len(buf)
    if available < 8:
        raise SpecPackError(
            f"blob truncated: {available} bytes cannot hold the header length"
        )
    (header_len,) = struct.unpack_from("<Q", buf, 0)
    if 8 + header_len > available:
        raise SpecPackError(
            f"blob truncated: header claims {header_len} bytes but only "
            f"{available - 8} follow"
        )
    try:
        meta = json.loads(bytes(buf[8:8 + header_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise SpecPackError(f"blob header is not valid JSON: {error}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("arrays"), list):
        raise SpecPackError("blob header carries no array table")
    version = int(meta.get("layout_version", 1))
    if version > BLOB_LAYOUT_VERSION:
        raise SpecPackError(
            f"blob layout version {version} is newer than this reader "
            f"(max {BLOB_LAYOUT_VERSION}); refusing to misread it"
        )
    payload_base = _align(8 + header_len)
    arrays = {}
    for entry in meta["arrays"]:
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(n) for n in entry["shape"])
            offset = int(entry["offset"])
        except (KeyError, TypeError, ValueError) as error:
            raise SpecPackError(
                f"malformed array table entry {entry!r}: {error}"
            ) from None
        count = int(np.prod(shape)) if shape else 1
        if count < 0 or offset < 0:
            raise SpecPackError(
                f"array {name!r} has a negative extent (offset {offset}, "
                f"count {count})"
            )
        end = payload_base + offset + count * dtype.itemsize
        if end > available:
            raise SpecPackError(
                f"array {name!r} extends to byte {end} but the blob holds "
                f"only {available}; buffer is truncated or corrupt"
            )
        view = np.frombuffer(
            buf, dtype=dtype, count=count, offset=payload_base + offset,
        ).reshape(shape)
        view.flags.writeable = False
        arrays[name] = view
    return meta, arrays
