"""Memory-mapped model store: the specpack blob layout as persistence.

The store is the one on-disk format for a learned ensemble.  A file is
a small JSON header (relational metadata encoded by
:mod:`repro.core.serialization`) followed by, per RSPN, one specpack
blob of flat tree arrays (:func:`repro.core.compiled.export_tree_arrays`)
*plus the compiled sweep plan's tape*
(:func:`repro.core.compiled.plan_store_payload`) and a separate routing
section.  Loading mmaps the file, restores the compiled form straight
from the persisted tape (O(plan ops), not O(nodes)), and answers
queries with leaf histograms built per touched scope as read-only
``np.frombuffer`` views into the mapping -- no pickle, no JSON parse of
histograms, no node-tree rebuild, no recompile, no histogram copy.  The
Python node tree only materialises
(:func:`~repro.core.compiled.import_tree_arrays`) when an update
genuinely needs nodes.  Cold start is
O(metadata) and resident memory is demand-paged by the OS, so a server
registers its model by file and loads it on the first query (see
:class:`repro.serving.registry.ModelRegistry`).

File layout (all integers little-endian)::

    offset 0   magic            b"RSPNSTR\\x01"           8 bytes
    offset 8   header_len       u64                       8 bytes
    offset 16  header_crc32     u32                       4 bytes
    offset 20  header JSON      header_len bytes
    aligned    blob[0], routing[0], blob[1], routing[1], ...
               (16-byte aligned, blobs in the specpack codec, routing
               as checksummed JSON of update-only KMeans state)

The header carries the ensemble/schema metadata and, per RSPN, each
section's offset/size/CRC32 and the ``plan_signature``.  Blob checksums
are validated lazily on first page-in (routing checksums on first
materialisation); any truncation or bit flip raises
:class:`ModelStoreError` -- never a numpy shape error, never a silently
wrong answer.

Lifecycle: a mapping cannot be closed while numpy views into it are
alive (``BufferError``), so the store counts loaded ensembles as pins
(via ``weakref.finalize``) and defers the actual unmap until the last
pin dies.  CPython runs an object's finalizers *before* clearing its
``__dict__``, so at finalizer time the tree views still exist; deferred
closes therefore park on a module-level pending list swept by
:func:`sweep_pending` (called from :func:`open_store`,
:meth:`ModelRegistry.close <repro.serving.registry.ModelRegistry.close>`,
and atexit).  For a deterministic unmap use
``DeepDB.close()``, which drops the tree references first.
"""

from __future__ import annotations

import atexit
import json
import logging
import mmap
import os
import struct
import threading
import weakref
import zlib

import numpy as np

from repro.core import compiled, specpack
from repro.core.ensemble import SPNEnsemble
from repro.core.rspn import RSPN
from repro.core.serialization import (
    apply_ensemble_metadata,
    attach_routing_state,
    ensemble_metadata_to_dict,
    routing_state_to_document,
    rspn_kwargs_from_metadata,
    rspn_metadata_to_dict,
)

logger = logging.getLogger(__name__)

MAGIC = b"RSPNSTR\x01"
FORMAT_NAME = "repro-modelstore"
FORMAT_VERSION = 1
STORE_SUFFIX = ".rspn"

_HEADER_PREFIX = len(MAGIC) + 8 + 4  # magic + u64 header_len + u32 crc32


class ModelStoreError(RuntimeError):
    """Raised when a store file is missing, corrupt, or inconsistent."""


# ----------------------------------------------------------------------
# Deferred unmapping
# ----------------------------------------------------------------------

_PENDING_LOCK = threading.Lock()
_PENDING_CLOSE: list[mmap.mmap] = []


def _defer_close(mapping):
    with _PENDING_LOCK:
        _PENDING_CLOSE.append(mapping)


def sweep_pending():
    """Retry deferred unmaps; returns how many mappings remain parked.

    A mapping lands on the pending list when its last pin died while
    numpy views into it were still reachable (finalizer ordering).  Once
    the garbage collector has reclaimed the views, the retry succeeds.
    """
    with _PENDING_LOCK:
        parked, _PENDING_CLOSE[:] = _PENDING_CLOSE[:], []
        still = []
        for mapping in parked:
            try:
                mapping.close()
            except BufferError:
                still.append(mapping)
        _PENDING_CLOSE.extend(still)
        return len(still)


atexit.register(sweep_pending)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def write_store(ensemble, path, name=None):
    """Persist ``ensemble`` to a store file at ``path`` (atomic replace).

    Each RSPN's tree is lowered through
    :func:`~repro.core.compiled.export_tree_arrays` (which compiles it,
    so the ``plan_signature`` lands in the header), the compiled sweep
    plan's tape rides in the same specpack blob
    (:func:`~repro.core.compiled.plan_store_payload`), and the KMeans
    routing state is framed as its own checksummed section so loading
    never decodes update-only state.  Returns the number of bytes
    written.
    """
    sections = []  # (offset, bytes) in file order, offsets 16-aligned
    entries = []
    offset = 0

    def _section(payload):
        nonlocal offset
        offset = specpack._align(offset)
        start = offset
        sections.append((start, payload))
        offset += len(payload)
        return {
            "offset": start,
            "nbytes": len(payload),
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        }

    for rspn in ensemble.rspns:
        meta, arrays = compiled.export_tree_arrays(rspn.root)
        scalars, tape_arrays = compiled.plan_store_payload(
            compiled.compiled_for(rspn.root)
        )
        # Store the leaf table columnar (int64 arrays + one flat
        # attribute-name list) instead of the exporter's list of dicts:
        # a cold start must not JSON-decode or iterate O(leaves) Python
        # objects.
        leaf_arrays, leaf_attributes = compiled.leaf_table_arrays(
            meta.pop("leaves")
        )
        meta = dict(meta, plan=scalars, leaf_attributes=leaf_attributes)
        arrays = dict(arrays, **tape_arrays, **leaf_arrays)
        blob = bytes(specpack.blob_bytes(meta, arrays))
        routing = json.dumps(
            routing_state_to_document(rspn), separators=(",", ":")
        ).encode("utf-8")
        entries.append(
            {
                "metadata": rspn_metadata_to_dict(rspn),
                "plan_signature": meta["plan_signature"],
                "blob": _section(blob),
                "routing": _section(routing),
            }
        )
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": name,
        "ensemble": ensemble_metadata_to_dict(ensemble),
        "rspns": entries,
    }
    header = json.dumps(document, separators=(",", ":")).encode("utf-8")
    payload_base = specpack._align(_HEADER_PREFIX + len(header))
    total = payload_base + offset
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<Q", len(header)))
            handle.write(struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF))
            handle.write(header)
            handle.write(b"\x00" * (payload_base - _HEADER_PREFIX - len(header)))
            for section_offset, payload in sections:
                handle.seek(payload_base + section_offset)
                handle.write(payload)
            handle.truncate(total)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return total


# ----------------------------------------------------------------------
# Header inspection (no mmap)
# ----------------------------------------------------------------------


def is_store_file(path):
    """``True`` when ``path`` starts with the store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _read_header(handle, path):
    prefix = handle.read(_HEADER_PREFIX)
    if len(prefix) < _HEADER_PREFIX or not prefix.startswith(MAGIC):
        raise ModelStoreError(f"{path}: not a model store file (bad magic)")
    (header_len,) = struct.unpack_from("<Q", prefix, len(MAGIC))
    (header_crc,) = struct.unpack_from("<I", prefix, len(MAGIC) + 8)
    file_size = os.fstat(handle.fileno()).st_size
    if _HEADER_PREFIX + header_len > file_size:
        raise ModelStoreError(
            f"{path}: header length {header_len} exceeds the file size "
            f"{file_size}; file is truncated or corrupt"
        )
    header = handle.read(header_len)
    if len(header) != header_len:
        raise ModelStoreError(
            f"{path}: truncated header (wanted {header_len} bytes, "
            f"got {len(header)})"
        )
    if zlib.crc32(header) & 0xFFFFFFFF != header_crc:
        raise ModelStoreError(f"{path}: header checksum mismatch")
    try:
        document = json.loads(header.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ModelStoreError(f"{path}: header is not valid JSON: {error}") from None
    if document.get("format") != FORMAT_NAME:
        raise ModelStoreError(
            f"{path}: format={document.get('format')!r} is not {FORMAT_NAME!r}"
        )
    if document.get("version") != FORMAT_VERSION:
        raise ModelStoreError(
            f"{path}: store version {document.get('version')!r} is unsupported "
            f"(reader expects {FORMAT_VERSION})"
        )
    return document, specpack._align(_HEADER_PREFIX + header_len)


def read_catalog(path):
    """The store's catalog from the header alone -- no mmap, no arrays.

    Cheap enough to run over a whole fleet directory (``repro models``).
    """
    try:
        with open(path, "rb") as handle:
            document, payload_base = _read_header(handle, path)
            file_size = os.fstat(handle.fileno()).st_size
    except OSError as error:
        raise ModelStoreError(f"{path}: {error}") from None
    rspns = []
    for entry in document["rspns"]:
        metadata = entry["metadata"]
        rspns.append(
            {
                "tables": list(metadata["tables"]),
                "plan_signature": entry["plan_signature"],
                "blob_bytes": int(entry["blob"]["nbytes"]),
                "full_size": metadata["full_size"],
            }
        )
    return {
        "path": os.fspath(path),
        "name": document.get("name"),
        "format": document["format"],
        "version": document["version"],
        "file_bytes": file_size,
        "blob_bytes": sum(r["blob_bytes"] for r in rspns),
        "payload_base": payload_base,
        "rspns": rspns,
    }


# ----------------------------------------------------------------------
# The mapped store
# ----------------------------------------------------------------------


def open_store(path):
    """Open and mmap a store file, validating magic, bounds and header CRC.

    Blob payloads are *not* touched here -- their checksums are
    validated lazily, on first page-in, so opening a fleet of stores is
    O(header) per store.
    """
    sweep_pending()
    return ModelStore(path)


class ModelStore:
    """One mmapped store file; build ensembles with :meth:`load_ensemble`."""

    def __init__(self, path):
        self.path = os.fspath(path)
        try:
            with open(self.path, "rb") as handle:
                self._document, self._payload_base = _read_header(handle, self.path)
                self.file_bytes = os.fstat(handle.fileno()).st_size
                if self.file_bytes < self._payload_base:
                    raise ModelStoreError(
                        f"{self.path}: file ends inside the header padding"
                    )
                self._mm = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except OSError as error:
            raise ModelStoreError(f"{self.path}: {error}") from None
        self.name = self._document.get("name")
        self.blob_bytes = sum(
            int(e["blob"]["nbytes"]) for e in self._document["rspns"]
        )
        self._lock = threading.Lock()
        self._verified = set()
        self._pins = 0
        self._want_close = False
        self._closed = False

    # -- catalog -------------------------------------------------------
    def catalog(self):
        """Same shape as :func:`read_catalog`, from the open header."""
        rspns = []
        for entry in self._document["rspns"]:
            metadata = entry["metadata"]
            rspns.append(
                {
                    "tables": list(metadata["tables"]),
                    "plan_signature": entry["plan_signature"],
                    "blob_bytes": int(entry["blob"]["nbytes"]),
                    "full_size": metadata["full_size"],
                }
            )
        return {
            "path": self.path,
            "name": self.name,
            "format": self._document["format"],
            "version": self._document["version"],
            "file_bytes": self.file_bytes,
            "blob_bytes": self.blob_bytes,
            "payload_base": self._payload_base,
            "rspns": rspns,
        }

    # -- blob access ---------------------------------------------------
    def _blob_view(self, index, entry):
        blob = entry["blob"]
        start = self._payload_base + int(blob["offset"])
        end = start + int(blob["nbytes"])
        if end > self.file_bytes:
            raise ModelStoreError(
                f"{self.path}: blob {index} extends to byte {end} but the "
                f"file holds only {self.file_bytes}; file is truncated"
            )
        view = memoryview(self._mm)[start:end]
        if index not in self._verified:
            if zlib.crc32(view) & 0xFFFFFFFF != int(blob["crc32"]):
                raise ModelStoreError(
                    f"{self.path}: blob {index} checksum mismatch -- the "
                    "file is corrupt (bit flip or partial write)"
                )
            self._verified.add(index)
        return view

    def verify(self):
        """Validate every blob and routing checksum; returns the blob count."""
        with self._lock:
            self._ensure_open()
            for index, entry in enumerate(self._document["rspns"]):
                self._blob_view(index, entry)
                section = entry.get("routing")
                if not section:
                    continue
                start = self._payload_base + int(section["offset"])
                end = start + int(section["nbytes"])
                if end > self.file_bytes:
                    raise ModelStoreError(
                        f"{self.path}: routing section {index} extends to "
                        f"byte {end} but the file holds only "
                        f"{self.file_bytes}; file is truncated"
                    )
                payload = self._mm[start:end]
                if zlib.crc32(payload) & 0xFFFFFFFF != int(section["crc32"]):
                    raise ModelStoreError(
                        f"{self.path}: routing section {index} checksum "
                        "mismatch -- the file is corrupt (bit flip or "
                        "partial write)"
                    )
            return len(self._document["rspns"])

    # -- routing sections ----------------------------------------------
    def _routing_document(self, index):
        """Decode blob ``index``'s KMeans routing section.

        Update-only state: read lazily when a mapped tree materialises,
        never on the query path.  The loaded ensemble's pin keeps the
        mapping alive even after :meth:`close` was requested, so a late
        materialisation (an insert long after load) still resolves.
        """
        entry = self._document["rspns"][index]
        section = entry.get("routing")
        if not section:
            return {"routing": []}
        with self._lock:
            if self._mm is None:
                raise ModelStoreError(f"{self.path}: store is closed")
            start = self._payload_base + int(section["offset"])
            end = start + int(section["nbytes"])
            if end > self.file_bytes:
                raise ModelStoreError(
                    f"{self.path}: routing section {index} extends to byte "
                    f"{end} but the file holds only {self.file_bytes}; "
                    "file is truncated"
                )
            payload = self._mm[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != int(section["crc32"]):
            raise ModelStoreError(
                f"{self.path}: routing section {index} checksum mismatch -- "
                "the file is corrupt (bit flip or partial write)"
            )
        try:
            return {"routing": json.loads(payload.decode("utf-8"))}
        except (ValueError, UnicodeDecodeError) as error:
            raise ModelStoreError(
                f"{self.path}: routing section {index} is not valid JSON: "
                f"{error}"
            ) from None

    def _validate_plan_payload(self, index, meta, arrays):
        """Reject blobs whose persisted plan cannot drive a sweep.

        The CRC has already proven the bytes are what the writer wrote;
        this guards against malformed *writers* (or future format
        drift), so a bad store fails here with :class:`ModelStoreError`
        instead of as a numpy shape error mid-query.
        """

        def bad(reason):
            return ModelStoreError(
                f"{self.path}: blob {index} plan payload is invalid: {reason}"
            )

        plan = meta.get("plan")
        if not isinstance(plan, dict):
            raise bad("no fused-plan header (not written by this writer?)")
        missing = [k for k in compiled.PLAN_TAPE_KEYS if k not in arrays]
        if missing:
            raise bad(f"missing tape arrays {missing}")
        try:
            arena_rows = int(plan["arena_rows"])
            int(plan["stage_rows"])
            root_slot = int(plan["root_slot"])
            n_leaves = int(plan["n_leaves"])
        except (KeyError, TypeError, ValueError) as error:
            raise bad(f"bad plan scalars: {error}") from None
        op_kind, op_dst, op_pos_off, pos_count, pos_child_off, \
            child_slots, weights = (arrays[k] for k in compiled.PLAN_TAPE_KEYS)
        n_ops = op_kind.shape[0]
        if op_dst.shape[0] != n_ops or op_pos_off.shape[0] != n_ops + 1:
            raise bad("op table lengths disagree")
        if pos_child_off.shape[0] != pos_count.shape[0] + 1:
            raise bad("position table lengths disagree")
        if n_ops and int(op_pos_off[-1]) != pos_count.shape[0]:
            raise bad("op/position offsets disagree")
        if pos_count.shape[0] and int(pos_child_off[-1]) != child_slots.shape[0]:
            raise bad("position/child offsets disagree")
        if weights.shape[0] != child_slots.shape[0]:
            raise bad("weights length disagrees with child slots")
        if not 0 <= root_slot < arena_rows:
            raise bad(f"root slot {root_slot} outside arena of {arena_rows}")
        if child_slots.shape[0] and (
            int(child_slots.min()) < 0
            or int(child_slots.max()) >= arena_rows
        ):
            raise bad("child slot outside the arena")
        kinds = arrays["kinds"]
        leaf_data = arrays["leaf_data"]
        missing = [k for k in compiled.LEAF_TABLE_KEYS if k not in arrays]
        if missing:
            raise bad(f"missing leaf-table arrays {missing}")
        rows, offsets, ns = (arrays[k] for k in compiled.LEAF_TABLE_KEYS)
        attributes = meta.get("leaf_attributes")
        if (rows.shape[0] != n_leaves or offsets.shape[0] != n_leaves
                or ns.shape[0] != n_leaves
                or not isinstance(attributes, list)
                or len(attributes) != n_leaves):
            raise bad(
                f"leaf table of {rows.shape[0]} rows / "
                f"{0 if not isinstance(attributes, list) else len(attributes)}"
                f" attributes for a plan over {n_leaves} leaves"
            )
        if not 0 <= int(meta.get("root_row", -1)) < kinds.shape[0]:
            raise bad("root row outside the node table")
        # Vectorised bounds checks: O(leaves) numpy, no Python loop.
        if n_leaves:
            if int(rows.min()) < 0 or int(rows.max()) >= kinds.shape[0]:
                raise bad("leaf row outside the node table")
            leaf_kinds = kinds[rows]
            discrete = leaf_kinds == compiled._KIND_DISCRETE
            binned = leaf_kinds == compiled._KIND_BINNED
            if not bool((discrete | binned).all()):
                raise bad("leaf entry at a non-leaf row")
            ends = np.where(discrete, offsets + 2 * ns + 1,
                            offsets + 4 * ns + 2)
            if (int(offsets.min()) < 0 or int(ns.min()) < 0
                    or int(ends.max()) > leaf_data.shape[0]):
                raise bad("leaf payload exceeds the data array")

    # -- loading -------------------------------------------------------
    def load_ensemble(self, database):
        """Rebuild the ensemble as lazy evaluation twins over the mapping.

        O(metadata): blobs are checksum-verified and their plan payload
        validated, but no Python node tree is built and no histogram is
        copied -- RSPNs come back as :class:`MappedRSPN`, which answer
        queries straight from the persisted plan tape and build leaf
        objects (read-only views into the mmap) per touched scope on
        demand.  The node tree itself materialises only for paths that
        need it (updates).
        The returned ensemble pins this store open until it is garbage
        collected (or the owning ``DeepDB.close()`` runs).
        """
        with self._lock:
            self._ensure_open()
            ensemble = SPNEnsemble(database)
            for index, entry in enumerate(self._document["rspns"]):
                # The routing section is read lazily (if ever), but a
                # load must still surface truncation immediately.
                section = entry.get("routing")
                if section:
                    end = (self._payload_base + int(section["offset"])
                           + int(section["nbytes"]))
                    if end > self.file_bytes:
                        raise ModelStoreError(
                            f"{self.path}: routing section {index} extends "
                            f"to byte {end} but the file holds only "
                            f"{self.file_bytes}; file is truncated"
                        )
                view = self._blob_view(index, entry)
                try:
                    meta, arrays = specpack.read_blob(view)
                except specpack.SpecPackError as error:
                    raise ModelStoreError(
                        f"{self.path}: blob {index} is unreadable: {error}"
                    ) from None
                if meta.get("plan_signature") != entry["plan_signature"]:
                    raise ModelStoreError(
                        f"{self.path}: blob {index} plan signature "
                        f"{meta.get('plan_signature')!r} does not match the "
                        f"catalog entry {entry['plan_signature']!r}"
                    )
                self._validate_plan_payload(index, meta, arrays)
                rspn = MappedRSPN(
                    store=self,
                    index=index,
                    tree_meta=meta,
                    tree_arrays=arrays,
                    **rspn_kwargs_from_metadata(entry["metadata"]),
                )
                ensemble.rspns.append(rspn)
            apply_ensemble_metadata(ensemble, self._document["ensemble"])
            self._pins += 1
            weakref.finalize(ensemble, self._unpin)
            return ensemble

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self):
        return self._closed

    @property
    def pins(self):
        return self._pins

    def _ensure_open(self):
        if self._closed or self._want_close:
            raise ModelStoreError(f"{self.path}: store is closed")

    def _unpin(self):
        with self._lock:
            self._pins = max(0, self._pins - 1)
            self._maybe_close()

    def close(self):
        """Release the mapping once the last loaded ensemble is gone.

        Safe to call with ensembles still alive: the store refuses new
        loads immediately and the unmap happens when the final pin dies
        (deferred via the pending-close sweep if views outlive the
        finalizer).  Idempotent.
        """
        with self._lock:
            self._want_close = True
            self._maybe_close()

    def _maybe_close(self):
        # Caller holds self._lock.
        if self._closed or not self._want_close or self._pins > 0:
            return
        self._closed = True
        try:
            self._mm.close()
        except BufferError:
            # Views into the mapping are still reachable (finalizers run
            # before the dying ensemble's tree is torn down); park the
            # mapping for sweep_pending().
            _defer_close(self._mm)
        self._mm = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self._closed else f"pins={self._pins}"
        return (
            f"ModelStore({self.path!r}, rspns={len(self._document['rspns'])}, "
            f"blob_bytes={self.blob_bytes}, {state})"
        )


class MappedRSPN(RSPN):
    """An RSPN served straight from a read-only store mapping.

    The compiled sweep only ever reads the fused plan and the touched
    scopes' leaf histograms, so queries are answered from a
    :class:`~repro.core.compiled.MappedCompiledRSPN` restored from the
    persisted plan tape -- the Python node tree is **not built at
    load**.  It materialises lazily (as an
    :func:`~repro.core.compiled.import_tree_arrays` twin whose leaf
    histograms are read-only views into the mapping, with routing state
    re-attached from the store's routing section) the first time a path
    genuinely needs nodes: an update, sampling, or direct ``.root``
    access.

    The first staged update batch (``insert``/``delete`` are one-row
    batches) additionally thaws the tree copy-on-write
    (:func:`repro.core.compiled.thaw_tree`), after which this model
    owns private writable arrays and behaves like any other RSPN.  The
    backing store stays pinned either way; thawing never invalidates
    other models loaded from the same store file.
    """

    def __init__(self, store, index, tree_meta, tree_arrays, **kwargs):
        self._store = store
        self._index = index
        self._tree_meta = tree_meta
        self._tree_arrays = tree_arrays
        self._compiled_form = None
        self._materialized = None
        self._thawed = False
        self._lazy_lock = threading.Lock()
        super().__init__(root=None, **kwargs)

    # -- lazy tree -----------------------------------------------------
    @property
    def root(self):
        root = self._materialized
        if root is None:
            root = self._materialize_root()
        return root

    @root.setter
    def root(self, value):
        # Only RSPN.__init__ assigns (None); the real tree arrives via
        # _materialize_root.
        self._materialized = value

    @property
    def materialized(self):
        """Whether the Python node tree has been built yet."""
        return self._materialized is not None

    def _materialize_root(self):
        with self._lazy_lock:
            root = self._materialized
            if root is None:
                # The store persists the leaf table columnar; the tree
                # importer wants the exporter's list-of-dicts shape.
                # O(leaves) Python, paid only here -- never on the
                # cold-start path.
                meta = dict(self._tree_meta)
                meta["leaves"] = compiled.leaf_entries_from_arrays(
                    self._tree_arrays, meta["leaf_attributes"]
                )
                root = compiled.import_tree_arrays(meta, self._tree_arrays)
                attach_routing_state(
                    root, self._store._routing_document(self._index)
                )
                form = self._compiled_form
                if form is not None:
                    # The restored compiled form IS this tree's compiled
                    # form (same plan, same payloads); adopting it avoids
                    # an O(nodes) recompile on first post-materialise use.
                    compiled.adopt(root, form)
                self._materialized = root
            return root

    def _compiled(self):
        form = self._compiled_form
        if form is None:
            form = compiled.MappedCompiledRSPN(
                self._tree_meta, self._tree_arrays
            )
            self._compiled_form = form
        return form

    # -- inference / telemetry without the tree ------------------------
    def evaluate_specs(self, specs):
        if self._materialized is not None:
            return super().evaluate_specs(specs)
        return self._compiled().evaluate_batch(specs)

    @property
    def generation(self):
        # A mapped tree is untouched by construction; materialising it
        # doesn't change that, only mutations do.
        if self._materialized is None:
            return 0
        return compiled.generation(self._materialized)

    def compiled_peek(self):
        if self._materialized is not None:
            return super().compiled_peek()
        return self._compiled_form

    def node_counts(self):
        if self._materialized is not None:
            return super().node_counts()
        kinds = self._tree_arrays["kinds"]
        return {
            "sum": int((kinds == compiled._KIND_SUM).sum()),
            "product": int((kinds == compiled._KIND_PRODUCT).sum()),
            "leaf": int((kinds >= compiled._KIND_DISCRETE).sum()),
        }

    # -- updates (copy-on-write) ---------------------------------------
    def _thaw(self):
        if not self._thawed:
            compiled.thaw_tree(self.root)
            self._thawed = True

    def stage_batch(self, ops):
        self._thaw()
        return super().stage_batch(ops)
