"""The model store's metadata codec.

A store file (:mod:`repro.core.modelstore`) ships each RSPN's node tree
as flat specpack arrays; everything else a learned ensemble holds --
column names, table sets, sizes, learning config, functional-dependency
dictionaries, internal join edges, per-sum-node KMeans routing state,
and the ensemble's RDC caches -- rides alongside as plain JSON built
here.  JSON (rather than pickle) keeps that metadata inspectable and
independent of Python class layout; non-finite floats are encoded
explicitly (NaN -> ``None``, +/-inf -> ``"inf"``/``"-inf"``).

The database itself is *not* persisted: a loaded ensemble is re-attached
to a :class:`~repro.engine.table.Database` the same way a rebuilt DBMS
re-opens its base tables before its indexes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ensemble import SPNEnsemble
from repro.core.rspn import RSPN, FunctionalDependency, RspnConfig
from repro.schema.schema import ForeignKey
from repro.stats.kmeans import KMeans


class SerializationError(RuntimeError):
    """Raised when model state cannot be encoded (e.g. an unfitted KMeans)."""


# ----------------------------------------------------------------------
# Scalars and arrays
# ----------------------------------------------------------------------


def _encode_float(value):
    """JSON-safe float: NaN -> None, +/-inf -> sentinel strings."""
    value = float(value)
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _decode_float(value):
    if value is None:
        return math.nan
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def _encode_array(array):
    return [_encode_float(v) for v in np.asarray(array, dtype=float).ravel()]


def _decode_array(values):
    return np.array([_decode_float(v) for v in values], dtype=float)


# ----------------------------------------------------------------------
# KMeans routing state
# ----------------------------------------------------------------------


def _encode_kmeans(kmeans):
    if kmeans is None:
        return None
    if kmeans.centers_ is None:
        raise SerializationError("cannot serialise an unfitted KMeans")
    return {
        "n_clusters": kmeans.n_clusters,
        "n_init": kmeans.n_init,
        "max_iter": kmeans.max_iter,
        "seed": kmeans.seed,
        "shape": list(kmeans.centers_.shape),
        "centers": _encode_array(kmeans.centers_),
        "mean": _encode_array(kmeans.mean_),
        "scale": _encode_array(kmeans.scale_),
        "impute": _encode_array(kmeans.impute_),
    }


def _decode_kmeans(document):
    if document is None:
        return None
    kmeans = KMeans(
        n_clusters=document["n_clusters"],
        n_init=document["n_init"],
        max_iter=document["max_iter"],
        seed=document["seed"],
    )
    shape = tuple(document["shape"])
    kmeans.centers_ = _decode_array(document["centers"]).reshape(shape)
    kmeans.mean_ = _decode_array(document["mean"])
    kmeans.scale_ = _decode_array(document["scale"])
    kmeans.impute_ = _decode_array(document["impute"])
    return kmeans


# ----------------------------------------------------------------------
# RSPN metadata (the tree itself ships as flat specpack arrays)
# ----------------------------------------------------------------------


def _encode_config(config: RspnConfig):
    return {
        "rdc_threshold": config.rdc_threshold,
        "min_instances_fraction": config.min_instances_fraction,
        "max_distinct_leaf": config.max_distinct_leaf,
        "n_bins": config.n_bins,
        "rdc_sample": config.rdc_sample,
        "seed": config.seed,
    }


def _decode_config(document):
    return RspnConfig(**document)


def _encode_fd(fd: FunctionalDependency):
    return {
        "source": fd.source,
        "dependent": fd.dependent,
        "mapping": [
            [_encode_float(k), None if v is None else _encode_float(v)]
            for k, v in fd.mapping.items()
        ],
    }


def _decode_fd(document):
    mapping = {}
    for key, value in document["mapping"]:
        mapping[_decode_float(key)] = None if value is None else _decode_float(value)
    return FunctionalDependency(document["source"], document["dependent"], mapping)


def _encode_edge(fk: ForeignKey):
    return {
        "parent": fk.parent,
        "child": fk.child,
        "fk_column": fk.fk_column,
        "pk_column": fk.pk_column,
    }


def _decode_edge(document):
    return ForeignKey(**document)


def rspn_metadata_to_dict(rspn: RSPN):
    """One RSPN's relational metadata: everything but the node tree.

    The model store persists the tree itself as a specpack blob of flat
    arrays (``compiled.export_tree_arrays``); this function captures the
    relational metadata that rides alongside it.  The per-sum-node
    KMeans routing state travels separately
    (:func:`routing_state_to_document`) so that opening a store never
    pays for decoding update-only state.
    """
    return {
        "column_names": list(rspn.column_names),
        "tables": sorted(rspn.tables),
        "full_size": rspn.full_size,
        "sample_size": rspn.sample_size,
        "internal_edges": [_encode_edge(fk) for fk in rspn.internal_edges],
        "functional_dependencies": [
            _encode_fd(fd) for fd in rspn.functional_dependencies.values()
        ],
        "config": _encode_config(rspn.config),
    }


def routing_state_to_document(rspn: RSPN):
    """Per-sum-node KMeans routing state, keyed by post-order row.

    Post order is the canonical row numbering ``export_tree_arrays``
    assigns and import preserves, so the state re-attaches to an
    imported twin without any tree diffing
    (:func:`attach_routing_state`).  This is update-only state -- the
    model store parks it in its own checksummed section, decoded only
    when a mapped tree actually materialises for an insert/delete.
    """
    from repro.core import compiled

    routing = []
    for row, node in enumerate(compiled.post_order(rspn.root)):
        kmeans = getattr(node, "kmeans", None)
        if kmeans is not None:
            routing.append([row, _encode_kmeans(kmeans)])
    return routing


def rspn_kwargs_from_metadata(document):
    """RSPN constructor kwargs (minus ``root``) from store metadata."""
    return {
        "column_names": document["column_names"],
        "tables": set(document["tables"]),
        "full_size": document["full_size"],
        "sample_size": document["sample_size"],
        "internal_edges": [_decode_edge(e) for e in document["internal_edges"]],
        "functional_dependencies": [
            _decode_fd(fd) for fd in document["functional_dependencies"]
        ],
        "config": _decode_config(document["config"]),
    }


def attach_routing_state(root, document):
    """Re-attach persisted KMeans routing state to an imported tree."""
    from repro.core import compiled

    routing = document.get("routing") or []
    if not routing:
        return
    nodes = list(compiled.post_order(root))
    for row, encoded in routing:
        nodes[int(row)].kmeans = _decode_kmeans(encoded)


def ensemble_metadata_to_dict(ensemble: SPNEnsemble):
    """Ensemble-level metadata (everything but the RSPNs themselves)."""
    return {
        "attribute_rdc": [
            [sorted(pair)[0], sorted(pair)[1], value]
            for pair, value in sorted(
                ensemble.attribute_rdc.items(), key=lambda kv: sorted(kv[0])
            )
        ],
        "table_dependency": [
            [sorted(pair)[0], sorted(pair)[1], value]
            for pair, value in sorted(
                ensemble.table_dependency.items(), key=lambda kv: sorted(kv[0])
            )
        ],
        "training_seconds": ensemble.training_seconds,
        "rspn_training_seconds": list(ensemble.rspn_training_seconds),
    }


def apply_ensemble_metadata(ensemble, document):
    """Counterpart of :func:`ensemble_metadata_to_dict` for a fresh ensemble."""
    ensemble.attribute_rdc = {
        frozenset((a, b)): value for a, b, value in document["attribute_rdc"]
    }
    ensemble.table_dependency = {
        frozenset((a, b)): value for a, b, value in document["table_dependency"]
    }
    ensemble.training_seconds = document["training_seconds"]
    ensemble.rspn_training_seconds = list(document["rspn_training_seconds"])
