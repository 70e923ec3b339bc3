"""The blob codec the model store persists trees with: tree imports
alias the source buffer (zero copies, read-only views)."""

from __future__ import annotations

import numpy as np

from repro.core import compiled as compiled_mod
from repro.core import specpack
from repro.core.nodes import iter_nodes
from tests.test_nodes_inference import _random_spn


class TestBlobCodec:
    def test_tree_import_is_zero_copy(self):
        """Imported leaf histograms alias the source buffer (read-only
        views), which is what lets a mapped store answer without
        copying histograms."""
        rng = np.random.default_rng(5)
        spn = _random_spn(rng, (0, 1), depth=1)
        meta, arrays = compiled_mod.export_tree_arrays(spn)
        blob = specpack.blob_bytes(meta, arrays)
        read_meta, read_arrays = specpack.read_blob(blob)
        twin = compiled_mod.import_tree_arrays(read_meta, read_arrays)
        leaf_data = read_arrays["leaf_data"]
        leaves = [
            node for node in iter_nodes(twin) if hasattr(node, "null_count")
        ]
        assert leaves
        for leaf in leaves:
            payload = leaf.values if hasattr(leaf, "values") else leaf.edges
            assert np.shares_memory(payload, leaf_data)
            assert not payload.flags.writeable
