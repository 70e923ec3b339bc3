"""Execution kernel for compiled RSPN inference.

:class:`~repro.core.compiled.CompiledRSPN` executes its bottom-up sweep
as the **fused arena sweep**: pre-planned ``np.take`` / ``np.multiply``
/ ``np.add`` calls over a small reusable arena.  It is the only
production kernel.

Its oracle is the test suite's reference sweep
(``tests/reference_sweep.py``): a plain full-``(n_nodes, n_queries)``
matrix sweep with per-leaf fills, which the tests assert the fused
sweep is ``==`` to.

Bit-identity contract
---------------------
Both sweeps produce **bit-identical** results (``==``, not allclose).
That is only possible because every reduction in the hot path has an
*explicitly pinned accumulation order*:

- sum/product nodes accumulate their children **left to right** (the
  weight multiply rounds first, then the add), expressed in NumPy as
  position-sliced elementwise ops -- never ``ufunc.reduceat`` or
  ``ndarray.sum``, whose intra-segment accumulation order is a SIMD
  implementation detail of the NumPy build (verified empirically: it is
  neither sequential nor the classic pairwise scheme, and it varies
  with both operand shape and stride);
- the binned leaf's per-query bin reduction uses the explicit halving
  fold of :func:`ordered_rowsum`;
- the discrete leaf's prefix sums ride ``np.cumsum`` / ``np.add.at``,
  which are sequential.

Elementwise binary operations are fully defined by IEEE-754 regardless
of vectorisation, so any sweep that performs the same elementwise ops
in the same order produces the same bits.
"""

from __future__ import annotations

import numpy as np


def check(name):
    """Accept the names of the one production kernel (``None`` or
    ``"auto"``); anything else raises ``ValueError``."""
    if name not in (None, "auto"):
        raise ValueError(
            f"unknown kernel {name!r}: the fused sweep is the only kernel "
            "(pass None or 'auto')"
        )


def ordered_rowsum(matrix):
    """Per-row sum with an explicit halving-fold accumulation order.

    Repeatedly folds the upper half onto the lower half
    (``a[:, j] += a[:, j + ceil(m/2)]``), so the reduction tree is a
    function of the row length alone -- unlike ``sum(axis=1)``, whose
    accumulation order is a SIMD implementation detail.  **Consumes**
    ``matrix`` as scratch; pass a fresh array.
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("ordered_rowsum expects a 2-D matrix")
    m = a.shape[1]
    if m == 0:
        return np.zeros(a.shape[0], dtype=float)
    while m > 1:
        h = (m + 1) // 2
        np.add(a[:, : m - h], a[:, h:m], out=a[:, : m - h])
        m = h
    return a[:, 0].copy()


def describe() -> dict:
    """Kernel configuration for ``/stats`` and benchmark host records."""
    return {"requested": "auto", "active": "numpy", "numba_available": False}
