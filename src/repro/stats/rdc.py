"""Randomized dependence coefficient (RDC).

The RDC of Lopez-Paz, Hennig and Schoelkopf (NeurIPS 2013) measures
non-linear dependence between two random variables.  It is the canonical
correlation between random non-linear projections of the copula
transforms of both variables.  DeepDB uses RDC values in two places:

1. During SPN structure learning, columns whose pairwise RDC falls below
   a threshold are considered independent and split by a product node
   (as in the MSPN learning algorithm the paper builds on).
2. During ensemble creation, the maximum pairwise RDC between attributes
   of two tables decides whether a joint RSPN over their join is learned.

The implementation below follows the published algorithm:

- empirical copula transform (rank / n) per column,
- append a constant 1 feature,
- project through ``k`` random sine features with scale ``s``,
- compute the largest canonical correlation of the two feature blocks.

NULL values (NaN) are handled by ranking them as a dedicated lowest
value, which matches how RSPN leaves treat NULL as a dedicated value.
"""

from __future__ import annotations

import numpy as np

DEFAULT_K = 20
DEFAULT_S = 1.0 / 6.0


def _ecdf(column):
    """Empirical copula transform of a 1-D array, mapping values to (0, 1].

    NaNs are treated as a dedicated smallest value so that NULL-heavy
    columns still produce meaningful dependence scores.
    """
    column = np.asarray(column, dtype=float)
    filled = column.copy()
    nan_mask = np.isnan(filled)
    if nan_mask.any():
        finite = filled[~nan_mask]
        lowest = (finite.min() - 1.0) if finite.size else 0.0
        filled[nan_mask] = lowest
    order = np.argsort(filled, kind="mergesort")
    ranks = np.empty(filled.shape[0], dtype=float)
    ranks[order] = np.arange(1, filled.shape[0] + 1)
    # Average ranks for ties so identical values get identical copula
    # positions; a two-pass approach over the sorted array keeps it O(n log n).
    sorted_vals = filled[order]
    boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [filled.shape[0]]))
    avg = (starts + ends + 1) / 2.0
    tie_ranks = np.repeat(avg, ends - starts)
    ranks[order] = tie_ranks
    return ranks / filled.shape[0]


def _one_hot(column, max_categories=40):
    """One-hot features for a categorical column (NaN gets its own column).

    The encoding is order-free: the dependence of any other variable on
    the category becomes linearly visible to the CCA regardless of how
    codes were assigned.  Rare categories beyond ``max_categories`` share
    an 'other' column.  One indicator column is dropped (categories sum
    to one) to avoid exact collinearity in the CCA.
    """
    column = np.asarray(column, dtype=float)
    nan_mask = np.isnan(column)
    values, inverse, counts = np.unique(
        column[~nan_mask], return_inverse=True, return_counts=True
    )
    keep = np.argsort(counts)[::-1][:max_categories]
    n_keep = keep.shape[0]
    overflow = values.shape[0] > n_keep
    width = n_keep + 1 + (1 if overflow else 0)
    # Feature column of every distinct value: its rank among the kept
    # categories, or the shared 'other' column past the NaN column.
    slot_of_value = np.full(values.shape[0], n_keep + 1, dtype=np.intp)
    slot_of_value[keep] = np.arange(n_keep)
    features = np.zeros((column.shape[0], width))
    features[nan_mask, n_keep] = 1.0
    features[np.flatnonzero(~nan_mask), slot_of_value[inverse]] = 1.0
    # drop one column to remove the sum-to-one collinearity
    return features[:, : width - 1] if width > 1 else features


def rdc_transform(column, k=DEFAULT_K, s=DEFAULT_S, rng=None, discrete=False):
    """Feature map of one column for the canonical-correlation step.

    Continuous columns use the empirical copula transform projected
    through random ``N(0, s^2)`` weights with sine and cosine
    nonlinearities (the original RDC).  Categorical columns use plain
    one-hot indicators (as in the MSPN structure learner the paper
    builds on): code order is meaningless and indicators already expose
    every category-conditional dependence linearly.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if discrete:
        return _one_hot(column)
    u = _ecdf(column)
    features = np.column_stack([u, np.ones_like(u)])
    weights = rng.normal(0.0, s, size=(features.shape[1], k))
    projections = features @ weights
    return np.column_stack([np.sin(projections), np.cos(projections)])


def _whiten(x, regularization=1e-4):
    """Centre a feature block and factor its regularised covariance.

    Returns ``(centred, sq)`` with ``sq @ sq.T`` the inverse of the
    block's ridge-regularised covariance (``None`` when it cannot be
    factored).  The ridge term is scaled to the average feature
    variance, which keeps near-collinear blocks (one-hot encodings,
    redundant sine features) from inflating the correlation towards
    one.  Everything here depends on one block alone, so
    :func:`rdc_matrix` does it once per column rather than once per
    pair.
    """
    x = x - x.mean(axis=0)
    cxx = (x.T @ x) / x.shape[0]
    ridge = regularization * max(float(np.trace(cxx)) / max(x.shape[1], 1), 1e-12)
    cxx += ridge * np.eye(x.shape[1])
    try:
        return x, np.linalg.cholesky(np.linalg.inv(cxx))
    except np.linalg.LinAlgError:
        return x, None


def _whitened_correlation(whitened_x, whitened_y):
    """Largest canonical correlation of two :func:`_whiten` results, via
    the standard generalized eigenvalue formulation."""
    x, sqx = whitened_x
    y, sqy = whitened_y
    if sqx is None or sqy is None:
        return 0.0
    cxy = (x.T @ y) / x.shape[0]
    m = sqx.T @ cxy @ sqy
    singular_values = np.linalg.svd(m, compute_uv=False)
    if singular_values.size == 0:
        return 0.0
    return float(np.clip(singular_values[0], 0.0, 1.0))


def _first_canonical_correlation(x, y):
    """Largest canonical correlation between feature blocks ``x`` and ``y``."""
    return _whitened_correlation(_whiten(x), _whiten(y))


def rdc(x, y, k=DEFAULT_K, s=DEFAULT_S, seed=0, n_samples=None,
        discrete_x=False, discrete_y=False):
    """Randomized dependence coefficient between two 1-D arrays.

    Values close to 0 indicate independence, values close to 1 strong
    (possibly non-linear) dependence.  ``n_samples`` optionally
    subsamples rows for speed; both columns are subsampled jointly.
    ``discrete_x``/``discrete_y`` switch the corresponding column to the
    order-free one-hot feature map.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("rdc requires columns of equal length")
    if x.shape[0] < 3:
        return 0.0
    rng = np.random.default_rng(seed)
    if n_samples is not None and x.shape[0] > n_samples:
        idx = rng.choice(x.shape[0], size=n_samples, replace=False)
        x, y = x[idx], y[idx]
    if _is_constant(x) or _is_constant(y):
        return 0.0
    fx = rdc_transform(x, k=k, s=s, rng=np.random.default_rng(seed + 1),
                       discrete=discrete_x)
    fy = rdc_transform(y, k=k, s=s, rng=np.random.default_rng(seed + 2),
                       discrete=discrete_y)
    return _first_canonical_correlation(fx, fy)


def _is_constant(column):
    finite = column[~np.isnan(column)]
    if finite.size == 0:
        return True
    return bool(np.all(finite == finite[0])) and not np.isnan(column).any()


def rdc_matrix(data, k=DEFAULT_K, s=DEFAULT_S, seed=0, n_samples=10_000,
               discrete_flags=None):
    """Pairwise RDC matrix over the columns of a 2-D array.

    Returns a symmetric ``(d, d)`` matrix with ones on the diagonal.
    Feature transforms -- and their centring and covariance
    factorization -- are computed once per column and reused for all
    pairs, which is the optimisation the MSPN learning algorithm relies
    on to keep structure learning cheap.  ``discrete_flags[j]`` switches
    column ``j`` to the one-hot feature map.
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    if discrete_flags is None:
        discrete_flags = [False] * d
    rng = np.random.default_rng(seed)
    if n_samples is not None and n > n_samples:
        idx = rng.choice(n, size=n_samples, replace=False)
        data = data[idx]
    transforms = []
    for j in range(d):
        column = data[:, j]
        if _is_constant(column):
            transforms.append(None)
        else:
            transforms.append(_whiten(
                rdc_transform(
                    column,
                    k=k,
                    s=s,
                    rng=np.random.default_rng(seed + 1 + j),
                    discrete=bool(discrete_flags[j]),
                )
            ))
    matrix = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            if transforms[i] is None or transforms[j] is None:
                value = 0.0
            else:
                value = _whitened_correlation(transforms[i], transforms[j])
            matrix[i, j] = matrix[j, i] = value
    return matrix
