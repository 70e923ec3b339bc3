"""Tests for the randomized dependence coefficient."""

import numpy as np
import pytest

from repro.stats.rdc import (
    _first_canonical_correlation,
    _is_constant,
    _one_hot,
    _whiten,
    _whitened_correlation,
    rdc,
    rdc_matrix,
    rdc_transform,
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


class TestRdc:
    def test_independent_columns_score_low(self, rng):
        a = rng.normal(size=4000)
        b = rng.normal(size=4000)
        assert rdc(a, b) < 0.15

    def test_linear_dependence_scores_high(self, rng):
        a = rng.normal(size=4000)
        assert rdc(a, 3 * a + 1) > 0.9

    def test_monotone_nonlinear_dependence(self, rng):
        a = rng.uniform(0, 5, size=4000)
        assert rdc(a, np.exp(a)) > 0.9

    def test_non_monotone_dependence(self, rng):
        a = rng.normal(size=4000)
        assert rdc(a, a**2) > 0.5

    def test_categorical_mixture_dependence(self, rng):
        c = rng.choice([0.0, 1.0], size=4000)
        f = np.where(c == 1, rng.poisson(3.0, 4000), rng.poisson(0.8, 4000))
        assert rdc(c, f.astype(float)) > 0.3

    def test_constant_column_scores_zero(self, rng):
        a = rng.normal(size=500)
        assert rdc(a, np.full(500, 7.0)) == 0.0

    def test_null_indicator_dependence(self, rng):
        c = rng.choice([0.0, 1.0], size=3000)
        x = rng.normal(size=3000)
        x[c == 0] = np.nan
        assert rdc(c, x) > 0.8

    def test_deterministic_given_seed(self, rng):
        a = rng.normal(size=1000)
        b = a + rng.normal(size=1000)
        assert rdc(a, b, seed=5) == rdc(a, b, seed=5)

    def test_result_in_unit_interval(self, rng):
        for _ in range(5):
            a = rng.normal(size=300)
            b = rng.normal(size=300)
            value = rdc(a, b)
            assert 0.0 <= value <= 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            rdc(np.ones(10), np.ones(11))

    def test_tiny_input_returns_zero(self):
        assert rdc(np.array([1.0]), np.array([2.0])) == 0.0

    def test_subsampling_keeps_signal(self, rng):
        a = rng.normal(size=50_000)
        assert rdc(a, 2 * a, n_samples=2_000) > 0.9


class TestRdcMatrix:
    def test_matrix_shape_and_diagonal(self, rng):
        data = rng.normal(size=(1000, 4))
        matrix = rdc_matrix(data)
        assert matrix.shape == (4, 4)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_matrix_symmetry(self, rng):
        data = rng.normal(size=(1000, 4))
        data[:, 1] = data[:, 0] * 2
        matrix = rdc_matrix(data)
        assert np.allclose(matrix, matrix.T)

    def test_matrix_finds_dependent_pair(self, rng):
        data = rng.normal(size=(2000, 3))
        data[:, 2] = data[:, 0] ** 2
        matrix = rdc_matrix(data, seed=1)
        assert matrix[0, 2] > 0.5
        assert matrix[0, 1] < 0.2

    def test_constant_column_row_is_zero(self, rng):
        data = np.column_stack([rng.normal(size=500), np.full(500, 3.0)])
        matrix = rdc_matrix(data)
        assert matrix[0, 1] == 0.0


class TestRdcTransform:
    def test_shape(self, rng):
        out = rdc_transform(rng.normal(size=200), k=10)
        assert out.shape == (200, 20)  # sin and cos blocks

    def test_handles_nan(self, rng):
        column = rng.normal(size=200)
        column[:50] = np.nan
        out = rdc_transform(column)
        assert np.isfinite(out).all()


# ----------------------------------------------------------------------
# Frozen references: the learner's hot loops were restructured (one
# factorization per column, a vectorised one-hot) under the promise
# that learned models stay byte-identical.  These are the loops as they
# were, kept here as the oracle.
# ----------------------------------------------------------------------
def _reference_one_hot(column, max_categories=40):
    column = np.asarray(column, dtype=float)
    nan_mask = np.isnan(column)
    values, counts = np.unique(column[~nan_mask], return_counts=True)
    keep = values[np.argsort(counts)[::-1][:max_categories]]
    index = {v: i for i, v in enumerate(keep)}
    overflow = len(keep) + 1 if values.shape[0] > keep.shape[0] else None
    width = len(keep) + 1 + (1 if overflow is not None else 0)
    features = np.zeros((column.shape[0], width))
    for row, value in enumerate(column):
        if nan_mask[row]:
            features[row, len(keep)] = 1.0
        else:
            features[row, index.get(value, overflow)] = 1.0
    return features[:, : width - 1] if width > 1 else features


def _reference_canonical_correlation(x, y, regularization=1e-4):
    x = x - x.mean(axis=0)
    y = y - y.mean(axis=0)
    n = x.shape[0]
    cxx = (x.T @ x) / n
    cyy = (y.T @ y) / n
    ridge_x = regularization * max(float(np.trace(cxx)) / max(x.shape[1], 1), 1e-12)
    ridge_y = regularization * max(float(np.trace(cyy)) / max(y.shape[1], 1), 1e-12)
    cxx += ridge_x * np.eye(x.shape[1])
    cyy += ridge_y * np.eye(y.shape[1])
    cxy = (x.T @ y) / n
    try:
        sqx = np.linalg.cholesky(np.linalg.inv(cxx))
        sqy = np.linalg.cholesky(np.linalg.inv(cyy))
    except np.linalg.LinAlgError:
        return 0.0
    m = sqx.T @ cxy @ sqy
    singular_values = np.linalg.svd(m, compute_uv=False)
    if singular_values.size == 0:
        return 0.0
    return float(np.clip(singular_values[0], 0.0, 1.0))


def _mixed_columns(seed, n=1_500):
    """Continuous, dependent, categorical (few and > 40 categories),
    constant, NULL-heavy and all-NULL columns, with their flags."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=n)
    category = rng.integers(0, 5, n).astype(float)
    many = rng.integers(0, 60, n).astype(float)
    with_nulls = base * 2.0 + rng.normal(size=n)
    with_nulls[rng.random(n) < 0.3] = np.nan
    category_nulls = category.copy()
    category_nulls[rng.random(n) < 0.2] = np.nan
    data = np.column_stack([
        base, base ** 2, category, many, np.full(n, 7.0), with_nulls,
        category_nulls, np.full(n, np.nan), rng.normal(size=n) + category,
    ])
    flags = [False, False, True, True, False, False, True, False, False]
    return data, flags


class TestLearnerLoopsAreResultIdentical:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_hot_equals_the_row_loop(self, seed):
        data, flags = _mixed_columns(seed)
        for j, discrete in enumerate(flags):
            if discrete:
                assert np.array_equal(
                    _one_hot(data[:, j]), _reference_one_hot(data[:, j])
                )
        few = np.array([3.0, np.nan, 3.0, 1.0])
        assert np.array_equal(_one_hot(few), _reference_one_hot(few))
        nulls = np.full(5, np.nan)
        assert np.array_equal(_one_hot(nulls), _reference_one_hot(nulls))

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_equals_pairwise_reference(self, seed):
        data, flags = _mixed_columns(seed)
        d = data.shape[1]
        transforms = [
            None if _is_constant(data[:, j]) else rdc_transform(
                data[:, j], rng=np.random.default_rng(seed + 1 + j),
                discrete=flags[j],
            )
            for j in range(d)
        ]
        expected = np.eye(d)
        for i in range(d):
            for j in range(i + 1, d):
                if transforms[i] is not None and transforms[j] is not None:
                    value = _reference_canonical_correlation(
                        transforms[i], transforms[j]
                    )
                    assert _first_canonical_correlation(
                        transforms[i], transforms[j]
                    ) == value
                else:
                    value = 0.0
                expected[i, j] = expected[j, i] = value
        matrix = rdc_matrix(data, seed=seed, discrete_flags=flags)
        assert np.array_equal(matrix, expected)
        assert (expected[4] == np.eye(d)[4]).all()  # the constant column

    def test_unfactorable_block_scores_zero_with_every_partner(self):
        block = np.random.default_rng(0).normal(size=(50, 3))
        good = _whiten(block)
        assert good[1] is not None
        assert _whitened_correlation((good[0], None), good) == 0.0
        assert _whitened_correlation(good, (good[0], None)) == 0.0
