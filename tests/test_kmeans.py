"""Tests for the KMeans used by sum-node row splits and update routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.kmeans import KMeans


def two_blobs(n=300, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0, 0], 0.3, size=(n, 2))
    b = rng.normal([5, 5], 0.3, size=(n, 2))
    return np.vstack([a, b])


class TestKMeans:
    def test_separates_two_blobs(self):
        data = two_blobs()
        labels = KMeans(n_clusters=2, seed=0).fit_predict(data)
        first, second = labels[:300], labels[300:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_centers_retained_for_routing(self):
        data = two_blobs()
        model = KMeans(n_clusters=2, seed=0).fit(data)
        assert model.centers_.shape == (2, 2)
        low = model.nearest_center([0.1, -0.1])
        high = model.nearest_center([5.2, 4.9])
        assert low != high

    def test_nan_rows_are_imputed(self):
        data = two_blobs()
        data[0, 0] = np.nan
        model = KMeans(n_clusters=2, seed=0).fit(data)
        labels = model.predict(data)
        assert labels.shape[0] == data.shape[0]

    def test_nearest_center_with_nan(self):
        model = KMeans(n_clusters=2, seed=0).fit(two_blobs())
        assert model.nearest_center([np.nan, 5.0]) in (0, 1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans().predict(np.ones((3, 2)))

    def test_more_clusters_than_points(self):
        data = np.array([[0.0], [1.0]])
        model = KMeans(n_clusters=5, seed=0).fit(data)
        assert model.centers_.shape[0] == 2

    def test_single_column_data(self):
        data = np.concatenate([np.zeros(50), np.ones(50) * 9]).reshape(-1, 1)
        labels = KMeans(n_clusters=2, seed=1).fit_predict(data)
        assert set(labels[:50].tolist()) != set(labels[50:].tolist())

    def test_constant_data_does_not_crash(self):
        data = np.ones((40, 3))
        labels = KMeans(n_clusters=2, seed=0).fit_predict(data)
        assert labels.shape == (40,)

    def test_state_dict_contents(self):
        model = KMeans(n_clusters=2, seed=0).fit(two_blobs())
        state = model.state_dict()
        assert set(state) == {"centers", "mean", "scale", "impute"}

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(4, 60),
        d=st.integers(1, 4),
        k=st.integers(2, 4),
    )
    def test_labels_always_in_range(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        labels = KMeans(n_clusters=k, seed=seed).fit_predict(data)
        assert labels.min() >= 0
        assert labels.max() < k


class _ReferenceKMeans(KMeans):
    """The Lloyd loop as it was before its hot spots were tightened
    (``np.allclose`` per centre, fresh distance temporaries, ``argmin``
    labels) -- the oracle the current loop must equal bit for bit."""

    def fit(self, data):
        points = self._prepare(data, fit=True)
        n = points.shape[0]
        k = min(self.n_clusters, n)
        rng = np.random.default_rng(self.seed)
        best_inertia = np.inf
        best_centers = None
        for _ in range(max(1, self.n_init)):
            centers = points[rng.choice(n, size=k, replace=False)].copy()
            for _ in range(self.max_iter):
                labels = self._assign(points, centers)
                new_centers = centers.copy()
                moved = False
                for c in range(k):
                    members = points[labels == c]
                    if members.shape[0] == 0:
                        distances = self._distances(points, centers).min(axis=1)
                        new_centers[c] = points[int(np.argmax(distances))]
                        moved = True
                    else:
                        candidate = members.mean(axis=0)
                        if not np.allclose(candidate, centers[c]):
                            moved = True
                        new_centers[c] = candidate
                centers = new_centers
                if not moved:
                    break
            labels = self._assign(points, centers)
            inertia = float(np.sum((points - centers[labels]) ** 2))
            if inertia < best_inertia:
                best_inertia = inertia
                best_centers = centers
        self.centers_ = best_centers
        return self

    @staticmethod
    def _distances(points, centers):
        return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)

    def _assign(self, points, centers):
        return np.argmin(self._distances(points, centers), axis=1)


@pytest.mark.parametrize("seed", range(20))
def test_fit_equals_the_reference_loop(seed):
    """Centres and labels ``==`` the frozen loop: k=2 (the learner's
    case, labelled without argmin), k=3, one column, ties, NULLs."""
    rng = np.random.default_rng(seed)
    k = (2, 2, 3)[seed % 3]
    d = 1 if seed % 5 == 0 else int(rng.integers(2, 6))
    n = int(rng.integers(5, 400))
    if seed % 4 == 0:  # few distinct values: exact distance ties
        data = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        data = rng.normal(size=(n, d)) + rng.integers(0, 2, size=(n, 1)) * 3.0
    data[rng.random((n, d)) < 0.1] = np.nan
    model = KMeans(n_clusters=k, seed=seed).fit(data)
    reference = _ReferenceKMeans(n_clusters=k, seed=seed).fit(data)
    assert np.array_equal(model.centers_, reference.centers_)
    labels = model.predict(data)
    assert labels.dtype == reference.predict(data).dtype
    assert np.array_equal(labels, reference.predict(data))
    assert model.nearest_center(data[0]) == reference.nearest_center(data[0])
