"""KMeans clustering with retained centers for incremental update routing.

The RSPN structure learner uses KMeans with ``k=2`` to split rows into
clusters under sum nodes (as the MSPN algorithm the paper builds on).
The paper's update algorithm (Algorithm 1) routes an inserted or deleted
tuple to the *nearest cluster center* of a sum node, so unlike typical
throwaway clustering calls we keep the fitted centers, the column-wise
standardisation used during fitting, and the imputation values for NULLs.
"""

from __future__ import annotations

import numpy as np


class KMeans:
    """Lloyd's algorithm on standardised data with NaN-mean imputation.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_init:
        Number of random restarts; the inertia-minimising run wins.
    max_iter:
        Maximum Lloyd iterations per restart.
    seed:
        Seed for center initialisation.
    """

    def __init__(self, n_clusters=2, n_init=3, max_iter=50, seed=0):
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.seed = seed
        self.centers_ = None
        self.mean_ = None
        self.scale_ = None
        self.impute_ = None

    def _standardise(self, data):
        return (data - self.mean_) / self.scale_

    def _prepare(self, data, fit):
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if fit:
            with np.errstate(all="ignore"):
                impute = np.nanmean(data, axis=0)
            impute = np.where(np.isnan(impute), 0.0, impute)
            self.impute_ = impute
        filled = np.where(np.isnan(data), self.impute_, data)
        if fit:
            self.mean_ = filled.mean(axis=0)
            scale = filled.std(axis=0)
            scale[scale == 0] = 1.0
            self.scale_ = scale
        return self._standardise(filled)

    def fit(self, data):
        """Fit cluster centers; returns ``self``."""
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
                        # Re-seed an empty cluster at the farthest point so
                        # k=2 splits do not silently collapse to one cluster.
                        distances = self._distances(points, centers).min(axis=1)
                        new_centers[c] = points[int(np.argmax(distances))]
                        moved = True
                    else:
                        candidate = members.mean(axis=0)
                        # np.allclose's test at its default tolerances,
                        # without its per-call wrapper overhead.
                        if not (
                            np.abs(candidate - centers[c])
                            <= 1e-8 + 1e-5 * np.abs(centers[c])
                        ).all():
                            moved = True
                        new_centers[c] = candidate
                centers = new_centers
                if not moved:
                    break
            labels = self._assign(points, centers)
            inertia = float(
                np.sum((points - centers[labels]) ** 2)
            )
            if inertia < best_inertia:
                best_inertia = inertia
                best_centers = centers
        self.centers_ = best_centers
        return self

    @staticmethod
    def _distances(points, centers):
        diff = points[:, None, :] - centers[None, :, :]
        np.square(diff, out=diff)
        return diff.sum(axis=2)

    def _assign(self, points, centers):
        distances = self._distances(points, centers)
        if centers.shape[0] == 2:
            # argmin of two columns: the second wins only when strictly
            # nearer (ties go to the first, as argmin breaks them).
            return (distances[:, 1] < distances[:, 0]).astype(np.intp)
        return np.argmin(distances, axis=1)

    def fit_predict(self, data):
        self.fit(data)
        return self.predict(data)

    def predict(self, data):
        """Nearest-center labels for ``data`` (NaNs imputed as at fit time)."""
        if self.centers_ is None:
            raise RuntimeError("KMeans.predict called before fit")
        points = self._prepare(data, fit=False)
        return self._assign(points, self.centers_)

    def nearest_center(self, row):
        """Index of the nearest cluster for a single tuple.

        This is the routing primitive of the paper's Algorithm 1: on
        insert/delete, a sum node asks for the nearest cluster of the
        incoming tuple and adjusts that child's weight.
        """
        return int(self.predict(np.asarray(row, dtype=float).reshape(1, -1))[0])

    def state_dict(self):
        """Plain-array state, convenient for equality tests."""
        return {
            "centers": self.centers_,
            "mean": self.mean_,
            "scale": self.scale_,
            "impute": self.impute_,
        }
