"""Tests for RSPN tree rendering (repro.core.describe)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.describe import ensemble_summary, render_tree
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.rspn import RSPN, RspnConfig


def _correlated_rspn(rows=2_000, seed=0):
    rng = np.random.default_rng(seed)
    group = rng.choice([0.0, 1.0], rows, p=[0.3, 0.7])
    age = np.where(group == 0.0, rng.normal(60, 5, rows), rng.normal(25, 5, rows))
    noise = rng.normal(0, 1, rows)
    return RSPN.learn(
        np.column_stack([group, age, noise]),
        ["t.group", "t.age", "t.noise"],
        [True, False, False],
        tables={"t"},
        config=RspnConfig(seed=seed),
    )


@pytest.fixture(scope="module")
def rspn():
    return _correlated_rspn()


class TestRenderTree:
    def test_header_and_all_columns_appear(self, rspn):
        text = render_tree(rspn)
        assert text.startswith("RSPN(t) rows=2,000 cols=3")
        for column in rspn.column_names:
            assert column in text

    def test_sum_node_shows_weights(self, rspn):
        text = render_tree(rspn)
        assert "+ sum of" in text
        assert "weights" in text

    def test_product_node_shows_groups(self, rspn):
        text = render_tree(rspn)
        assert "x independent groups:" in text

    def test_leaf_summaries(self, rspn):
        text = render_tree(rspn)
        assert "exact," in text
        assert "mode" in text

    def test_max_depth_truncates(self, rspn):
        full = render_tree(rspn)
        truncated = render_tree(rspn, max_depth=1)
        assert len(truncated.splitlines()) < len(full.splitlines())
        assert "..." in truncated

    def test_decodes_categorical_modes(self, customer_orders_db):
        ensemble = learn_ensemble(
            customer_orders_db,
            EnsembleConfig(sample_size=3_000, correlation_sample=500),
        )
        text = ensemble_summary(
            ensemble, database=customer_orders_db, max_depth=8
        )
        assert "RSPN(" in text
        assert "'EU'" in text or "'ASIA'" in text \
            or "'ONLINE'" in text or "'STORE'" in text

    def test_null_share_reported(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 1_000)
        values[rng.random(1_000) < 0.5] = np.nan
        other = rng.integers(0, 3, 1_000).astype(float)
        rspn = RSPN.learn(
            np.column_stack([other, values]),
            ["t.a", "t.b"],
            [True, False],
            tables={"t"},
        )
        text = render_tree(rspn)
        assert "% NULL" in text


class TestCliTree:
    def test_inspect_tree_flag(self, tmp_path):
        from repro.cli import main

        class _Capture:
            def __init__(self):
                self.chunks = []

            def write(self, text):
                self.chunks.append(text)

            @property
            def text(self):
                return "".join(self.chunks)

        model = tmp_path / "model.rspn"
        out = _Capture()
        assert main(
            [
                "train", "--dataset", "flights", "--scale", "0.01",
                "--seed", "2", "--out", str(model), "--sample-size", "3000",
            ],
            out=out,
        ) == 0
        out = _Capture()
        assert main(
            ["inspect", "--model", str(model), "--tree", "--tree-depth", "2"],
            out=out,
        ) == 0
        assert "└─" in out.text
        assert "RSPN(" in out.text
