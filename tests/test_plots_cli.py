"""Tests for terminal charts and the command-line interface."""

from __future__ import annotations

import math
import sys

import pytest

from repro.cli import main
from repro.evaluation.plots import bar_chart, series_chart


class TestBarChart:
    def test_contains_labels_series_and_values(self):
        chart = bar_chart(
            "Errors", ["Q1", "Q2"],
            {"A": [1.0, 2.0], "B": [3.0, 4.0]},
        )
        for token in ("== Errors ==", "Q1", "Q2", "A", "B", "4"):
            assert token in chart

    def test_bar_lengths_monotone(self):
        chart = bar_chart("t", ["x", "y"], {"s": [10.0, 40.0]})
        lines = [l for l in chart.splitlines() if "|" in l]
        short = lines[0].split("|")[1].count("#")
        long = lines[1].split("|")[1].count("#")
        assert 0 < short < long

    def test_log_scale_compresses(self):
        linear = bar_chart("t", ["a", "b"], {"s": [10.0, 1000.0]}, width=40)
        logarithmic = bar_chart(
            "t", ["a", "b"], {"s": [10.0, 1000.0]}, width=40, log=True
        )

        def lengths(chart):
            rows = [l for l in chart.splitlines() if "|" in l]
            return [row.split("|")[1].count("#") for row in rows]

        linear_ratio = lengths(linear)[1] / max(lengths(linear)[0], 1)
        log_ratio = lengths(logarithmic)[1] / max(lengths(logarithmic)[0], 1)
        assert log_ratio < linear_ratio
        assert "(log scale)" in logarithmic

    def test_none_renders_no_result(self):
        chart = bar_chart("t", ["a"], {"s": [None]})
        assert "(no result)" in chart
        chart = bar_chart("t", ["a"], {"s": [math.nan]})
        assert "(no result)" in chart

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            bar_chart("t", ["a", "b"], {"s": [1.0]})


class TestSeriesChart:
    def test_axes_and_legend(self):
        chart = series_chart(
            "Sweep", [0, 1, 2, 3],
            {"q-error": [2.0, 1.9, 1.85, 1.85], "time": [1.0, 2.0, 4.0, 8.0]},
        )
        assert "== Sweep ==" in chart
        assert "legend:" in chart
        assert "q-error" in chart and "time" in chart

    def test_markers_present(self):
        chart = series_chart("t", [0, 1], {"a": [0.0, 1.0]})
        assert "#" in chart

    def test_empty_series_handled(self):
        chart = series_chart("t", [0, 1], {"a": [None, float("nan")]})
        assert "(no data)" in chart

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            series_chart("t", [0, 1, 2], {"a": [1.0]})


class _Capture:
    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.append(text)

    @property
    def text(self):
        return "".join(self.lines)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.rspn"
    out = _Capture()
    code = main(
        [
            "train", "--dataset", "imdb", "--scale", "0.02", "--seed", "1",
            "--out", str(path), "--sample-size", "5000",
        ],
        out=out,
    )
    assert code == 0
    return path


class TestCli:
    def test_import_pulls_in_no_query_driven_corrector(self):
        # DeepDB learns from the data alone (paper, Section 1).
        assert "repro.feedback" not in sys.modules

    def test_train_saves_model(self, trained_model):
        assert trained_model.exists()

    def test_estimate_with_truth(self, trained_model):
        out = _Capture()
        code = main(
            [
                "estimate", "--dataset", "imdb", "--scale", "0.02",
                "--seed", "1", "--model", str(trained_model),
                "--sql",
                "SELECT COUNT(*) FROM title WHERE title.production_year > 2005",
                "--truth",
            ],
            out=out,
        )
        assert code == 0
        assert "estimated cardinality" in out.text
        assert "q-error" in out.text

    def test_query_with_confidence(self, trained_model):
        out = _Capture()
        code = main(
            [
                "query", "--dataset", "imdb", "--scale", "0.02", "--seed", "1",
                "--model", str(trained_model),
                "--sql", "SELECT AVG(title.production_year) FROM title",
            ],
            out=out,
        )
        assert code == 0
        assert "CI [" in out.text

    def test_plan_prints_join_order(self, trained_model):
        out = _Capture()
        code = main(
            [
                "plan", "--dataset", "imdb", "--scale", "0.02", "--seed", "1",
                "--model", str(trained_model),
                "--sql",
                "SELECT COUNT(*) FROM title t, cast_info ci, movie_companies mc "
                "WHERE t.id = ci.movie_id AND t.id = mc.movie_id "
                "AND t.production_year > 2005",
            ],
            out=out,
        )
        assert code == 0
        assert "⨝" in out.text
        assert "C_out" in out.text

    def test_inspect_summarises(self, trained_model):
        out = _Capture()
        code = main(["inspect", "--model", str(trained_model)], out=out)
        assert code == 0
        assert "RSPNs" in out.text
        assert "leaf nodes" in out.text

    def test_missing_model_is_error(self):
        out = _Capture()
        code = main(
            [
                "estimate", "--dataset", "imdb", "--scale", "0.02",
                "--seed", "1", "--model", "/nonexistent.json",
                "--sql", "SELECT COUNT(*) FROM title",
            ],
            out=out,
        )
        assert code == 2

    def test_bad_sql_is_error(self, trained_model):
        out = _Capture()
        code = main(
            [
                "estimate", "--dataset", "imdb", "--scale", "0.02",
                "--seed", "1", "--model", str(trained_model),
                "--sql", "SELECT COUNT(*) FROM not_a_table",
            ],
            out=out,
        )
        assert code == 1


class TestIngestCli:
    """``repro ingest``: the op list in ``--batch-size`` chunks, one
    staged commit (one generation bump per touched RSPN) per chunk."""

    DATASET = ["--dataset", "imdb", "--scale", "0.02", "--seed", "1"]

    def _ingest(self, model, *extra):
        out = _Capture()
        code = main(["ingest", *self.DATASET, "--model", str(model), *extra],
                    out=out)
        return code, out.text

    @staticmethod
    def _generation_bumps(text):
        line = next(l for l in text.splitlines() if l.startswith("generation:"))
        before, after = line.split(":", 1)[1].split("(")[0].split("->")
        return int(after) - int(before)

    def test_synthetic_ops_apply_in_batches(self, trained_model):
        from repro.datasets import imdb
        from repro.deepdb import DeepDB

        deepdb = DeepDB.load(trained_model, imdb.generate(scale=0.02, seed=1))
        try:
            touched = len(deepdb.ensemble.touching("title"))
        finally:
            deepdb.close()
        assert touched > 1
        code, text = self._ingest(
            trained_model, "--synthetic", "200", "--table", "title",
            "--batch-size", "64",
        )
        assert code == 0
        assert "ingested 200 update(s) (0 rejected)" in text
        assert "batches: 4 of up to 64 op(s)" in text
        assert self._generation_bumps(text) == 4 * touched

    def test_bad_op_is_rejected_alone(self, trained_model, tmp_path):
        ops = tmp_path / "ops.jsonl"
        ops.write_text(
            '{"op": "insert", "table": "title", "row": {"production_year": 2001}}\n'
            '{"op": "insert", "table": "title", "row": {"no_such_column": 1}}\n'
            '{"op": "delete", "table": "title", "row": {"production_year": 2001}}\n'
        )
        code, text = self._ingest(trained_model, "--ops", str(ops))
        assert code == 1
        assert "ingested 2 update(s) (1 rejected)" in text

    def test_batch_size_below_one_exits_2_at_once(
        self, trained_model, monkeypatch
    ):
        import repro.cli

        def no_database(_args):
            raise AssertionError("built a database for a bad --batch-size")

        monkeypatch.setattr(repro.cli, "_build_database", no_database)
        code, text = self._ingest(
            trained_model, "--synthetic", "200", "--batch-size", "0"
        )
        assert code == 2
        assert "ingested" not in text


class TestServeCli:
    """``repro serve`` as a process: one model, named by its dataset."""

    DATASET = ["--dataset", "imdb", "--scale", "0.02", "--seed", "1"]
    SQLS = [
        "SELECT COUNT(*) FROM title WHERE title.production_year > 2005",
        "SELECT COUNT(*) FROM title t, movie_keyword mk "
        "WHERE t.id = mk.movie_id AND t.kind_id = 1",
    ]

    @staticmethod
    def _request(address, method, path, body=None):
        import http.client
        import json

        connection = http.client.HTTPConnection(*address, timeout=60)
        try:
            connection.request(
                method, path,
                body=None if body is None else json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    @staticmethod
    def _address(process, log, timeout_s=120.0):
        """``(host, port)`` from the server's ``at http://`` line."""
        import time

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in log.read_text(errors="replace").splitlines():
                if " at http://" in line:
                    host, port = line.rsplit("http://", 1)[1].split(":")
                    return host, int(port)
            assert process.poll() is None, log.read_text(errors="replace")
            time.sleep(0.02)
        raise AssertionError("serve printed no address in time")

    def test_serve_answers_like_load_and_exits_0_on_sigint(
        self, trained_model, tmp_path
    ):
        import os
        import signal
        import subprocess
        from pathlib import Path

        import repro
        from repro.datasets import imdb
        from repro.deepdb import DeepDB

        deepdb = DeepDB.load(trained_model, imdb.generate(scale=0.02, seed=1))
        try:
            expected = [float(v) for v in deepdb.cardinality_batch(self.SQLS)]
        finally:
            deepdb.close()

        log = tmp_path / "serve.log"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with open(log, "wb") as sink:
            # The server runs under this interpreter's -W options, so a
            # run with ResourceWarnings fatal reports its leaks too.
            process = subprocess.Popen(
                [sys.executable, *(f"-W{o}" for o in sys.warnoptions),
                 "-u", "-m", "repro.cli", "serve",
                 *self.DATASET, "--model", str(trained_model), "--port", "0"],
                stdout=sink, stderr=subprocess.STDOUT, env=env,
            )
        try:
            address = self._address(process, log)
            for sql, value, database in zip(self.SQLS, expected,
                                            (None, "imdb")):
                body = {"sql": sql}
                if database is not None:
                    body["database"] = database
                status, payload = self._request(address, "POST", "/query", body)
                assert status == 200, payload
                assert payload["value"] == value
            status, payload = self._request(
                address, "POST", "/query",
                {"sql": self.SQLS[0], "database": "flights"},
            )
            assert status == 400
            assert "serves 'imdb'" in payload["error"]
            status, _ = self._request(address, "GET", "/models")
            assert status == 404
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        output = log.read_text()
        assert "shutting down" in output
        assert "ResourceWarning" not in output
