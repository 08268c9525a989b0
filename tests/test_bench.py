import json
import logging
import socket
import sys
import time
from dataclasses import asdict

import pytest

from abclab import bench, scheme, wire
from abclab.bench import (
    BenchConfig,
    BenchRecord,
    EmptyCell,
    StatsSummary,
    emit_report,
    load_records,
    mean_ratio_rows,
    memory_phase,
    rss_mb,
    run_benchmark,
    save_records,
    summarize,
    time_phase,
)


class TestTimePhase:
    def test_noop_is_small_positive(self):
        _, elapsed = time_phase(lambda: None)
        assert 0 <= elapsed < 50

    def test_deliberate_delay(self):
        _, elapsed = time_phase(lambda: time.sleep(0.05))
        assert 45 <= elapsed <= 200

    def test_result_passed_through(self):
        result, _ = time_phase(lambda: "out")
        assert result == "out"

    def test_errors_propagate(self):
        with pytest.raises(RuntimeError):
            time_phase(lambda: (_ for _ in ()).throw(RuntimeError("boom")))


class TestMemorySampling:
    def test_rss_positive_and_rounded(self):
        value = rss_mb()
        assert value > 0
        assert value == round(value, 2)

    @staticmethod
    def _hide_statm(monkeypatch):
        def unreadable(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(bench, "open", unreadable, raising=False)

    def test_rss_falls_back_to_getrusage_peak(self, monkeypatch):
        self._hide_statm(monkeypatch)
        value = rss_mb()
        assert value > 0
        assert value == round(value, 2)

    def test_rss_without_statm_or_resource_is_unsupported(self, monkeypatch):
        self._hide_statm(monkeypatch)
        monkeypatch.setitem(sys.modules, "resource", None)
        with pytest.raises(bench.UnsupportedPlatform):
            rss_mb()

    def test_sampler_window_falls_back_to_direct_sample(self):
        # A phase too short for any observer still holds readings of its own.
        _, values = memory_phase(lambda: None)
        assert len(values) >= 2 and all(v > 0 for v in values)

    def test_sampler_collects(self):
        result, values = memory_phase(lambda: time.sleep(0.05) or "out")
        assert result == "out"
        assert len(values) >= 2
        assert all(v > 0 for v in values)

    def test_phase_keeps_the_peak_it_raised(self, monkeypatch):
        peaks = iter([10.0, 1e6, 1e6, 1e6])
        monkeypatch.setattr(bench, "peak_rss_mb", lambda: next(peaks))
        _, raised = memory_phase(lambda: None)
        _, held = memory_phase(lambda: None)
        assert len(raised) == 3 and raised[-1] == 1e6
        assert len(held) == 2


class TestBenchConfig:
    def test_defaults_are_the_full_grid(self):
        config = BenchConfig()
        assert config.schemes == ("ecc160", "modexp1024")
        assert config.attr_counts == (1, 5, 10)
        assert config.runs == 100

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BenchConfig(runs=0)
        with pytest.raises(ValueError):
            BenchConfig(attr_counts=(0,))
        with pytest.raises(ValueError):
            BenchConfig(attr_counts=(11,))
        with pytest.raises(ValueError):
            BenchConfig(schemes=("rot13",))
        with pytest.raises(ValueError):
            BenchConfig(mode="telepathy")
        with pytest.raises(ValueError):
            BenchConfig(mode="over-wire")  # no endpoints

    def test_lists_become_tuples(self):
        # As a JSON config file gives them.
        config = BenchConfig(**{"schemes": ["ecc160"], "attr_counts": [2], "runs": 5, "seed": 9})
        assert config.schemes == ("ecc160",)
        assert config.attr_counts == (2,)
        assert config.seed == 9


class TestRunBenchmark:
    def test_small_ecc_grid_cardinality(self):
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1,), runs=3, seed=1)
        records = run_benchmark(config)
        assert len(records) == 6  # 3 issue + 3 verify
        assert [r.phase for r in records] == ["issue", "verify"] * 3
        assert all(r.elapsed_ms >= 0 for r in records)
        assert all(r.rss_mb_samples and min(r.rss_mb_samples) > 0 for r in records)

    def test_verify_records_all_valid(self):
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1, 2), runs=2, seed=2)
        records = run_benchmark(config)
        assert all(r.valid for r in records if r.phase == "verify")
        assert all(r.valid is None for r in records if r.phase == "issue")

    def test_seed_reproduces_credentials(self):
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1,), runs=2, seed=42)
        first = [r.cred_sha256 for r in run_benchmark(config)]
        second = [r.cred_sha256 for r in run_benchmark(config)]
        assert first == second

    def test_both_schemes_once(self):
        config = BenchConfig(attr_counts=(1,), runs=1, seed=3)
        records = run_benchmark(config)
        assert len(records) == 4
        assert {r.scheme for r in records} == {"ecc160", "modexp1024"}

    def test_schemes_take_turns(self):
        # Ratio rows compare runs made in the same stretch of time.
        config = BenchConfig(attr_counts=(1,), runs=2, seed=3)
        records = run_benchmark(config)
        assert [(r.scheme, r.run_index) for r in records[::2]] == [
            ("ecc160", 0), ("modexp1024", 0), ("ecc160", 1), ("modexp1024", 1)]

    def test_over_wire_mode(self, threaded_services):
        key = scheme.ecc_keygen()
        issuer_ep, verifier_ep = threaded_services({"ecc160": key}, {"ecc160": key.public})
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1,), runs=2,
                             mode="over-wire", issuer_addr=issuer_ep,
                             verifier_addr=verifier_ep)
        records = run_benchmark(config)
        assert len(records) == 4
        assert all(r.valid for r in records if r.phase == "verify")

    def test_over_wire_aborts_cell_on_dead_service(self):
        probe = socket.create_server(("127.0.0.1", 0))
        dead = ("127.0.0.1", probe.getsockname()[1])
        probe.close()
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1,), runs=10,
                             mode="over-wire", issuer_addr=dead, verifier_addr=dead)
        records = run_benchmark(config)
        assert records == []  # cell abandoned, grid loop completed

    def test_over_wire_drops_cell_when_the_exchange_is_cut(self, cutting_service, caplog):
        # Each connection opens and is then reset, with the request unread.
        endpoint = cutting_service(3)
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1,), runs=10,
                             mode="over-wire", issuer_addr=endpoint, verifier_addr=endpoint)
        errors = []
        with caplog.at_level(logging.WARNING, logger="abclab.bench"):
            assert run_benchmark(config, errors) == []
        assert len(errors) == 3 and all(isinstance(e, wire.ConnectionFailed) for e in errors)
        assert [f"{n} of 3 in a row" in r.getMessage() for n, r in
                zip((1, 2, 3), caplog.records, strict=True)] == [True] * 3


def make_records(scheme_name, phase, values, memory=None):
    memory = memory or [[4.0]] * len(values)
    return [
        BenchRecord(scheme_name, phase, 1, i, v, list(mem), "00")
        for i, (v, mem) in enumerate(zip(values, memory))
    ]


class TestSummarize:
    def test_hand_computed_cell(self):
        summaries = summarize(make_records("ecc160", "issue", [1.0, 2.0, 3.0]))
        time_summary = next(s for s in summaries if s.metric == "time_ms")
        assert time_summary.min == 1.0
        assert time_summary.max == 3.0
        assert time_summary.mean == 2.0
        assert time_summary.pct_ge_mean == pytest.approx(66.6667, abs=0.01)

    def test_constant_values(self):
        summaries = summarize(make_records("ecc160", "issue", [5.0, 5.0]))
        time_summary = next(s for s in summaries if s.metric == "time_ms")
        assert time_summary.min == time_summary.max == time_summary.mean == 5.0
        assert time_summary.pct_ge_mean == 100.0

    def test_memory_uses_per_run_max(self):
        records = make_records("ecc160", "issue", [1.0, 1.0],
                               memory=[[3.0, 4.5], [2.0]])
        mem = next(s for s in summarize(records) if s.metric == "memory_mb")
        assert mem.min == 2.0 and mem.max == 4.5 and mem.mean == 3.25

    def test_invariants_on_real_records(self):
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1,), runs=5, seed=5)
        for s in summarize(run_benchmark(config)):
            assert s.min <= s.mean <= s.max
            assert 0 < s.pct_ge_mean <= 100

    def test_empty_rejected(self):
        with pytest.raises(EmptyCell):
            summarize([])

    def test_pure_function(self):
        records = make_records("ecc160", "verify", [1.0, 4.0])
        assert summarize(records) == summarize(records)


def synthetic_summaries():
    rows = []
    for scheme_name, base in (("ecc160", 2.0), ("modexp1024", 9.0)):
        for phase in ("issue", "verify"):
            rows.append(StatsSummary(scheme_name, phase, 1, "time_ms",
                                     base, base * 2, base * 1.5, 40.0))
            rows.append(StatsSummary(scheme_name, phase, 1, "memory_mb",
                                     4.0, 5.0, 4.5, 50.0))
    return rows


class TestReports:
    def test_ratio_rows(self):
        rows = mean_ratio_rows(synthetic_summaries())
        assert len(rows) == 2  # one per phase at one attr count
        for row in rows:
            assert row["ratio"] == pytest.approx(4.5)

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(synthetic_summaries(), "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scheme,phase,attr_count,metric,min,max,mean,pct_ge_mean"
        assert len(lines) == 1 + 8 + 2  # header, data rows, ratio rows
        assert sum("modexp1024/ecc160" in line for line in lines) == 2

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        summaries = synthetic_summaries()
        emit_report(summaries, "json", path)
        doc = json.loads(path.read_text())
        assert doc["summaries"] == [asdict(s) for s in summaries]
        assert len(doc["ratios"]) == 2

    def test_markdown_tables(self, tmp_path):
        path = tmp_path / "report.md"
        emit_report(synthetic_summaries(), "markdown", path)
        text = path.read_text()
        assert "## Issuance time (ms)" in text
        assert "## Verification time (ms)" in text
        assert "## Mean-time ratios (modexp1024 / ecc160)" in text
        assert "| ecc160 | 1 |" in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(synthetic_summaries(), "xml", tmp_path / "x")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyCell):
            emit_report([], "csv", tmp_path / "x.csv")

    def test_records_save_load_round_trip(self, tmp_path):
        config = BenchConfig(schemes=("ecc160",), attr_counts=(1,), runs=2, seed=6)
        records = run_benchmark(config)
        path = tmp_path / "records.json"
        save_records(path, config, records)
        assert load_records(path) == records
