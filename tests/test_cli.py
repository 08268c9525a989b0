import json
import socket
import threading

import pytest

from abclab import bench, scheme, wire
from abclab.cli import main
from abclab.curve import BASE


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def ecc_key_file(tmp_path):
    path = tmp_path / "ecc.json"
    assert run_cli("keygen", "--scheme", "ecc160", "--out", str(path), "--seed", "1") == 0
    return path


class TestKeygen:
    def test_writes_key_file(self, ecc_key_file):
        doc = json.loads(ecc_key_file.read_text())
        assert doc["scheme"] == "ecc160"
        assert len(doc["secret"]) == 64

    def test_pub_out(self, tmp_path):
        assert run_cli(
            "keygen", "--scheme", "ecc160",
            "--out", str(tmp_path / "k.json"),
            "--pub-out", str(tmp_path / "p.json"),
            "--seed", "2",
        ) == 0
        pub = json.loads((tmp_path / "p.json").read_text())
        assert pub["scheme"] == "ecc160"
        assert "secret" not in pub

    def test_deterministic_under_seed(self, tmp_path):
        for name in ("a.json", "b.json"):
            run_cli("keygen", "--scheme", "ecc160", "--out", str(tmp_path / name), "--seed", "3")
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


class TestIssueVerify:
    def test_local_round_trip(self, tmp_path, ecc_key_file, capsys):
        cred = tmp_path / "cred.json"
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "7,8,9",
                       "--key", str(ecc_key_file), "--out", str(cred)) == 0
        assert run_cli("verify", "--cred", str(cred), "--pub", str(ecc_key_file)) == 0
        assert "valid" in capsys.readouterr().out

    def test_default_attributes_are_fixtures(self, tmp_path, ecc_key_file):
        cred = tmp_path / "cred.json"
        run_cli("issue", "--scheme", "ecc160", "--attr-count", "5",
                "--key", str(ecc_key_file), "--out", str(cred))
        doc = json.loads(cred.read_text())
        assert doc["attributes"] == [str(a) for a in scheme.DEFAULT_ATTRIBUTES[:5]]

    def test_tampered_credential_exits_2(self, tmp_path, ecc_key_file, capsys):
        cred = tmp_path / "cred.json"
        run_cli("issue", "--scheme", "ecc160", "--attrs", "5",
                "--key", str(ecc_key_file), "--out", str(cred))
        doc = json.loads(cred.read_text())
        doc["attributes"][0] = "6"
        cred.write_text(json.dumps(doc))
        assert run_cli("verify", "--cred", str(cred), "--pub", str(ecc_key_file)) == 2
        assert "invalid" in capsys.readouterr().out

    def test_pub_file_holding_a_list_exits_1(self, tmp_path, ecc_key_file, capsys):
        cred = tmp_path / "cred.json"
        run_cli("issue", "--scheme", "ecc160", "--attrs", "5",
                "--key", str(ecc_key_file), "--out", str(cred))
        pub = tmp_path / "pub.json"
        pub.write_text("[]")
        assert run_cli("verify", "--cred", str(cred), "--pub", str(pub)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_cred_file_holding_a_list_exits_1(self, tmp_path, ecc_key_file, capsys):
        cred = tmp_path / "cred.json"
        cred.write_text("[]")
        assert run_cli("verify", "--cred", str(cred), "--pub", str(ecc_key_file)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_inconsistent_key_file_exits_1(self, tmp_path, ecc_key_file, capsys):
        doc = json.loads(ecc_key_file.read_text())
        doc["public"] = wire.encode_point(BASE)
        ecc_key_file.write_text(json.dumps(doc))
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "5",
                       "--key", str(ecc_key_file), "--out", str(tmp_path / "c.json")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_attrs_flag(self, tmp_path, ecc_key_file):
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1,zebra",
                       "--key", str(ecc_key_file), "--out", str(tmp_path / "c.json")) == 1

    @pytest.mark.parametrize("count", ["-1", "0", "11"])
    def test_attr_count_out_of_range_exits_1(self, tmp_path, ecc_key_file, capsys, count):
        out = tmp_path / "c.json"
        assert run_cli("issue", "--scheme", "ecc160", "--attr-count", count,
                       "--key", str(ecc_key_file), "--out", str(out)) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_key_file_exits_3(self, tmp_path):
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--key", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "c.json")) == 3


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run_cli("keygen", "--scheme", "ecc160", "--out", "x", "--bogus") == 1

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_unknown_scheme(self, tmp_path):
        assert run_cli("keygen", "--scheme", "rot13", "--out", str(tmp_path / "x")) == 1


class TestRemote:
    def test_issue_verify_over_tcp(self, tmp_path, ecc_key_file, capsys):
        _, key = wire.key_from_wire(json.loads(ecc_key_file.read_text()))
        issuer_sock = socket.create_server(("127.0.0.1", 0))
        verifier_sock = socket.create_server(("127.0.0.1", 0))
        issuer = f"127.0.0.1:{issuer_sock.getsockname()[1]}"
        verifier = f"127.0.0.1:{verifier_sock.getsockname()[1]}"
        stop = threading.Event()
        threads = [
            threading.Thread(target=wire.issuer_serve,
                             args=(issuer_sock, {"ecc160": key}),
                             kwargs={"stop_event": stop}, daemon=True),
            threading.Thread(target=wire.verifier_serve,
                             args=(verifier_sock, {"ecc160": key.public}),
                             kwargs={"stop_event": stop}, daemon=True),
        ]
        for t in threads:
            t.start()
        try:
            cred = tmp_path / "cred.json"
            assert run_cli("issue", "--scheme", "ecc160", "--attrs", "11,22",
                           "--remote", issuer, "--out", str(cred)) == 0
            assert run_cli("verify", "--cred", str(cred), "--remote", verifier) == 0
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=3)

    @pytest.mark.parametrize("doc", [{"attributes": ["1"]},
                                     {"scheme": "rot13", "attributes": ["1"]}])
    def test_remote_verify_without_scheme_exits_1(self, tmp_path, monkeypatch, capsys, doc):
        def refuse(*args, **kwargs):
            raise AssertionError("no connection may be opened")

        monkeypatch.setattr(socket, "create_connection", refuse)
        cred = tmp_path / "cred.json"
        cred.write_text(json.dumps(doc))
        assert run_cli("verify", "--cred", str(cred), "--remote", "127.0.0.1:9") == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("change", [
        {"response": "zz"},
        {"commitment": {"x": "0" * 64, "y": "0" * 64}},
        {"attributes": ["+5"]},
        {"nonce_point": None},
    ], ids=["bad-hex", "off-curve", "non-canonical-attribute", "missing-point"])
    def test_remote_verify_of_malformed_file_exits_1(
            self, tmp_path, monkeypatch, capsys, ecc_key_file, change):
        cred = tmp_path / "cred.json"
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "5", "--seed", "1",
                       "--key", str(ecc_key_file), "--out", str(cred)) == 0
        cred.write_text(json.dumps({**json.loads(cred.read_text()), **change}))

        def refuse(*args, **kwargs):
            raise AssertionError("no connection may be opened")

        monkeypatch.setattr(socket, "create_connection", refuse)
        assert run_cli("verify", "--cred", str(cred), "--remote", "127.0.0.1:9") == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_issue_reply_without_credential_exits_1(self, tmp_path, fake_service, capsys):
        endpoint = fake_service(wire.Envelope("ISSUE_RESPONSE", {"issue_ms": 1.0}))
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--remote", f"{endpoint[0]}:{endpoint[1]}",
                       "--out", str(tmp_path / "c.json")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_dead_endpoint_exits_3(self, tmp_path):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--remote", f"127.0.0.1:{port}",
                       "--out", str(tmp_path / "c.json")) == 3


class TestBenchAndReport:
    def test_bench_writes_records_and_report_renders(self, tmp_path, capsys):
        records = tmp_path / "records.json"
        assert run_cli("bench", "--schemes", "ecc160", "--attr-counts", "1",
                       "--runs", "3", "--seed", "5", "--out", str(records)) == 0
        out = capsys.readouterr().out
        assert "ecc160" in out
        doc = json.loads(records.read_text())
        assert len(doc["records"]) == 6

        report = tmp_path / "report.csv"
        assert run_cli("report", "--records", str(records),
                       "--format", "csv", "--out", str(report)) == 0
        assert report.read_text().startswith("scheme,phase,attr_count,metric")

    def test_bench_seed_reproduces_credentials(self, tmp_path):
        digests = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert run_cli("bench", "--schemes", "ecc160", "--attr-counts", "1",
                           "--runs", "2", "--seed", "9", "--out", str(path)) == 0
            doc = json.loads(path.read_text())
            digests.append([r["cred_sha256"] for r in doc["records"]])
        assert digests[0] == digests[1]

    def test_bench_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"schemes": ["ecc160"], "attr_counts": [2], "runs": 2, "seed": 1}
        ))
        records = tmp_path / "records.json"
        assert run_cli("bench", "--config", str(config), "--out", str(records)) == 0
        doc = json.loads(records.read_text())
        assert len(doc["records"]) == 4

    def test_bench_endpoints_flag_then_file_then_env_then_default(self, tmp_path, monkeypatch):
        seen = []

        def stop(config):
            seen.append((config.issuer_addr[1], config.verifier_addr[1]))
            raise bench.IoFailure("stopped before any connection")

        monkeypatch.setattr(bench, "run_benchmark", stop)
        monkeypatch.setenv(wire.ISSUER_ADDR_ENV, "127.0.0.1:7101")
        monkeypatch.setenv(wire.VERIFIER_ADDR_ENV, "127.0.0.1:7102")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"mode": "over-wire", "issuer_addr": "127.0.0.1:1", "verifier_addr": "127.0.0.1:2"}))
        assert run_cli("bench", "--config", str(config)) == 3
        assert run_cli("bench", "--config", str(config), "--verifier", "127.0.0.1:3") == 3
        config.write_text(json.dumps({"mode": "over-wire"}))
        assert run_cli("bench", "--config", str(config)) == 3
        monkeypatch.delenv(wire.ISSUER_ADDR_ENV)
        monkeypatch.delenv(wire.VERIFIER_ADDR_ENV)
        assert run_cli("bench", "--config", str(config)) == 3
        assert seen == [(1, 2), (1, 3), (7101, 7102), (7001, 7002)]

    def test_bench_without_memory_reading_exits_3(self, monkeypatch, capsys):
        def unsupported():
            raise bench.UnsupportedPlatform("no RSS reading available")

        monkeypatch.setattr(bench, "rss_mb", unsupported)
        assert run_cli("bench", "--schemes", "ecc160", "--attr-counts", "1",
                       "--runs", "1") == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_bad_flags(self):
        assert run_cli("bench", "--attr-counts", "1,banana") == 1
        assert run_cli("bench", "--runs", "0") == 1

    GOOD_RECORD = {"scheme": "ecc160", "phase": "issue", "attr_count": 1, "run_index": 0,
                   "elapsed_ms": 1.5, "rss_mb_samples": [20.0], "cred_sha256": "ab"}
    # A record with one ill-typed value each.
    ILL_TYPED = {
        "scheme-int": {**GOOD_RECORD, "scheme": 1},
        "phase-null": {**GOOD_RECORD, "phase": None},
        "cred-sha256-int": {**GOOD_RECORD, "cred_sha256": 5},
        "attr-count-str": {**GOOD_RECORD, "attr_count": "1"},
        "attr-count-float": {**GOOD_RECORD, "attr_count": 1.0},
        "run-index-bool": {**GOOD_RECORD, "run_index": True},
        "elapsed-ms-str": {**GOOD_RECORD, "elapsed_ms": "x"},
        "elapsed-ms-null": {**GOOD_RECORD, "elapsed_ms": None},
        "elapsed-ms-bool": {**GOOD_RECORD, "elapsed_ms": False},
        "rss-samples-str": {**GOOD_RECORD, "rss_mb_samples": "ab"},
        "rss-samples-empty": {**GOOD_RECORD, "rss_mb_samples": []},
        "rss-samples-str-item": {**GOOD_RECORD, "rss_mb_samples": [20.0, "x"]},
        "rss-samples-number": {**GOOD_RECORD, "rss_mb_samples": 20.0},
        "valid-str": {**GOOD_RECORD, "valid": "yes"},
        "valid-int": {**GOOD_RECORD, "valid": 0},
    }

    @pytest.mark.parametrize("text", [
        "{}",
        "[]",
        '{"records": "x"}',
        '{"records": [1]}',
        json.dumps({"records": [{"scheme": "ecc160", "phase": "issue"}]}),
        json.dumps({"records": [{**GOOD_RECORD, "heap_peak": 3}]}),
        "records",
        *(json.dumps({"records": [record]}) for record in ILL_TYPED.values()),
    ], ids=["no-records-key", "top-level-list", "records-not-a-list", "record-not-an-object",
            "record-missing-fields", "record-unknown-field", "not-json",
            *ILL_TYPED])
    def test_report_on_malformed_records_exits_1(self, tmp_path, capsys, text):
        records = tmp_path / "records.json"
        records.write_text(text)
        with pytest.raises(bench.MalformedRecords):
            bench.load_records(records)
        report = tmp_path / "report.csv"
        assert run_cli("report", "--records", str(records),
                       "--format", "csv", "--out", str(report)) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}: ")
        assert not report.exists()

    def test_report_on_a_good_record_renders(self, tmp_path):
        records = tmp_path / "records.json"
        records.write_text(json.dumps({"records": [self.GOOD_RECORD]}))
        assert bench.load_records(records) == [bench.BenchRecord(**self.GOOD_RECORD)]
        assert run_cli("report", "--records", str(records), "--format", "csv",
                       "--out", str(tmp_path / "report.csv")) == 0
