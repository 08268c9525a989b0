import contextlib
import json
import os
import random
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from abclab import bench, scheme, wire
from abclab.cli import main
from abclab.curve import BASE

SRC = Path(wire.__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def abclab(*argv, **kwargs):
    """Popen arguments that run the abclab command in a child interpreter."""
    return dict(args=[sys.executable, "-m", "abclab.cli", *argv],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdin=subprocess.DEVNULL, text=True, **kwargs)


@pytest.fixture()
def ecc_key_file(tmp_path):
    path = tmp_path / "ecc.json"
    assert run_cli("keygen", "--scheme", "ecc160", "--out", str(path), "--seed", "1") == 0
    return path


@pytest.fixture(scope="module")
def key_files(tmp_path_factory):
    """Each scheme's key file and public-key file, by scheme name."""
    directory = tmp_path_factory.mktemp("keys")
    files = {}
    for name in scheme.SCHEME_NAMES:
        key = scheme.keygen(name, random.Random(5))
        files[name] = directory / f"{name}.json", directory / f"{name}-pub.json"
        files[name][0].write_text(json.dumps(wire.key_to_wire(name, key)))
        files[name][1].write_text(json.dumps(
            wire.public_to_wire(name, scheme.public_part(name, key))))
    return files


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

    def test_pub_file_with_a_toy_modulus_exits_1(self, tmp_path, capsys):
        cred = tmp_path / "cred.json"
        cred.write_text(json.dumps({"scheme": "modexp1024", "attributes": ["5"],
                                    "signature": format(1, "0256x")}))
        pub = tmp_path / "pub.json"
        pub.write_text(json.dumps(wire.public_to_wire("modexp1024", scheme.ModexpPublic(15, 1))))
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

    def test_key_file_of_the_other_scheme_exits_1(self, tmp_path, ecc_key_file, capsys):
        assert run_cli("issue", "--scheme", "modexp1024", "--attrs", "5",
                       "--key", str(ecc_key_file), "--out", str(tmp_path / "c.json")) == 1
        assert "key file is for ecc160" in capsys.readouterr().err

    def test_scheme_flag_that_disagrees_with_the_credential_exits_1(
            self, tmp_path, ecc_key_file, capsys):
        cred = tmp_path / "cred.json"
        run_cli("issue", "--scheme", "ecc160", "--attrs", "5",
                "--key", str(ecc_key_file), "--out", str(cred))
        assert run_cli("verify", "--scheme", "modexp1024", "--cred", str(cred),
                       "--pub", str(ecc_key_file)) == 1
        assert "scheme mismatch" in capsys.readouterr().err

    def test_public_key_of_the_other_scheme_exits_1(
            self, tmp_path, ecc_key_file, key_files, capsys):
        cred = tmp_path / "cred.json"
        run_cli("issue", "--scheme", "ecc160", "--attrs", "5",
                "--key", str(ecc_key_file), "--out", str(cred))
        assert run_cli("verify", "--cred", str(cred),
                       "--pub", str(key_files["modexp1024"][1])) == 1
        assert "public-key=modexp1024" in capsys.readouterr().err

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

    def test_json_nested_too_deep_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (("verify", "--cred", str(deep)),
                     ("report", "--records", str(deep), "--format", "csv",
                      "--out", str(tmp_path / "report.csv")),
                     ("bench", "--config", str(deep))):
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err.startswith(f"error: {deep}: ")


class TestRemote:
    def test_issue_verify_over_tcp(self, tmp_path, ecc_key_file, threaded_services):
        _, key = wire.key_from_wire(json.loads(ecc_key_file.read_text()))
        issuer, verifier = ("%s:%d" % endpoint for endpoint in
                            threaded_services({"ecc160": key}, {"ecc160": key.public}))
        cred = tmp_path / "cred.json"
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "11,22",
                       "--remote", issuer, "--out", str(cred)) == 0
        assert run_cli("verify", "--cred", str(cred), "--remote", verifier) == 0

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

    @pytest.mark.parametrize("endpoint", [
        "127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:\u0663", "127.0.0.1:+80", "127.0.0.1",
    ])
    def test_bad_endpoint_exits_1_and_opens_no_socket(
            self, tmp_path, monkeypatch, capsys, endpoint):
        def refuse(*args, **kwargs):
            raise AssertionError("no connection may be opened")

        monkeypatch.setattr(socket, "create_connection", refuse)
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--remote", endpoint, "--out", str(tmp_path / "c.json")) == 1
        monkeypatch.setenv(wire.ISSUER_ADDR_ENV, endpoint)
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--out", str(tmp_path / "c.json")) == 1
        assert capsys.readouterr().err.startswith("error: endpoint must be host:port")

    def test_issue_reply_without_credential_exits_1(self, tmp_path, fake_service, capsys):
        endpoint = fake_service(wire.Envelope("ISSUE_RESPONSE", {"issue_ms": 1.0}))
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--remote", f"{endpoint[0]}:{endpoint[1]}",
                       "--out", str(tmp_path / "c.json")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_exchange_cut_after_connect_exits_3(self, tmp_path, cutting_service, capsys):
        endpoint = cutting_service(1)
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--remote", "%s:%d" % endpoint, "--out", str(tmp_path / "c.json")) == 3
        assert capsys.readouterr().err.startswith("error: cannot reach")

    def test_dead_endpoint_exits_3(self, tmp_path):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert run_cli("issue", "--scheme", "ecc160", "--attrs", "1",
                       "--remote", f"127.0.0.1:{port}",
                       "--out", str(tmp_path / "c.json")) == 3


@contextlib.contextmanager
def service(command, *flags):
    """abclab <command> --bind 127.0.0.1:0 in a child process; yields the
    host:port it says it serves on, and stops it on the way out."""
    with subprocess.Popen(**abclab(command, "--bind", "127.0.0.1:0", *flags),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving "), line
            yield line.split()[-1]
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestServe:
    def test_issue_and_verify_against_the_service_commands(self, tmp_path, key_files):
        keys = [flag for name in scheme.SCHEME_NAMES
                for flag in ("--key", str(key_files[name][0]))]
        pubs = [flag for name in scheme.SCHEME_NAMES
                for flag in ("--pub", str(key_files[name][1]))]
        with service("serve-issuer", *keys) as issuer, \
                service("serve-verifier", *pubs) as verifier:
            assert wire.parse_endpoint(issuer)[1] != 0
            assert wire.parse_endpoint(verifier)[1] != 0
            for name in scheme.SCHEME_NAMES:
                cred = tmp_path / f"{name}.json"
                assert run_cli("issue", "--scheme", name, "--attrs", "3,4",
                               "--remote", issuer, "--out", str(cred)) == 0
                assert run_cli("verify", "--cred", str(cred), "--remote", verifier) == 0

    def test_port_that_is_held_exits_3_before_serving(self, key_files):
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            done = subprocess.run(**abclab(
                "serve-issuer", "--bind", f"127.0.0.1:{port}",
                "--key", str(key_files["ecc160"][0])), capture_output=True, timeout=60)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    @pytest.mark.parametrize("command, flag, kind", [
        ("serve-issuer", "--key", 0), ("serve-verifier", "--pub", 1)])
    def test_two_files_for_one_scheme_exit_1_and_open_no_socket(
            self, ecc_key_file, key_files, monkeypatch, capsys, command, flag, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("no socket may be opened")

        monkeypatch.setattr(socket, "create_server", refuse)
        assert run_cli(command, "--bind", "127.0.0.1:0", flag, str(key_files["ecc160"][kind]),
                       flag, str(key_files["modexp1024"][kind]), flag, str(ecc_key_file)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than one key file for ecc160\n"

    def test_port_out_of_range_exits_1(self, key_files):
        done = subprocess.run(**abclab(
            "serve-verifier", "--bind", "127.0.0.1:70000",
            "--pub", str(key_files["ecc160"][1])), capture_output=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


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

        def stop(config, errors):
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

    @pytest.mark.parametrize("doc", [
        {"mode": "over-wire", "issuer_addr": ["127.0.0.1", 1], "verifier_addr": "127.0.0.1:2"},
        {"mode": "over-wire", "issuer_addr": "127.0.0.1:1", "verifier_addr": "127.0.0.1:99999"},
        {"issuer_addr": "127.0.0.1:port"},
    ], ids=["list-form", "port-out-of-range", "in-process"])
    def test_bench_bad_file_address_exits_1(self, tmp_path, monkeypatch, capsys, doc):
        def refuse(config, errors):
            raise AssertionError("the grid may not run")

        monkeypatch.setattr(bench, "run_benchmark", refuse)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert run_cli("bench", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith("error: endpoint must be host:port")

    @pytest.mark.parametrize("text", [
        "[]", '"x"', '{"runs": 2.5}', '{"runs": true}', '{"seed": [1]}', '{"out": 2}',
        '{"attr_counts": [true]}', '{"attr_counts": [1.0]}', '{"schemes": {"ecc160": 0}}',
    ])
    def test_bench_config_that_is_no_object_or_ill_typed_exits_1(
            self, tmp_path, monkeypatch, capsys, text):
        def refuse(config, errors):
            raise AssertionError("the grid may not run")

        monkeypatch.setattr(bench, "run_benchmark", refuse)
        config = tmp_path / "config.json"
        config.write_text(text)
        assert run_cli("bench", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bench_bad_address_flag_in_process_exits_1(self, monkeypatch, capsys):
        def refuse(config, errors):
            raise AssertionError("the grid may not run")

        monkeypatch.setattr(bench, "run_benchmark", refuse)
        assert run_cli("bench", "--issuer", "garbage") == 1
        assert capsys.readouterr().err.startswith("error: endpoint must be host:port")

    def test_bench_prints_the_markdown_report(self, tmp_path, capsys):
        records, report = tmp_path / "records.json", tmp_path / "report.md"
        assert run_cli("bench", "--attr-counts", "1", "--runs", "1", "--seed", "5",
                       "--out", str(records)) == 0
        out = capsys.readouterr().out
        assert run_cli("report", "--records", str(records), "--format", "markdown",
                       "--out", str(report)) == 0
        assert report.read_text() in out
        assert "## Mean-time ratios (modexp1024 / ecc160)" in out

    def test_bench_over_wire_that_reaches_no_service_exits_3(self, tmp_path, capsys):
        probe = socket.create_server(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        assert run_cli("bench", "--mode", "over-wire", "--issuer", dead, "--verifier", dead,
                       "--runs", "1", "--schemes", "ecc160", "--attr-counts", "1") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no over-wire run succeeded")
        assert f"cannot reach {dead}" in err

    def test_bench_and_report_out_in_a_missing_directory_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run_cli("bench", "--schemes", "ecc160", "--attr-counts", "1", "--runs", "1",
                       "--out", str(missing / "records.json")) == 3
        records = tmp_path / "records.json"
        records.write_text(json.dumps({"records": [self.GOOD_RECORD]}))
        assert run_cli("report", "--records", str(records), "--format", "csv",
                       "--out", str(missing / "report.csv")) == 3
        assert capsys.readouterr().err.count("error: cannot write") == 2

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
