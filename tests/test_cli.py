import contextlib
import io
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from abclab import bench, scheme, wire
from abclab.cli import main
from abclab.curve import BASE, NEUTRAL, scalar_mul

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

    def test_negative_seed(self, tmp_path):
        out = tmp_path / "k.json"
        assert run_cli("keygen", "--scheme", "ecc160", "--out", str(out), "--seed", "-7") == 0
        key = scheme.keygen("ecc160", random.Random(-7))
        assert json.loads(out.read_text()) == wire.key_to_wire("ecc160", key)


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

    @pytest.mark.parametrize("name", scheme.SCHEME_NAMES)
    def test_pub_file_anyone_could_forge_under_exits_1(self, tmp_path, key_files, capsys, name):
        # Under e = 1 the representative is its own signature; under the
        # neutral point any z * B passes as the nonce point.
        attrs = (5,)
        doc = json.loads(key_files[name][1].read_text())
        if name == "modexp1024":
            rep = scheme.modexp_representative(attrs, wire.public_from_wire(doc)[1])
            doc["e"] = format(1, "0256x")
            forged = scheme.ModexpCredential(attrs, rep)
        else:
            doc["public"] = wire.encode_point(NEUTRAL)
            forged = scheme.EccCredential(attrs, scheme.ecc_commit(attrs), scalar_mul(7, BASE), 7)
        cred, pub = tmp_path / "cred.json", tmp_path / "pub.json"
        cred.write_text(json.dumps(wire.credential_to_wire(name, forged)))
        pub.write_text(json.dumps(doc))
        assert run_cli("verify", "--cred", str(cred), "--pub", str(pub)) == 1
        assert "inconsistent" in capsys.readouterr().err

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

    # int() takes each of these; the wire's decimal form takes none.
    @pytest.mark.parametrize("value", ["1_0", " 7", "+5", "007", "\u0663"])
    @pytest.mark.parametrize("flag", ["--attrs", "--attr-counts"])
    def test_int_list_flags_take_only_wire_decimals(self, tmp_path, ecc_key_file, capsys,
                                                     flag, value):
        out = tmp_path / "out.json"
        command = (["issue", "--scheme", "ecc160", "--key", str(ecc_key_file)]
                   if flag == "--attrs" else ["bench", "--runs", "1"])
        assert run_cli(*command, flag, f"1,{value}", "--out", str(out)) == 1
        assert not out.exists()
        assert "decimal integers" in capsys.readouterr().err

    # int() takes each of these; the wire's decimal form takes none, and
    # only a seed may have a leading '-'.
    @pytest.mark.parametrize("value", ["1_0", " 7", "+5", "007", "\u0663", "-07", "-"])
    @pytest.mark.parametrize("command, flag", [
        ("keygen", "--seed"), ("issue", "--seed"), ("issue", "--attr-count"),
        ("bench", "--seed"), ("bench", "--runs")])
    def test_int_flags_take_only_wire_decimals(self, tmp_path, ecc_key_file, capsys,
                                               command, flag, value):
        out = tmp_path / "out.json"
        args = {"keygen": ["--scheme", "ecc160"],
                "issue": ["--scheme", "ecc160", "--key", str(ecc_key_file)],
                "bench": ["--runs", "1"]}[command]
        assert run_cli(command, *args, flag, value, "--out", str(out)) == 1
        assert not out.exists()
        assert "decimal integer" in capsys.readouterr().err

    # Each abclab issue is a fresh process with cold tables: issue, then
    # time the issue again.
    @pytest.mark.parametrize("count", [1, 10])
    @pytest.mark.parametrize("name", scheme.SCHEME_NAMES)
    def test_timed_issue_builds_no_table(self, tmp_path, key_files, monkeypatch, comb_builds,
                                         name, count):
        scheme.commit_table.cache_clear()
        for found in scheme.SCHEMES.values():
            found.load_public.cache_clear()
        timed_builds = []
        real_time_phase = bench.time_phase

        def timed(action):
            before = len(comb_builds)
            result = real_time_phase(action)
            timed_builds.append(len(comb_builds) - before)
            return result

        monkeypatch.setattr(bench, "time_phase", timed)
        out = tmp_path / "c.json"
        assert run_cli("issue", "--scheme", name, "--attr-count", str(count), "--seed", "9",
                       "--key", str(key_files[name][0]), "--out", str(out)) == 0
        assert comb_builds and timed_builds == [0]
        # The untimed issue draws nothing from the seeded rng.
        key = wire.key_from_wire(json.loads(key_files[name][0].read_text()))[1]
        cred = scheme.issue(name, key, scheme.DEFAULT_ATTRIBUTES[:count], random.Random(9))
        assert json.loads(out.read_text()) == wire.credential_to_wire(name, cred)

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
        # A report format outside argparse's choices is refused the same way.
        assert run_cli("report", "--records", str(tmp_path / "r.json"), "--format", "xml",
                       "--out", str(tmp_path / "x")) == 1

    def test_malformed_json_file_exits_1_naming_it(self, tmp_path, capsys):
        files = {"deep.json": b"[" * 100_000 + b"]" * 100_000,
                 "not-json.json": b"records",
                 "not-utf8.json": b'{"records": "\xff"}'}
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content)
            for argv in (("verify", "--cred", str(path)),
                         ("report", "--records", str(path), "--format", "csv",
                          "--out", str(tmp_path / "report.csv")),
                         ("bench", "--config", str(path))):
                assert run_cli(*argv) == 1
                assert capsys.readouterr().err.startswith(f"error: {path}: ")


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
def service(command, *flags, stderr=subprocess.DEVNULL):
    """abclab <command> --bind 127.0.0.1:0 in a child process; yields the
    host:port it says it serves on, and stops it on the way out."""
    with subprocess.Popen(**abclab(command, "--bind", "127.0.0.1:0", *flags),
                          stdout=subprocess.PIPE, stderr=stderr) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving "), line
            yield line.split()[-1]
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def key_flags(key_files, kind):
    """--key or --pub (kind 0 or 1) with each scheme's file."""
    return [flag for name in scheme.SCHEME_NAMES
            for flag in (("--key", "--pub")[kind], str(key_files[name][kind]))]


def issue_and_verify_each_scheme(tmp_path, issuer, verifier):
    for name in scheme.SCHEME_NAMES:
        cred = tmp_path / f"{name}.json"
        assert run_cli("issue", "--scheme", name, "--attrs", "3,4",
                       "--remote", issuer, "--out", str(cred)) == 0
        assert run_cli("verify", "--cred", str(cred), "--remote", verifier) == 0


def frame(body):
    return struct.pack("!I", len(body)) + body


# Values a fuzzed envelope puts in place of a genuine field, or adds to it.
JUNK = [None, True, 0, -1, 2**64, 1.5, float("nan"), "", "x", "-1", "0" * 64, "f" * 64,
        "1" * 64, "0" * 256, [], {}, ["1"] * 11, [str(2**256)], ["9" * 5_000], {"x": "1"},
        "ecc160", "modexp1024", json.loads("[" * 900 + "]" * 900)]
LONG_INT = b"9" * 5_000  # past the interpreter's int digit limit; json.dumps cannot write it


def mutated(doc, rng):
    """doc with one field, maybe of a nested object, replaced, added or dropped."""
    doc = dict(doc)
    nested = [key for key, value in doc.items() if isinstance(value, dict)]
    if nested and rng.random() < 0.5:
        key = rng.choice(nested)
        doc[key] = mutated(doc[key], rng)
    elif doc and rng.random() < 0.2:
        del doc[rng.choice(sorted(doc))]
    else:
        doc[rng.choice([*doc, "scheme", "junk"])] = rng.choice(JUNK)
    return doc


def fuzz_request(rng, request_type, payload):
    """One seeded malformed request: its bytes, which the peer sends before
    it shuts down its sending side, whole or not."""
    whole = frame(json.dumps({"type": request_type, "payload": payload}).encode())
    kind = rng.randrange(8)
    if kind == 0:
        return rng.randbytes(rng.randrange(1, 200))
    if kind == 1:
        return whole[:rng.randrange(1, 4)]  # a truncated length prefix
    if kind == 2:
        return struct.pack("!I", rng.choice([0, wire.MAX_FRAME_BYTES + 1, 2**32 - 1]))
    if kind == 3:
        return whole[:rng.randrange(4, len(whole))]  # cut in the middle of the frame
    if kind == 4:
        return frame(b'{"type": "%s", "payload": {"scheme": %s}}' % (
            request_type.encode(), LONG_INT))
    env_type = request_type if rng.random() < 0.75 else rng.choice([*wire.ENVELOPE_TYPES, "junk"])
    return frame(json.dumps({"type": env_type, "payload": mutated(payload, rng)}).encode())


def exchange_raw(endpoint, data):
    """Send data, shut down the sending side, and read the reply to its end."""
    with socket.create_connection(endpoint, timeout=10) as conn:
        with contextlib.suppress(OSError):  # the service answered before it read all of data
            conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
        chunks = []
        with contextlib.suppress(ConnectionResetError):
            while chunk := conn.recv(65536):
                chunks.append(chunk)
    return b"".join(chunks)


class TestServe:
    def test_issue_and_verify_against_the_service_commands(self, tmp_path, key_files):
        with service("serve-issuer", *key_flags(key_files, 0)) as issuer, \
                service("serve-verifier", *key_flags(key_files, 1)) as verifier:
            assert wire.parse_endpoint(issuer)[1] != 0
            assert wire.parse_endpoint(verifier)[1] != 0
            issue_and_verify_each_scheme(tmp_path, issuer, verifier)

    def test_services_survive_a_seeded_fuzz(self, tmp_path, key_files):
        started = time.monotonic()
        rng = random.Random(0xF022)
        logs = [tmp_path / "issuer.log", tmp_path / "verifier.log"]
        with contextlib.ExitStack() as stack, \
                open(logs[0], "w") as issuer_log, open(logs[1], "w") as verifier_log, \
                service("serve-issuer", *key_flags(key_files, 0), stderr=issuer_log) as issuer, \
                service("serve-verifier", *key_flags(key_files, 1),
                        stderr=verifier_log) as verifier:
            endpoints = [wire.parse_endpoint(issuer), wire.parse_endpoint(verifier)]
            # Each stalled peer holds its sequential service for CONNECTION_TIMEOUT_S.
            stalled = [stack.enter_context(socket.create_connection(endpoint, timeout=10))
                       for endpoint in endpoints]
            for conn in stalled:
                conn.sendall(b"\x00\x00")
            genuine = [{"scheme": name, "attributes": ["3", "4"]}
                       for name in scheme.SCHEME_NAMES]
            genuine += [{"scheme": name, "credential": wire.client_issue(endpoints[0], name, [3])[0]}
                        for name in scheme.SCHEME_NAMES]
            answers = [set(), set()]
            for _ in range(300):
                which = rng.randrange(2)
                request_type = ("ISSUE_REQUEST", "VERIFY_REQUEST")[which]
                payload = rng.choice(genuine[2 * which:2 * which + 2])
                reply = exchange_raw(endpoints[which], fuzz_request(rng, request_type, payload))
                if reply:
                    stream = io.BytesIO(reply)
                    envelope = wire.frame_read(stream)
                    assert stream.read() == b""
                    answers[which].add(envelope.payload.get("code", envelope.type))
            assert [conn.recv(1) for conn in stalled] == [b"", b""]  # dropped unanswered
            issue_and_verify_each_scheme(tmp_path, issuer, verifier)
        assert "INTERNAL" not in answers[0] | answers[1]
        assert {"MALFORMED", "UNKNOWN_SCHEME", "UNSUPPORTED_TYPE", "BAD_ATTRIBUTES"} <= answers[0]
        assert {"MALFORMED", "UNKNOWN_SCHEME", "UNSUPPORTED_TYPE", "VERIFY_RESPONSE"} <= answers[1]
        for log in logs:
            assert "handler failure" not in log.read_text()
        assert time.monotonic() - started < 30

    def test_sigint_stops_the_issuer_with_exit_0(self, key_files):
        # A shell may start the suite with SIGINT ignored, which a child
        # would inherit; the child must get the default, KeyboardInterrupt.
        with subprocess.Popen(**abclab("serve-issuer", "--bind", "127.0.0.1:0",
                                       *key_flags(key_files, 0)),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)
                              ) as proc:
            try:
                endpoint = wire.parse_endpoint(proc.stdout.readline().split()[-1])
                wire.client_issue(endpoint, "ecc160", [1])  # so it is in its accept loop
                proc.send_signal(signal.SIGINT)
                out, _ = proc.communicate(timeout=10)
            finally:
                proc.kill()
        assert out == "stopped\n"
        assert proc.returncode == 0

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

    def test_report_of_issue_records_only_has_no_verification_tables(self, tmp_path):
        records, report = tmp_path / "records.json", tmp_path / "report.md"
        assert run_cli("bench", "--schemes", "ecc160", "--attr-counts", "1",
                       "--runs", "2", "--seed", "5", "--out", str(records)) == 0
        doc = json.loads(records.read_text())
        doc["records"] = [r for r in doc["records"] if r["phase"] == "issue"]
        records.write_text(json.dumps(doc))
        assert run_cli("report", "--records", str(records), "--format", "markdown",
                       "--out", str(report)) == 0
        text = report.read_text()
        assert "## Issuance time" in text and "## Issuance memory" in text
        assert "Verification" not in text

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
            raise OSError("stopped before any connection")

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
        '{"attr_counts": [1, 1]}',
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
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        for line, name in zip(errors, ("records.json", "report.csv")):
            assert line.startswith("error: ") and line.endswith(f"'{missing / name}'")

    def test_bench_out_that_cannot_be_opened_exits_3_before_the_grid(
            self, tmp_path, monkeypatch, capsys):
        def refuse(config, errors):
            raise AssertionError("the grid may not run")

        monkeypatch.setattr(bench, "run_benchmark", refuse)
        assert run_cli("bench", "--runs", "1", "--attr-counts", "1",
                       "--out", str(tmp_path / "missing" / "r.json")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_bench_out_replaces_an_existing_file(self, tmp_path):
        records = tmp_path / "records.json"
        records.write_text("x" * 100_000)
        assert run_cli("bench", "--schemes", "ecc160", "--attr-counts", "1", "--runs", "1",
                       "--out", str(records)) == 0
        assert len(json.loads(records.read_text())["records"]) == 2

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
    # A record with one ill-typed or out-of-range value each.
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
        "elapsed-ms-nan": {**GOOD_RECORD, "elapsed_ms": float("nan")},
        "elapsed-ms-past-float": {**GOOD_RECORD, "elapsed_ms": 10**400},
        "rss-samples-infinity": {**GOOD_RECORD, "rss_mb_samples": [20.0, float("inf")]},
        "phase-unknown": {**GOOD_RECORD, "phase": "foo"},
        "phase-list": {**GOOD_RECORD, "phase": ["issue"]},
        "valid-str": {**GOOD_RECORD, "valid": "yes"},
        "valid-int": {**GOOD_RECORD, "valid": 0},
        "scheme-unknown": {**GOOD_RECORD, "scheme": "rot13"},
        "attr-count-negative": {**GOOD_RECORD, "attr_count": -4},
        "attr-count-zero": {**GOOD_RECORD, "attr_count": 0},
        "attr-count-past-max": {**GOOD_RECORD, "attr_count": 11},
        "run-index-negative": {**GOOD_RECORD, "run_index": -1},
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
