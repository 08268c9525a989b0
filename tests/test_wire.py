import dataclasses
import io
import json
import logging
import math
import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, strategies as st

from abclab import scheme, wire
from abclab.curve import (
    BASE, BASE_X, BASE_Y, NEUTRAL, ExtendedPoint, point_add, point_equal, scalar_mul,
)
from abclab.field import P, Q, mod_inv
from abclab.wire import (
    ConnectionFailed,
    Envelope,
    FrameTooLarge,
    MalformedCredential,
    MalformedEnvelope,
    MalformedJson,
    RemoteError,
    UnexpectedEof,
    WireError,
    client_issue,
    client_verify,
    credential_from_wire,
    credential_to_wire,
    decode_point,
    encode_point,
    frame_read,
    frame_write,
    key_from_wire,
    key_to_wire,
    parse_endpoint,
    public_from_wire,
    public_to_wire,
)


def round_trip(env):
    buf = io.BytesIO()
    frame_write(buf, env)
    buf.seek(0)
    return frame_read(buf)


class TestFraming:
    def test_round_trip_all_types(self):
        for env_type in wire.ENVELOPE_TYPES:
            env = Envelope(env_type, {"k": [1, "two", None]})
            got = round_trip(env)
            assert got.type == env.type
            assert got.payload == env.payload

    def test_zero_length_rejected(self):
        buf = io.BytesIO(struct.pack("!I", 0) + b"{}")
        with pytest.raises(FrameTooLarge):
            frame_read(buf)

    def test_oversize_declared_length_rejected_before_read(self):
        # 2 MiB declared, no body present at all.
        buf = io.BytesIO(struct.pack("!I", 2 * 1024 * 1024))
        with pytest.raises(FrameTooLarge):
            frame_read(buf)

    def test_truncated_header(self):
        with pytest.raises(UnexpectedEof):
            frame_read(io.BytesIO(b"\x00\x00"))

    def test_truncated_body(self):
        buf = io.BytesIO(struct.pack("!I", 10) + b"{}")
        with pytest.raises(UnexpectedEof):
            frame_read(buf)

    def test_bad_json(self):
        for body in (b"{nope", b"\xff\xfe\x00garbage!", b"[" * 100_000, b"9" * 5_000):
            buf = io.BytesIO(struct.pack("!I", len(body)) + body)
            with pytest.raises(MalformedJson):
                frame_read(buf)

    def test_bad_envelope_shape(self):
        for doc in ([1, 2], {"type": "NOPE", "payload": {}}, {"type": "ERROR"}, {"type": "ERROR", "payload": 3}):
            body = json.dumps(doc).encode()
            buf = io.BytesIO(struct.pack("!I", len(body)) + body)
            with pytest.raises(MalformedEnvelope):
                frame_read(buf)

    def test_write_rejects_oversize_envelope(self):
        env = Envelope("ERROR", {"blob": "x" * (wire.MAX_FRAME_BYTES + 10)})
        with pytest.raises(FrameTooLarge):
            frame_write(io.BytesIO(), env)

    def test_fuzz_random_bytes_yield_typed_errors(self):
        rng = random.Random(0xF022)
        for _ in range(2000):
            blob = rng.randbytes(rng.randrange(0, 64))
            try:
                frame_read(io.BytesIO(blob))
            except WireError:
                pass


class TestPointCodec:
    def test_neutral(self):
        doc = encode_point(NEUTRAL)
        assert doc["x"] == "0" * 64
        assert doc["y"] == "0" * 63 + "1"

    def test_base_point_hex(self):
        doc = encode_point(BASE)
        assert doc["x"] == format(BASE_X, "064x")
        assert doc["y"] == format(BASE_Y, "064x")

    def test_round_trip_random_points(self):
        rng = random.Random(21)
        for _ in range(10):
            pt = scalar_mul(rng.randrange(1, Q), BASE)
            assert point_equal(decode_point(encode_point(pt)), pt)

    def test_rejects_bad_width(self):
        with pytest.raises(MalformedCredential):
            decode_point({"x": "00", "y": "0" * 64})

    def test_rejects_uppercase(self):
        doc = encode_point(BASE)
        with pytest.raises(MalformedCredential):
            decode_point({"x": doc["x"].upper(), "y": doc["y"]})

    def test_rejects_off_curve(self):
        with pytest.raises(MalformedCredential):
            decode_point({"x": format(1, "064x"), "y": format(1, "064x")})

    def test_rejects_non_canonical_coordinate(self):
        from abclab.field import P

        with pytest.raises(MalformedCredential):
            decode_point({"x": format(P, "064x"), "y": format(1, "064x")})


@pytest.fixture(scope="module")
def ecc_key():
    return scheme.ecc_keygen(random.Random(31))


@pytest.fixture(scope="module")
def rsa_key():
    return scheme.rsa_keygen(random.Random(32))


class TestCredentialCodec:
    def test_ecc_round_trip(self, ecc_key):
        cred = scheme.ecc_issue(ecc_key, scheme.DEFAULT_ATTRIBUTES[:3], random.Random(1))
        doc = credential_to_wire("ecc160", cred)
        assert doc["scheme"] == "ecc160"
        assert doc["attributes"] == [str(a) for a in cred.attributes]
        name, back = credential_from_wire(doc)
        assert name == "ecc160"
        # Decoding re-lifts points with Z=1, so compare projectively.
        assert back.attributes == cred.attributes
        assert back.response == cred.response
        assert point_equal(back.commitment, cred.commitment)
        assert point_equal(back.nonce_point, cred.nonce_point)
        assert scheme.ecc_verify(ecc_key.public, back)

    def test_modexp_round_trip(self, rsa_key):
        cred = scheme.rsa_issue(rsa_key, scheme.DEFAULT_ATTRIBUTES[:2])
        doc = credential_to_wire("modexp1024", cred)
        assert len(doc["signature"]) == 256
        name, back = credential_from_wire(doc)
        assert name == "modexp1024"
        assert back == cred

    def test_json_serializable(self, ecc_key):
        cred = scheme.ecc_issue(ecc_key, [7], random.Random(2))
        json.dumps(credential_to_wire("ecc160", cred))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(MalformedCredential):
            credential_from_wire({"scheme": "nope", "attributes": ["1"]})

    def test_bad_attribute_strings_rejected(self):
        with pytest.raises(MalformedCredential):
            credential_from_wire({"scheme": "modexp1024", "attributes": ["1x"], "signature": "0" * 256})

    @pytest.mark.parametrize("text", [
        "+5", " 5", "5 ", "5\n", "1_000", "05", "00", "-0", "-1", "", "\u0663", "1" * 5000,
        5, None,
    ])
    def test_non_canonical_attribute_rejected(self, text):
        with pytest.raises(MalformedCredential):
            credential_from_wire(
                {"scheme": "modexp1024", "attributes": [text], "signature": "0" * 256})

    @pytest.mark.parametrize("attributes", ["5", {"0": "5"}, None])
    def test_attributes_not_a_list_rejected(self, attributes):
        with pytest.raises(MalformedCredential, match="must be a list"):
            credential_from_wire(
                {"scheme": "modexp1024", "attributes": attributes, "signature": "0" * 256})

    @pytest.mark.parametrize("text", [
        "0x" + "0" * 254, " " + "0" * 255, "0" * 255 + "\n", "+" + "0" * 255,
        "-" + "0" * 255, "0" * 127 + "_" + "0" * 128, "0" * 255 + "\u0663",
    ], ids=["0x", "leading-space", "trailing-newline", "plus", "minus", "underscore",
            "arabic-indic-digit"])
    def test_non_canonical_hex_rejected(self, text):
        assert len(text) == 256
        with pytest.raises(MalformedCredential):
            credential_from_wire(
                {"scheme": "modexp1024", "attributes": ["1"], "signature": text})

    @given(st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=1, max_size=10),
           st.integers(min_value=0, max_value=(1 << 1024) - 1))
    def test_decode_inverts_encode(self, attrs, signature):
        cred = scheme.ModexpCredential(tuple(attrs), signature)
        assert credential_from_wire(credential_to_wire("modexp1024", cred)) == (
            "modexp1024", cred)

    @given(st.lists(st.from_regex("0|[1-9][0-9]{0,75}", fullmatch=True), min_size=1),
           st.from_regex("[0-9a-f]{256}", fullmatch=True))
    def test_encode_inverts_decode(self, attrs, signature):
        doc = {"scheme": "modexp1024", "attributes": attrs, "signature": signature}
        assert credential_to_wire(*credential_from_wire(doc)) == doc


class TestKeyCodec:
    def test_ecc_key_round_trip(self, ecc_key):
        name, back = key_from_wire(key_to_wire("ecc160", ecc_key))
        assert name == "ecc160"
        assert back.secret == ecc_key.secret
        assert point_equal(back.public, ecc_key.public)

    def test_modexp_key_round_trip(self, rsa_key):
        name, back = key_from_wire(key_to_wire("modexp1024", rsa_key))
        assert name == "modexp1024" and back == rsa_key

    @pytest.mark.parametrize("doc", [[], "x", 5, None])
    def test_non_object_documents_rejected(self, doc):
        with pytest.raises(MalformedCredential):
            public_from_wire(doc)
        with pytest.raises(MalformedCredential):
            key_from_wire(doc)

    # A key that fails before its public part is checked loads nothing.  One
    # whose public part passes keeps it, though e * d then fails.
    @pytest.mark.parametrize("name, field, corrupt, loads", [
        ("modexp1024", "n", lambda key: key.n - 2, 0),
        ("modexp1024", "d", lambda key: key.d ^ 2, 1),
        ("ecc160", "public", lambda key: point_add(key.public, BASE), 0),
    ], ids=["n-not-p1-p2", "d-not-inverse-of-e", "public-not-secret-B"])
    def test_inconsistent_key_rejected(self, name, field, corrupt, loads, ecc_key, rsa_key):
        key = {"ecc160": ecc_key, "modexp1024": rsa_key}[name]
        load = scheme.lookup(name).load_public
        load.cache_clear()
        doc = key_to_wire(name, dataclasses.replace(key, **{field: corrupt(key)}))
        with pytest.raises(MalformedCredential, match="inconsistent"):
            key_from_wire(doc)
        assert load.cache_info().misses == loads

    @pytest.mark.parametrize("name", scheme.SCHEME_NAMES)
    def test_a_key_document_is_loaded_once(self, name, ecc_key, rsa_key):
        key = {"ecc160": ecc_key, "modexp1024": rsa_key}[name]
        load = scheme.lookup(name).load_public
        scheme.keygen(name, random.Random(33))  # evicts key's public part
        misses = load.cache_info().misses
        found, back = key_from_wire(key_to_wire(name, key))
        assert found == name
        assert load.cache_info().misses == misses + 1
        hits = load.cache_info().hits
        load(back.public)
        # Keygen's public part is already in the form its document decodes to.
        assert back.public == key.public
        load(key.public)
        assert load.cache_info()[:2] == (hits + 2, misses + 1)

    def test_modulus_of_the_wrong_width_rejected(self):
        # Consistent otherwise: n == 3 * 5 and e * d == 1 mod lcm(2, 4).
        toy = scheme.ModexpIssuerKey(p1=3, p2=5, n=15, e=1, d=1)
        with pytest.raises(MalformedCredential, match="n is not 1024 bits"):
            key_from_wire(key_to_wire("modexp1024", toy))

    @pytest.mark.parametrize("n", [15, (1 << 1023) - 1], ids=["toy", "1023-bit"])
    def test_public_modulus_of_the_wrong_width_rejected(self, n):
        doc = public_to_wire("modexp1024", scheme.ModexpPublic(n, 1))
        with pytest.raises(MalformedCredential, match="n is not 1024 bits"):
            public_from_wire(doc)

    # Off rsa_keygen's exponent rule (odd, 2^1000 <= e < n), or a point whose
    # order divides 8: under e = 1, or the neutral point, anyone can forge.
    @pytest.mark.parametrize("name, forgeable", [
        ("modexp1024", lambda key: key.public._replace(e=1)),
        ("modexp1024", lambda key: key.public._replace(e=0)),
        ("modexp1024", lambda key: key.public._replace(e=key.e + 1)),
        ("modexp1024", lambda key: key.public._replace(e=key.n + 2)),
        ("ecc160", lambda key: NEUTRAL),
        ("ecc160", lambda key: ExtendedPoint(0, P - 1, 1, 0)),
    ], ids=["e-1", "e-0", "e-even", "e-not-below-n", "neutral-point", "order-2-point"])
    def test_forgeable_public_key_rejected(self, name, forgeable, ecc_key, rsa_key):
        key = {"ecc160": ecc_key, "modexp1024": rsa_key}[name]
        with pytest.raises(MalformedCredential, match="inconsistent"):
            public_from_wire(public_to_wire(name, forgeable(key)))

    @pytest.mark.parametrize("short", ["e", "d"])
    def test_consistent_key_off_the_keygen_profile_rejected(self, rsa_key, short):
        # e * d == 1 mod lcm(p1 - 1, p2 - 1) holds, but a 17-bit e or d would
        # make verify or issue time a short exponentiation, not a full-width one.
        inverse = mod_inv(65537, math.lcm(rsa_key.p1 - 1, rsa_key.p2 - 1))
        exponents = {"e": 65537, "d": inverse} if short == "e" else {"e": inverse, "d": 65537}
        doc = key_to_wire("modexp1024", dataclasses.replace(rsa_key, **exponents))
        with pytest.raises(MalformedCredential, match="inconsistent"):
            key_from_wire(doc)

    def test_public_round_trip(self, ecc_key, rsa_key):
        name, pub = public_from_wire(public_to_wire("ecc160", ecc_key.public))
        assert name == "ecc160" and point_equal(pub, ecc_key.public)
        name, pub = public_from_wire(public_to_wire("modexp1024", rsa_key.public))
        assert name == "modexp1024" and pub == rsa_key.public


@pytest.mark.parametrize("entry", scheme.SCHEMES.values(), ids=scheme.SCHEME_NAMES)
class TestRegistry:
    """What every registered scheme must do; a new scheme needs only its object."""

    def test_keygen_issue_verify(self, entry):
        rng = random.Random(41)
        key = entry.keygen(rng)
        cred = entry.issue(key, scheme.DEFAULT_ATTRIBUTES[:3], rng)
        assert entry.verify(key.public, cred)
        assert scheme.verify(entry.name, scheme.public_part(entry.name, key), cred)

    def test_documents_round_trip(self, entry):
        rng = random.Random(42)
        key = scheme.keygen(entry.name, rng)
        cred = scheme.issue(entry.name, key, scheme.DEFAULT_ATTRIBUTES[:2], rng)
        for encode, decode, value in (
            (credential_to_wire, credential_from_wire, cred),
            (public_to_wire, public_from_wire, key.public),
            (key_to_wire, key_from_wire, key),
        ):
            doc = encode(entry.name, value)
            name, back = decode(json.loads(json.dumps(doc)))
            assert name == entry.name and doc["scheme"] == entry.name
            assert encode(name, back) == doc

    def test_ill_formed_attributes_do_not_verify(self, entry):
        rng = random.Random(44)
        key = entry.keygen(rng)
        cred = entry.issue(key, [1], rng)
        for attributes in ((), tuple(range(scheme.MAX_ATTRIBUTES + 1)), (Q,), (-1,)):
            ill_formed = dataclasses.replace(cred, attributes=attributes)
            assert entry.verify(key.public, ill_formed) is False

    def test_unknown_name(self, entry):
        rng = random.Random(43)
        key = entry.keygen(rng)
        cred = entry.issue(key, [1], rng)
        for call in (
            lambda: scheme.lookup("rot13"),
            lambda: scheme.keygen("rot13", rng),
            lambda: scheme.public_part("rot13", key),
            lambda: scheme.issue("rot13", key, [1], rng),
            lambda: scheme.verify("rot13", key.public, cred),
            lambda: credential_to_wire("rot13", cred),
            lambda: public_to_wire("rot13", key.public),
            lambda: key_to_wire("rot13", key),
        ):
            with pytest.raises(scheme.UnknownScheme):
                call()
        for decode in (credential_from_wire, public_from_wire, key_from_wire):
            with pytest.raises(MalformedCredential):
                decode({**key_to_wire(entry.name, key), "scheme": "rot13"})


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("10.0.0.1:7001") == ("10.0.0.1", 7001)
        assert parse_endpoint("h:0") == ("h", 0)
        assert parse_endpoint("h:65535") == ("h", 65535)

    def test_port_only(self):
        assert parse_endpoint(":7002") == ("127.0.0.1", 7002)

    def test_rejects_garbage(self):
        for text in ("nohost", "host:", "host:abc", "h:65536", "h:70000", "h:\u0663",
                     "h:+80", "h: 80", "h:080", "h:" + "1" * 5000, ("h", 80), None):
            with pytest.raises(ValueError):
                parse_endpoint(text)


@pytest.fixture(scope="module")
def services(threaded_services, ecc_key, rsa_key):
    """Issuer and verifier listening on ephemeral localhost ports."""
    return threaded_services({"ecc160": ecc_key, "modexp1024": rsa_key},
                             {"ecc160": ecc_key.public, "modexp1024": rsa_key.public})


class TestServices:
    def test_issue_verify_end_to_end(self, services, ecc_key):
        issuer_ep, verifier_ep = services
        for name in scheme.SCHEME_NAMES:
            doc, rt_ms = client_issue(issuer_ep, name, scheme.DEFAULT_ATTRIBUTES[:5])
            assert rt_ms > 0
            valid, _ = client_verify(verifier_ep, name, doc)
            assert valid

    def test_ten_fixture_attributes_verify_locally(self, services, ecc_key):
        issuer_ep, _ = services
        doc, _ = client_issue(issuer_ep, "ecc160", scheme.DEFAULT_ATTRIBUTES)
        name, cred = credential_from_wire(doc)
        assert scheme.verify(name, ecc_key.public, cred)

    def test_unknown_scheme(self, services):
        issuer_ep, _ = services
        with pytest.raises(RemoteError) as err:
            client_issue(issuer_ep, "rot13", [1])
        assert err.value.code == "UNKNOWN_SCHEME"

    @pytest.mark.parametrize("tag", [[], {}])
    def test_unhashable_scheme_tag(self, services, tag):
        issuer_ep, verifier_ep = services
        for request in (lambda: client_issue(issuer_ep, tag, [1]),
                        lambda: client_verify(verifier_ep, tag, {"scheme": "ecc160"})):
            with pytest.raises(RemoteError) as err:
                request()
            assert err.value.code == "UNKNOWN_SCHEME"

    def test_request_of_the_other_type(self, services):
        issuer_ep, verifier_ep = services
        for request in (lambda: client_verify(issuer_ep, "ecc160", {"scheme": "ecc160"}),
                        lambda: client_issue(verifier_ep, "ecc160", [1])):
            with pytest.raises(RemoteError) as err:
                request()
            assert err.value.code == "UNSUPPORTED_TYPE"

    def test_credential_of_another_scheme_is_malformed(self, services):
        issuer_ep, verifier_ep = services
        doc, _ = client_issue(issuer_ep, "modexp1024", [1])
        with pytest.raises(RemoteError) as err:
            client_verify(verifier_ep, "ecc160", doc)
        assert err.value.code == "MALFORMED"

    def test_too_many_attributes(self, services):
        issuer_ep, _ = services
        with pytest.raises(RemoteError) as err:
            client_issue(issuer_ep, "ecc160", list(range(11)))
        assert err.value.code == "BAD_ATTRIBUTES"

    def test_malformed_credential_hex(self, services):
        _, verifier_ep = services
        doc = {"scheme": "ecc160", "attributes": ["1"], "commitment": {"x": "zz", "y": "qq"},
               "nonce_point": {"x": "0" * 64, "y": "0" * 64}, "response": "0" * 64}
        with pytest.raises(RemoteError) as err:
            client_verify(verifier_ep, "ecc160", doc)
        assert err.value.code == "MALFORMED"

    def test_tampered_attribute_fails_verification(self, services):
        issuer_ep, verifier_ep = services
        doc, _ = client_issue(issuer_ep, "ecc160", scheme.DEFAULT_ATTRIBUTES[:3])
        doc["attributes"][0] = str(int(doc["attributes"][0]) + 1)
        valid, _ = client_verify(verifier_ep, "ecc160", doc)
        assert not valid

    def test_dead_endpoint(self):
        # Grab a port and close it so nothing is listening there.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionFailed):
            client_issue(("127.0.0.1", port), "ecc160", [1])

    def test_service_survives_garbage_connection(self, services):
        issuer_ep, _ = services
        # Raw garbage, then an abrupt close...
        with socket.create_connection(issuer_ep) as conn:
            conn.sendall(b"\xde\xad\xbe\xef" * 10)
        # ...must not stop the next legitimate client from being served.
        doc, _ = client_issue(issuer_ep, "ecc160", [42])
        assert doc["scheme"] == "ecc160"

    def test_stalled_peer_is_dropped(self, services, caplog):
        issuer_ep, _ = services
        with socket.create_connection(issuer_ep) as stalled:
            stalled.sendall(b"\x00\x00")  # half a length prefix, then nothing
            start = time.perf_counter()
            with caplog.at_level(logging.WARNING, logger="abclab.wire"):
                doc, _ = client_issue(issuer_ep, "ecc160", [42])
            waited = time.perf_counter() - start
            stalled.settimeout(5)
            assert stalled.recv(64) == b""  # closed without an ERROR reply
        assert doc["scheme"] == "ecc160"
        assert waited < wire.CONNECTION_TIMEOUT_S + 3
        assert any("dropped" in r.getMessage() for r in caplog.records)

    def test_handler_failure_is_internal_and_the_next_request_is_served(
            self, threaded_services, rsa_key, caplog):
        # scheme.issue raises AttributeError on a key that is no issuer key:
        # no WireError, so only the catch-all of the accept loop answers it.
        issuer_ep, _ = threaded_services({"ecc160": object(), "modexp1024": rsa_key}, {})
        with caplog.at_level(logging.ERROR, logger="abclab.wire"):
            with pytest.raises(RemoteError) as err:
                client_issue(issuer_ep, "ecc160", [1])
        assert err.value.code == "INTERNAL"
        assert [r.getMessage() for r in caplog.records] == ["handler failure"]
        name, cred = credential_from_wire(client_issue(issuer_ep, "modexp1024", [1])[0])
        assert scheme.verify(name, rsa_key.public, cred)

    def test_request_past_its_deadline_is_not_read(self, monkeypatch):
        monkeypatch.setattr(wire, "CONNECTION_TIMEOUT_S", 0)
        server, peer = socket.socketpair()
        with server, peer:
            peer.sendall(b"x")
            with pytest.raises(TimeoutError):
                wire._RequestReader(server).read(1)
            assert server.recv(1) == b"x"  # still there: the reader made no recv

    def test_dripping_peer_is_dropped(self, services):
        # One byte every 1.5 s keeps each read within the timeout, while the
        # whole 10-byte frame would take 13.5 s.
        issuer_ep, _ = services
        stop = threading.Event()
        dripper = socket.create_connection(issuer_ep)

        def drip():
            for byte in struct.pack("!I", 6) + b"x" * 6:
                try:
                    dripper.sendall(bytes([byte]))
                except OSError:  # the service dropped the connection
                    return
                if stop.wait(1.5):
                    return

        thread = threading.Thread(target=drip, daemon=True)
        thread.start()
        try:
            start = time.perf_counter()
            doc, _ = client_issue(issuer_ep, "ecc160", [42])
            waited = time.perf_counter() - start
        finally:
            stop.set()
            thread.join(timeout=3)
            dripper.close()
        assert not thread.is_alive()
        assert doc["scheme"] == "ecc160"
        assert waited < wire.CONNECTION_TIMEOUT_S + 3

    # 340,000 three-byte characters: the request fits a frame, but each
    # character quoted back in a JSON reply takes six bytes.
    HUGE = "\u4e2d" * 340_000

    @pytest.mark.parametrize("target, request_doc, code", [
        (0, {"type": "ISSUE_REQUEST", "payload": {"scheme": "ecc160", "attributes": [HUGE]}},
         "BAD_ATTRIBUTES"),
        (1, {"type": HUGE, "payload": {}}, "MALFORMED"),
        (0, {"type": "ISSUE_REQUEST", "payload": {"scheme": HUGE, "attributes": ["1"]}},
         "UNKNOWN_SCHEME"),
        (1, {"type": "VERIFY_REQUEST",
             "payload": {"scheme": "ecc160", "credential": {"scheme": HUGE}}}, "MALFORMED"),
    ], ids=["attribute", "envelope-type", "scheme-tag", "credential-scheme-tag"])
    def test_refusal_quoting_a_huge_value_stops_no_service(
            self, services, target, request_doc, code):
        body = json.dumps(request_doc, ensure_ascii=False).encode("utf-8")
        assert len(body) <= wire.MAX_FRAME_BYTES
        with socket.create_connection(services[target]) as conn:
            conn.sendall(struct.pack("!I", len(body)) + body)
            with conn.makefile("rb") as stream:
                reply = frame_read(stream)
        assert reply.type == "ERROR" and reply.payload["code"] == code
        assert len(reply.payload["message"]) == wire.ERROR_MESSAGE_CHARS
        issuer_ep, verifier_ep = services
        for name in scheme.SCHEME_NAMES:
            doc, _ = client_issue(issuer_ep, name, [1])
            assert client_verify(verifier_ep, name, doc)[0] is True

    def test_error_reply_on_garbage_frame(self, services):
        issuer_ep, _ = services
        with socket.create_connection(issuer_ep) as conn:
            body = b"not json at all"
            conn.sendall(struct.pack("!I", len(body)) + body)
            with conn.makefile("rb") as stream:
                reply = frame_read(stream)
        assert reply.type == "ERROR"
        assert reply.payload["code"] == "MALFORMED"

    def test_frame_nested_too_deep_is_malformed(self, services):
        # Valid JSON within the frame bound, nested past the parser's depth,
        # or holding an integer past the interpreter's digit limit.
        issuer_ep, _ = services
        for body in (b"[" * 100_000 + b"]" * 100_000, b"9" * 5_000):
            assert len(body) <= wire.MAX_FRAME_BYTES
            with socket.create_connection(issuer_ep) as conn:
                conn.sendall(struct.pack("!I", len(body)) + body)
                with conn.makefile("rb") as stream:
                    reply = frame_read(stream)
            assert reply.type == "ERROR" and reply.payload["code"] == "MALFORMED"
        doc, _ = client_issue(issuer_ep, "ecc160", [42])
        assert doc["scheme"] == "ecc160"


class TestClientReplies:
    """The clients accept only replies of the documented shape."""

    @pytest.mark.parametrize("payload", [{"valid": "no"}, {"valid": 1}, {"valid": None}, {}],
                             ids=["string", "number", "null", "missing"])
    def test_verdict_must_be_a_json_boolean(self, fake_service, payload):
        endpoint = fake_service(Envelope("VERIFY_RESPONSE", {**payload, "verify_ms": 1.0}))
        with pytest.raises(MalformedEnvelope):
            client_verify(endpoint, "ecc160", {"scheme": "ecc160"})

    @pytest.mark.parametrize("call, reply_type", [
        (lambda endpoint: client_issue(endpoint, "ecc160", [1]), "VERIFY_RESPONSE"),
        (lambda endpoint: client_verify(endpoint, "ecc160", {"scheme": "ecc160"}),
         "ISSUE_RESPONSE"),
    ], ids=["issue", "verify"])
    def test_reply_of_the_wrong_type(self, fake_service, call, reply_type):
        # The payload would pass either client's own checks: only its type is wrong.
        endpoint = fake_service(Envelope(reply_type, {"valid": True, "credential": {}}))
        with pytest.raises(MalformedEnvelope, match="expected"):
            call(endpoint)

    @pytest.mark.parametrize("payload", [{}, {"credential": None}, {"credential": "x"},
                                         {"credential": []}],
                             ids=["missing", "null", "string", "list"])
    def test_issue_reply_needs_a_credential_object(self, fake_service, payload):
        endpoint = fake_service(Envelope("ISSUE_RESPONSE", {**payload, "issue_ms": 1.0}))
        with pytest.raises(MalformedEnvelope):
            client_issue(endpoint, "ecc160", [1])

    def test_reply_with_too_many_int_digits_is_malformed(self, fake_service):
        body = b'{"type": "ISSUE_RESPONSE", "payload": {"issue_ms": ' + b"9" * 5_000 + b"}}"
        endpoint = fake_service(struct.pack("!I", len(body)) + body)
        with pytest.raises(MalformedJson):
            client_issue(endpoint, "ecc160", [1])

    def test_exchange_cut_after_connect_is_connection_failed(self, cutting_service):
        endpoint = cutting_service(1)
        with pytest.raises(ConnectionFailed, match="reset"):
            client_issue(endpoint, "ecc160", [1])
