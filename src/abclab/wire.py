"""Length-prefixed JSON protocol between user, issuer, and verifier.

Frames are a 4-byte big-endian length followed by a UTF-8 JSON body of at
most 1 MiB.  Services are deliberately sequential: one connection, one
request, one response, close.  Keeping concurrency out of the loop keeps
the benchmark's timings clean.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import struct
import time
from dataclasses import dataclass

from . import scheme
from .curve import AffinePoint, ExtendedPoint, InvalidPoint, from_affine, to_affine
from .field import P

log = logging.getLogger(__name__)

MAX_FRAME_BYTES = 1 << 20
ERROR_MESSAGE_CHARS = 500  # a refusal may quote the request: cut to this, it fits any frame

ENVELOPE_TYPES = (
    "ISSUE_REQUEST",
    "ISSUE_RESPONSE",
    "VERIFY_REQUEST",
    "VERIFY_RESPONSE",
    "ERROR",
)

# From accept, a peer has this long to send its whole request, however it
# spaces the bytes, and then the response this long to be sent: a peer that
# stalls or drips is dropped, so it holds up the sequential services no longer.
CONNECTION_TIMEOUT_S = 2.0

DEFAULT_ISSUER_PORT = 7001
DEFAULT_VERIFIER_PORT = 7002
ISSUER_ADDR_ENV = "ABC_ISSUER_ADDR"
VERIFIER_ADDR_ENV = "ABC_VERIFIER_ADDR"


class WireError(Exception):
    """Base class for every protocol-level failure."""


class FrameTooLarge(WireError):
    """Declared frame length is 0 or exceeds MAX_FRAME_BYTES."""


class UnexpectedEof(WireError):
    """Stream ended mid-frame."""


class MalformedJson(WireError):
    """Frame body is not valid UTF-8 JSON."""


class MalformedEnvelope(WireError):
    """JSON parsed but is not a {type, payload} envelope with a known tag."""


class MalformedCredential(WireError):
    """A wire credential or key document failed to decode."""


class ConnectionFailed(WireError):
    """Could not reach the remote service."""


class RemoteError(WireError):
    """The remote service answered with an ERROR envelope."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass
class Envelope:
    type: str
    payload: dict


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise UnexpectedEof(f"stream ended with {remaining} of {n} bytes unread")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame_write(stream, env: Envelope) -> None:
    body = json.dumps({"type": env.type, "payload": env.payload}).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"envelope serializes to {len(body)} bytes")
    stream.write(struct.pack("!I", len(body)) + body)
    stream.flush()


def frame_read(stream) -> Envelope:
    """Read one envelope; the length is validated before any body allocation."""
    (length,) = struct.unpack("!I", _read_exact(stream, 4))
    if length == 0 or length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"declared frame length {length}")
    body = _read_exact(stream, length)
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MalformedJson(str(exc)) from None  # RecursionError: nested too deep
    if not isinstance(doc, dict):
        raise MalformedEnvelope("body is not a JSON object")
    env_type = doc.get("type")
    payload = doc.get("payload")
    if env_type not in ENVELOPE_TYPES:
        raise MalformedEnvelope(f"unknown envelope type {env_type!r}")
    if not isinstance(payload, dict):
        raise MalformedEnvelope("payload is not a JSON object")
    return Envelope(env_type, payload)


# ---------------------------------------------------------------------------
# Hex codecs: fixed-width lowercase, big-endian
# ---------------------------------------------------------------------------


def _to_hex(value: int, width: int) -> str:
    return format(value, f"0{width}x")


# The one accepted form of each number: int() alone would also take signs,
# whitespace, underscores, a 0x prefix, leading zeros in decimals and
# non-ASCII digits.
_HEX = re.compile("[0-9a-f]*")
_DECIMAL = re.compile("0|[1-9][0-9]*")


def _from_hex(text, width: int, bound: int | None = None) -> int:
    if not isinstance(text, str) or len(text) != width or not _HEX.fullmatch(text):
        raise MalformedCredential(f"expected {width} lowercase hex chars")
    value = int(text, 16)
    if bound is not None and value >= bound:
        raise MalformedCredential("value out of range")
    return value


def encode_point(pt: ExtendedPoint) -> dict:
    aff = to_affine(pt)
    return {"x": _to_hex(aff.x, 64), "y": _to_hex(aff.y, 64)}


def decode_point(doc) -> ExtendedPoint:
    if not isinstance(doc, dict):
        raise MalformedCredential("point must be an object with x and y")
    x = _from_hex(doc.get("x"), 64, P)
    y = _from_hex(doc.get("y"), 64, P)
    try:
        return from_affine(AffinePoint(x, y))
    except InvalidPoint as exc:
        raise MalformedCredential(str(exc)) from None


def _attrs_to_wire(attrs) -> list[str]:
    return [str(a) for a in attrs]


def _attrs_from_wire(values) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise MalformedCredential("attributes must be a list of decimal strings")
    out = []
    for item in values:
        if not isinstance(item, str):
            raise MalformedCredential("attributes must be decimal strings")
        if not _DECIMAL.fullmatch(item):
            raise MalformedCredential(f"bad decimal attribute {item!r}")
        try:
            out.append(int(item))
        except ValueError:  # beyond the interpreter's int string-length limit
            raise MalformedCredential(f"bad decimal attribute {item!r}") from None
    return tuple(out)


def _layout_to_wire(layout: scheme.Layout, value) -> dict:
    """The document fields of value, each in its one wire form."""
    doc = {}
    for field, codec in layout.fields.items():
        item = value if layout.record is None else getattr(value, field)
        doc[field] = encode_point(item) if codec is scheme.POINT else _to_hex(item, codec.width)
    return doc


def _layout_from_wire(layout: scheme.Layout, doc: dict, **extra):
    """The value whose fields doc holds; extra fields go to its type as they are."""
    values = {}
    for field, codec in layout.fields.items():
        text = doc.get(field)
        values[field] = (decode_point(text) if codec is scheme.POINT
                         else _from_hex(text, codec.width, codec.bound))
    return values.popitem()[1] if layout.record is None else layout.record(**extra, **values)


def _scheme_of(doc, kind: str) -> scheme.Scheme:
    """The scheme a decoded document names; MalformedCredential if none."""
    if not isinstance(doc, dict):
        raise MalformedCredential(f"{kind} must be a JSON object")
    try:
        return scheme.lookup(doc.get("scheme"))
    except scheme.UnknownScheme:
        raise MalformedCredential(f"unknown scheme tag {doc.get('scheme')!r}") from None


def credential_to_wire(scheme_name: str, cred) -> dict:
    layout = scheme.lookup(scheme_name).credential
    return {"scheme": scheme_name, "attributes": _attrs_to_wire(cred.attributes),
            **_layout_to_wire(layout, cred)}


def credential_from_wire(doc) -> tuple[str, object]:
    found = _scheme_of(doc, "credential")
    attrs = _attrs_from_wire(doc.get("attributes"))
    return found.name, _layout_from_wire(found.credential, doc, attributes=attrs)


def public_to_wire(scheme_name: str, public) -> dict:
    return {"scheme": scheme_name, **_layout_to_wire(scheme.lookup(scheme_name).public, public)}


def public_from_wire(doc):
    """Decode a public key, check it and keep its comb tables."""
    found = _scheme_of(doc, "public key")
    public = _layout_from_wire(found.public, doc)
    try:
        found.load_public(public)
    except scheme.InconsistentKey as exc:
        raise MalformedCredential(f"inconsistent {found.name} public key: {exc}") from None
    return found.name, public


def key_to_wire(scheme_name: str, key) -> dict:
    return {"scheme": scheme_name, **_layout_to_wire(scheme.lookup(scheme_name).key, key)}


def key_from_wire(doc):
    """Decode an issuer key, check that its fields belong together and keep
    its comb tables."""
    found = _scheme_of(doc, "key")
    key = _layout_from_wire(found.key, doc)
    try:
        found.check_key(key)
        found.load_public(key.public)
    except scheme.InconsistentKey as exc:
        raise MalformedCredential(f"inconsistent {found.name} key: {exc}") from None
    return found.name, key


# ---------------------------------------------------------------------------
# Services
# ---------------------------------------------------------------------------


def parse_endpoint(text) -> tuple[str, int]:
    """The (host, port) of a "host:port" string whose port is a wire decimal
    in 0..65535; an empty host is 127.0.0.1.  ValueError for anything else."""
    host, sep, port = text.rpartition(":") if isinstance(text, str) else ("", "", "")
    if not sep or not _DECIMAL.fullmatch(port) or int(port) > 65535:
        raise ValueError(f"endpoint must be host:port with a port in 0..65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def _error_envelope(code: str, message: str) -> Envelope:
    return Envelope("ERROR", {"code": code, "message": message[:ERROR_MESSAGE_CHARS]})


class _RequestReader:
    """Reads an accepted socket against one deadline for the whole request:
    each read waits only for the time left, so a peer that drips bytes is
    dropped CONNECTION_TIMEOUT_S after accept, like one that stalls."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.deadline = time.monotonic() + CONNECTION_TIMEOUT_S

    def read(self, n: int) -> bytes:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request deadline passed")
        self.conn.settimeout(left)
        return self.conn.recv(n)


def _serve(listener: socket.socket, handler, stop_event) -> None:
    """Sequential accept loop on a listening socket, which it closes when it
    stops; one failed client never affects the next."""
    listener.settimeout(0.2)
    try:
        while stop_event is None or not stop_event.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            try:
                with conn, conn.makefile("wb") as stream:
                    try:
                        request = frame_read(_RequestReader(conn))
                        response = handler(request)
                    except WireError as exc:
                        response = _error_envelope("MALFORMED", str(exc))
                    except OSError:  # the peer stalled or went away: no reply
                        raise
                    except Exception as exc:  # never let the loop die
                        log.exception("handler failure")
                        response = _error_envelope("INTERNAL", str(exc))
                    conn.settimeout(CONNECTION_TIMEOUT_S)
                    frame_write(stream, response)
            except OSError:
                log.warning("client connection dropped", exc_info=True)
    finally:
        listener.close()


def _dispatch(request: Envelope, expected_type: str, material: dict, handle) -> Envelope:
    """Check the request type and resolve its scheme tag to this service's
    key or public key, then answer with handle(scheme_name, item, payload)."""
    if request.type != expected_type:
        return _error_envelope("UNSUPPORTED_TYPE", request.type)
    scheme_name = request.payload.get("scheme")
    try:
        item = material[scheme.lookup(scheme_name).name]
    except (scheme.UnknownScheme, KeyError):
        return _error_envelope("UNKNOWN_SCHEME", str(scheme_name))
    return handle(scheme_name, item, request.payload)


def _handle_issue(scheme_name: str, key, payload: dict) -> Envelope:
    try:
        attrs = _attrs_from_wire(payload.get("attributes"))
        scheme.check_attributes(attrs)
    except (MalformedCredential, ValueError) as exc:
        return _error_envelope("BAD_ATTRIBUTES", str(exc))
    start = time.perf_counter()
    cred = scheme.issue(scheme_name, key, attrs)
    issue_ms = (time.perf_counter() - start) * 1e3
    return Envelope(
        "ISSUE_RESPONSE",
        {"credential": credential_to_wire(scheme_name, cred), "issue_ms": issue_ms},
    )


def _handle_verify(scheme_name: str, public, payload: dict) -> Envelope:
    try:
        wire_scheme, cred = credential_from_wire(payload.get("credential"))
        if wire_scheme != scheme_name:
            raise MalformedCredential("scheme tag mismatch")
    except MalformedCredential as exc:
        return _error_envelope("MALFORMED", str(exc))
    start = time.perf_counter()
    valid = scheme.verify(scheme_name, public, cred)
    verify_ms = (time.perf_counter() - start) * 1e3
    return Envelope("VERIFY_RESPONSE", {"valid": valid, "verify_ms": verify_ms})


def issuer_serve(listener: socket.socket, issuer_keys: dict, *, stop_event=None) -> None:
    """Serve ISSUE_REQUESTs on listener until stop_event is set (forever if None)."""
    _serve(listener, lambda req: _dispatch(req, "ISSUE_REQUEST", issuer_keys, _handle_issue),
           stop_event)


def verifier_serve(listener: socket.socket, publics: dict, *, stop_event=None) -> None:
    """Serve VERIFY_REQUESTs on listener until stop_event is set (forever if None)."""
    _serve(listener, lambda req: _dispatch(req, "VERIFY_REQUEST", publics, _handle_verify),
           stop_event)


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


def _exchange(endpoint: tuple[str, int], request: Envelope,
              expected_type: str) -> tuple[dict, float]:
    """Send request and read one reply; returns the reply's payload and the
    request-to-response wall time in milliseconds.  RemoteError for an ERROR
    reply, MalformedEnvelope for any type other than expected_type, and
    ConnectionFailed when the socket fails at any step: connect, send, a
    reset or a reply that is not in within the timeout."""
    try:
        with socket.create_connection(endpoint, timeout=10) as conn, \
                conn.makefile("rwb") as stream:
            start = time.perf_counter()
            frame_write(stream, request)
            response = frame_read(stream)
            round_trip_ms = (time.perf_counter() - start) * 1e3
    except OSError as exc:
        raise ConnectionFailed(f"cannot reach {endpoint[0]}:{endpoint[1]}: {exc}") from None
    if response.type == "ERROR":
        raise RemoteError(
            str(response.payload.get("code")), str(response.payload.get("message"))
        )
    if response.type != expected_type:
        raise MalformedEnvelope(f"expected {expected_type}, got {response.type}")
    return response.payload, round_trip_ms


def client_issue(endpoint, scheme_name: str, attrs) -> tuple[dict, float]:
    """One issuance exchange; returns the wire credential and the
    request-to-response wall time in milliseconds."""
    request = Envelope(
        "ISSUE_REQUEST", {"scheme": scheme_name, "attributes": _attrs_to_wire(attrs)}
    )
    payload, round_trip_ms = _exchange(endpoint, request, "ISSUE_RESPONSE")
    credential = payload.get("credential")
    if not isinstance(credential, dict):
        raise MalformedEnvelope("ISSUE_RESPONSE carries no credential object")
    return credential, round_trip_ms


def client_verify(endpoint, scheme_name: str, wire_credential: dict) -> tuple[bool, float]:
    """One verification exchange; returns the verdict, which the reply must
    give as a JSON boolean, and the round-trip wall time in milliseconds."""
    request = Envelope(
        "VERIFY_REQUEST", {"scheme": scheme_name, "credential": wire_credential}
    )
    payload, round_trip_ms = _exchange(endpoint, request, "VERIFY_RESPONSE")
    valid = payload.get("valid")
    if not isinstance(valid, bool):
        raise MalformedEnvelope(f"VERIFY_RESPONSE valid must be true or false, got {valid!r}")
    return valid, round_trip_ms
