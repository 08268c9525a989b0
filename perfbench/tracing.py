"""Spans for the traced run of perfbench/run.py.

Every span is recorded by benchmark code around a call into one of the
abclab layers: either a call the benchmark makes itself, or a kernel call
made inside ``scheme.issue``/``scheme.verify``, which the benchmark routes
through a span wrapper by rebinding the kernel's name in the calling module
for the traced pass only (see ``kernel_spans``).  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import io
import json
import socket
import time
from contextlib import contextmanager

from abclab import curve, scheme, wire

# Kernels wrapped during the traced pass: (module whose global name the
# schemes call, name, span name chosen from the call's arguments).  Scalars
# wider than 128 bits are the 253-bit nonce, response, challenge and key
# scalars; narrower ones are attribute values inside ecc_commit.  Exponents
# wider than 256 bits are the full-width d and e; the others are the 256-bit
# attribute digests of modexp_representative.
KERNELS = (
    (scheme, "ecc_commit", lambda attrs: "scheme.ecc_commit"),
    (scheme, "modexp_representative", lambda attrs, n: "scheme.modexp_representative"),
    (scheme, "scalar_mul",
     lambda k, pt: "curve.scalar_mul_253" if k.bit_length() > 128 else "curve.scalar_mul_attr"),
    (scheme, "mod_pow",
     lambda base, exp, m: "field.mod_pow_1024" if exp.bit_length() > 256 else "field.mod_pow_256"),
    (curve, "fe_inv", lambda a: "field.fe_inv"),
)

POINT_PROBES = 4  # point_add and point_double calls per ecc160 issue


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.samples: dict[str, list[float]] = {}
        self.request = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, 0, 0, parent, self.request])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def end(self, idx: int) -> float:
        """Close span idx; returns its duration in ms."""
        now = time.perf_counter_ns()
        span = self.spans[idx]
        span[2] = now
        self._open.pop()
        return (now - span[1]) / 1e6

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def sample(self, name: str, value: float) -> None:
        """A derived figure that is not a span, such as transport overhead."""
        self.samples.setdefault(name, []).append(value)

    def durations_ms(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _parent, _request in self.spans:
            out.setdefault(name, []).append((end - start) / 1e6)
        return out

    def scheme_self_ms(self) -> tuple[dict[str, list[float]], int]:
        """Self time of every scheme.issue/verify span (its duration minus its
        direct children), and how many such spans had children summing to
        more than the span itself, which nesting makes impossible."""
        children = [0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, list[float]] = {}
        broken = 0
        for idx, (name, start, end, _parent, _request) in enumerate(self.spans):
            if name.startswith(("scheme.issue.", "scheme.verify.")):
                own = end - start
                broken += children[idx] > own
                kind, _, scheme_name = name[len("scheme."):].partition(".")
                out.setdefault(f"scheme.{kind}_self.{scheme_name}", []).append(
                    (own - children[idx]) / 1e6)
        return out, broken

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "samples": self.samples}, stream)


@contextmanager
def kernel_spans(tracer: Tracer):
    """Record a span around every call the schemes make to the KERNELS."""
    saved = []
    for module, name, label in KERNELS:
        original = getattr(module, name)
        saved.append((module, name, original))

        def traced(*args, _fn=original, _label=label):
            idx = tracer.begin(_label(*args))
            try:
                return _fn(*args)
            finally:
                tracer.end(idx)

        setattr(module, name, traced)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


class TracedClient:
    """The workload's client with a span per request and per layer call.

    In-process, the request is the scheme call itself.  Over the wire, the
    request is one exchange made frame by frame (connect, write, wait for the
    service, read), so the service-reported issue_ms/verify_ms that
    client_issue/client_verify discard can be subtracted from the round trip;
    the scheme call is then replayed locally on the same operands so the
    kernel spans exist on every workload.  Each credential also goes through
    the wire codecs, in-process through the framing and a bare loopback
    connect, and ecc160 ones through point_add/point_double.
    """

    def __init__(self, tracer: Tracer, base, local, endpoints=None):
        self.tracer = tracer
        self.base = base        # the untraced client, used for tampered copies
        self.local = local      # in-process client that makes the scheme calls
        self.endpoints = endpoints
        self.listener = None if endpoints else socket.create_server(("127.0.0.1", 0))

    def close(self) -> None:
        if self.listener is not None:
            self.listener.close()

    def issue(self, name, attrs):
        t = self.tracer
        t.request += 1
        if self.endpoints:
            request = wire.Envelope(
                "ISSUE_REQUEST", {"scheme": name, "attributes": [str(a) for a in attrs]})
            reply = self._exchange(name, "issue", request, "ISSUE_RESPONSE")
            fresh, _ms = self._scheme_call("issue", name, lambda: self.local.issue(name, attrs))
            doc, cred = self._codecs(name, fresh, reply["credential"])
            handle = doc
        else:
            root = t.begin(f"request.issue.{name}")
            cred, scheme_ms = self._scheme_call(
                "issue", name, lambda: self.local.issue(name, attrs))
            t.sample(f"wire.overhead.{name}.issue", t.end(root) - scheme_ms)
            doc, _decoded = self._codecs(name, cred)
            self._frames(wire.Envelope("ISSUE_RESPONSE", {"credential": doc, "issue_ms": scheme_ms}))
            self._frames(wire.Envelope("VERIFY_REQUEST", {"scheme": name, "credential": doc}))
            self._connect_probe()
            handle = cred
        if name == "ecc160":
            for _ in range(POINT_PROBES):  # begin/end directly: these take microseconds
                idx = t.begin("curve.point_add")
                curve.point_add(cred.commitment, cred.nonce_point)
                t.end(idx)
                idx = t.begin("curve.point_double")
                curve.point_double(cred.nonce_point)
                t.end(idx)
        return handle

    def verify(self, name, handle) -> bool:
        t = self.tracer
        t.request += 1
        if self.endpoints:
            request = wire.Envelope("VERIFY_REQUEST", {"scheme": name, "credential": handle})
            reply = self._exchange(name, "verify", request, "VERIFY_RESPONSE")
            _wire_name, cred = wire.credential_from_wire(handle)
            self._scheme_call("verify", name, lambda: self.local.verify(name, cred))
            return reply["valid"] is True
        root = t.begin(f"request.verify.{name}")
        valid, scheme_ms = self._scheme_call(
            "verify", name, lambda: self.local.verify(name, handle))
        t.sample(f"wire.overhead.{name}.verify", t.end(root) - scheme_ms)
        self._connect_probe()
        return valid

    def _scheme_call(self, phase, name, call):
        with kernel_spans(self.tracer):
            idx = self.tracer.begin(f"scheme.{phase}.{name}")
            try:
                result = call()
            finally:
                ms = self.tracer.end(idx)
        return result, ms

    def _exchange(self, name, phase, request, expected) -> dict:
        t = self.tracer
        root = t.begin(f"request.{phase}.{name}")
        with t.span("wire.connect"):
            conn = socket.create_connection(self.endpoints[phase], timeout=10)
        with conn, conn.makefile("rwb") as stream:
            with t.span("wire.frame_write"):
                wire.frame_write(stream, request)
            with t.span("wire.wait"):  # the service computes; frame_read then only parses
                conn.recv(1, socket.MSG_PEEK)
            with t.span("wire.frame_read"):
                reply = wire.frame_read(stream)
        round_trip_ms = t.end(root)
        if reply.type != expected:
            raise wire.MalformedEnvelope(f"expected {expected}, got {reply.type}")
        t.sample(f"wire.overhead.{name}.{phase}",
                 round_trip_ms - reply.payload[f"{phase}_ms"])
        return reply.payload

    def _codecs(self, name, fresh, doc=None):
        """Encode a freshly issued credential and decode the issued document
        (in-process, that encoding); decoding then encoding must give the
        document back.  Returns the document and the decoded credential."""
        t = self.tracer
        with t.span(f"wire.credential_to_wire.{name}"):
            encoded = wire.credential_to_wire(name, fresh)
        doc = doc or encoded
        with t.span(f"wire.credential_from_wire.{name}"):
            _wire_name, cred = wire.credential_from_wire(doc)
        if wire.credential_to_wire(name, cred) != doc:
            raise wire.MalformedCredential(f"{name} credential does not survive a codec round trip")
        return doc, cred

    def _frames(self, envelope) -> None:
        stream = io.BytesIO()
        with self.tracer.span("wire.frame_write"):
            wire.frame_write(stream, envelope)
        stream.seek(0)
        with self.tracer.span("wire.frame_read"):
            wire.frame_read(stream)

    def _connect_probe(self) -> None:
        with self.tracer.span("wire.connect"):
            conn = socket.create_connection(self.listener.getsockname(), timeout=10)
        peer, _addr = self.listener.accept()
        peer.close()
        conn.close()
