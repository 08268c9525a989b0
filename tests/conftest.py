import socket
import sys
import threading
from pathlib import Path

import pytest

# Make tests/oracles.py importable from any invocation directory.
sys.path.insert(0, str(Path(__file__).parent))

from abclab import curve, field, wire  # noqa: E402


@pytest.fixture
def point_op_counts(monkeypatch):
    """The point_double and point_add_cached calls made through the curve
    module: the addition of multi_scalar_mul, the table combine, and
    point_add's, so each point_add counts once, as an "add"."""
    counts = {"double": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(curve, "point_double", counted("double", curve.point_double))
    monkeypatch.setattr(curve, "point_add_cached", counted("add", curve.point_add_cached))
    return counts


@pytest.fixture
def comb_builds(monkeypatch):
    """The arguments of each kept table built from here on, by field.comb
    directly or through curve.point_comb."""
    builds = []
    real = field.comb
    for module in (field, curve):
        monkeypatch.setattr(module, "comb", lambda *args: builds.append(args) or real(*args))
    return builds


@pytest.fixture
def fake_service():
    """start(reply): an endpoint that reads one request and answers it with
    the envelope reply, or with reply's raw bytes, whatever the request was."""
    threads = []

    def start(reply):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            with listener:
                conn, _addr = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    wire.frame_read(stream)
                    if isinstance(reply, bytes):  # a frame frame_write cannot make
                        stream.write(reply)
                    else:
                        wire.frame_write(stream, reply)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return listener.getsockname()

    yield start
    for thread in threads:
        thread.join(timeout=3)


@pytest.fixture(scope="module")
def threaded_services():
    """start(keys, publics): an issuer serving keys and a verifier serving
    publics, each on an ephemeral localhost port in a thread of its own;
    returns their two (host, port) endpoints.  All stop with the module."""
    stop = threading.Event()
    threads = []

    def start(keys, publics):
        endpoints = []
        for serve, material in ((wire.issuer_serve, keys), (wire.verifier_serve, publics)):
            listener = socket.create_server(("127.0.0.1", 0))
            endpoints.append(listener.getsockname()[:2])
            thread = threading.Thread(target=serve, args=(listener, material),
                                      kwargs={"stop_event": stop}, daemon=True)
            thread.start()
            threads.append(thread)
        return tuple(endpoints)

    yield start
    stop.set()
    for thread in threads:
        thread.join(timeout=3)
    assert not any(thread.is_alive() for thread in threads)


@pytest.fixture
def cutting_service():
    """start(connections): an endpoint that accepts that many connections
    and closes each once the request is in, unread, so the client's read
    of the reply fails with a reset."""
    threads = []

    def start(connections):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            with listener:
                for _ in range(connections):
                    conn, _addr = listener.accept()
                    with conn:
                        conn.recv(1, socket.MSG_PEEK)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return listener.getsockname()[:2]

    yield start
    for thread in threads:
        thread.join(timeout=3)
    assert not any(thread.is_alive() for thread in threads)
