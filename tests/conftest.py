import socket
import sys
import threading
from pathlib import Path

import pytest

# Make tests/oracles.py importable from any invocation directory.
sys.path.insert(0, str(Path(__file__).parent))

from abclab import curve, wire  # noqa: E402


@pytest.fixture
def point_op_counts(monkeypatch):
    """The point_double and point_add calls made through the curve module."""
    counts = {"double": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(curve, "point_double", counted("double", curve.point_double))
    monkeypatch.setattr(curve, "point_add", counted("add", curve.point_add))
    return counts


@pytest.fixture
def fake_service():
    """start(reply): an endpoint that reads one request and answers it with
    the envelope reply, whatever the request was."""
    threads = []

    def start(reply):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            with listener:
                conn, _addr = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    wire.frame_read(stream)
                    wire.frame_write(stream, reply)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return listener.getsockname()

    yield start
    for thread in threads:
        thread.join(timeout=3)
