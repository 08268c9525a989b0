import socket
import sys
import threading
from pathlib import Path

import pytest

# Make tests/oracles.py importable from any invocation directory.
sys.path.insert(0, str(Path(__file__).parent))

from abclab import wire  # noqa: E402


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
