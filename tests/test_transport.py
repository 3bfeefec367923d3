"""Route.post_json's bounds: one deadline of timeout_s for the whole call,
and at most MAX_REPLY_BYTES read of a reply, against loopback servers that
trickle their reply or never end it."""

import socket
import threading
import time

import pytest

from conftest import mk_case, small_schema
from durcast import transport
from durcast.errors import BackendTransportError, EmbeddingServiceError
from durcast.llm import HttpChatBackend
from durcast.prompting import build_prompt, load_template
from durcast.text_embedding import _BATCH_TEXTS, RemoteTextEmbedder

BODY = b'{"data": [{"embedding": [1.0, 0.0]}]}'
REPLY = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + BODY


class RawServer:
    """A loopback TCP server: each connection's request is read, then
    send(conn) answers it on the server's thread until it returns or the
    client hangs up."""

    def __init__(self, send):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}/v1"
        self.send = send
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:  # shut down
                return
            with conn:
                try:
                    request = b""
                    while b"\r\n\r\n" not in request:
                        request += conn.recv(1 << 16)
                    head, _, body = request.partition(b"\r\n\r\n")
                    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                    while len(body) < length:
                        body += conn.recv(1 << 16)
                    self.send(conn)
                except OSError:  # the client hung up
                    pass

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the accept
        self.sock.close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture
def raw_server(no_proxy_env):
    servers = []

    def start(send):
        servers.append(RawServer(send))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def trickle(head_at_once: bool):
    """Send REPLY one byte per 50 ms; with head_at_once, the status line
    and headers go at once and only the body trickles."""

    def send(conn):
        head = len(REPLY) - len(BODY) if head_at_once else 0
        conn.sendall(REPLY[:head])
        for i in range(head, len(REPLY)):
            conn.sendall(REPLY[i : i + 1])
            time.sleep(0.05)

    return send


def endless(headers: bytes):
    """Send a 200 status line and headers, then body bytes without end."""

    def send(conn):
        conn.sendall(b"HTTP/1.1 200 OK\r\n" + headers + b"\r\n")
        chunk = b"x" * (1 << 16)
        if b"chunked" in headers:
            chunk = b"%x\r\n%s\r\n" % (len(chunk), chunk)
        while True:
            conn.sendall(chunk)

    return send


class TestDeadline:
    @pytest.mark.parametrize("head_at_once", [False, True])
    def test_trickling_reply_fails_within_timeout(self, raw_server, head_at_once):
        """Each byte comes well within timeout_s of the last, so only a
        deadline for the whole call stops it: status line and headers
        included, or the body alone."""
        server = raw_server(trickle(head_at_once))
        start = time.monotonic()
        with pytest.raises(transport.TransportFailure, match="timed out"):
            transport.Route(server.url).post_json({"input": ["a"]}, timeout_s=1.0)
        assert 0.9 < time.monotonic() - start < 1.5

    def test_reply_within_timeout_is_read(self, raw_server):
        server = raw_server(lambda conn: conn.sendall(REPLY))
        reply = transport.Route(server.url).post_json({"input": ["a"]}, timeout_s=1.0)
        assert reply == {"data": [{"embedding": [1.0, 0.0]}]}

    def test_both_clients_fail_a_trickling_reply(self, raw_server):
        server = raw_server(trickle(False))
        start = time.monotonic()
        with pytest.raises(EmbeddingServiceError, match="timed out"):
            RemoteTextEmbedder(url=server.url, dim=2, timeout_s=0.5).embed_many(["a"])
        prompt = build_prompt(mk_case("q"), None, None, load_template(), small_schema())
        with pytest.raises(BackendTransportError, match="timed out"):
            HttpChatBackend(endpoint=server.url, timeout_s=0.5).complete(prompt, 0.0, 1)
        assert time.monotonic() - start < 2.0


class TestByteCap:
    @pytest.mark.parametrize(
        "headers",
        [b"", b"Content-Length: 1000000000000\r\n", b"Transfer-Encoding: chunked\r\n"],
    )
    def test_endless_reply_fails_at_the_cap(self, raw_server, monkeypatch, headers):
        """Read to the end, by a huge Content-Length or in chunks, an
        endless body fails after at most the cap plus one chunk is read."""
        monkeypatch.setattr(transport, "MAX_REPLY_BYTES", 300_000)
        read = []
        real = socket.SocketIO.readinto

        def counting(self, buffer):
            count = real(self, buffer)
            read.append(count or 0)
            return count

        monkeypatch.setattr(socket.SocketIO, "readinto", counting)
        server = raw_server(endless(headers))
        with pytest.raises(transport.TransportFailure, match="longer than 300,000 bytes"):
            transport.Route(server.url).post_json({"input": ["a"]}, timeout_s=30.0)
        assert 300_000 < sum(read) <= 300_000 + transport._CHUNK

    def test_cap_holds_a_full_embedding_batch(self):
        assert transport.MAX_REPLY_BYTES >= _BATCH_TEXTS * 4096 * 24
