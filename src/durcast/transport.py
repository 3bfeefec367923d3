"""The package's one HTTP client: a JSON POST over the standard library.

A Route is one URL's target; each POST through it opens one connection
and closes it before returning. Proxies come from the environment
(HTTP_PROXY, HTTPS_PROXY, ALL_PROXY and NO_PROXY, in either case, read
with urllib.request.getproxies and proxy_bypass) when the route is made.
A client (HttpChatBackend, RemoteTextEmbedder) makes its route at its
first call and keeps it while its URL stays, so environment changes after
that call do not reach it; a new client sees them. A proxy is spoken to
in plain HTTP. An http URL is sent to its proxy in absolute form, an
https URL is tunnelled through it with CONNECT. user:password in a proxy
URL becomes a Basic Proxy-Authorization header, and in the request URL a
Basic Authorization header unless the caller passes one. HTTPS verifies
the server against the system trust store (ssl.create_default_context),
not a bundled one. Redirects are not followed: a 3xx reply is a failure
like any other status outside 2xx.

A call's timeout_s bounds the whole call: one monotonic deadline covers the
connect, the TLS handshake, a proxy's CONNECT reply, the request, the status
line, the headers and the body, and each socket read waits only for the
time that remains, on the calling thread. A reply is read in chunks of at
most _CHUNK bytes and refused past MAX_REPLY_BYTES. Either breach is a
TransportFailure, which retries as any transport fault does.
"""

from __future__ import annotations

import base64
import functools
import http.client
import io
import json
import socket
import ssl
import time
import urllib.parse
import urllib.request

# The most bytes read of one reply, headers included: a full embedding
# batch, text_embedding._BATCH_TEXTS (256) texts of up to 4,096 numbers at
# up to 24 bytes of JSON each.
MAX_REPLY_BYTES = 256 * 4096 * 24
# The most bytes one read of a reply's body asks for.
_CHUNK = 1 << 16
_TIMED_OUT = "timed out: the call took its whole timeout_s"


class TransportFailure(Exception):
    """A POST that got no 2xx JSON reply; the message says why."""


@functools.cache
def _tls_context() -> ssl.SSLContext:
    return ssl.create_default_context()


def _left(deadline: float) -> float:
    """The seconds left before deadline; TransportFailure once none are."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TransportFailure(_TIMED_OUT)
    return left


def _connect(deadline: float, address, _timeout, source_address=None) -> socket.socket:
    """socket.create_connection as http.client calls it, bounded by the
    deadline instead of the connection's timeout; the socket then waits at
    most the time left for the TLS handshake and the request's send."""
    sock = socket.create_connection(address, _left(deadline), source_address)
    sock.settimeout(_left(deadline))
    return sock


class _BoundedReads(io.RawIOBase):
    """A connection's socket as an HTTPResponse reads it: each read waits
    only for the time left before the deadline, and reading fails once the
    reply has passed MAX_REPLY_BYTES."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock, self._deadline, self._read = sock, deadline, 0
        # the socket's own reader, which keeps it open until this closes
        self._raw = sock.makefile("rb", buffering=0)

    def makefile(self, mode: str) -> io.BufferedReader:  # how HTTPResponse opens it
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def close(self) -> None:
        self._raw.close()
        super().close()

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_left(self._deadline))
        count = self._raw.readinto(buffer)
        self._read += count
        if self._read > MAX_REPLY_BYTES:
            raise TransportFailure(f"reply is longer than {MAX_REPLY_BYTES:,} bytes")
        return count


def _basic(url: urllib.parse.SplitResult) -> str:
    user = f"{urllib.parse.unquote(url.username)}:{urllib.parse.unquote(url.password or '')}"
    return "Basic " + base64.b64encode(user.encode()).decode()


def _proxy(url: urllib.parse.SplitResult) -> urllib.parse.SplitResult | None:
    """The parts of the proxy the environment names for url, if any."""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
        return None
    via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if via.scheme != "http" or not via.hostname:
        raise TransportFailure(f"unsupported proxy {proxy!r}: need http://host[:port]")
    return via


class Route:
    """Where POSTs to one URL go: its parts, and the proxy's parts when the
    environment sends the URL through one. Both are resolved when the route
    is made, so a later change to the environment does not reach it.
    Raises TransportFailure for a URL that is not http(s) or a proxy that
    is not http://host[:port]."""

    def __init__(self, url: str):
        try:
            parts = urllib.parse.urlsplit(url)
        except ValueError:  # as an unclosed IPv6 bracket
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise TransportFailure(f"not an http(s) URL: {url!r}")
        self.source = url
        self.url = parts
        try:
            self.via = _proxy(parts)
        except (OSError, ValueError) as exc:  # as a proxy URL urlsplit refuses
            raise TransportFailure(f"{type(exc).__name__}: {exc}") from exc

    def _open(self, deadline: float):
        """(connection, request target, extra headers) for one POST, its
        connect and its reads bounded by the monotonic deadline."""
        url, via = self.url, self.via
        https = url.scheme == "https"
        cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
        kwargs = {"context": _tls_context()} if https else {}
        # an explicit port, so http.client does not split an IPv6 host at a colon
        port = url.port or (443 if https else 80)
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        host, at = (url.hostname, port) if via is None else (via.hostname, via.port or 80)
        conn = cls(host, at, **kwargs)
        conn._create_connection = functools.partial(_connect, deadline)
        conn.response_class = lambda sock, **kw: http.client.HTTPResponse(
            _BoundedReads(sock, deadline), **kw
        )
        if via is None:
            return conn, target, {}
        auth = {"Proxy-Authorization": _basic(via)} if via.username is not None else {}
        if https:
            conn.set_tunnel(url.hostname, port, headers=auth)
            return conn, target, {}
        absolute = url._replace(netloc=url.netloc.rpartition("@")[2], fragment="")
        return conn, urllib.parse.urlunsplit(absolute), auth

    def post_json(self, body, timeout_s: float, headers: dict[str, str] | None = None):
        """POST body as JSON and return the decoded JSON reply.

        timeout_s bounds the whole call (see the module docstring). Raises
        TransportFailure for a socket, TLS or protocol error, a call past
        timeout_s, a reply over MAX_REPLY_BYTES, a status outside 2xx, or a
        reply that is not JSON.
        """
        deadline = time.monotonic() + timeout_s
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json", **(headers or {})}
        if self.url.username is not None:
            headers.setdefault("Authorization", _basic(self.url))
        try:
            conn, target, extra = self._open(deadline)
            try:
                conn.request("POST", target, body=data, headers={**extra, **headers})
                with conn.getresponse() as resp:
                    status, reason = resp.status, resp.reason
                    raw = b"".join(iter(functools.partial(resp.read, _CHUNK), b""))
            finally:
                conn.close()
        except TimeoutError as exc:  # a socket wait that outlasted the time left
            raise TransportFailure(_TIMED_OUT) from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportFailure(f"{type(exc).__name__}: {exc}") from exc
        if not 200 <= status < 300:
            raise TransportFailure(f"HTTP {status} {reason}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise TransportFailure(f"reply is not JSON: {exc}") from exc


def route(url: str, known: Route | None) -> Route:
    """known when it was made for url, else url's route, resolved now: a
    client keeps the route of its first call while its URL stays."""
    return known if known is not None and known.source == url else Route(url)
