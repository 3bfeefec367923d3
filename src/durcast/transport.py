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
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import ssl
import urllib.parse
import urllib.request


class TransportFailure(Exception):
    """A POST that got no 2xx JSON reply; the message says why."""


@functools.cache
def _tls_context() -> ssl.SSLContext:
    return ssl.create_default_context()


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

    def _open(self, timeout_s: float):
        """(connection, request target, extra headers) for one POST."""
        url, via = self.url, self.via
        https = url.scheme == "https"
        cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
        kwargs = {"context": _tls_context()} if https else {}
        # an explicit port, so http.client does not split an IPv6 host at a colon
        port = url.port or (443 if https else 80)
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if via is None:
            return cls(url.hostname, port, timeout=timeout_s, **kwargs), target, {}
        auth = {"Proxy-Authorization": _basic(via)} if via.username is not None else {}
        conn = cls(via.hostname, via.port or 80, timeout=timeout_s, **kwargs)
        if https:
            conn.set_tunnel(url.hostname, port, headers=auth)
            return conn, target, {}
        absolute = url._replace(netloc=url.netloc.rpartition("@")[2], fragment="")
        return conn, urllib.parse.urlunsplit(absolute), auth

    def post_json(self, body, timeout_s: float, headers: dict[str, str] | None = None):
        """POST body as JSON and return the decoded JSON reply.

        timeout_s bounds the connect and each socket read. Raises
        TransportFailure for a socket, TLS or protocol error, a status
        outside 2xx, or a reply that is not JSON.
        """
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json", **(headers or {})}
        if self.url.username is not None:
            headers.setdefault("Authorization", _basic(self.url))
        try:
            conn, target, extra = self._open(timeout_s)
            try:
                conn.request("POST", target, body=data, headers={**extra, **headers})
                with conn.getresponse() as resp:
                    status, reason, raw = resp.status, resp.reason, resp.read()
            finally:
                conn.close()
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
