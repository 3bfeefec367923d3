"""Deterministic chat-completions stub with seeded latency and faults.

Answers the wire format `durcast.llm.HttpChatBackend` speaks: POST
{"model", "messages", "temperature"}, reply {"choices": [{"message":
{"content": ...}}]}. The answer is the mean of the "observed duration"
lines in the user message plus seeded Gaussian noise, so the rag pipeline
gets a sensible estimate without a model.

Every request waits a fixed latency, then gets one outcome:

    503            transport fault (server overloaded)
    429            transport fault, with a Retry-After header
    malformed      HTTP 200 whose body is not JSON
    no_sentinel    a number without the PREDICTION: sentinel
    unparseable    a reply with no number at all
    ok             PREDICTION: <minutes> minutes

The outcome is a pure function of (seed, request body, times this body was
seen before), so a retry of a failed round gets a fresh draw, and two
servers with the same seed replay the same sequence. POST /reset forgets
the seen counts, so every pass over a test set meets the same faults.
At most `max_connections` requests are served at once.

Run as a child process:

    python3 stub_server.py --seed 1 --latency-ms 10 --share-503 0.05 ...

It prints `PORT <n>` once it listens on 127.0.0.1, and serves until its
standard input closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FAULTS = ("503", "429", "malformed", "no_sentinel", "unparseable")

_OBSERVED = re.compile(r"observed duration:\s*(\d+(?:\.\d+)?)")
_MEDIAN = re.compile(r"median duration:\s*(\d+(?:\.\d+)?)")


@dataclass(frozen=True)
class StubParams:
    seed: int = 1
    latency_ms: float = 10.0
    shares: dict = field(default_factory=dict)
    noise_sd: float = 10.0
    max_connections: int = 2

    def __post_init__(self):
        unknown = set(self.shares) - set(FAULTS)
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}")
        if any(s < 0 for s in self.shares.values()) or sum(self.shares.values()) >= 1:
            raise ValueError(f"fault shares must be >= 0 and sum below 1: {self.shares}")


def _unit_draw(*parts: bytes) -> float:
    digest = hashlib.blake2b(b"\x1f".join(parts), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


def decide_outcome(params: StubParams, body: bytes, times_seen: int) -> str:
    """The outcome of one request; see the module docstring."""
    u = _unit_draw(str(params.seed).encode(), str(times_seen).encode(), body)
    edge = 0.0
    for kind in FAULTS:
        edge += params.shares.get(kind, 0.0)
        if u < edge:
            return kind
    return "ok"


def answer_minutes(params: StubParams, body: bytes) -> int:
    """Reference mean plus noise; independent of how often the body was seen."""
    try:
        messages = json.loads(body)["messages"]
        user = next(m["content"] for m in messages if m.get("role") == "user")
    except (ValueError, KeyError, TypeError, StopIteration):
        user = ""
    durations = [float(x) for x in _OBSERVED.findall(user)]
    if durations:
        value = sum(durations) / len(durations)
    else:
        median = _MEDIAN.search(user)
        value = float(median.group(1)) if median else 90.0
    noise_seed = hashlib.blake2b(
        str(params.seed).encode() + b"\x1fanswer\x1f" + body, digest_size=8
    ).digest()
    value += random.Random(noise_seed).gauss(0.0, params.noise_sd)
    return max(int(round(value)), 1)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server: StubChatServer = self.server
        if self.path == "/reset":
            server.reset()
            self._send(204, b"")
            return
        outcome, answer = server.respond(body)
        time.sleep(server.params.latency_ms / 1000.0)
        if outcome == "503":
            self._send(503, b'{"error": "overloaded"}')
        elif outcome == "429":
            self._send(429, b'{"error": "rate limited"}', {"Retry-After": "1"})
        elif outcome == "malformed":
            self._send(200, b'{"choices": [{"message": ')
        else:
            content = {
                "no_sentinel": f"My estimate is about {answer} minutes.",
                "unparseable": "I cannot estimate this case.",
                "ok": f"Reasoning from the references.\nPREDICTION: {answer} minutes",
            }[outcome]
            payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
            self._send(200, json.dumps(payload).encode())

    def _send(self, status: int, blob: bytes, headers: dict | None = None):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


class StubChatServer(ThreadingHTTPServer):
    """Loopback chat server; serve_forever() in any thread."""

    daemon_threads = True

    def __init__(self, params: StubParams, port: int = 0):
        super().__init__(("127.0.0.1", port), _Handler)
        self.params = params
        self._lock = threading.Lock()
        self._seen: dict[bytes, int] = {}
        self.tally = {kind: 0 for kind in ("ok", *FAULTS)}
        self._slots = threading.BoundedSemaphore(params.max_connections)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def reset(self) -> None:
        with self._lock:
            self._seen.clear()

    def respond(self, body: bytes) -> tuple[str, int]:
        with self._lock:
            times_seen = self._seen.get(body, 0)
            self._seen[body] = times_seen + 1
            outcome = decide_outcome(self.params, body, times_seen)
            self.tally[outcome] += 1
        return outcome, answer_minutes(self.params, body)

    # Hold a slot from accept to the end of the handler thread, so at most
    # max_connections requests are in service; later ones wait in the
    # listen backlog.
    def process_request(self, request, client_address):
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--latency-ms", type=float, default=10.0)
    p.add_argument("--noise-sd", type=float, default=10.0)
    p.add_argument("--max-connections", type=int, default=2)
    for kind in FAULTS:
        p.add_argument(f"--share-{kind.replace('_', '-')}", type=float, default=0.0)
    args = p.parse_args(argv)
    params = StubParams(
        seed=args.seed,
        latency_ms=args.latency_ms,
        noise_sd=args.noise_sd,
        max_connections=args.max_connections,
        shares={kind: getattr(args, f"share_{kind}") for kind in FAULTS},
    )
    server = StubChatServer(params)
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        worker.join(timeout=10)
        print(json.dumps({"tally": server.tally}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
