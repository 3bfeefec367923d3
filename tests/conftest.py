"""Shared fixtures: a small clinical schema, a hand-built case corpus with
three procedure clusters, and constructors for priors and ensembles."""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from durcast.llm import PredictionEnsemble, PredictionRound
from durcast.priors import StatisticalPrior
from durcast.schema import CaseSet, Feature, FeatureSchema, SurgicalCase

LEVELS = ("I", "II", "III", "IV")


def small_schema() -> FeatureSchema:
    return FeatureSchema(
        features=(
            Feature("age", "numerical"),
            Feature("asa_grade", "ordinal"),
            Feature("surgery_level", "ordinal"),
            Feature("department", "categorical"),
            Feature("surgery_name", "categorical"),
            Feature("emergency", "boolean"),
            Feature("note", "text"),
        ),
        ordinal_orders={"asa_grade": LEVELS, "surgery_level": LEVELS},
        key_attributes=("department", "surgery_name", "surgery_level"),
    )


def mk_case(
    case_id: str,
    duration: float | None = None,
    *,
    age: float = 50.0,
    asa: str = "II",
    level: str = "II",
    department: str = "general_surgery",
    surgery: str = "procedure",
    emergency: str = "false",
    note: str = "stable",
) -> SurgicalCase:
    return SurgicalCase(
        id=case_id,
        values={
            "age": age,
            "asa_grade": asa,
            "surgery_level": level,
            "department": department,
            "surgery_name": surgery,
            "emergency": emergency,
            "note": note,
        },
        duration_min=duration,
    )


THYROID_DURATIONS = (115.0, 120.0, 125.0, 128.0, 132.0, 138.0, 144.0, 150.0)


def tiny_corpus() -> CaseSet:
    """Sixteen training cases in three tight procedure clusters."""
    cases = []
    for i, dur in enumerate(THYROID_DURATIONS):
        cases.append(
            mk_case(
                f"thy-{i}",
                dur,
                age=44.0 + i,
                asa="I" if i % 2 else "II",
                level="II",
                department="thyroid_breast",
                surgery="thyroidectomy",
                note="neck ultrasound reviewed",
            )
        )
    for i, dur in enumerate((70.0, 74.0, 78.0, 82.0)):
        cases.append(
            mk_case(
                f"lump-{i}",
                dur,
                age=50.0 + i,
                asa="I",
                level="I",
                department="thyroid_breast",
                surgery="breast lumpectomy",
                note="imaging localized lesion",
            )
        )
    for i, dur in enumerate((170.0, 176.0, 182.0, 188.0)):
        cases.append(
            mk_case(
                f"col-{i}",
                dur,
                age=62.0 + i,
                asa="III",
                level="III",
                department="general_surgery",
                surgery="laparoscopic colectomy",
                note="bowel prep completed",
            )
        )
    return CaseSet(cases=cases, schema=small_schema())


@pytest.fixture
def schema() -> FeatureSchema:
    return small_schema()


@pytest.fixture
def corpus() -> CaseSet:
    return tiny_corpus()


def mk_prior(
    median: float = 120.0,
    mean: float = 125.0,
    rng: tuple[float, float] = (90.0, 180.0),
    iqr: tuple[float, float] = (105.0, 140.0),
    variance: float = 400.0,
    cohort: int = 12,
    descriptor: str = "department=thyroid_breast",
    level: int = 0,
) -> StatisticalPrior:
    return StatisticalPrior(
        median_min=median,
        mean_min=mean,
        range_min=rng,
        iqr_min=iqr,
        variance_min2=variance,
        cohort_size=cohort,
        stratum_descriptor=descriptor,
        fallback_level=level,
    )


def mk_ensemble(values, seed: int = 0) -> PredictionEnsemble:
    rounds = tuple(
        PredictionRound(
            round_index=i,
            temperature=0.0 if i == 1 else 0.2,
            raw_text=f"PREDICTION: {v} minutes",
            parsed_minutes=float(v),
            clamped=False,
        )
        for i, v in enumerate(values, start=1)
    )
    return PredictionEnsemble(rounds=rounds, seed=seed, requested_n=len(rounds))


def chat_reply(text) -> dict:
    """A chat-completions reply whose content is text."""
    return {"choices": [{"message": {"content": text}}]}


def seeded_faults(body: bytes, seen: int):
    """A fault-injecting reply, a pure function of the request body and how
    often that body was seen before: 503, a body that is not JSON, a
    numberless reply, a reply without the sentinel, else a sentinel answer."""
    draw = int.from_bytes(
        hashlib.blake2b(body + b"#%d" % seen, digest_size=8).digest(), "little"
    )
    kind, minutes = draw % 20, 60 + (draw >> 8) % 180
    if kind < 2:
        return 503, {"error": "overloaded"}
    if kind == 2:
        return 200, b"<html>not json</html>"
    if kind == 3:
        return 200, chat_reply("no estimate possible")
    if kind == 4:
        return 200, chat_reply(f"roughly {minutes}")
    return 200, chat_reply(f"PREDICTION: {minutes} minutes")


def hashed_vector(text: str, dim: int) -> list[float]:
    """dim numbers in [-8, 8) drawn from text's shake_256 digest: a pure
    function of the text, with fractions that make its norm round."""
    digest = hashlib.shake_256(text.encode("utf-8")).digest(2 * dim)
    return [int.from_bytes(digest[2 * i : 2 * i + 2], "little") / 4096 - 8.0 for i in range(dim)]


def hashed_embeddings(dim: int):
    """An embeddings answer function: one hashed_vector per input text, in
    input order, however many texts a request holds."""

    def respond(body: bytes, seen: int):
        texts = json.loads(body)["input"]
        return 200, {"data": [{"embedding": hashed_vector(t, dim)} for t in texts]}

    return respond


class _StubHandler(BaseHTTPRequestHandler):
    """Records each request, holds it for the server's latency while
    counting how many are held at once, then answers
    server.respond(body, times this body was seen before)."""

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.lock:
            server.requests.append(
                {"method": "POST", "path": self.path, "headers": dict(self.headers),
                 "body": json.loads(body) if body else None}
            )
            seen = server.seen.get(body, 0)
            server.seen[body] = seen + 1
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        try:
            time.sleep(server.latency_s)
            status, payload = server.respond(body, seen)
        finally:
            with server.lock:
                server.in_flight -= 1
        blob = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_CONNECT(self):
        with self.server.lock:
            self.server.requests.append({"method": "CONNECT", "path": self.path})
        self.send_error(405)

    def log_message(self, *args):
        pass


class _StubHTTPServer(ThreadingHTTPServer):
    request_queue_size = 64  # concurrent connects must not wait for a SYN retry


class StubServer:
    """A loopback HTTP server with latency and an answer function; it
    records every request and the peak held at once. The default answer is
    a chat reply of PREDICTION: 100."""

    def __init__(self, respond=None, latency_s: float = 0.0):
        self.httpd = _StubHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.httpd.respond = respond or (lambda body, seen: (200, chat_reply("PREDICTION: 100")))
        self.httpd.latency_s = latency_s
        self.httpd.lock = threading.Lock()
        self.httpd.requests = []
        self.httpd.seen = {}
        self.httpd.in_flight = self.httpd.peak = 0
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list[dict]:
        return self.httpd.requests

    @property
    def peak(self) -> int:
        return self.httpd.peak

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def stub_server():
    """start(respond, latency_s) starts a StubServer; start(replies) starts
    one that answers the listed (status, payload) pairs in request order,
    repeating the last."""
    servers = []

    def start(respond=None, latency_s: float = 0.0):
        if isinstance(respond, list):
            replies, calls = respond, itertools.count()
            respond = lambda body, seen: replies[min(next(calls), len(replies) - 1)]  # noqa: E731
        server = StubServer(respond, latency_s)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


@pytest.fixture
def no_proxy_env(monkeypatch):
    """An environment with no proxy settings; a test sets the ones it needs."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch
