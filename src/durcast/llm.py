"""Multi-round prediction generation against pluggable chat backends.

One query produces an ensemble of n completions: round 1 at temperature 0,
rounds 2..n at temperatures drawn uniformly from [0.05, 0.4]. Rounds are
retried on transport failures and unparseable outputs, then dropped; the
ensemble fails only when every round drops.

Backends share one method, complete(prompt, temperature, round_index) ->
raw text. The HTTP backend speaks the common chat-completions shape; the
mock backends are deterministic stand-ins for hermetic tests and offline
runs, reading structured prompt metadata rather than scraping prompt text.

A backend's concurrency_limit is the most calls in flight. Only the HTTP
backend waits on I/O, so only it gains from threads: at a limit above 1 it
owns a CallPool of that many threads, a query's rounds run there at once,
and the next query's rounds take the threads the last one leaves idle.
The in-process mocks run on the calling thread, where the limit holds
trivially. Either way each round keeps its seed, temperature and retries,
and the ensemble lists rounds by round_index.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    AllRoundsFailed,
    BackendTransportError,
    BackendUnreachable,
    BadN,
    SpecError,
    UnparseableOutput,
)
from .prompting import Prompt
from .transport import TransportFailure, route

DEFAULT_MAX_MINUTES = 810.0
DEFAULT_CONCURRENCY = 10

# A quantity: an optional minus sign, a number (commas before groups of
# three digits separate thousands), an optional range end after "-" or an
# en dash, and an optional hours unit. A standalone quantity does not start
# inside a number, and a hyphen after a word (as in "ASA-3") is no sign.
_NUM = r"\d+(?:,\d{3}(?!\d))*(?:\.\d+)?"
_REST = rf"({_NUM})(?:\s*[-\u2013]\s*({_NUM}))?(\s*h(?:ours?|rs?)?\b)?"
_SENTINEL = re.compile(r"PREDICTION\s*:\s*(-?)\s*" + _REST, re.IGNORECASE)
_NUMBER = re.compile(r"(?:(?<![\w.,])(-)\s*|(?<![\d.,]))" + _REST, re.IGNORECASE)


def stable_seed(*parts) -> int:
    """Platform-stable 64-bit seed from arbitrary printable parts."""
    digest = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def schedule_temperatures(n: int, seed: int) -> list[float]:
    """Round temperatures: 0 first, then i.i.d. uniform on [0.05, 0.4]."""
    if n < 1:
        raise BadN(f"round count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return [0.0] + [float(t) for t in rng.uniform(0.05, 0.4, n - 1)]


def _extract_number(raw: str) -> float:
    hits = _SENTINEL.findall(raw) or _NUMBER.findall(raw)
    if not hits:
        raise UnparseableOutput(f"no number found in completion: {raw!r}")
    sign, low, high, hours = hits[-1]
    if sign:
        raise UnparseableOutput(f"negative duration in completion: {raw!r}")
    minutes = float(low.replace(",", ""))
    if high:
        minutes = (minutes + float(high.replace(",", ""))) / 2.0
    return minutes * 60.0 if hours else minutes


def _clamp(minutes: float, max_minutes: float = DEFAULT_MAX_MINUTES) -> float:
    return float(min(max(minutes, 1.0), max_minutes))


def parse_duration(raw: str, max_minutes: float = DEFAULT_MAX_MINUTES) -> float:
    """Minutes from a completion, clamped to [1, max_minutes].

    The quantity read is the one after the last PREDICTION: sentinel that
    is followed by one, else the last quantity in the text. Rules:
    - commas between groups of three digits separate thousands
      ("1,200" is 1200);
    - a number followed by h, hr, hrs, hour or hours is in hours
      ("2 hours" is 120, "1.5 h" is 90); any other number is in minutes;
    - two numbers joined by "-" or an en dash are a range, read as its
      midpoint ("90-120 minutes" is 105); "90 to 100" is no range, so the
      last number, 100, is read;
    - a minus sign before the number ("PREDICTION: -5") makes the reply
      unparseable, as does text with no number: UnparseableOutput, so the
      round is retried.
    """
    return _clamp(_extract_number(raw), max_minutes)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class CallPool:
    """The threads that run one backend's calls: at most limit at once,
    started in the order they were asked for.

    A caller that fans queries out runs each one inside admit(). It waits
    until a call asked for now would start at once and holds that place
    for the query's rounds, so queries wait their turn outside the pool and
    a query's rounds never queue behind a later query's."""

    def __init__(self, limit: int):
        self.limit = limit
        self._executor = ThreadPoolExecutor(max_workers=limit, thread_name_prefix="durcast-call")
        self._turn = threading.Condition()
        self._open = 0  # places held plus calls not yet done
        self._held = threading.local()

    @contextlib.contextmanager
    def admit(self):
        with self._turn:
            self._turn.wait_for(lambda: self._open < self.limit)
            self._open += 1
        self._held.place = True
        try:
            yield
        finally:
            if self._held.place:
                self._held.place = False
                self._done()

    def map(self, fn, *iterables) -> list[Future]:
        """Submit fn over the zipped arguments, in order. A place this
        thread holds from admit() goes to the first call."""
        calls = list(zip(*iterables))
        with self._turn:
            held = getattr(self._held, "place", False)
            self._held.place = False
            self._open += len(calls) - held
        futures = [self._executor.submit(fn, *args) for args in calls]
        for future in futures:
            future.add_done_callback(self._done)
        return futures

    def _done(self, _future=None):
        with self._turn:
            self._open -= 1
            self._turn.notify()


@dataclass(kw_only=True)
class LlmBackend:
    """Interface plus the knobs every backend carries: extra attempts per
    round (max_retries, an int >= 0) and the most calls in flight
    (concurrency_limit, an int >= 1). A bad knob is a SpecError.

    call_pool is the one hook for threads. A backend that waits on I/O
    sets it to a CallPool of concurrency_limit threads, and its queries and
    rounds then run there; a backend without one, as the mocks, computes
    under the interpreter lock and runs on the calling thread."""

    kind: ClassVar[str]
    call_pool = None  # not a field: an I/O backend's __post_init__ sets it
    max_retries: int = 2
    concurrency_limit: int = DEFAULT_CONCURRENCY

    def __post_init__(self):
        if not (_is_int(self.max_retries) and self.max_retries >= 0):
            raise SpecError(f"max_retries must be an integer >= 0, got {self.max_retries!r}")
        if not (_is_int(self.concurrency_limit) and self.concurrency_limit >= 1):
            raise SpecError(
                f"concurrency_limit must be an integer >= 1, got {self.concurrency_limit!r}"
            )

    def complete(self, prompt: Prompt, temperature: float, round_index: int) -> str:
        raise NotImplementedError


@dataclass
class HttpChatBackend(LlmBackend):
    """Chat-completions client: POST {model, messages, temperature} and read
    choices[0].message.content. API key, when required, comes from the
    environment variable named by api_key_env. timeout_s (finite, > 0)
    bounds the connect and each read. Proxies come from the environment,
    read at the first call, and TLS uses the system trust store (see
    durcast.transport)."""

    endpoint: str = "http://localhost:8000/v1/chat/completions"
    model_name: str = "unspecified"
    api_key_env: str = "DURCAST_API_KEY"
    timeout_s: float = 60.0
    kind = "http_chat"
    _route = None  # not a field: the endpoint's Route, made at the first call

    def __post_init__(self):
        super().__post_init__()
        t = self.timeout_s
        if not (isinstance(t, (int, float)) and not isinstance(t, bool) and 0 < t < math.inf):
            raise SpecError(f"timeout_s must be a finite number > 0, got {t!r}")
        if self.concurrency_limit > 1:
            self.call_pool = CallPool(self.concurrency_limit)

    def complete(self, prompt: Prompt, temperature: float, round_index: int) -> str:
        headers = {}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.model_name,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
            "temperature": temperature,
        }
        try:
            self._route = route(self.endpoint, self._route)
            payload = self._route.post_json(body, self.timeout_s, headers)
        except TransportFailure as exc:
            raise BackendTransportError(f"chat backend {self.endpoint}: {exc}") from exc
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise BackendTransportError(
                f"chat backend {self.endpoint} returned malformed payload: "
                "no string at choices[0].message.content"
            )
        return content


@dataclass
class MockEchoPrior(LlmBackend):
    """Answers with the prompt's stratum median; refuses when there is none."""

    kind = "mock_echo_prior"

    def complete(self, prompt: Prompt, temperature: float, round_index: int) -> str:
        median = prompt.metadata.prior_median
        if median is None:
            return "I cannot estimate without cohort statistics."
        return f"PREDICTION: {int(round(median))} minutes"


@dataclass
class MockReferenceMean(LlmBackend):
    """Answers with the mean of the prompt's reference durations plus
    seeded Gaussian noise.

    When the prompt carries no references (zero-shot), the backend falls
    back to fallback_min, its built-in notion of a globally typical
    duration. A context-free generator has no access to the corpus at
    hand, so this constant is generic rather than corpus-calibrated.

    Noise is a pure function of (seed, query id, round index), independent
    of temperature: it models the generator's estimation error, which does
    not vanish at temperature 0, so averaging more rounds genuinely reduces
    it. noise_sd must be a finite number >= 0. A value that overflows to
    infinity gets a refusal, so its round is unparseable, not a crash."""

    noise_sd: float = 0.0
    seed: int = 0
    fallback_min: float = 90.0
    kind = "mock_reference_mean"

    def __post_init__(self):
        super().__post_init__()
        sd = self.noise_sd
        if not (isinstance(sd, (int, float)) and not isinstance(sd, bool) and 0.0 <= sd < math.inf):
            raise SpecError(f"noise_sd must be a finite number >= 0, got {sd!r}")

    def complete(self, prompt: Prompt, temperature: float, round_index: int) -> str:
        durations = prompt.metadata.reference_durations
        value = float(np.mean(durations)) if durations else self.fallback_min
        if self.noise_sd > 0.0:
            rng = np.random.default_rng(
                stable_seed(self.seed, prompt.metadata.query_id, round_index)
            )
            value += float(rng.normal(0.0, self.noise_sd))
        if not math.isfinite(value):
            return "I cannot estimate this duration."
        return f"PREDICTION: {max(int(round(value)), 1)} minutes"


@dataclass
class MockScripted(LlmBackend):
    """Cycles through a fixed list of completions, one cursor per query id
    (thread-safe): each query's calls get outputs[0], outputs[1], ... in
    order, however concurrent queries interleave. outputs must be a
    non-empty tuple of strings."""

    outputs: tuple[str, ...] = ("PREDICTION: 100 minutes",)
    kind = "mock_scripted"

    def __post_init__(self):
        super().__post_init__()
        out = self.outputs
        if not (isinstance(out, tuple) and out and all(isinstance(o, str) for o in out)):
            raise SpecError(f"outputs must be a non-empty tuple of strings, got {out!r}")
        self._cursors: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: Prompt, temperature: float, round_index: int) -> str:
        key = prompt.metadata.query_id
        with self._lock:
            cursor = self._cursors.get(key, 0)
            self._cursors[key] = cursor + 1
        return self.outputs[cursor % len(self.outputs)]


@dataclass(frozen=True)
class PredictionRound:
    round_index: int
    temperature: float
    raw_text: str
    parsed_minutes: float
    clamped: bool


@dataclass(frozen=True)
class PredictionEnsemble:
    """Retained rounds for one query. Dropped rounds simply do not appear;
    aggregation uses the retained count as its n."""

    rounds: tuple[PredictionRound, ...]
    seed: int
    requested_n: int

    def values(self) -> list[float]:
        return [r.parsed_minutes for r in self.rounds]

    @property
    def retained_n(self) -> int:
        return len(self.rounds)


def _ask_round(
    prompt: Prompt, backend: LlmBackend, strict: bool, round_index: int, temperature: float
) -> PredictionRound | None:
    """One round of up to backend.max_retries + 1 attempts, a transport
    error or an unparseable completion moving on to the next: the retained
    round, or None when every attempt failed. In strict mode, round 1
    failing every attempt on transport raises BackendUnreachable instead."""
    transport_failures = 0
    for _ in range(backend.max_retries + 1):
        try:
            raw = backend.complete(prompt, temperature, round_index)
        except BackendTransportError:
            transport_failures += 1
            continue
        try:
            unclamped = _extract_number(raw)
        except UnparseableOutput:
            continue
        parsed = _clamp(unclamped)
        return PredictionRound(round_index, temperature, raw, parsed, clamped=parsed != unclamped)
    if strict and round_index == 1 and transport_failures == backend.max_retries + 1:
        raise BackendUnreachable(
            f"backend {backend.kind} failed all "
            f"{backend.max_retries + 1} attempts on the first round"
        )
    return None


def predict_ensemble(
    prompt: Prompt,
    backend: LlmBackend,
    n: int,
    seed: int,
    strict: bool = False,
) -> PredictionEnsemble:
    """Run n scheduled rounds against the backend, each one _ask_round, and
    keep those that survive, in round_index order. With a call_pool, the
    rounds run there, as many at once as it has free threads; else they run
    one after another on the calling thread. strict mode raises
    BackendUnreachable when round 1 fails every attempt on transport (the
    backend is presumed down); rounds not yet started are then cancelled.
    Raises AllRoundsFailed when no round survives.
    """
    temperatures = schedule_temperatures(n, seed)
    ask = functools.partial(_ask_round, prompt, backend, strict)
    rounds = range(1, n + 1)
    futures: list[Future] = []
    if backend.call_pool is None:
        # lazy, so a strict failure of round 1 starts no further round
        outcomes = map(ask, rounds, temperatures)
    else:
        futures = backend.call_pool.map(ask, rounds, temperatures)
        outcomes = (future.result() for future in futures)
    try:
        retained = tuple(kept for kept in outcomes if kept is not None)
    finally:
        for future in futures:
            future.cancel()
    if not retained:
        raise AllRoundsFailed(f"all {n} rounds dropped against backend {backend.kind}")
    return PredictionEnsemble(rounds=retained, seed=seed, requested_n=n)
