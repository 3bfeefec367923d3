"""Multi-round prediction generation against pluggable chat backends.

One query produces an ensemble of n completions: round 1 at temperature 0,
rounds 2..n at temperatures drawn uniformly from [0.05, 0.4]. Rounds are
retried on transport failures and unparseable outputs, then dropped; the
ensemble fails only when every round drops.

Backends share one method, complete(prompt, temperature, round_index) ->
raw text. The HTTP backend speaks the common chat-completions shape; the
mock backends are deterministic stand-ins for hermetic tests and offline
runs, reading structured prompt metadata rather than scraping prompt text.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import requests

from .errors import (
    AllRoundsFailed,
    BackendTransportError,
    BackendUnreachable,
    BadN,
    UnparseableOutput,
)
from .prompting import Prompt

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
    return float(min(max(_extract_number(raw), 1.0), max_minutes))


@dataclass(kw_only=True)
class LlmBackend:
    """Interface plus the knobs every backend carries: extra attempts per
    round (max_retries) and the number of cases evaluated at once
    (concurrency_limit)."""

    kind: ClassVar[str]
    max_retries: int = 2
    concurrency_limit: int = DEFAULT_CONCURRENCY

    def complete(self, prompt: Prompt, temperature: float, round_index: int) -> str:
        raise NotImplementedError


@dataclass
class HttpChatBackend(LlmBackend):
    """Chat-completions client: POST {model, messages, temperature} and read
    choices[0].message.content. API key, when required, comes from the
    environment variable named by api_key_env."""

    endpoint: str = "http://localhost:8000/v1/chat/completions"
    model_name: str = "unspecified"
    api_key_env: str = "DURCAST_API_KEY"
    timeout_s: float = 60.0
    kind = "http_chat"

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
            resp = requests.post(
                self.endpoint, json=body, headers=headers, timeout=self.timeout_s
            )
            resp.raise_for_status()
            payload = resp.json()
            return payload["choices"][0]["message"]["content"]
        except requests.RequestException as exc:
            raise BackendTransportError(f"chat backend {self.endpoint}: {exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendTransportError(
                f"chat backend {self.endpoint} returned malformed payload: {exc}"
            ) from exc


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
    it."""

    noise_sd: float = 0.0
    seed: int = 0
    fallback_min: float = 90.0
    kind = "mock_reference_mean"

    def complete(self, prompt: Prompt, temperature: float, round_index: int) -> str:
        durations = prompt.metadata.reference_durations
        value = float(np.mean(durations)) if durations else self.fallback_min
        if self.noise_sd > 0.0:
            rng = np.random.default_rng(
                stable_seed(self.seed, prompt.metadata.query_id, round_index)
            )
            value += float(rng.normal(0.0, self.noise_sd))
        return f"PREDICTION: {max(int(round(value)), 1)} minutes"


@dataclass
class MockScripted(LlmBackend):
    """Cycles through a fixed list of completions, one cursor per query id
    (thread-safe): each query's calls get outputs[0], outputs[1], ... in
    order, however concurrent queries interleave."""

    outputs: tuple[str, ...] = ("PREDICTION: 100 minutes",)
    kind = "mock_scripted"

    def __post_init__(self):
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


def predict_ensemble(
    prompt: Prompt,
    backend: LlmBackend,
    n: int,
    seed: int,
    strict: bool = False,
    max_minutes: float = DEFAULT_MAX_MINUTES,
) -> PredictionEnsemble:
    """Run n scheduled rounds against the backend.

    Each round retries up to backend.max_retries extra attempts on transport
    errors or unparseable completions, then is dropped. strict mode raises
    BackendUnreachable when round 1 exhausts its retries entirely on
    transport errors (the backend is presumed down). Raises AllRoundsFailed
    when no round survives.
    """
    temperatures = schedule_temperatures(n, seed)
    retained = []
    for round_index, temperature in enumerate(temperatures, start=1):
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
            parsed = float(min(max(unclamped, 1.0), max_minutes))
            retained.append(
                PredictionRound(
                    round_index=round_index,
                    temperature=temperature,
                    raw_text=raw,
                    parsed_minutes=parsed,
                    clamped=parsed != unclamped,
                )
            )
            break
        else:
            if strict and round_index == 1 and transport_failures == backend.max_retries + 1:
                raise BackendUnreachable(
                    f"backend {backend.kind} failed all "
                    f"{backend.max_retries + 1} attempts on the first round"
                )
    if not retained:
        raise AllRoundsFailed(
            f"all {n} rounds dropped against backend {backend.kind}"
        )
    return PredictionEnsemble(rounds=tuple(retained), seed=seed, requested_n=n)
