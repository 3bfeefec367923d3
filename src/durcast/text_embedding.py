"""Text embedders: hermetic feature-hashing n-grams and a remote service client.

Both produce fixed-dimension, L2-normalized vectors. The hashing embedder
has no model dependency and is fully deterministic; the remote client talks
to any service exposing the usual embeddings endpoint shape.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import EmbeddingServiceError
from .transport import TransportFailure, post_json

_BOUNDARY_START = "\x02"
_BOUNDARY_END = "\x03"


class TextEmbedder:
    """Interface: fixed output dimension, deterministic per string."""

    dim: int
    identifier: str

    def embed(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return np.stack([self.embed(t) for t in texts])


@dataclass
class HashingTextEmbedder(TextEmbedder):
    """Character 3-gram hashing into a signed bucket vector, L2-normalized.

    Buckets and signs come from a keyed blake2b digest, so vectors are
    stable across processes and platforms. Each distinct gram is hashed
    once and its (bucket, sign) memoised on the instance, one entry per
    distinct gram ever embedded. Sums of +-1.0 are exact integers, so
    np.bincount gives the same vector as adding the signs one by one.
    """

    dim: int = 256
    ngram: int = 3

    def __post_init__(self):
        self.identifier = f"hashing-{self.ngram}gram-{self.dim}"
        self._grams: dict[str, tuple[int, float]] = {}

    def embed(self, text: str) -> np.ndarray:
        padded = _BOUNDARY_START + text.lower() + _BOUNDARY_END
        grams = [padded[i : i + self.ngram] for i in range(len(padded) - self.ngram + 1)]
        memo = self._grams
        for gram in set(grams).difference(memo):
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            bucket = int.from_bytes(digest[:4], "little") % self.dim
            memo[gram] = bucket, 1.0 if digest[4] & 1 else -1.0
        buckets, signs = zip(*map(memo.__getitem__, grams)) if grams else ((), ())
        vec = np.bincount(
            np.array(buckets, dtype=np.intp), weights=np.array(signs), minlength=self.dim
        )
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


@dataclass
class RemoteTextEmbedder(TextEmbedder):
    """Client for an HTTP embeddings endpoint.

    POSTs {"input": [strings]} and expects {"data": [{"embedding": [...]}]}.
    Responses are L2-normalized locally so downstream code can rely on
    unit-norm vectors regardless of service behavior.
    """

    url: str = "http://localhost:8080/v1/embeddings"
    dim: int = 768
    timeout_s: float = 30.0
    max_in_flight: int = 8
    identifier: str = field(init=False)
    _gate: threading.Semaphore = field(init=False, repr=False)

    def __post_init__(self):
        self.identifier = f"remote-{self.dim}@{self.url}"
        self._gate = threading.Semaphore(self.max_in_flight)

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        with self._gate:
            try:
                payload = post_json(self.url, {"input": list(texts)}, self.timeout_s)
            except TransportFailure as exc:
                raise EmbeddingServiceError(
                    f"embedding service at {self.url} failed: {exc}"
                ) from exc
        try:
            rows = [np.asarray(item["embedding"], dtype=np.float64) for item in payload["data"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbeddingServiceError(
                f"embedding service returned malformed payload: {exc}"
            ) from exc
        if len(rows) != len(texts) or any(r.shape != (self.dim,) for r in rows):
            raise EmbeddingServiceError(
                f"expected {len(texts)} vectors of dim {self.dim} from {self.url}"
            )
        out = np.stack(rows)
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        return out / np.where(norms > 0.0, norms, 1.0)
