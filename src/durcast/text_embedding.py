"""Text embedders: hermetic feature-hashing n-grams and a remote service client.

Both produce fixed-dimension, L2-normalized vectors. The hashing embedder
has no model dependency and is fully deterministic; the remote client talks
to any service exposing the usual embeddings endpoint shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingServiceError
from .transport import TransportFailure, post_json

_BOUNDARY_START = "\x02"
_BOUNDARY_END = "\x03"


class TextEmbedder:
    """Interface: fixed output dimension, deterministic per string."""

    dim: int

    def embed(self, text: str) -> np.ndarray:
        raise NotImplementedError


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
    """Client for an HTTP embeddings endpoint, one text per request: POSTs
    {"input": [text]}, expects {"data": [{"embedding": [dim numbers]}]} and
    L2-normalizes that vector locally, whatever the service returns."""

    url: str = "http://localhost:8080/v1/embeddings"
    dim: int = 768
    timeout_s: float = 30.0

    def embed(self, text: str) -> np.ndarray:
        try:
            payload = post_json(self.url, {"input": [text]}, self.timeout_s)
        except TransportFailure as exc:
            raise EmbeddingServiceError(f"embedding service at {self.url} failed: {exc}") from exc
        try:
            rows = [np.asarray(item["embedding"], dtype=np.float64) for item in payload["data"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbeddingServiceError(
                f"embedding service returned malformed payload: {exc}"
            ) from exc
        if len(rows) != 1 or rows[0].shape != (self.dim,):
            raise EmbeddingServiceError(f"expected 1 vector of dim {self.dim} from {self.url}")
        # a row norm of the 1 x dim array rounds as built indexes' vectors did
        (norm,) = np.linalg.norm(rows, axis=1)
        return rows[0] / norm if norm > 0.0 else rows[0]
