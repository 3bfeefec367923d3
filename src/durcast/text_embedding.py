"""Text embedders: hermetic feature-hashing n-grams and a remote service client.

Both produce fixed-dimension, L2-normalized vectors, one text at a time
(embed) or a batch of texts as the rows of one matrix (embed_many). The
hashing embedder has no model dependency and is fully deterministic; it
has one vectorised path, embed_many, and embed is a one-text batch. The
remote client talks to any service exposing the usual embeddings endpoint
shape, one request per text.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
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

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Row i is embed(texts[i])."""
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in zip(out, texts):
            row[:] = self.embed(text)
        return out


@dataclass
class HashingTextEmbedder(TextEmbedder):
    """Character 3-gram hashing into a signed bucket vector, L2-normalized.

    Buckets and signs come from a keyed blake2b digest, so vectors are
    stable across processes and platforms. Each distinct gram is hashed
    once and its (bucket, sign) memoised on the instance, one entry per
    distinct gram ever embedded. Sums of +-1.0 are exact integers and a
    norm is the square root of an exact integer sum, so np.bincount over a
    whole batch gives the bits of adding each text's signs one by one.
    """

    dim: int = 256
    ngram: int = 3

    def __post_init__(self):
        self._grams: dict[str, tuple[int, float]] = {}

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Every text's grams in one array: each distinct gram is looked up
        once, and one scatter-add over (row, bucket) sums the signs."""
        n, dim = self.ngram, self.dim
        # lower-case each text alone: a final sigma lowers by its context
        padded = [_BOUNDARY_START + text.lower() + _BOUNDARY_END for text in texts]
        joined = "".join(padded)
        codes = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.int64)
        lengths = [len(p) for p in padded]
        owner = np.repeat(np.arange(len(texts)), lengths)
        # the window at i covers codes[i : i + n]; keep those inside one text
        starts = np.flatnonzero(np.arange(len(codes)) + n <= np.cumsum(lengths)[owner])
        owner = owner[starts]
        # a window's key: its code points as digits in base (largest + 1),
        # renumbered densely whenever the next digit would overflow int64
        base = int(codes.max(initial=0)) + 1
        keys, bound = np.zeros(len(starts), dtype=np.int64), 1
        for j in range(n):
            if bound * base >= 2**63:
                _, keys = np.unique(keys, return_inverse=True)
                bound = len(starts)
            keys = keys * base + codes[starts + j]
            bound *= base
        distinct, inverse = np.unique(keys, return_inverse=True)
        at = np.empty(len(distinct), dtype=np.intp)
        at[inverse] = starts  # any window with a key spells its gram
        grams = [joined[i : i + n] for i in at.tolist()]
        memo = self._grams
        for gram in set(grams).difference(memo):
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            bucket = int.from_bytes(digest[:4], "little") % dim
            memo[gram] = bucket, 1.0 if digest[4] & 1 else -1.0
        buckets = np.array([memo[g][0] for g in grams], dtype=np.intp)
        signs = np.array([memo[g][1] for g in grams], dtype=np.float64)
        out = np.bincount(
            owner * dim + buckets[inverse], weights=signs[inverse], minlength=len(texts) * dim
        ).astype(np.float64, copy=False).reshape(len(texts), dim)
        # a zero row divides by 1.0 and stays zero
        norms = np.sqrt(np.einsum("ij,ij->i", out, out))
        norms[norms == 0.0] = 1.0
        out /= norms[:, None]
        return out


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
