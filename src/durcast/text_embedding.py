"""Text embedders: hermetic feature-hashing n-grams and a remote service client.

An embedder implements embed_many, which turns a batch of texts into the
rows of one matrix of fixed-dimension, L2-normalized vectors; embed is a
one-text batch. The hashing embedder is fully deterministic and needs no
model. The remote client talks to any service exposing the usual
embeddings endpoint shape, in batches of at most _BATCH_TEXTS texts.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingServiceError
from .transport import TransportFailure, route

_BOUNDARY_START = "\x02"
_BOUNDARY_END = "\x03"
# texts per request: about 4 MB of JSON at dim 768, under the usual 2,048 cap
_BATCH_TEXTS = 256


class TextEmbedder:
    """Interface: fixed dimension, deterministic per string; subclasses implement embed_many."""

    dim: int

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """A len(texts) x dim float64 matrix, row i the vector of texts[i]."""
        raise NotImplementedError


@dataclass
class HashingTextEmbedder(TextEmbedder):
    """Character 3-gram hashing into a signed bucket vector, L2-normalized.

    Buckets and signs come from a keyed blake2b digest, so vectors are
    stable across processes and platforms. Each call hashes each distinct
    gram of its texts once and keeps nothing: the instance holds only dim
    and ngram. Sums of +-1.0 are exact integers and a norm is the square
    root of an exact integer sum, so np.bincount over a whole batch gives
    the bits of adding each text's signs one by one.
    """

    dim: int = 256
    ngram: int = 3

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Every text's grams in one array: each distinct gram is hashed
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
        digests = [hashlib.blake2b(joined[i : i + n].encode("utf-8"), digest_size=8).digest()
                   for i in at.tolist()]
        buckets = np.array([int.from_bytes(d[:4], "little") % dim for d in digests], dtype=np.intp)
        signs = np.array([1.0 if d[4] & 1 else -1.0 for d in digests], dtype=np.float64)
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
    """Client for an HTTP embeddings endpoint. Each run of at most
    _BATCH_TEXTS texts is one POST of {"input": [texts]}, answered by
    {"data": [{"embedding": [dim numbers]}, ...]}, one vector per text in
    order; the vectors are L2-normalized locally, whatever the service
    returns. Any other reply is an EmbeddingServiceError naming its batch.
    Proxies come from the environment, read at the first POST (see
    durcast.transport)."""

    url: str = "http://localhost:8080/v1/embeddings"
    dim: int = 768
    timeout_s: float = 30.0
    _route = None  # not a field: the url's Route, made at the first POST

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for start in range(0, len(texts), _BATCH_TEXTS):
            chunk = texts[start : start + _BATCH_TEXTS]
            out[start : start + len(chunk)] = self._post(chunk, start)
        return out

    def _post(self, chunk: Sequence[str], start: int) -> np.ndarray:
        """chunk's unit vectors; each entry must be a JSON number, not a
        string or a boolean, and each vector's sum of squares finite. A
        nonzero vector whose squares underflow is divided by its largest
        magnitude before it is normalized; a zero vector stays zero."""
        where = f"embedding service at {self.url}, batch from text {start}"
        try:
            self._route = route(self.url, self._route)
            payload = self._route.post_json({"input": chunk}, self.timeout_s)
            vectors = [item["embedding"] for item in payload["data"]]
            numbers = all({int, float}.issuperset(map(type, v)) for v in vectors)
            rows = np.array(vectors, dtype=np.float64)
        except TransportFailure as exc:
            raise EmbeddingServiceError(f"{where}: failed: {exc}") from exc
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise EmbeddingServiceError(f"{where}: malformed payload: {exc!r}") from exc
        if rows.shape != (len(chunk), self.dim):
            raise EmbeddingServiceError(f"{where}: expected {len(chunk)} dim-{self.dim} vectors")
        # one row norm of the chunk rounds each row as a 1 x dim norm does
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(rows, axis=1)
        if not (numbers and np.isfinite(norms).all()):
            raise EmbeddingServiceError(f"{where}: malformed payload: not finite JSON numbers")
        tiny = (norms == 0.0) & rows.any(axis=1)
        if tiny.any():
            rows[tiny] /= np.abs(rows[tiny]).max(axis=1, keepdims=True)
            norms[tiny] = np.linalg.norm(rows[tiny], axis=1)
        norms[norms == 0.0] = 1.0  # a zero vector stays zero
        return rows / norms[:, None]
