"""Hashing n-gram embedder invariants and the remote embedding client."""

import math

import numpy as np
import pytest

from conftest import hashed_embeddings
from durcast.errors import EmbeddingServiceError
from durcast.text_embedding import _BATCH_TEXTS, HashingTextEmbedder, RemoteTextEmbedder


class TestHashingEmbedder:
    def test_dim(self):
        emb = HashingTextEmbedder(dim=64, ngram=3)
        assert emb.dim == 64
        assert emb.embed("hernia repair").shape == (64,)

    def test_unit_norm(self):
        emb = HashingTextEmbedder(dim=128)
        v = emb.embed("laparoscopic cholecystectomy")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert v.shape == (128,)

    def test_deterministic(self):
        a = HashingTextEmbedder(dim=32).embed("neck ultrasound reviewed")
        b = HashingTextEmbedder(dim=32).embed("neck ultrasound reviewed")
        assert np.array_equal(a, b)

    def test_case_folding(self):
        emb = HashingTextEmbedder(dim=32)
        assert np.array_equal(emb.embed("Thyroidectomy"), emb.embed("thyroidectomy"))

    def test_distinct_texts_differ(self):
        emb = HashingTextEmbedder(dim=256)
        assert not np.array_equal(emb.embed("hernia repair"), emb.embed("craniotomy"))

    def test_similar_texts_closer_than_unrelated(self):
        emb = HashingTextEmbedder(dim=256)
        a = emb.embed("total knee arthroplasty right")
        b = emb.embed("total knee arthroplasty left")
        c = emb.embed("diagnostic mediastinoscopy")
        assert float(a @ b) > float(a @ c)

    def test_empty_text_is_zero_vector(self):
        v = HashingTextEmbedder(dim=16).embed("")
        assert np.array_equal(v, np.zeros(16))


class TestRemoteEmbedder:
    def _payload(self, vectors):
        return {"data": [{"embedding": list(v)} for v in vectors]}

    def test_posts_input_and_normalizes(self, stub_server):
        server = stub_server([(200, self._payload([[3.0, 4.0, 0.0, 0.0]]))])
        emb = RemoteTextEmbedder(url=server.url, dim=4)
        v = emb.embed("note text")
        assert server.requests[0]["body"] == {"input": ["note text"]}
        assert np.allclose(v, [0.6, 0.8, 0.0, 0.0])
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_wrong_count_rejected(self, stub_server):
        server = stub_server([(200, self._payload([[1.0, 0.0], [0.0, 1.0]]))])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError):
            emb.embed("a")

    def test_wrong_dim_rejected(self, stub_server):
        server = stub_server([(200, self._payload([[1.0, 0.0, 0.0]]))])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError):
            emb.embed("a")

    def test_malformed_payload_rejected(self, stub_server):
        server = stub_server([(200, {"results": "nope"})])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError):
            emb.embed("a")

    @pytest.mark.parametrize("vectors", [[["x", "y"]], [[1.0, [2.0]]]])
    def test_non_numeric_vector_rejected(self, stub_server, vectors):
        server = stub_server([(200, {"data": [{"embedding": v} for v in vectors]})])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError, match="malformed"):
            emb.embed("a")

    @pytest.mark.parametrize(
        "vector",
        [["3", "4"], [True, 1.0], [float("nan"), 1.0], [float("inf"), 1.0],
         [1.0, float("-inf")], [10**400, 1.0], [1e300, 1e300]],
        ids=["digits", "true", "NaN", "Infinity", "-Infinity", "beyond-float64",
             "overflowing-norm"],
    )
    def test_non_number_entry_rejected(self, stub_server, vector):
        """Each entry must be a JSON number, not a string or a boolean, and
        the vector's sum of squares finite: the error blames the service,
        not a case, and raises no RuntimeWarning."""
        server = stub_server([(200, {"data": [{"embedding": vector}]})])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError, match="malformed"):
            emb.embed("a")

    def test_zero_vector_stays_zero(self, stub_server):
        server = stub_server([(200, self._payload([[0.0, 0.0], [0.0, 2.0]]))])
        got = RemoteTextEmbedder(url=server.url, dim=2).embed_many(["a", "b"])
        assert np.array_equal(got, [[0.0, 0.0], [0.0, 1.0]])

    def test_underflowing_vector_is_normalized(self, stub_server):
        """Squares of 1e-200 underflow to a zero norm; the vector is still
        scaled to unit norm, and every other row keeps its bits."""
        vectors = [[1e-200, 3e-200], [0.0, 0.0], [3.0, 4.0]]
        server = stub_server([(200, self._payload(vectors))])
        got = RemoteTextEmbedder(url=server.url, dim=2).embed_many(["a", "b", "c"])
        assert math.isclose(np.linalg.norm(got[0]), 1.0)
        assert np.allclose(got[0], np.array([1.0, 3.0]) / math.sqrt(10.0))
        assert np.array_equal(got[1], [0.0, 0.0])
        assert np.array_equal(got[2], np.array([3.0, 4.0]) / 5.0)

    @pytest.mark.parametrize("n", [0, 1, 256, 257, 600])
    def test_batches_equal_one_text_posts(self, stub_server, n):
        """ceil(n / 256) requests of consecutive texts, and each row is
        bitwise the vector of its text posted alone."""
        server = stub_server(hashed_embeddings(8))
        emb = RemoteTextEmbedder(url=server.url, dim=8)
        texts = [f"note {i}: {'x' * (i % 7)}" for i in range(n)]
        got = emb.embed_many(texts)
        assert got.shape == (n, 8) and got.dtype == np.float64
        posted = [r["body"]["input"] for r in server.requests]
        assert _BATCH_TEXTS == 256 and len(posted) == math.ceil(n / 256)
        assert [t for chunk in posted for t in chunk] == texts
        for row, text in zip(got, texts):
            assert row.tobytes() == emb.embed(text).tobytes()

    def test_bad_batch_is_named_by_its_first_text(self, stub_server):
        vectors = [[1.0, 0.0]] * 256
        server = stub_server([(200, self._payload(vectors)), (200, self._payload(vectors))])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError, match="batch from text 256: expected 44"):
            emb.embed_many(["t"] * 300)
        assert len(server.requests) == 2

    def test_http_error_rejected(self, stub_server):
        server = stub_server([(503, {"error": "overloaded"})])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError):
            emb.embed("a")

    def test_connection_refused_rejected(self):
        emb = RemoteTextEmbedder(url="http://127.0.0.1:9/none", dim=2, timeout_s=2.0)
        with pytest.raises(EmbeddingServiceError):
            emb.embed("a")
