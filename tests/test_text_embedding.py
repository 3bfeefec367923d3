"""Hashing n-gram embedder invariants and the remote embedding client."""

import numpy as np
import pytest

from durcast.errors import EmbeddingServiceError
from durcast.text_embedding import HashingTextEmbedder, RemoteTextEmbedder


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

    def test_http_error_rejected(self, stub_server):
        server = stub_server([(503, {"error": "overloaded"})])
        emb = RemoteTextEmbedder(url=server.url, dim=2)
        with pytest.raises(EmbeddingServiceError):
            emb.embed("a")

    def test_connection_refused_rejected(self):
        emb = RemoteTextEmbedder(url="http://127.0.0.1:9/none", dim=2, timeout_s=2.0)
        with pytest.raises(EmbeddingServiceError):
            emb.embed("a")
