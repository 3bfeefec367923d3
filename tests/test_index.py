"""Flat cosine index: exact retrieval, clinical post-processing, binary
round trip."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_case, small_schema
from durcast import index as index_mod
from durcast.errors import (
    ArtifactError,
    DimensionMismatch,
    EmptyIndex,
    EmptyInput,
    MissingDuration,
    NoCandidates,
    SpecError,
    ZeroVector,
)
from durcast.index import (
    FlatIndex,
    RetrievalCandidate,
    build,
    cosine_similarity,
    index_case_set,
    load_index,
    postprocess,
    retrieve,
    retrieve_batch,
    save_index,
)
from durcast.schema import FeatureSchema, SurgicalCase


def simple_index(vectors, ids=None, durations=None):
    ids = ids or [f"c{i}" for i in range(len(vectors))]
    durations = durations or [60.0] * len(vectors)
    entries = [
        (np.asarray(v, dtype=float), mk_case(i, d))
        for v, i, d in zip(vectors, ids, durations)
    ]
    return build(entries, small_schema())


class TestCosine:
    def test_known_values(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert cosine_similarity([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0)
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_rejects_zero_vectors(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])


class TestBuild:
    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            build([], small_schema())

    def test_rejects_mixed_dims(self):
        entries = [
            (np.ones(3), mk_case("a", 60.0)),
            (np.ones(4), mk_case("b", 60.0)),
        ]
        with pytest.raises(DimensionMismatch):
            build(entries, small_schema())

    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVector):
            build([(np.zeros(3), mk_case("a", 60.0))], small_schema())

    def test_rejects_case_without_duration(self):
        entries = [(np.ones(3), mk_case("a", 60.0)), (np.ones(3), mk_case("b", None))]
        with pytest.raises(MissingDuration, match="'b'"):
            build(entries, small_schema())


class TestRetrieve:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        vectors = rng.normal(size=(30, 4))
        idx = simple_index(vectors)
        query = rng.normal(size=4)
        got = retrieve(idx, query, 10)

        qn = query / np.linalg.norm(query)
        sims = [
            float(np.dot(v / np.linalg.norm(v), qn)) for v in vectors
        ]
        expected = sorted(range(30), key=lambda i: (-sims[i], f"c{i}"))[:10]
        assert [c.case.id for c in got] == [f"c{i}" for i in expected]
        for cand, i in zip(got, expected):
            assert cand.similarity == pytest.approx(sims[i], abs=1e-12)

    def test_ties_break_by_ascending_id(self):
        # identical directions (power-of-two scaling keeps unit vectors exact)
        vectors = [[1.0, 2.0], [2.0, 4.0], [0.5, 1.0], [3.0, -1.0]]
        idx = simple_index(vectors, ids=["zeta", "alpha", "mid", "off"])
        got = retrieve(idx, np.array([1.0, 2.0]), 4)
        assert [c.case.id for c in got] == ["alpha", "mid", "zeta", "off"]
        assert got[0].similarity == got[1].similarity == got[2].similarity

    def test_m_larger_than_index(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        assert len(retrieve(idx, np.array([1.0, 1.0]), 50)) == 2

    def test_rejects_bad_m(self):
        idx = simple_index([[1.0, 0.0]])
        with pytest.raises(SpecError):
            retrieve(idx, np.array([1.0, 0.0]), 0)

    def test_rejects_zero_query(self):
        idx = simple_index([[1.0, 0.0]])
        with pytest.raises(ZeroVector):
            retrieve(idx, np.zeros(2), 1)

    def test_rejects_dim_mismatch(self):
        idx = simple_index([[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            retrieve(idx, np.ones(3), 1)

    def test_rejects_empty_index(self):
        idx = FlatIndex(np.zeros((0, 2)), [], small_schema())
        with pytest.raises(EmptyIndex):
            retrieve(idx, np.ones(2), 1)


def linear_scan(idx, query, m):
    """Reference retrieval: one row dot per stored case, then a full sort."""
    qv = query / float(np.linalg.norm(query))
    sims = [float(row @ qv) for row in idx._unit]
    order = sorted(range(len(idx)), key=lambda i: (-sims[i], idx.cases[i].id))
    return [(idx.cases[i].id, sims[i]) for i in order[:m]]


def tie_heavy_index(rng, dim, n):
    """Random rows, half of them overwritten at scattered positions by
    rescaled copies of three anchor directions (exact ties) or by anchors
    nudged by one part in 1e14 (near-ties)."""
    anchors = rng.normal(size=(3, dim))
    vectors = rng.normal(size=(n, dim))
    positions = rng.choice(n, size=n // 2, replace=False)
    for j, pos in enumerate(positions):
        row = anchors[j % 3] * (0.25, 0.5, 2.0, 4.0)[j % 4]
        if j % 5 == 4:
            row = row.copy()
            row[j % dim] *= 1.0 + 1e-14
        vectors[pos] = row
    ids = [f"c{i:04d}" for i in rng.permutation(n)]
    return simple_index(list(vectors), ids=ids), anchors


class TestRetrieveEqualsLinearScan:
    @pytest.mark.parametrize("dim", [3, 64, 549])
    def test_exact_ids_and_floats(self, dim):
        rng = np.random.default_rng(dim)
        n = 240
        idx, anchors = tie_heavy_index(rng, dim, n)
        queries = [anchors[0], anchors[1] + 1e-9 * rng.normal(size=dim), rng.normal(size=dim)]
        for query in queries:
            for m in (1, 2, 7, n // 8, n // 6, n - 1, n, n + 1):
                got = [(c.case.id, c.similarity) for c in retrieve(idx, query, m)]
                assert got == linear_scan(idx, query, m)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([3, 64, 549]),
        n=st.integers(2, 160),
        m=st.integers(1, 170),
        anchor_queries=st.lists(st.booleans(), max_size=6),
        block=st.integers(1, 4),
    )
    def test_property(self, seed, dim, n, m, anchor_queries, block):
        rng = np.random.default_rng(seed)
        idx, anchors = tie_heavy_index(rng, dim, n)
        queries = [
            anchors[j % 3] if anchor else rng.normal(size=dim)
            for j, anchor in enumerate(anchor_queries)
        ]
        with mock.patch.object(index_mod, "_BLOCK_SCORES", block * n):
            batch = retrieve_batch(idx, queries, m)
        assert len(batch) == len(queries)
        for query, found in zip(queries, batch):
            expected = linear_scan(idx, query, m)
            assert [(c.case.id, c.similarity) for c in found] == expected
            assert [(c.case.id, c.similarity) for c in retrieve(idx, query, m)] == expected


class TestRetrieveBatch:
    @pytest.mark.parametrize("dim", [3, 64, 549])
    def test_equals_retrieve_and_linear_scan(self, dim):
        rng = np.random.default_rng(dim + 1)
        n = 240
        idx, anchors = tie_heavy_index(rng, dim, n)
        queries = [
            anchors[0],
            rng.normal(size=dim),
            anchors[1] + 1e-9 * rng.normal(size=dim),
            4.0 * anchors[2],
            rng.normal(size=dim),
        ]
        for m in (1, n - 1, n, n + 1):
            batch = retrieve_batch(idx, queries, m)
            assert len(batch) == len(queries)
            for query, found in zip(queries, batch):
                got = [(c.case.id, c.similarity) for c in found]
                assert got == linear_scan(idx, query, m)
                assert got == [(c.case.id, c.similarity) for c in retrieve(idx, query, m)]

    def test_output_order_follows_input_order(self):
        rng = np.random.default_rng(7)
        idx, anchors = tie_heavy_index(rng, 64, 120)
        queries = [anchors[0], rng.normal(size=64), anchors[2], rng.normal(size=64)]
        forward = retrieve_batch(idx, queries, 9)
        backward = retrieve_batch(idx, queries[::-1], 9)
        assert backward == forward[::-1]

    def test_empty_query_list(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        assert retrieve_batch(idx, [], 1) == []

    def test_queries_span_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 150
        idx, anchors = tie_heavy_index(rng, 549, n)
        queries = [anchors[j % 3] if j % 2 else rng.normal(size=549) for j in range(7)]
        monkeypatch.setattr(index_mod, "_BLOCK_SCORES", 2 * n)  # two queries a block
        for m in (1, 13, n - 1):
            batch = retrieve_batch(idx, queries, m)
            assert len(batch) == len(queries)
            for query, found in zip(queries, batch):
                assert [(c.case.id, c.similarity) for c in found] == linear_scan(idx, query, m)

    def test_one_bad_query_rejects_the_batch(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroVector):
            retrieve_batch(idx, [np.ones(2), np.zeros(2)], 1)
        with pytest.raises(DimensionMismatch):
            retrieve_batch(idx, [np.ones(2), np.ones(3)], 1)
        with pytest.raises(SpecError):
            retrieve_batch(idx, [np.ones(2)], 0)


def candidates_from(cases, sims=None):
    sims = sims or [0.9 - 0.01 * i for i in range(len(cases))]
    return [RetrievalCandidate(case=c, similarity=s) for c, s in zip(cases, sims)]


class TestPostprocess:
    KEYS = ("department", "surgery_name")

    def _query(self, department="thyroid_breast", surgery="thyroidectomy"):
        return mk_case("q", department=department, surgery=surgery)

    def test_most_specific_tier_with_enough_survivors(self):
        cases = [
            mk_case(f"t{i}", 120.0 + i, department="thyroid_breast", surgery="thyroidectomy")
            for i in range(3)
        ] + [
            mk_case(f"l{i}", 75.0, department="thyroid_breast", surgery="breast lumpectomy")
            for i in range(3)
        ]
        refs = postprocess(candidates_from(cases), self._query(), 2, self.KEYS)
        assert refs.fallback_level == 0
        assert refs.stratum_descriptor == (
            "department=thyroid_breast + surgery_name=thyroidectomy"
        )
        assert [c.id for c, _ in refs.references] == ["t0", "t1"]

    def test_falls_back_when_tier_starves(self):
        cases = [
            mk_case("t0", 120.0, department="thyroid_breast", surgery="thyroidectomy")
        ] + [
            mk_case(f"l{i}", 75.0, department="thyroid_breast", surgery="breast lumpectomy")
            for i in range(4)
        ]
        refs = postprocess(candidates_from(cases), self._query(), 3, self.KEYS)
        assert refs.fallback_level == 1
        assert refs.stratum_descriptor == "department=thyroid_breast"
        assert len(refs.references) == 3

    def test_partial_match_used_when_no_tier_reaches_k(self):
        cases = [
            mk_case("t0", 120.0, department="thyroid_breast", surgery="thyroidectomy"),
            mk_case("g0", 180.0, department="general_surgery", surgery="colectomy"),
        ]
        refs = postprocess(candidates_from(cases), self._query(), 5, self.KEYS)
        # the most specific non-empty tier wins even though it is short
        assert refs.fallback_level == 0
        assert [c.id for c, _ in refs.references] == ["t0"]

    def test_query_without_keys_uses_global_tier(self):
        query = SurgicalCase(id="q", values={"department": None, "surgery_name": None})
        cases = [mk_case(f"c{i}", 100.0 + i) for i in range(3)]
        refs = postprocess(candidates_from(cases), query, 2, self.KEYS)
        assert refs.fallback_level == 2  # final unfiltered tier of the 2-key ladder
        assert refs.stratum_descriptor == "GLOBAL"

    def test_iqr_removes_documented_outlier(self):
        durations = [100.0, 110.0, 120.0, 130.0, 500.0]
        cases = [
            mk_case(f"c{i}", d, department="thyroid_breast", surgery="thyroidectomy")
            for i, d in enumerate(durations)
        ]
        refs = postprocess(candidates_from(cases), self._query(), 5, self.KEYS)
        kept = [c.duration_min for c, _ in refs.references]
        assert kept == [100.0, 110.0, 120.0, 130.0]
        assert refs.iqr_bounds == (80.0, 160.0)

    def test_iqr_skipped_for_small_cohorts(self):
        cases = [
            mk_case(f"c{i}", d, department="thyroid_breast", surgery="thyroidectomy")
            for i, d in enumerate([100.0, 110.0, 120.0, 500.0])
        ]
        refs = postprocess(candidates_from(cases), self._query(), 4, self.KEYS)
        assert refs.iqr_bounds is None
        assert len(refs.references) == 4

    def test_empty_candidates_raise(self):
        with pytest.raises(NoCandidates):
            postprocess([], self._query(), 1, self.KEYS)

    def test_rejects_bad_k(self):
        cases = [mk_case("a", 120.0)]
        with pytest.raises(SpecError):
            postprocess(candidates_from(cases), self._query(), 0, self.KEYS)

    def test_keeps_similarity_order(self):
        cases = [
            mk_case(f"c{i}", 100.0 + i, department="thyroid_breast", surgery="thyroidectomy")
            for i in range(6)
        ]
        sims = [0.99, 0.95, 0.90, 0.85, 0.80, 0.75]
        refs = postprocess(candidates_from(cases, sims), self._query(), 3, self.KEYS)
        assert [s for _, s in refs.references] == sims[:3]


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(8, 5))
        idx = simple_index(vectors, durations=[60.0 + i for i in range(8)])
        back = load_index(save_index(idx))
        assert back.dim == idx.dim
        assert len(back) == len(idx)
        # vectors are float32-quantized on save
        assert np.array_equal(back.vectors, idx.vectors.astype("<f4").astype(np.float64))
        assert [c.id for c in back.cases] == [c.id for c in idx.cases]
        assert [c.duration_min for c in back.cases] == [c.duration_min for c in idx.cases]
        assert back.cases[0].values == idx.cases[0].values
        assert back.schema == idx.schema

    def test_retrieval_survives_round_trip(self):
        rng = np.random.default_rng(10)
        idx = simple_index(rng.normal(size=(12, 4)))
        raw = save_index(idx)
        back = load_index(raw)
        query = rng.normal(size=4)
        a = [c.case.id for c in retrieve(back, query, 5)]
        b = [c.case.id for c in retrieve(load_index(raw), query, 5)]
        assert a == b

    def test_bad_magic(self):
        raw = bytearray(save_index(simple_index([[1.0, 0.0]])))
        raw[0] ^= 0xFF
        with pytest.raises(ArtifactError, match="magic"):
            load_index(bytes(raw))

    def test_truncated_file(self):
        raw = save_index(simple_index([[1.0, 0.0]]))
        with pytest.raises(ArtifactError, match="truncated"):
            load_index(raw[:-1])

    def test_padded_file(self):
        raw = save_index(simple_index([[1.0, 0.0]]))
        with pytest.raises(ArtifactError):
            load_index(raw + b"x")

    def test_case_without_duration_rejected(self):
        raw = save_index(simple_index([[1.0, 0.0]]))
        blob = raw[32:].replace(b'"duration_min": 60.0', b'"duration_min": null')
        raw = raw[:16] + struct.pack("<Q", len(blob)) + raw[24:32] + blob
        with pytest.raises(ArtifactError, match="corrupt"):
            load_index(raw)

    def test_index_case_set(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        cs = index_case_set(idx)
        assert [c.id for c in cs.cases] == ["c0", "c1"]
        assert cs.schema == idx.schema
