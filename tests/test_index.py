"""Flat cosine index: exact retrieval, clinical post-processing, binary
round trip. The linear scan, object post-processing and object prior below
are the reference implementations the table path must equal."""

import hashlib
import json
import math
import struct
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_case, small_schema, tiny_corpus
from durcast import index as index_mod
from durcast.errors import (
    ArtifactError,
    DimensionMismatch,
    EmptyIndex,
    EmptyInput,
    MissingDuration,
    NoCandidates,
    NonFiniteVector,
    SpecError,
    ZeroVector,
)
from durcast.index import (
    FlatIndex,
    ReferenceSet,
    RetrievalCandidate,
    build,
    load_index,
    postprocess_rows,
    retrieve,
    retrieve_units,
    save_index,
    unit_query,
)
from durcast.pipeline import Pipeline, load_artifacts, save_artifacts
from durcast.priors import PriorIndex, StatisticalPrior, compute_prior
from durcast.schema import CaseSet, Feature, FeatureSchema, SurgicalCase
from durcast.strata import CaseTable, describe_tier, ladder


def simple_index(vectors, ids=None, durations=None):
    ids = ids or [f"c{i}" for i in range(len(vectors))]
    durations = durations or [60.0] * len(vectors)
    cases = [mk_case(i, d) for i, d in zip(ids, durations)]
    return build(np.asarray(vectors, dtype=float), cases, small_schema())


class TestBuild:
    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            build(np.zeros((0, 3)), [], small_schema())

    def test_rejects_mixed_dims(self):
        cases = [mk_case("a", 60.0), mk_case("b", 60.0)]
        with pytest.raises(DimensionMismatch):
            build(np.ones((1, 3)), cases, small_schema())
        with pytest.raises(DimensionMismatch):
            build(np.ones(3), cases[:1], small_schema())

    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVector):
            build(np.zeros((1, 3)), [mk_case("a", 60.0)], small_schema())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vector(self, bad):
        vectors = np.array([[1.0, 1.0, 1.0], [1.0, bad, 0.0]])
        with pytest.raises(NonFiniteVector, match="'b'"):
            build(vectors, [mk_case("a", 60.0), mk_case("b", 60.0)], small_schema())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        ("row", "error", "message"),
        [((0.0, 0.0, 0.0), ZeroVector, "is a zero vector"),
         ((1.0, np.nan, 0.0), NonFiniteVector, "has no finite norm"),
         ((np.inf, 1.0, 0.0), NonFiniteVector, "has no finite norm")],
    )
    def test_rejects_first_unusable_row_at_either_precision(self, dtype, row, error, message):
        vectors = np.array([[1.0, 1.0, 1.0], row, [0.0, 0.0, 0.0]], dtype=dtype)
        cases = [mk_case(case_id, 60.0) for case_id in "abc"]
        with pytest.raises(error, match=f"'b' {message}"):
            build(vectors, cases, small_schema())

    def test_float64_norm_out_of_range(self):
        """A float64 row whose squared norm overflows has no finite norm; one
        whose squares all underflow is a zero vector."""
        cases = [mk_case("a", 60.0), mk_case("b", 60.0)]
        with pytest.raises(NonFiniteVector, match="'b' has no finite norm"):
            build(np.array([[1.0, 1.0, 1.0], [1e200, 1.0, 0.0]]), cases, small_schema())
        with pytest.raises(ZeroVector, match="'b' is a zero vector"):
            build(np.array([[1.0, 1.0, 1.0], [1e-200, 0.0, 0.0]]), cases, small_schema())

    def test_rejects_case_without_duration(self):
        cases = [mk_case("a", 60.0), mk_case("b", None)]
        with pytest.raises(MissingDuration, match="'b'"):
            build(np.ones((2, 3)), cases, small_schema())


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_query(self, bad):
        idx = simple_index([[1.0, 0.0]])
        with pytest.raises(NonFiniteVector):
            retrieve(idx, np.array([1.0, bad]), 1)

    def test_rejects_empty_index(self):
        idx = FlatIndex(np.zeros((0, 2)), CaseTable.of([], small_schema().key_attributes))
        with pytest.raises(EmptyIndex):
            retrieve(idx, np.ones(2), 1)


def unit_rows(vectors):
    """Every stored row upcast to float64 and divided by its norm."""
    unit = np.asarray(vectors, dtype=np.float64)
    return unit / np.linalg.norm(unit, axis=1)[:, None]


def filled_rows(idx):
    """The ascending rows whose unit row the index has built."""
    return np.flatnonzero(idx._slot >= 0)


def assert_cache_holds_unit_rows(idx):
    """Each filled row owns one slot of the filled prefix, and its cached
    unit row is bitwise the row upcast and divided by its norm."""
    filled = filled_rows(idx)
    assert sorted(idx._slot[filled].tolist()) == list(range(idx._used))
    for r in filled.tolist():
        row = idx.vectors[r].astype(np.float64)
        want = row / np.linalg.norm(row[None], axis=1)
        assert idx._unit[idx._slot[r]].tobytes() == want.tobytes()


def scan_candidates(idx, query, m):
    """Reference retrieval: one row dot per stored case, then a full sort."""
    qv = query / float(np.linalg.norm(query))
    sims = [float(row @ qv) for row in unit_rows(idx.vectors)]
    order = sorted(range(len(idx)), key=lambda i: (-sims[i], idx.cases[i].id))
    return [RetrievalCandidate(case=idx.cases[i], similarity=sims[i]) for i in order[:m]]


def linear_scan(idx, query, m):
    return [(c.case.id, c.similarity) for c in scan_candidates(idx, query, m)]


def as_pairs(idx, rows, sims):
    """One query's retrieve_units line as (id, similarity) pairs."""
    return [(idx.cases[i].id, s) for i, s in zip(rows.tolist(), sims.tolist())]


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
            rows, sims = retrieve_units(idx, [unit_query(idx, q) for q in queries], m)
        assert len(rows) == len(queries)
        for query, line in zip(queries, zip(rows, sims)):
            expected = linear_scan(idx, query, m)
            assert as_pairs(idx, *line) == expected
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
        units = [unit_query(idx, q) for q in queries]
        for m in (1, n - 1, n, n + 1):
            rows, sims = retrieve_units(idx, units, m)
            assert len(rows) == len(queries)
            for query, line in zip(queries, zip(rows, sims)):
                got = as_pairs(idx, *line)
                assert got == linear_scan(idx, query, m)
                assert got == [(c.case.id, c.similarity) for c in retrieve(idx, query, m)]

    def test_output_order_follows_input_order(self):
        rng = np.random.default_rng(7)
        idx, anchors = tie_heavy_index(rng, 64, 120)
        queries = [anchors[0], rng.normal(size=64), anchors[2], rng.normal(size=64)]
        units = [unit_query(idx, q) for q in queries]
        forward = [as_pairs(idx, *line) for line in zip(*retrieve_units(idx, units, 9))]
        backward = [as_pairs(idx, *line) for line in zip(*retrieve_units(idx, units[::-1], 9))]
        assert backward == forward[::-1]

    def test_empty_query_list(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        rows, sims = retrieve_units(idx, [], 1)
        assert rows.shape == sims.shape == (0, 1)

    def test_queries_span_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 150
        idx, anchors = tie_heavy_index(rng, 549, n)
        queries = [anchors[j % 3] if j % 2 else rng.normal(size=549) for j in range(7)]
        monkeypatch.setattr(index_mod, "_BLOCK_SCORES", 2 * n)  # two queries a block
        units = [unit_query(idx, q) for q in queries]
        for m in (1, 13, n - 1):
            rows, sims = retrieve_units(idx, units, m)
            assert len(rows) == len(queries)
            for query, line in zip(queries, zip(rows, sims)):
                assert as_pairs(idx, *line) == linear_scan(idx, query, m)

    def test_one_bad_query_rejects_the_batch(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        for bad, error in [
            (np.zeros(2), ZeroVector),
            (np.ones(3), DimensionMismatch),
            (np.array([np.nan, 1.0]), NonFiniteVector),
        ]:
            with pytest.raises(error):
                retrieve_units(idx, [unit_query(idx, q) for q in (np.ones(2), bad)], 1)
        with pytest.raises(SpecError):
            retrieve_units(idx, [unit_query(idx, np.ones(2))], 0)

    def test_overflowing_query_norm_is_refused_without_a_warning(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteVector, match="no finite norm"):
                unit_query(idx, np.array([-5.7e253, 1.0]))
            assert unit_query(idx, np.array([3.0, 4.0])).tolist() == [0.6, 0.8]


def per_row_unit(query):
    """One query scaled by its own np.linalg.norm, or the error that
    refuses it: the per-row normalisation unit_queries must equal."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(query))
    if not np.isfinite(norm):
        return NonFiniteVector("query has no finite norm")
    if norm == 0.0:
        return ZeroVector("query is a zero vector")
    return query / norm


QUERY_ROWS = {
    "random": lambda rng, dim: rng.normal(size=dim),
    "scaled": lambda rng, dim: rng.normal(size=dim) * rng.uniform(0, 5, size=dim),
    "zero": lambda rng, dim: np.zeros(dim),
    "nan": lambda rng, dim: np.where(np.arange(dim) == 0, np.nan, rng.normal(size=dim)),
    "inf": lambda rng, dim: np.where(np.arange(dim) == dim - 1, -np.inf, rng.normal(size=dim)),
    "overflow": lambda rng, dim: rng.normal(size=dim) * 1e200,
    "underflow": lambda rng, dim: rng.normal(size=dim) * 1e-170,
    "subnormal": lambda rng, dim: rng.normal(size=dim) * 1e-310,
}


class TestUnitQueries:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3, 64, 549]),
        kinds=st.lists(st.sampled_from(sorted(QUERY_ROWS)), max_size=12),
    )
    def test_batch_equals_per_row_path(self, seed, dim, kinds):
        """Each row scales to the bits of its own np.linalg.norm, and a row
        that cannot be scaled gets, in its place, the error and message the
        per-row path gives it; a batch raises no RuntimeWarning."""
        rng = np.random.default_rng(seed)
        queries = np.array([QUERY_ROWS[kind](rng, dim) for kind in kinds]).reshape(-1, dim)
        idx = simple_index(np.eye(dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            units, errors = index_mod.unit_queries(idx, queries)
        assert units.shape == queries.shape
        for i, query in enumerate(queries):
            want = per_row_unit(query)
            if isinstance(want, np.ndarray):
                assert i not in errors
                assert units[i].tobytes() == want.tobytes()
                assert unit_query(idx, query).tobytes() == want.tobytes()
            else:
                assert (type(errors[i]), str(errors[i])) == (type(want), str(want))
                assert not units[i].any()
                with pytest.raises(type(want), match=str(want)):
                    unit_query(idx, query)

    def test_dimension_mismatch_fails_the_batch(self):
        idx = simple_index([[1.0, 0.0], [0.0, 1.0]])
        message = r"query dim \(3,\) does not match index \(2,\)"
        with pytest.raises(DimensionMismatch, match=message):
            index_mod.unit_queries(idx, np.ones((4, 3)))
        with pytest.raises(DimensionMismatch, match=message):
            unit_query(idx, np.ones(3))


def float32_tie_index(rng, dim, n):
    """A float32 index with near-ties that collapse in float32 but not in
    float64: random rows, half of them overwritten at scattered positions
    by a copy of an anchor, the anchor one float32 ulp off in one
    component, at scale 0.25, 3 or 7, or scaled so that its norm lies near
    the float32 subnormal range, outside the scored range, or near
    finfo(float32).max."""
    f32 = np.float32
    anchors = rng.normal(size=(3, dim)).astype(f32)
    vectors = rng.normal(size=(n, dim)).astype(f32)
    # Norms 2**-63 and 2**63 lie just inside the phase-1 range; the others,
    # and a row whose largest component is near finfo(float32).max, outside.
    norms = (1e-42, 1e-38, 2.0**-70, 2.0**-63, 2.0**63, 2.0**70, None)
    positions = rng.choice(n, size=n // 2, replace=False)
    for j, pos in enumerate(positions):
        row = anchors[j % 3].copy()
        kind = j % 4
        if kind == 0:
            row[j % dim] = np.nextafter(row[j % dim], f32(np.inf))
        elif kind == 1:
            row = row * f32((0.25, 3.0, 7.0)[j % 3])
        elif kind == 2:
            wide, norm = row.astype(np.float64), norms[j % len(norms)]
            if norm is None:
                scale = 0.99 * float(np.finfo(f32).max) / np.abs(wide).max()
            else:
                scale = norm / np.linalg.norm(wide)
            row = (wide * scale).astype(f32)
        vectors[pos] = row if row.any() else anchors[j % 3]
    ids = [f"c{i:04d}" for i in rng.permutation(n)]
    cases = [mk_case(case_id, 60.0) for case_id in ids]
    return build(vectors, cases, small_schema()), anchors


class TestFloat32Retrieval:
    """The production path: a float32 index scanned by a float32 product,
    against the float64 linear scan."""

    @pytest.mark.parametrize("dim", [3, 64, 549])
    def test_every_edge_in_the_anchor_clusters(self, dim):
        """The m-th row falls inside a cluster of near-ties for every m."""
        for seed in range(6):
            idx, anchors = float32_tie_index(np.random.default_rng([dim, seed]), dim, 160)
            for anchor in anchors:
                query = anchor.astype(np.float64)
                units = [unit_query(idx, query)]
                for m in range(1, 50):
                    rows, sims = retrieve_units(idx, units, m)
                    want = linear_scan(idx, query, m)
                    assert as_pairs(idx, rows[0], sims[0]) == want
                    assert sims[0].tobytes() == np.array([s for _, s in want]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([3, 64, 549]),
        n=st.integers(2, 160),
        m=st.integers(1, 60),
        anchor_queries=st.lists(st.sampled_from(["anchor", "scaled", "tiny", "random"]),
                                max_size=6),
        block=st.integers(1, 4),
    )
    def test_property(self, seed, dim, n, m, anchor_queries, block):
        rng = np.random.default_rng(seed)
        idx, anchors = float32_tie_index(rng, dim, n)
        assert idx.vectors.dtype == np.float32
        queries = []
        for j, kind in enumerate(anchor_queries):
            query = anchors[j % 3].astype(np.float64)
            if kind == "scaled":
                query = 1e-30 * query
            elif kind == "tiny":  # components that underflow in float32
                query[::2] *= 1e-300
            elif kind == "random":
                query = rng.normal(size=dim)
            queries.append(query)
        with mock.patch.object(index_mod, "_BLOCK_SCORES", block * n):
            rows, sims = retrieve_units(idx, [unit_query(idx, q) for q in queries], m)
        for query, line in zip(queries, zip(rows, sims)):
            want = linear_scan(idx, query, m)
            assert as_pairs(idx, *line) == want
            assert line[1].tobytes() == np.array([s for _, s in want]).tobytes()

    def test_fresh_index_holds_no_unit_row(self):
        idx, _ = float32_tie_index(np.random.default_rng(3), 64, 120)
        back = load_index(save_index(idx), small_schema())
        for fresh in (idx, back):
            assert fresh._used == 0 and (fresh._slot == -1).all()

    def test_one_query_fills_only_its_window(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(500, 64)).astype(np.float32)
        idx = build(vectors, [mk_case(f"c{i}", 60.0) for i in range(500)], small_schema())
        rows, _ = retrieve_units(idx, [unit_query(idx, rng.normal(size=64))], 5)
        # No other row is near the fifth's similarity: the window is the top 5.
        assert filled_rows(idx).tolist() == sorted(rows[0].tolist())
        assert idx._used == 5

        idx, anchors = float32_tie_index(rng, 64, 400)
        query = anchors[1].astype(np.float64)
        rows, sims = retrieve_units(idx, [unit_query(idx, query)], 7)
        filled = filled_rows(idx)
        assert set(rows[0].tolist()) <= set(filled.tolist())
        oracle = unit_rows(idx.vectors) @ (query / np.linalg.norm(query))
        # A window row trails the 7th similarity by at most twice the margin
        # (about 2e-5 at D = 64), or has no product score.
        unscored = set(idx._unscored.tolist())
        near = oracle >= sims[0][-1] - 1e-4
        assert all(near[i] or i in unscored for i in filled.tolist())

    def test_racing_threads_fill_alike(self):
        """Threads that retrieve on a fresh index race to fill its unit rows;
        each gets the bits one thread gets."""
        rng = np.random.default_rng(5)
        idx, anchors = float32_tie_index(rng, 64, 300)
        raw = save_index(idx)
        queries = [anchors[j % 3] if j % 2 else rng.normal(size=64) for j in range(40)]
        alone = load_index(raw, small_schema())
        units = [unit_query(alone, q) for q in queries]
        want = [retrieve_units(alone, [qv], 9) for qv in units]
        shared = load_index(raw, small_schema())
        got = [[None] * len(units) for _ in range(4)]

        def run(t):
            for j in np.random.default_rng(t).permutation(len(units)).tolist():
                got[t][j] = retrieve_units(shared, [units[j]], 9)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for run_result in got:
            for (a_rows, a_sims), (b_rows, b_sims) in zip(run_result, want):
                assert a_rows.tolist() == b_rows.tolist()
                assert a_sims.tobytes() == b_sims.tobytes()
        # The threads reached the windows one thread reaches, overlapping
        # across queries, and filled each of their rows once.
        assert filled_rows(shared).tolist() == filled_rows(alone).tolist()
        assert_cache_holds_unit_rows(shared)

    def test_cache_holds_each_reached_row_once(self):
        rng = np.random.default_rng(6)
        idx, anchors = float32_tie_index(rng, 64, 400)
        queries = [anchors[j % 3] if j % 2 else rng.normal(size=64) for j in range(12)]
        reached = set()

        def spy(*args):
            windows = find_windows(*args)
            for window in windows:
                reached.update(window.tolist())
            return windows

        find_windows = index_mod._windows
        with mock.patch.object(index_mod, "_windows", spy):
            retrieve_units(idx, [unit_query(idx, q) for q in queries[:6]], 9)
            for query in queries[3:]:
                retrieve_units(idx, [unit_query(idx, query)], 9)
        assert idx._used == len(reached) < len(idx)
        assert set(filled_rows(idx).tolist()) == reached
        assert_cache_holds_unit_rows(idx)

    def test_repeated_query_fills_nothing(self):
        rng = np.random.default_rng(7)
        idx, anchors = float32_tie_index(rng, 64, 300)
        units = [unit_query(idx, q) for q in (anchors[0], rng.normal(size=64), anchors[2])]
        first = retrieve_units(idx, units, 9)
        used, slots, cache = idx._used, idx._slot.copy(), idx._unit[: idx._used].copy()
        for query in units:
            retrieve_units(idx, [query], 9)
        again = retrieve_units(idx, units, 9)
        assert idx._used == used
        assert idx._slot.tolist() == slots.tolist()
        assert idx._unit[: idx._used].tobytes() == cache.tobytes()
        assert again[0].tolist() == first[0].tolist()
        assert again[1].tobytes() == first[1].tobytes()


class TestPostprocess:
    KEYS = ("department", "surgery_name")

    def _query(self, department="thyroid_breast", surgery="thyroidectomy"):
        return mk_case("q", department=department, surgery=surgery)

    def _candidates(self, cases, sims=None):
        """cases as one query's candidates, in order: postprocess_rows'
        table, rows and similarities."""
        sims = sims or [0.9 - 0.01 * i for i in range(len(cases))]
        return CaseTable.of(cases, self.KEYS), np.arange(len(cases))[None, :], np.array([sims])

    def test_most_specific_tier_with_enough_survivors(self):
        cases = [
            mk_case(f"t{i}", 120.0 + i, department="thyroid_breast", surgery="thyroidectomy")
            for i in range(3)
        ] + [
            mk_case(f"l{i}", 75.0, department="thyroid_breast", surgery="breast lumpectomy")
            for i in range(3)
        ]
        refs = postprocess_rows(*self._candidates(cases), [self._query()], 2)[0]
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
        refs = postprocess_rows(*self._candidates(cases), [self._query()], 3)[0]
        assert refs.fallback_level == 1
        assert refs.stratum_descriptor == "department=thyroid_breast"
        assert len(refs.references) == 3

    def test_partial_match_used_when_no_tier_reaches_k(self):
        cases = [
            mk_case("t0", 120.0, department="thyroid_breast", surgery="thyroidectomy"),
            mk_case("g0", 180.0, department="general_surgery", surgery="colectomy"),
        ]
        refs = postprocess_rows(*self._candidates(cases), [self._query()], 5)[0]
        # the most specific non-empty tier wins even though it is short
        assert refs.fallback_level == 0
        assert [c.id for c, _ in refs.references] == ["t0"]

    def test_query_without_keys_uses_global_tier(self):
        query = SurgicalCase(id="q", values={"department": None, "surgery_name": None})
        cases = [mk_case(f"c{i}", 100.0 + i) for i in range(3)]
        refs = postprocess_rows(*self._candidates(cases), [query], 2)[0]
        assert refs.fallback_level == 2  # final unfiltered tier of the 2-key ladder
        assert refs.stratum_descriptor == "GLOBAL"

    def test_iqr_removes_documented_outlier(self):
        durations = [100.0, 110.0, 120.0, 130.0, 500.0]
        cases = [
            mk_case(f"c{i}", d, department="thyroid_breast", surgery="thyroidectomy")
            for i, d in enumerate(durations)
        ]
        refs = postprocess_rows(*self._candidates(cases), [self._query()], 5)[0]
        kept = [c.duration_min for c, _ in refs.references]
        assert kept == [100.0, 110.0, 120.0, 130.0]
        assert refs.iqr_bounds == (80.0, 160.0)

    def test_iqr_over_the_chosen_tier_only(self):
        """The quartiles come from the chosen tier's durations, not from
        every candidate; here the other candidates are all much shorter."""
        tier = [
            mk_case(f"t{i}", d, department="thyroid_breast", surgery="thyroidectomy")
            for i, d in enumerate([100.0, 110.0, 120.0, 130.0, 140.0, 500.0])
        ]
        others = [mk_case(f"o{i}", 1.0 + i) for i in range(6)]
        # candidates interleaved by similarity
        cases = [c for pair in zip(others, tier) for c in pair]
        refs = postprocess_rows(*self._candidates(cases), [self._query()], 5)[0]
        assert refs.fallback_level == 0
        assert refs.iqr_bounds == (75.0, 175.0)
        assert [c.id for c, _ in refs.references] == ["t0", "t1", "t2", "t3", "t4"]

    def test_iqr_skipped_for_small_cohorts(self):
        cases = [
            mk_case(f"c{i}", d, department="thyroid_breast", surgery="thyroidectomy")
            for i, d in enumerate([100.0, 110.0, 120.0, 500.0])
        ]
        refs = postprocess_rows(*self._candidates(cases), [self._query()], 4)[0]
        assert refs.iqr_bounds is None
        assert len(refs.references) == 4

    def test_empty_candidates_raise(self):
        with pytest.raises(NoCandidates):
            postprocess_rows(*self._candidates([]), [self._query()], 1)

    def test_rejects_bad_k(self):
        cases = [mk_case("a", 120.0)]
        with pytest.raises(SpecError):
            postprocess_rows(*self._candidates(cases), [self._query()], 0)[0]

    def test_keeps_similarity_order(self):
        cases = [
            mk_case(f"c{i}", 100.0 + i, department="thyroid_breast", surgery="thyroidectomy")
            for i in range(6)
        ]
        sims = [0.99, 0.95, 0.90, 0.85, 0.80, 0.75]
        refs = postprocess_rows(*self._candidates(cases, sims), [self._query()], 3)[0]
        assert [s for _, s in refs.references] == sims[:3]


def oracle_walk(query, items, key_attributes, case_of=lambda item: item):
    """The stratum walk over objects: per-case string compares."""
    for level, tier in enumerate(ladder(key_attributes)):
        if all(query.values.get(attr) is not None for attr in tier):
            yield level, tier, [
                it
                for it in items
                if all(
                    case_of(it).values.get(attr) is not None
                    and str(case_of(it).values[attr]) == str(query.values[attr])
                    for attr in tier
                )
            ]


def oracle_postprocess(candidates, query, k, key_attributes):
    """Post-processing over RetrievalCandidate objects, stage by stage."""
    first_nonempty = None
    for level, tier, survivors in oracle_walk(
        query, candidates, key_attributes, lambda c: c.case
    ):
        if len(survivors) >= k:
            break
        if survivors and first_nonempty is None:
            first_nonempty = level, tier, survivors
    else:
        level, tier, survivors = first_nonempty
    bounds = None
    if len(survivors) > 4:
        durations = np.array([c.case.duration_min for c in survivors])
        q1, q3 = np.percentile(durations, [25.0, 75.0])
        iqr = q3 - q1
        bounds = (float(q1 - 1.5 * iqr), float(q3 + 1.5 * iqr))
        survivors = [c for c in survivors if bounds[0] <= c.case.duration_min <= bounds[1]]
    return ReferenceSet(
        references=tuple((c.case, c.similarity) for c in survivors[:k]),
        fallback_level=level,
        stratum_descriptor=describe_tier(query, tier),
        iqr_bounds=bounds,
    )


def oracle_prior(query, cases, key_attributes, min_cohort):
    """The stratum prior over objects, in case order."""
    for level, tier, cohort in oracle_walk(query, cases, key_attributes):
        if len(cohort) >= min_cohort:
            break
    d = np.array([c.duration_min for c in cohort])
    q1, q3 = np.percentile(d, [25.0, 75.0])
    return StatisticalPrior(
        median_min=float(np.median(d)),
        mean_min=float(d.mean()),
        range_min=(float(d.min()), float(d.max())),
        iqr_min=(float(q1), float(q3)),
        variance_min2=float(d.var()),
        cohort_size=len(d),
        stratum_descriptor=describe_tier(query, tier),
        fallback_level=level,
    )


# Key values: None (missing), ints, floats and strings equal as strings
# ("1" and 1), and a query-only value no case has.
_KEY_VALUES = st.sampled_from([None, 1, "1", 2, "2", 1.0, "x", "y"])
_QUERY_VALUES = st.one_of(_KEY_VALUES, st.just("unseen"), st.just(7))


class TestTablePathEqualsObjectOracle:
    KEYS = small_schema().key_attributes

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([3, 64]),
        keys=st.lists(st.tuples(*[_KEY_VALUES] * 3), min_size=2, max_size=70),
        id_pool=st.integers(1, 80),
        durations=st.lists(st.sampled_from([30.0, 45.0, 60.0, 61.5, 90.0, 400.0]), min_size=1),
        queries=st.lists(st.tuples(*[_QUERY_VALUES] * 3), min_size=1, max_size=5),
        k=st.integers(1, 12),
        expansion=st.integers(1, 10),
        min_cohort=st.integers(1, 8),
    )
    def test_references_and_priors(
        self, seed, dim, keys, id_pool, durations, queries, k, expansion, min_cohort
    ):
        rng = np.random.default_rng(seed)
        n = len(keys)
        # duplicate ids (from a small pool), duplicate durations, and rows
        # that repeat or nudge (by 1e-14) one direction: exact and near ties
        anchor = rng.normal(size=dim)
        vectors = rng.normal(size=(n, dim))
        for i in range(0, n, 3):
            vectors[i] = anchor * (0.5, 2.0)[i % 2]
            if i % 9 == 6:
                vectors[i][i % dim] *= 1.0 + 1e-14
        cases = [
            SurgicalCase(
                id=f"c{int(rng.integers(id_pool))}",
                values=dict(zip(self.KEYS, key_values)),
                duration_min=durations[i % len(durations)],
            )
            for i, key_values in enumerate(keys)
        ]
        idx = build(vectors, cases, small_schema())
        query_vectors = [anchor if j % 2 else rng.normal(size=dim) for j in range(len(queries))]
        query_cases = [
            SurgicalCase(id=f"q{j}", values=dict(zip(self.KEYS, values)))
            for j, values in enumerate(queries)
        ]
        m = k * expansion  # k >= m and m >= n both occur
        priors = PriorIndex(idx.table, min_cohort)
        train = CaseSet(cases=cases, schema=small_schema())
        rows, sims = retrieve_units(idx, [unit_query(idx, q) for q in query_vectors], m)
        # every query of the batch refined by one call
        refined = postprocess_rows(idx.table, rows, sims, query_cases, k)
        assert len(refined) == len(query_cases)
        for q, vec, line, got in zip(query_cases, query_vectors, zip(rows, sims), refined):
            candidates = scan_candidates(idx, vec, m)
            assert as_pairs(idx, *line) == [(c.case.id, c.similarity) for c in candidates]
            want = oracle_postprocess(candidates, q, k, self.KEYS)
            assert [(c.id, s) for c, s in got.references] == [
                (c.id, s) for c, s in want.references
            ]
            assert got == want
            want_prior = oracle_prior(q, cases, self.KEYS, min_cohort)
            assert priors.for_query(q) == want_prior
            assert compute_prior(q, train, min_cohort) == want_prior


class TestVecdot:
    @pytest.mark.parametrize("dim", [3, 17, 64, 256, 549, 1000])
    def test_equals_row_dots(self, dim):
        """Phase 2 re-scores a window with np.vecdot; it must round like the
        per-row dot unit[i] @ qv of the linear scan."""
        rng = np.random.default_rng(dim)
        unit = rng.normal(size=(300, dim))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        for _ in range(40):
            qv = rng.normal(size=dim)
            qv /= np.linalg.norm(qv)
            window = np.sort(rng.choice(300, size=int(rng.integers(1, 120)), replace=False))
            want = [float(unit[i] @ qv) for i in window]
            assert np.vecdot(unit[window], qv).tolist() == want


def sections(raw, n_keys):
    """Byte offsets of index.bin's sections, as the module docstring lays
    them out."""
    dim, count, head_len = struct.unpack("<IIQ", raw[8:24])
    at = {"vectors": 24}
    at["durations"] = at["vectors"] + 4 * count * dim
    at["offsets"] = at["durations"] + 8 * count
    at["head"] = at["offsets"] + 8 * (count + 1)
    at["codes"] = at["head"] + head_len
    at["values"] = at["codes"] + 4 * count * n_keys
    return at


N_KEYS = len(small_schema().key_attributes)


def with_head(raw, change):
    """raw with change() applied to its JSON table head, the header's head
    length kept in step."""
    at = sections(raw, N_KEYS)
    head = json.loads(raw[at["head"] : at["codes"]])
    change(head)
    blob = json.dumps(head).encode("utf-8")
    header = raw[:16] + struct.pack("<Q", len(blob))
    return header + raw[24 : at["head"]] + blob + raw[at["codes"] :]


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(8, 5))
        idx = simple_index(vectors, durations=[60.0 + i for i in range(8)])
        back = load_index(save_index(idx), small_schema())
        assert back.dim == idx.dim
        assert len(back) == len(idx)
        # vectors are float32-quantized on save
        assert np.array_equal(back.vectors, idx.vectors.astype("<f4").astype(np.float64))
        assert [c.id for c in back.cases] == [c.id for c in idx.cases]
        assert [c.duration_min for c in back.cases] == [c.duration_min for c in idx.cases]
        assert back.cases[0].values == idx.cases[0].values
        assert back.table.key_attributes == idx.table.key_attributes

    def test_retrieval_survives_round_trip(self):
        rng = np.random.default_rng(10)
        idx = simple_index(rng.normal(size=(12, 4)))
        raw = save_index(idx)
        back = load_index(raw, small_schema())
        query = rng.normal(size=4)
        a = [c.case.id for c in retrieve(back, query, 5)]
        b = [c.case.id for c in retrieve(load_index(raw, small_schema()), query, 5)]
        assert a == b

    def test_bad_magic(self):
        raw = save_index(simple_index([[1.0, 0.0]]))
        for magic in (bytes([raw[0] ^ 0xFF]) + raw[1:8], b"DURCIDX1"):
            with pytest.raises(ArtifactError, match="magic"):
                load_index(magic + raw[8:], small_schema())

    def test_retired_layout_names_a_rebuild(self, tmp_path):
        # A build whose index.bin has the DURCIDX1 layout also lists
        # weights.npz in its manifest; load_artifacts refuses that manifest,
        # naming the rebuild, before index.bin reaches load_index.
        save_artifacts(Pipeline.fit(tiny_corpus()), tmp_path)
        index_bin = tmp_path / "index.bin"
        index_bin.write_bytes(b"DURCIDX1" + index_bin.read_bytes()[8:])
        np.savez(tmp_path / "weights.npz", weights=np.ones(3))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["fingerprint"]
        for name in [*manifest["files"], "weights.npz"]:
            manifest["files"][name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        manifest["fingerprint"] = hashlib.sha256(blob).hexdigest()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with mock.patch("durcast.index.load_index", side_effect=AssertionError("decoded")):
            with pytest.raises(ArtifactError, match="must list exactly.*durcast build"):
                load_artifacts(tmp_path)

    def test_truncated_file(self):
        raw = save_index(simple_index([[1.0, 0.0]]))
        with pytest.raises(ArtifactError, match="truncated"):
            load_index(raw[:-1], small_schema())
        with pytest.raises(ArtifactError, match="truncated"):
            load_index(raw[:30], small_schema())

    def test_padded_file(self):
        raw = save_index(simple_index([[1.0, 0.0]]))
        with pytest.raises(ArtifactError):
            load_index(raw + b"x", small_schema())

    def test_case_without_duration_rejected(self):
        """A float64 column has no null: a case without its duration leaves
        the column an entry short, and every later section shifts."""
        raw = save_index(simple_index([[1.0, 0.0], [0.0, 1.0]]))
        at = sections(raw, N_KEYS)["durations"]
        with pytest.raises(ArtifactError):
            load_index(raw[:at] + raw[at + 8 :], small_schema())

    @pytest.mark.parametrize(
        "row, message",
        [((np.nan, 1.0), "has no finite norm"), ((np.inf, 1.0), "has no finite norm"),
         ((0.0, 0.0), "is a zero vector")],
    )
    def test_unusable_stored_vector_rejected(self, row, message):
        raw = save_index(simple_index([[1.0, 0.0], [0.0, 1.0]]))
        raw = raw[:32] + struct.pack("<2f", *row) + raw[40:]
        with pytest.raises(ArtifactError, match=f"'c1' {message}"):
            load_index(raw, small_schema())

    def test_fitted_precision_is_kept_and_saved(self):
        vectors = np.random.default_rng(11).normal(size=(6, 4)).astype(index_mod.STORED_DTYPE)
        idx = build(vectors, [mk_case(f"c{i}", 60.0) for i in range(6)], small_schema())
        assert idx.vectors.dtype == np.float32
        back = load_index(save_index(idx), small_schema())
        assert back.vectors.dtype == np.float32
        assert back.vectors.tobytes() == idx.vectors.tobytes()
        rows = np.arange(6)
        assert back._unit_rows(rows).tobytes() == unit_rows(idx.vectors).tobytes()
        assert idx._unit_rows(rows).tobytes() == unit_rows(back.vectors).tobytes()

    @pytest.mark.parametrize("bad", [b"Infinity", b"NaN", b"-60.0", b"1000000.1"])
    def test_non_finite_or_negative_duration_rejected(self, bad):
        raw = save_index(simple_index([[1.0, 0.0], [0.0, 1.0]]))
        at = sections(raw, N_KEYS)["durations"] + 8
        raw = raw[:at] + struct.pack("<d", float(bad)) + raw[at + 8 :]
        with pytest.raises(ArtifactError, match="corrupt case payload: case 'c1'"):
            load_index(raw, small_schema())

    @pytest.mark.parametrize(
        "position, value, message",
        [(1, 10**6, "out of order"), (0, 1, "out of order"), (2, 10**6, "truncated or padded")],
    )
    def test_offsets_out_of_order_or_past_the_end(self, position, value, message):
        raw = save_index(simple_index([[1.0, 0.0], [0.0, 1.0]]))
        at = sections(raw, N_KEYS)["offsets"] + 8 * position
        raw = raw[:at] + struct.pack("<Q", value) + raw[at + 8 :]
        with pytest.raises(ArtifactError, match=message):
            load_index(raw, small_schema())

    @pytest.mark.parametrize("code", [1, 7, -2])
    def test_code_outside_its_vocabulary(self, code):
        """Both cases share one department, so its vocabulary holds 1 value."""
        raw = save_index(simple_index([[1.0, 0.0], [0.0, 1.0]]))
        at = sections(raw, N_KEYS)["codes"] + 4 * N_KEYS
        raw = raw[:at] + struct.pack("<i", code) + raw[at + 4 :]
        with pytest.raises(ArtifactError, match="outside its vocabulary for case 'c1'"):
            load_index(raw, small_schema())

    @pytest.mark.parametrize("ids", [["c0"], ["c0", "c1", "c2"], ["c0", 1], "c0c1"])
    def test_ids_must_be_one_string_per_case(self, ids):
        raw = save_index(simple_index([[1.0, 0.0], [0.0, 1.0]]))
        raw = with_head(raw, lambda head: head.update(ids=ids))
        with pytest.raises(ArtifactError, match="2 string case ids"):
            load_index(raw, small_schema())

    @pytest.mark.parametrize(
        "change",
        [
            lambda head: head["vocabs"].pop(),
            lambda head: head["vocabs"][0].append(head["vocabs"][0][0]),
            lambda head: head["vocabs"][0].append(3),
            lambda head: head.pop("vocabs"),
        ],
    )
    def test_corrupt_vocabularies_rejected(self, change):
        raw = with_head(save_index(simple_index([[1.0, 0.0], [0.0, 1.0]])), change)
        with pytest.raises(ArtifactError, match="vocabulary|table head"):
            load_index(raw, small_schema())

    def test_keys_must_match_the_schema(self):
        raw = save_index(simple_index([[1.0, 0.0]]))
        schema = small_schema()
        reordered = FeatureSchema(
            schema.features, schema.ordinal_orders, tuple(reversed(schema.key_attributes))
        )
        with pytest.raises(ArtifactError, match="differ from the schema"):
            load_index(raw, reordered)

    @pytest.mark.parametrize("span", [b"{", b"[1]", b"\xff\xfe", b"null"])
    def test_corrupt_values_span_fails_on_first_access(self, span):
        raw = save_index(simple_index([[1.0, 0.0], [0.0, 1.0]]))
        at = sections(raw, N_KEYS)
        start, end = struct.unpack("<2Q", raw[at["offsets"] + 8 : at["offsets"] + 24])
        values = raw[at["values"] :]
        values = values[:start] + span.ljust(end - start) + values[end:]
        back = load_index(raw[: at["values"]] + values, small_schema())
        assert back.cases[0].id == "c0"
        for _ in range(2):
            with pytest.raises(ArtifactError, match="corrupt values span for case 'c1'"):
                back.cases[1]

    def test_cases_decode_once_on_first_access(self):
        raw = save_index(simple_index(np.eye(4), ids=["c0", "c1", "c1", "c3"]))
        back = load_index(raw, small_schema())
        assert back.cases[-1] is back.cases[3]
        # decoded cases share one object per feature name
        ages = [next(key for key in c.values if key == "age") for c in back.cases]
        assert all(key is ages[0] for key in ages)
        assert back.cases[1] == back.cases[2] and back.cases[1] is not back.cases[2]
        with pytest.raises(IndexError):
            back.cases[4]

    def test_float_values_keep_sign_and_type(self):
        """Float values share one object per value, with 0.0 and -0.0 kept
        apart; integers and booleans keep their types."""
        cases = [mk_case(f"c{i}", 60.0, age=age) for i, age in enumerate([-0.0, 0.0, -0.0, 0.0])]
        cases.append(SurgicalCase("c4", {"age": 3, "emergency": True}, 60.0))
        back = load_index(save_index(build(np.eye(5), cases, small_schema())), small_schema())
        ages = [c.values["age"] for c in back.cases]
        assert [math.copysign(1.0, age) for age in ages[:4]] == [-1.0, 1.0, -1.0, 1.0]
        assert ages[2] is ages[0] and ages[3] is ages[1]
        assert type(ages[4]) is int and back.cases[4].values["emergency"] is True


def test_lazy_cases_under_racing_threads():
    """Threads that race to decode the same rows all read equal cases, and
    every row ends up decoded once for good."""
    cases = [mk_case(f"c{i}", 60.0 + i, age=float(i)) for i in range(300)]
    vectors = np.random.default_rng(12).normal(size=(300, 4))
    back = load_index(save_index(build(vectors, cases, small_schema())), small_schema())
    seen = [[] for _ in range(8)]

    def read(j):
        order = np.random.default_rng(j).permutation(300).tolist()
        seen[j] = [(i, back.cases[i]) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(j,)) for j in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(case == cases[i] for run in seen for i, case in run)
    assert all(len(run) == 300 for run in seen)
    assert all(back.cases[i] is back.cases[i] for i in range(300))


KEY_SCHEMA = FeatureSchema(
    features=(Feature("dept", "categorical"), Feature("size", "numerical"),
              Feature("note", "text")),
    key_attributes=("dept", "size"),
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "a"]),
            st.one_of(st.none(), st.sampled_from(["x", "y", "1"])),
            st.one_of(st.none(), st.sampled_from([1.0, 2.5, -0.0, 1e300])),
            st.floats(0.5, 900.0),
            st.one_of(st.none(), st.text(max_size=6)),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_stored_columns_equal_table_of_cases(rows):
    """The CaseTable load_index builds from the stored columns equals
    CaseTable.of over the cases; repeated ids, missing key values and a
    numerical key (coded by str(value)) included."""
    cases = [
        SurgicalCase(id=case_id, values={"dept": dept, "size": size, "note": note},
                     duration_min=dur)
        for case_id, dept, size, dur, note in rows
    ]
    vectors = np.arange(1, 1 + 3 * len(cases), dtype=np.float32).reshape(len(cases), 3)
    back = load_index(save_index(build(vectors, cases, KEY_SCHEMA)), KEY_SCHEMA)
    want = CaseTable.of(cases, KEY_SCHEMA.key_attributes)
    got = back.table
    assert got.ids == want.ids
    assert got.durations.tobytes() == want.durations.tobytes()
    assert got.id_rank.tolist() == want.id_rank.tolist()
    assert got.codes.dtype == want.codes.dtype and np.array_equal(got.codes, want.codes)
    assert [list(v.items()) for v in got.vocabs] == [list(v.items()) for v in want.vocabs]
    assert list(back.cases) == cases
