"""Flat cosine-similarity index with clinical post-processing.

Retrieval is exhaustive and exact (no approximation): every query scores
every stored vector, and every stored case carries a recorded duration. It
runs in two phases. One matrix product per block of queries scores all unit
vectors at once and picks each query's window: the top m plus every row
within a proven rounding margin of the m-th score. Only the window is
re-scored with row-wise dot products and sorted, so ids and similarities
equal a linear-scan sort bit for bit. retrieve is retrieve_batch of one.

Post-processing refines an expanded candidate list into the final reference
set by walking the stratum ladder and trimming duration outliers by
interquartile range.

On-disk format (little-endian):
    bytes 0..7    magic "DURCIDX1"
    bytes 8..11   uint32 vector dimension
    bytes 12..15  uint32 entry count
    bytes 16..23  uint64 JSON payload length in bytes
    then          count * dim float32 vectors, row-major
    then          UTF-8 JSON payload: {"schema": ..., "cases": [...]}
Vectors are quantized to float32 on save.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArtifactError,
    DimensionMismatch,
    EmptyIndex,
    EmptyInput,
    MissingDuration,
    NoCandidates,
    SpecError,
    ZeroVector,
)
from .schema import CaseSet, FeatureSchema, SurgicalCase, load_schema
from .strata import describe_tier, walk

_MAGIC = b"DURCIDX1"
_EPS = float(np.finfo(np.float64).eps)
# Most product scores retrieve_batch holds at once (16 MB of float64): a
# block of queries has at most this many rows times the index size entries.
_BLOCK_SCORES = 1 << 21


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dims differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for zero vectors")
    return float(a @ b / (na * nb))


@dataclass(frozen=True)
class RetrievalCandidate:
    case: SurgicalCase
    similarity: float


@dataclass(frozen=True)
class ReferenceSet:
    """Final references: descending similarity, at most K entries.

    fallback_level is the stratum-ladder tier index that produced the set
    (0 = full key match, last = unfiltered). iqr_bounds records the outlier
    window when the IQR stage ran, else None.
    """

    references: tuple[tuple[SurgicalCase, float], ...]
    fallback_level: int
    stratum_descriptor: str
    iqr_bounds: tuple[float, float] | None


class FlatIndex:
    """Immutable exhaustive index over weighted embeddings."""

    def __init__(self, vectors: np.ndarray, cases: list[SurgicalCase], schema: FeatureSchema):
        self.vectors = vectors
        self.cases = cases
        self.schema = schema
        self.dim = int(vectors.shape[1])
        norms = np.linalg.norm(vectors, axis=1)
        self._unit = vectors / np.where(norms > 0.0, norms, 1.0)[:, None]

    def __len__(self) -> int:
        return len(self.cases)


def build(
    entries: list[tuple[np.ndarray, SurgicalCase]], schema: FeatureSchema
) -> FlatIndex:
    """Store (weighted embedding, case) pairs for exhaustive retrieval.

    Rejects inconsistent dimensions, zero-norm vectors (they have no
    cosine direction) and cases without a recorded duration (they cannot
    serve as references or priors).
    """
    if not entries:
        raise EmptyInput("cannot build an index from zero entries")
    dim = int(np.asarray(entries[0][0]).shape[0])
    rows = []
    cases = []
    for vec, case in entries:
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (dim,):
            raise DimensionMismatch(
                f"entry for case {case.id!r} has dim {v.shape}, expected ({dim},)"
            )
        if float(np.linalg.norm(v)) == 0.0:
            raise ZeroVector(f"entry for case {case.id!r} is a zero vector")
        if case.duration_min is None:
            raise MissingDuration(f"entry for case {case.id!r} has no recorded duration")
        rows.append(v)
        cases.append(case)
    return FlatIndex(vectors=np.stack(rows), cases=cases, schema=schema)


def retrieve(idx: FlatIndex, query: np.ndarray, m: int) -> list[RetrievalCandidate]:
    """Top-m entries by cosine similarity, descending; ties broken by
    ascending case id. Equals a linear-scan sort exactly."""
    return retrieve_batch(idx, [query], m)[0]


def retrieve_batch(
    idx: FlatIndex, queries: list[np.ndarray], m: int
) -> list[list[RetrievalCandidate]]:
    """retrieve for each query, in input order, with one matrix product per
    block of queries instead of one per query."""
    if len(idx) == 0:
        raise EmptyIndex("retrieve on an empty index")
    if m < 1:
        raise SpecError(f"candidate count must be >= 1, got {m}")
    # Each query is normalised on its own: a row-wise norm of the stacked
    # queries rounds differently and would move the similarities.
    qvs = [_unit_query(idx, q) for q in queries]
    unit = idx._unit
    n = len(idx)
    if m >= n:
        windows = [range(n)] * len(qvs)
    else:
        # Phase 1 picks a window per query from a product over a block of
        # queries; phase 2 re-scores it with row-wise dots, the scores every
        # caller sees. The two disagree in the last bits: matrix kernels
        # round a SIMD block row and a remainder row differently, so
        # duplicate directions at different positions would lose their
        # exact tie under the product alone.
        # Bound: any float64 dot of two length-D vectors of norm <= 1 (up to
        # rounding) lies within gamma = (D + 2) * eps of the true dot,
        # whatever its summation order, blocking or thread split (the
        # classical bound is D * eps / 2; the slack covers the norms). So a
        # product score and a row dot differ by at most delta = 2 * gamma.
        # The m rows with product score >= edge (the m-th largest) have row
        # dots >= edge - delta, so the m-th largest row dot is too, and every
        # row of the true top m has product score >= edge - 2 * delta.
        margin = 4.0 * (idx.dim + 2) * _EPS
        block = max(1, _BLOCK_SCORES // n)
        windows = []
        for start in range(0, len(qvs), block):
            approx = np.stack(qvs[start : start + block]) @ unit.T
            edge = np.partition(approx, n - m, axis=1)[:, n - m]
            keep = approx >= (edge - margin)[:, None]
            windows.extend(np.flatnonzero(row).tolist() for row in keep)
    found = []
    for qv, window in zip(qvs, windows):
        scored = [(i, float(unit[i] @ qv)) for i in window]
        scored.sort(key=lambda p: (-p[1], idx.cases[p[0]].id))
        found.append(
            [RetrievalCandidate(case=idx.cases[i], similarity=sim) for i, sim in scored[:m]]
        )
    return found


def _unit_query(idx: FlatIndex, query: np.ndarray) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (idx.dim,):
        raise DimensionMismatch(f"query dim {q.shape} does not match index ({idx.dim},)")
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        raise ZeroVector("query is a zero vector")
    return q / qn


def postprocess(
    candidates: list[RetrievalCandidate],
    query: SurgicalCase,
    k: int,
    key_attributes: tuple[str, ...],
) -> ReferenceSet:
    """Refine expanded candidates into at most k references.

    Stages, in order: take the first tier of the stratum walk with >= k
    candidates (else the most specific non-empty one); remove duration
    outliers outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR] (skipped when <= 4
    survivors, where quartiles are unstable); keep the top k by similarity.
    """
    if not candidates:
        raise NoCandidates("postprocess received no candidates")
    if k < 1:
        raise SpecError(f"reference count must be >= 1, got {k}")

    # The unfiltered tier holds every candidate, so some tier is non-empty.
    first_nonempty = None
    for level, tier, survivors in walk(query, candidates, key_attributes, lambda c: c.case):
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
        survivors = [
            c for c in survivors if bounds[0] <= c.case.duration_min <= bounds[1]
        ]

    top = survivors[:k]
    return ReferenceSet(
        references=tuple((c.case, c.similarity) for c in top),
        fallback_level=level,
        stratum_descriptor=describe_tier(query, tier),
        iqr_bounds=bounds,
    )


def save_index(idx: FlatIndex) -> bytes:
    """The index file's bytes in the documented binary layout (float32
    vectors); load_index decodes them."""
    payload = {
        "schema": idx.schema.to_doc(),
        "cases": [
            {"id": c.id, "values": c.values, "duration_min": c.duration_min}
            for c in idx.cases
        ],
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    vectors = idx.vectors.astype("<f4").tobytes()
    header = _MAGIC + struct.pack("<IIQ", idx.dim, len(idx), len(blob))
    return header + vectors + blob


def load_index(raw: bytes) -> FlatIndex:
    """Decode the bytes of an index file written by save_index."""
    if len(raw) < 24 or raw[:8] != _MAGIC:
        raise ArtifactError("not an index file (bad magic)")
    dim, count, blob_len = struct.unpack("<IIQ", raw[8:24])
    vec_bytes = count * dim * 4
    if len(raw) != 24 + vec_bytes + blob_len:
        raise ArtifactError("index file is truncated or padded")
    vectors = (
        np.frombuffer(raw[24 : 24 + vec_bytes], dtype="<f4")
        .astype(np.float64)
        .reshape(count, dim)
    )
    try:
        payload = json.loads(raw[24 + vec_bytes :].decode("utf-8"))
        schema = load_schema(json.dumps(payload["schema"]))
        # float() rejects a missing duration: every indexed case has one.
        cases = [
            SurgicalCase(
                id=item["id"], values=item["values"], duration_min=float(item["duration_min"])
            )
            for item in payload["cases"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"index file has a corrupt case payload: {exc}") from exc
    if len(cases) != count:
        raise ArtifactError(f"index header count {count} != payload count {len(cases)}")
    return FlatIndex(vectors=vectors, cases=cases, schema=schema)


def index_case_set(idx: FlatIndex) -> CaseSet:
    """Reconstruct the training CaseSet stored alongside the vectors."""
    return CaseSet(cases=list(idx.cases), schema=idx.schema)
