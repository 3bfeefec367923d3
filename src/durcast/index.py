"""Flat cosine-similarity index with clinical post-processing.

Retrieval is exhaustive and exact (no approximation): every query scores
every stored vector, and every stored case carries a recorded duration. It
runs in two phases. One matrix product per block of queries, at the stored
precision (float32 once fitted or loaded), scores every stored vector
against the queries and scales each score by the row's inverse norm; it
picks each query's window: the top m plus every row within a proven
rounding margin of the m-th score. Only the window is re-scored, with one
float64 row-wise dot product per unit row, and sorted by (similarity
descending, id ascending) through the case table's id ranks, so ids and
similarities equal a linear-scan sort bit for bit. Every query keeps
min(m, n) candidates, so a batch's candidates are two Q x min(m, n) arrays,
(rows, similarities), as in FAISS: retrieve_units answers queries already
scaled to unit norm, a whole batch in one pass by unit_queries or one query
by unit_query. retrieve answers one query as RetrievalCandidate objects.

A FlatIndex holds its vectors at the precision it is given (STORED_DTYPE,
float32, once fitted or loaded), one inverse norm per row for the product,
a float64 unit-row cache that a lock guards and that a row enters the first
time a window reaches it (rows in first-use order, so its memory follows
the rows that queries reach), and the cases' CaseTable. Its constructor
checks each row, built or loaded, and normalises none. A row whose norm
lies outside the range the float32 product scores safely has no product
score and joins every window.

postprocess_rows refines a whole batch of queries' candidate rows at once
into their final reference sets: one stratum-ladder walk over the index's
CaseTable for the batch, then one sort of the chosen tiers' durations for
the interquartile-range trim; only the final references become
(SurgicalCase, similarity) pairs.

On-disk format (little-endian), columnar so that loading reads arrays and
decodes no case:
    bytes 0..7    magic "DURCIDX2"
    bytes 8..11   uint32 vector dimension d
    bytes 12..15  uint32 entry count n
    bytes 16..23  uint64 length of the JSON table head in bytes
    then          n * d float32 vectors, row-major
    then          n float64 durations
    then          n + 1 uint64 offsets into the values section: 0 first,
                  non-decreasing, the section's length last
    then          UTF-8 JSON table head: {"ids": [n case ids],
                  "keys": [key attributes], "vocabs": [one list of
                  str(value) per key, in code order]}
    then          n * len(keys) int32 key codes, row-major, -1 = missing
    then          values section: case i's values as a UTF-8 JSON object
                  in bytes offsets[i]..offsets[i + 1]
The schema is not repeated: load_index takes the one schema.yaml holds.
Loading checks every column and builds the CaseTable from them; index.cases
is then a LazyCases sequence, which decodes a case's values span on first
access. Vectors are stored as STORED_DTYPE, which Pipeline.fit rounds to.
"""

from __future__ import annotations

import json
import struct
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
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
from .schema import MAX_DURATION_MIN, FeatureSchema, SurgicalCase
from .strata import MISSING, CaseTable, describe_tier, ladder, quartiles

_MAGIC = b"DURCIDX2"
# The precision index.bin stores vectors in.
STORED_DTYPE = np.dtype("<f4")
_EPS = float(np.finfo(np.float64).eps)
# Most product scores retrieve_units holds at once (16 MB of float32, the
# scan precision of a fitted or loaded index): a block of queries has at
# most this many rows times the index size entries.
_BLOCK_SCORES = 1 << 22


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
    """Immutable exhaustive index over weighted embeddings: row i embeds
    table.cases[i]. A zero or non-finite row has no cosine direction:
    ZeroVector, NonFiniteVector, naming the row's case id.

    It holds the vectors as given (STORED_DTYPE once fitted or loaded), one
    inverse row norm per row at the scan precision (float32 for float32
    vectors) for phase 1 of retrieve_units, and a cache of float64 unit rows
    for phase 2. A row's unit row is built, under a lock, the first time a
    retrieval window reaches it, and appended to the cache's filled prefix:
    _unit[:_used] holds the filled rows in first-use order, row r at
    _slot[r]. So a new index normalises no row, and the cache's resident
    memory is _used * dim * 8 bytes (rounded up to whole pages) however
    scattered the reached rows are. A row whose norm lies
    outside [2**-64, 2**64] has no phase-1 score (the float32 product could
    overflow, or its subnormal parts lose their relative precision); it
    joins every window instead."""

    def __init__(self, vectors: np.ndarray, table: CaseTable):
        # Float64 sums of squares: zero and non-finite exactly when the
        # upcast row's norm is, without an upcast copy of the matrix.
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
        if bad.size:
            case_id = table.ids[bad[0]]
            if norms[bad[0]] == 0.0:
                raise ZeroVector(f"entry for case {case_id!r} is a zero vector")
            raise NonFiniteVector(f"entry for case {case_id!r} has no finite norm")
        self.vectors = vectors
        self.table = table
        self.cases = table.cases
        self.dim = int(vectors.shape[1])
        scan = np.result_type(vectors.dtype, np.float32)
        self._scan = vectors.astype(scan, copy=False)
        scored = (norms >= 2.0**-64) & (norms <= 2.0**64)
        self._inv_norms = np.where(scored, 1.0 / norms, 0.0).astype(scan)
        self._unscored = np.flatnonzero(~scored)
        self._unit = np.empty(vectors.shape, dtype=np.float64)
        self._slot = np.full(len(vectors), -1, dtype=np.intp)  # -1: not filled
        self._used = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.table)

    def _unit_rows(self, rows: np.ndarray) -> np.ndarray:
        """The float64 unit vectors of the given distinct rows: each row
        upcast and divided by its norm, as index.bin has always been read,
        built on first use and appended to the filled prefix. A filled slot
        never changes, so it is read outside the lock."""
        with self._lock:
            new = rows[self._slot[rows] < 0]
            if new.size:
                start, self._used = self._used, self._used + new.size
                block = self.vectors[new].astype(np.float64)
                self._unit[start : self._used] = block / np.linalg.norm(block, axis=1)[:, None]
                self._slot[new] = np.arange(start, self._used)
        return self._unit[self._slot[rows]]


def build(
    vectors: np.ndarray, cases: list[SurgicalCase], schema: FeatureSchema
) -> FlatIndex:
    """An index whose row i, kept at its precision, embeds cases[i], with
    the schema's key attributes as its table's keys. Rejects a matrix
    without one row per case, and cases without a recorded duration (they
    cannot serve as references or priors)."""
    if not cases:
        raise EmptyInput("cannot build an index from zero entries")
    if vectors.ndim != 2 or len(vectors) != len(cases):
        raise DimensionMismatch(f"need one row per case ({len(cases)}), got {vectors.shape}")
    for case in cases:
        if case.duration_min is None:
            raise MissingDuration(f"entry for case {case.id!r} has no recorded duration")
    return FlatIndex(vectors, CaseTable.of(list(cases), schema.key_attributes))


def retrieve(idx: FlatIndex, query: np.ndarray, m: int) -> list[RetrievalCandidate]:
    """Top-m entries by cosine similarity, descending; ties broken by
    ascending case id. Equals a linear-scan sort exactly."""
    rows, sims = retrieve_units(idx, [unit_query(idx, query)], m)
    return [
        RetrievalCandidate(case=idx.cases[i], similarity=s)
        for i, s in zip(rows[0].tolist(), sims[0].tolist())
    ]


def retrieve_units(
    idx: FlatIndex, units: list[np.ndarray] | np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-m retrieval, one matrix product per block of queries, for
    queries scaled by unit_queries or unit_query (np.linalg.norm along an
    axis rounds differently): two len(units) x min(m, n) arrays, the row
    indices and their similarities, line j for units[j]."""
    if len(idx) == 0:
        raise EmptyIndex("retrieve on an empty index")
    if m < 1:
        raise SpecError(f"candidate count must be >= 1, got {m}")
    n = len(idx)
    rows = np.empty((len(units), min(m, n)), dtype=np.intp)
    sims = np.empty(rows.shape, dtype=np.float64)
    block = max(1, _BLOCK_SCORES // n)
    for start in range(0, len(units), block):
        batch = units[start : start + block]
        windows = [np.arange(n)] * len(batch) if m >= n else _windows(idx, batch, m)
        # The window holds the top m (or all n) rows, so every line is full.
        for j, (qv, window) in enumerate(zip(batch, windows), start):
            # vecdot takes one dot product per row, the same one a 1-D
            # unit[i] @ qv takes, so the similarities keep their bits; a
            # matrix-vector product unit[window] @ qv rounds differently.
            scores = np.vecdot(idx._unit_rows(window), qv)
            order = np.lexsort((idx.table.id_rank[window], -scores))[:m]
            rows[j] = window[order]
            sims[j] = scores[order]
    return rows, sims


def _windows(idx: FlatIndex, batch: list[np.ndarray], m: int) -> list[np.ndarray]:
    """Phase 1 of retrieve_units for m < n: per query, the ascending rows
    that may reach its top m, from one matrix product at the scan
    precision: the top m by product score plus every row within a proven
    rounding margin of the m-th, and every unscored row."""
    # Phase 2 re-scores the window with float64 row-wise dots, the scores
    # every caller sees. The two disagree: the product is float32 for a
    # fitted or loaded index, and even at float64 matrix kernels round a
    # SIMD block row and a remainder row differently, so duplicate
    # directions at different positions would lose their exact tie under
    # the product alone.
    # Bound (Higham, Accuracy and Stability of Numerical Algorithms, §2.2
    # and §3.1), for a row v, the float64 unit query q and the exact cosine
    # c = q.v / |v|; u is the scan precision's unit roundoff (2**-24 for
    # float32), eps = 2**-52 and gamma = D * u / (1 - D * u):
    # - Phase 2 gives s within (D + 2) * eps of c: a float64 dot of two
    #   vectors of norm <= 1 (up to rounding) in any summation order, the
    #   classical D * eps / 2 with slack for the norms.
    # - Phase 1 gives p = fl(fl(fl(q) . v) * fl(1 / |v|)), within
    #   gamma + 7 * u + 2 * (D + 4) * eps of c for D <= 2**20. The parts:
    #   rounding q (u); the dot, accumulated in any order, blocking or
    #   thread split (gamma); 1 / |v|, from a float64 norm ((D + 4) * eps),
    #   rounded (u); the product with it (u). The last two scale a value
    #   below 2, so they count twice. A query component, row component or
    #   product below the normal range errs by at most 2**-126 absolute,
    #   even flushed to zero; the row-norm guard keeps |v| >= 2**-64, so D
    #   of them move p by under D * 2**-62. These and the second-order
    #   terms fit in the last u.
    # So |p - s| <= delta = gamma + 7 * u + (3 * D + 10) * eps.
    # The m rows with p >= edge (the m-th largest) have s >= edge - delta,
    # so the m-th largest s is too, and every row of the true top m has
    # p >= edge - 2 * delta. An unscored row scores -inf, so it never sets
    # the edge, and joins every window.
    n, dim = len(idx), idx.dim
    dtype = idx._scan.dtype
    u = float(np.finfo(dtype).eps) / 2
    gamma = dim * u / (1 - dim * u)
    margin = 2 * (gamma + 7 * u + (3 * dim + 10) * _EPS)
    with np.errstate(over="ignore", invalid="ignore"):  # only unscored rows
        approx = np.stack(batch).astype(dtype, copy=False) @ idx._scan.T
        approx *= idx._inv_norms
    approx[:, idx._unscored] = -np.inf
    edge = np.partition(approx, n - m, axis=1)[:, n - m]
    # The bound at float64, rounded down to the scan precision.
    lower = (edge.astype(np.float64) - margin).astype(dtype)
    lower = np.nextafter(lower, dtype.type(-np.inf))
    keep = approx >= lower[:, None]
    keep[:, idx._unscored] = True
    return [np.flatnonzero(row) for row in keep]


def unit_query(idx: FlatIndex, query: np.ndarray) -> np.ndarray:
    """The query scaled to unit norm; raises unless it has the index's
    dimension and a finite, non-zero norm. unit_queries for one row."""
    units, errors = unit_queries(idx, np.asarray(query, dtype=np.float64)[None])
    if errors:
        raise errors[0]
    return units[0]


def unit_queries(
    idx: FlatIndex, queries: np.ndarray
) -> tuple[np.ndarray, dict[int, ZeroVector | NonFiniteVector]]:
    """Each row of a Q x D query matrix scaled to unit norm, and the rows
    that cannot be: row i -> its NonFiniteVector or ZeroVector, its line
    left zero. Raises DimensionMismatch unless D is the index's dimension.

    A row's norm is the square root of one dot product of the row with
    itself, the one np.linalg.norm takes of a lone 1-D query, so a row
    scales to the same bits alone or in a batch."""
    q = np.asarray(queries, dtype=np.float64)
    if q.shape[1:] != (idx.dim,):
        raise DimensionMismatch(f"query dim {q.shape[1:]} does not match index ({idx.dim},)")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = np.sqrt(np.vecdot(q, q))
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    errors: dict[int, ZeroVector | NonFiniteVector] = {
        i: ZeroVector("query is a zero vector") if norms[i] == 0.0
        else NonFiniteVector("query has no finite norm")
        for i in bad.tolist()
    }
    norms[bad] = 1.0
    units = q / norms[:, None]
    units[bad] = 0.0
    return units, errors


def postprocess_rows(
    table: CaseTable,
    rows: np.ndarray,
    sims: np.ndarray,
    queries: Sequence[SurgicalCase],
    k: int,
) -> list[ReferenceSet]:
    """Refine each query's candidate rows of the table into at most k
    references. rows and sims are Q x w arrays, line j holding queries[j]'s
    candidates in descending similarity order with their similarities.

    Stages, per query: take the first tier of the stratum walk with >= k
    candidates (else the most specific non-empty one); remove duration
    outliers outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR] (skipped when <= 4
    survivors, where quartiles are unstable); keep the top k by similarity.
    """
    width = rows.shape[1]
    if width == 0:
        raise NoCandidates("postprocess received no candidates")
    if k < 1:
        raise SpecError(f"reference count must be >= 1, got {k}")

    # The unfiltered tier holds all w candidates of every query, so some
    # tier reaches k exactly when w >= k; otherwise the most specific
    # non-empty tier wins.
    need = k if width >= k else 1
    level = np.full(len(queries), -1)
    chosen = np.zeros(rows.shape, dtype=bool)
    for lvl, _, applicable, mask in table.walk(queries, rows):
        take = (level < 0) & applicable & (np.count_nonzero(mask, axis=1) >= need)
        level[take] = lvl
        chosen[take] = mask[take]
        if (level >= 0).all():
            break

    durations = table.durations[rows]
    counts = np.count_nonzero(chosen, axis=1)
    q1, q3 = quartiles(np.sort(np.where(chosen, durations, np.inf), axis=1), counts)
    iqr = q3 - q1
    low, high = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    trimmed = counts > 4
    inside = (low[:, None] <= durations) & (durations <= high[:, None])
    keep = chosen & (inside | ~trimmed[:, None])
    keep &= np.cumsum(keep, axis=1) <= k

    picked = np.nonzero(keep)
    cases = [table.cases[i] for i in rows[picked].tolist()]
    similarities = sims[picked].tolist()
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    tiers = ladder(table.key_attributes)
    return [
        ReferenceSet(
            references=tuple(zip(cases[start:end], similarities[start:end])),
            fallback_level=lvl,
            stratum_descriptor=describe_tier(query, tiers[lvl]),
            iqr_bounds=(lo, hi) if trim else None,
        )
        for query, start, end, lvl, trim, lo, hi in zip(
            queries,
            [0, *ends],
            ends,
            level.tolist(),
            trimmed.tolist(),
            low.tolist(),
            high.tolist(),
        )
    ]


class LazyCases(Sequence):
    """A loaded index's cases, read-only and indexed by row number: case i
    is decoded from its values span, with its id and duration from their
    columns, on first access and cached. Threads that race on one row
    decode equal cases."""

    def __init__(self, ids: list[str], durations: np.ndarray, raw: bytes, spans: np.ndarray):
        self._ids = ids
        self._durations = durations
        self._raw = raw
        self._spans = spans  # the n + 1 span boundaries, as positions in raw
        self._cache: list[SurgicalCase | None] = [None] * len(ids)
        # One key object per feature name for every decoded case, as one JSON
        # document of all cases would share them: less memory, faster lookups.
        self._keys: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, i: int) -> SurgicalCase:
        case = self._cache[i]
        if case is None:
            i = range(len(self))[i]  # from the end when negative
            case = self._cache[i] = self._decode(i)
        return case

    def _decode(self, i: int) -> SurgicalCase:
        span = self._raw[int(self._spans[i]) : int(self._spans[i + 1])]
        try:
            values = json.loads(span.decode("utf-8"))
            if not isinstance(values, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            raise ArtifactError(
                f"index file has a corrupt values span for case {self._ids[i]!r}: {exc}"
            ) from exc
        values = {self._keys.setdefault(key, key): value for key, value in values.items()}
        return SurgicalCase(id=self._ids[i], values=values, duration_min=float(self._durations[i]))


def save_index(idx: FlatIndex) -> bytes:
    """The index file's bytes in the documented columnar layout
    (STORED_DTYPE vectors); load_index decodes them."""
    table = idx.table
    head = {
        "ids": table.ids,
        "keys": list(table.key_attributes),
        "vocabs": [list(vocab) for vocab in table.vocabs],
    }
    head_bytes = json.dumps(head).encode("utf-8")
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    spans = [encode(c.values).encode("utf-8") for c in idx.cases]
    offsets = np.zeros(len(spans) + 1, dtype="<u8")
    offsets[1:] = np.cumsum([len(span) for span in spans])
    return b"".join(
        [
            _MAGIC + struct.pack("<IIQ", idx.dim, len(idx), len(head_bytes)),
            idx.vectors.astype(STORED_DTYPE, copy=False).tobytes(),
            table.durations.astype("<f8", copy=False).tobytes(),
            offsets.tobytes(),
            head_bytes,
            table.codes.astype("<i4", copy=False).tobytes(),
            *spans,
        ]
    )


def load_index(raw: bytes, schema: FeatureSchema) -> FlatIndex:
    """Decode the bytes of an index file written by save_index, for the
    schema its artifacts hold. Checks every column; decodes no case."""
    if len(raw) < 24 or raw[:8] != _MAGIC:
        raise ArtifactError("not an index file (bad magic)")
    dim, n, head_len = struct.unpack("<IIQ", raw[8:24])
    keys = list(schema.key_attributes)
    # section starts: durations, offsets, head, codes, values
    at = list(accumulate([24 + 4 * n * dim, 8 * n, 8 * (n + 1), head_len, 4 * n * len(keys)]))
    if len(raw) < at[4]:
        raise ArtifactError("index file is truncated or padded")
    vectors = np.frombuffer(raw, STORED_DTYPE, n * dim, 24).reshape(n, dim)
    durations = np.frombuffer(raw, "<f8", n, at[0]).astype(np.float64)
    offsets = np.frombuffer(raw, "<u8", n + 1, at[1]).astype(np.int64)
    codes = np.frombuffer(raw, "<i4", n * len(keys), at[3]).astype(np.int32).reshape(n, len(keys))
    if offsets[0] != 0 or (np.diff(offsets) < 0).any():
        raise ArtifactError("index file has value offsets out of order")
    if len(raw) != at[4] + int(offsets[-1]):
        raise ArtifactError("index file is truncated or padded")
    try:
        head = json.loads(raw[at[2] : at[3]].decode("utf-8"))
        ids, vocabs = head["ids"], head["vocabs"]
        if head["keys"] != keys:
            raise ValueError(f"keys {head['keys']} differ from the schema's {keys}")
        if not (isinstance(ids, list) and len(ids) == n and all(isinstance(i, str) for i in ids)):
            raise ValueError(f"it must list {n} string case ids")
        vocab_maps = [{value: code for code, value in enumerate(v)} for v in vocabs]
        strings = all(isinstance(value, str) for vocab in vocab_maps for value in vocab)
        if not strings or [list(m) for m in vocab_maps] != vocabs or len(vocabs) != len(keys):
            raise ValueError("it needs one vocabulary of distinct strings per key")
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"index file has a corrupt table head: {exc}") from exc
    bad = np.flatnonzero(((codes < MISSING) | (codes >= [len(v) for v in vocabs])).any(axis=1))
    if bad.size:
        raise ArtifactError(
            f"index file has a key code outside its vocabulary for case {ids[bad[0]]!r}"
        )
    # 0 < d <= MAX_DURATION_MIN: every indexed case has a recorded duration
    bad = np.flatnonzero(~((durations > 0.0) & (durations <= MAX_DURATION_MIN)))
    if bad.size:
        raise ArtifactError(
            f"index file has a corrupt case payload: case {ids[bad[0]]!r} has duration "
            f"{float(durations[bad[0]])!r}, not positive and finite, at most "
            f"{MAX_DURATION_MIN:,.0f} minutes"
        )
    cases = LazyCases(ids, durations, raw, offsets + at[4])
    table = CaseTable(cases, keys, ids, durations, codes, vocab_maps)
    try:
        return FlatIndex(vectors, table)
    except (ZeroVector, NonFiniteVector) as exc:
        raise ArtifactError(f"index file holds an unusable vector: {exc}") from exc
