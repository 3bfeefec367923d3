"""Heterogeneous feature encoding into one dense, category-normalized vector.

Features are grouped by kind into five blocks (numerical, ordinal,
categorical, boolean, text), each block encoded with its own scheme and
scaled by 1/sqrt(block dimension) so no block dominates by width alone.

Encoding rules:
  numerical    z-score against training mean/std (population std; std < 1e-12
               is treated as 1); missing values impute the training mean
  ordinal      declared rank / (levels - 1), one coordinate in [0, 1];
               missing imputes the training mean of the encoded value
  categorical  one-hot over the sorted training vocabulary plus a reserved
               trailing UNKNOWN slot; unseen or missing fires UNKNOWN
  boolean      case-insensitive true/false, yes/no, 1/0 to {1, 0}; missing
               imputes the training mean of the encoded value
  text         fixed-dim unit-norm embedding; missing embeds "UNKNOWN"

Fitted and loaded encoders share one per-feature plan (offset, stats, value
-> slot and level -> rank dicts). One fill routine writes each feature into
a zeroed row of the output, vector or preallocated N x D matrix; each
block's columns are then scaled by its alpha once. A single case's texts
are embedded one at a time through a per-encoder cache; a matrix's distinct
texts, across all its text columns, are embedded in one embed_many call
once every row's other features have been checked, and are not cached.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTrainingSet, SchemaMismatch
from .schema import CaseSet, FeatureSchema, SurgicalCase
from .text_embedding import TextEmbedder

CATEGORY_ORDER = ("num", "ord", "cat", "bool", "text")

_KIND_TO_CATEGORY = {
    "numerical": "num",
    "ordinal": "ord",
    "categorical": "cat",
    "boolean": "bool",
    "text": "text",
}

_BOOL_TOKENS = {
    "true": 1.0,
    "yes": 1.0,
    "1": 1.0,
    "false": 0.0,
    "no": 0.0,
    "0": 0.0,
}

MISSING_TOKEN = "UNKNOWN"


def _parse_bool(token: str, feature: str) -> float:
    try:
        return _BOOL_TOKENS[str(token).strip().lower()]
    except KeyError:
        raise SchemaMismatch(
            f"feature {feature!r}: not a boolean token: {token!r}"
        ) from None


def _as_float(value, feature: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SchemaMismatch(f"feature {feature!r}: not numeric: {value!r}") from None


@dataclass
class FittedEncoder:
    """Immutable per-feature statistics fitted on the training set only."""

    schema: FeatureSchema
    text_embedder: TextEmbedder
    numeric_stats: dict[str, tuple[float, float]]
    ordinal_missing: dict[str, float]
    cat_vocabs: dict[str, tuple[str, ...]]
    bool_missing: dict[str, float]
    segment_map: dict[str, tuple[int, int]] = field(init=False)
    feature_spans: list[tuple[str, int, int]] = field(init=False)
    dim: int = field(init=False)
    _alphas: dict[str, float] = field(init=False)
    _text_cache: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        spans: list[tuple[str, int, int]] = []
        segments: dict[str, tuple[int, int]] = {}
        plan = {}
        offset = 0
        for category in CATEGORY_ORDER:
            start = offset
            for f in self.schema.features:
                if _KIND_TO_CATEGORY[f.kind] != category:
                    continue
                rule, width = self._rule(f.name, f.kind)
                spans.append((f.name, offset, width))
                plan[f.name] = (f.name, f.kind, offset, rule)
                offset += width
            segments[category] = (start, offset - start)
        self.segment_map = segments
        self.feature_spans = spans
        self.dim = offset
        self._alphas = {
            c: (1.0 / math.sqrt(length) if length > 0 else 0.0)
            for c, (_, length) in segments.items()
        }
        self._text_cache = {}
        # _fill walks the plan in schema order, so errors surface in that order
        self._plan = [plan[name] for name in self.schema.feature_names]
        self._names = frozenset(plan)

    def _rule(self, name: str, kind: str) -> tuple[object, int]:
        """What the feature's fill rule reads, and the feature's width."""
        if kind == "numerical":
            return self.numeric_stats[name], 1
        if kind == "ordinal":
            return (self.ordinal_missing[name], _ordinal_ranks(self.schema, name)), 1
        if kind == "categorical":
            slots = {value: slot for slot, value in enumerate(self.cat_vocabs[name])}
            return (slots, len(slots)), len(slots) + 1
        if kind == "boolean":
            return self.bool_missing[name], 1
        return self.text_embedder.dim, self.text_embedder.dim

    def alpha(self, category: str) -> float:
        return self._alphas[category]

    def _embed_cached(self, text: str) -> np.ndarray:
        # get and setdefault are each atomic: threads racing on one text may
        # both embed it, but every caller gets the one vector stored first
        vec = self._text_cache.get(text)
        if vec is None:
            vec = self._text_cache.setdefault(text, self.text_embedder.embed(text))
        return vec

    def _fill(
        self, case: SurgicalCase, row: np.ndarray, embed: Callable[[str], np.ndarray | float]
    ) -> None:
        """Write the case's unscaled encoding into a zeroed row, each text
        block as embed(text)."""
        unknown = case.values.keys() - self._names
        if unknown:
            raise SchemaMismatch(
                f"case {case.id!r} has features outside the schema: {sorted(unknown)}"
            )
        for name, kind, offset, rule in self._plan:
            value = case.values.get(name)
            if kind == "numerical":
                mean, std = rule
                x = mean if value is None else _as_float(value, name)
                row[offset] = (x - mean) / std
            elif kind == "ordinal":
                missing, ranks = rule
                row[offset] = missing if value is None else _ordinal_rank(ranks, name, str(value))
            elif kind == "categorical":
                slots, unknown_slot = rule
                slot = unknown_slot if value is None else slots.get(str(value), unknown_slot)
                row[offset + slot] = 1.0
            elif kind == "boolean":
                row[offset] = rule if value is None else _parse_bool(str(value), name)
            else:
                text = MISSING_TOKEN if value is None else str(value)
                row[offset : offset + rule] = embed(text)

    def _scale(self, block: np.ndarray) -> None:
        """Scale each category's columns of a row or matrix by its alpha."""
        for category, (start, length) in self.segment_map.items():
            if length:
                block[..., start : start + length] *= self._alphas[category]

    def encode(self, case: SurgicalCase) -> np.ndarray:
        """Encode one case into a D-vector, its blocks at segment_map; pure
        given (case, fitted state)."""
        vector = np.zeros(self.dim, dtype=np.float64)
        self._fill(case, vector, self._embed_cached)
        self._scale(vector)
        return vector

    def encode_matrix(self, cs: CaseSet) -> np.ndarray:
        """Encode every case into one N x D matrix (rows follow input order).

        Rows are filled with their text blocks left zero, so a bad value
        raises before any text is embedded. The distinct texts, numbered in
        order of first appearance, are then embedded in one call and copied
        into each text column."""
        matrix = np.zeros((len(cs.cases), self.dim), dtype=np.float64)
        numbers: dict[str, int] = {}
        picks: list[int] = []

        def defer(text: str) -> float:
            picks.append(numbers.setdefault(text, len(numbers)))
            return 0.0

        for case, row in zip(cs.cases, matrix):
            self._fill(case, row, defer)
        if numbers:
            vectors = self.text_embedder.embed_many(list(numbers))
            offsets = [offset for _, kind, offset, _ in self._plan if kind == "text"]
            picks_by_column = np.array(picks, dtype=np.intp).reshape(-1, len(offsets)).T
            width = self.text_embedder.dim
            for offset, column in zip(offsets, picks_by_column):
                matrix[:, offset : offset + width] = vectors[column]
        self._scale(matrix)
        return matrix


def _ordinal_ranks(schema: FeatureSchema, name: str) -> dict[str, float]:
    """Each declared level's rank / (levels - 1); a lone level ranks 0."""
    order = schema.ordinal_orders[name]
    top = max(len(order) - 1, 1)
    return {level: rank / top for rank, level in enumerate(order)}


def _ordinal_rank(ranks: dict[str, float], name: str, token: str) -> float:
    try:
        return ranks[token]
    except KeyError:
        raise SchemaMismatch(
            f"feature {name!r}: level {token!r} not in declared order {list(ranks)}"
        ) from None


def fit(train: CaseSet, text_embedder: TextEmbedder) -> FittedEncoder:
    """Fit per-feature statistics from the training set.

    Statistics are order-independent: means, population standard deviations,
    and sorted vocabularies. Raises EmptyTrainingSet on an empty corpus and
    SchemaMismatch when an ordinal or boolean value violates its declaration.
    """
    if not train.cases:
        raise EmptyTrainingSet("encoder fit requires at least one training case")
    schema = train.schema
    numeric_stats: dict[str, tuple[float, float]] = {}
    ordinal_missing: dict[str, float] = {}
    cat_vocabs: dict[str, tuple[str, ...]] = {}
    bool_missing: dict[str, float] = {}

    for f in schema.features:
        observed = [c.values.get(f.name) for c in train.cases]
        present = [v for v in observed if v is not None]
        if f.kind == "numerical":
            floats = [_as_float(v, f.name) for v in present]
            if floats:
                mean = float(np.mean(floats))
                std = float(np.std(floats))
            else:
                mean, std = 0.0, 1.0
            numeric_stats[f.name] = (mean, 1.0 if std < 1e-12 else std)
        elif f.kind == "ordinal":
            ranks = _ordinal_ranks(schema, f.name)
            encoded = [_ordinal_rank(ranks, f.name, str(v)) for v in present]
            ordinal_missing[f.name] = float(np.mean(encoded)) if encoded else 0.5
        elif f.kind == "categorical":
            cat_vocabs[f.name] = tuple(sorted({str(v) for v in present}))
        elif f.kind == "boolean":
            encoded = [_parse_bool(str(v), f.name) for v in present]
            bool_missing[f.name] = float(np.mean(encoded)) if encoded else 0.5
    return FittedEncoder(
        schema=schema,
        text_embedder=text_embedder,
        numeric_stats=numeric_stats,
        ordinal_missing=ordinal_missing,
        cat_vocabs=cat_vocabs,
        bool_missing=bool_missing,
    )
