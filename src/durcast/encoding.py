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

Fitted and loaded encoders share one per-feature plan (offset, the rule
that converts a present value, the value a missing one takes, the block's
scale). encode_matrix is the only encoder, and encode(case) is a one-row
encode_matrix. It converts one feature column at a time across the cases
and writes it, already scaled, into a zeroed N x D matrix with one array
operation; no closing pass rescales a block. A row with a bad value
is reported with its error in the same pass: its line stays zero and its
texts are not embedded. The distinct texts of the other rows' text columns
are embedded in one embed_many call, and no text vector is cached.
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
    feature_spans: list[tuple[str, int, int]] = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        spans: list[tuple[str, int, int]] = []
        plan = {}
        offset = 0
        for category in CATEGORY_ORDER:
            block = [(f, *self._rule(f.name, f.kind)) for f in self.schema.features
                     if _KIND_TO_CATEGORY[f.kind] == category]
            # each value is written times 1/sqrt(its block's width); an empty block has none
            alpha = 1.0 / math.sqrt(max(sum(width for *_, width in block), 1))
            for f, convert, missing, width in block:
                spans.append((f.name, offset, width))
                plan[f.name] = (f.name, f.kind, offset, convert, missing, alpha)
                offset += width
        self.feature_spans = spans
        self.dim = offset
        # encode_matrix walks the plan in schema order, the order that ranks
        # a row's errors
        self._plan = [plan[name] for name in self.schema.feature_names]
        self._names = frozenset(plan)

    def _rule(self, name: str, kind: str) -> tuple[Callable, object, int]:
        """How the feature converts a present value, what a missing value
        becomes, and the feature's width. A categorical value converts to
        its slot and a text to the string to embed."""
        if kind == "numerical":
            mean, std = self.numeric_stats[name]
            if not (math.isfinite(mean) and 0.0 < std < math.inf):
                raise ValueError(
                    f"feature {name!r}: std must be positive and finite and mean finite, "
                    f"got mean {mean!r}, std {std!r}"
                )
            # a missing value imputes the mean, so takes the mean's z-score
            return (lambda v: (_as_float(v, name) - mean) / std), (mean - mean) / std, 1
        if kind == "ordinal":
            ranks = _ordinal_ranks(self.schema, name)
            return (lambda v: _ordinal_rank(ranks, name, str(v))), self.ordinal_missing[name], 1
        if kind == "categorical":
            slots = {value: slot for slot, value in enumerate(self.cat_vocabs[name])}
            unknown = len(slots)
            return (lambda v: slots.get(str(v), unknown)), unknown, unknown + 1
        if kind == "boolean":
            return (lambda v: _parse_bool(str(v), name)), self.bool_missing[name], 1
        return str, MISSING_TOKEN, self.text_embedder.dim

    def encode(self, case: SurgicalCase) -> np.ndarray:
        """Encode one case into a D-vector, its features at feature_spans:
        a one-row encode_matrix, raising the row's error."""
        matrix, errors = self.encode_matrix(CaseSet(cases=[case], schema=self.schema))
        if errors:
            raise errors[0]
        return matrix[0]

    def encode_matrix(self, cs: CaseSet) -> tuple[np.ndarray, dict[int, SchemaMismatch]]:
        """Encode every case into one N x D matrix (rows follow input order),
        with the error of each row that cannot be encoded; pure given
        (cases, fitted state).

        Each feature's column is gathered, converted value by value and
        written, times its block's alpha, with one array operation. A row's
        error is the one encode raises for that case alone: a feature outside
        the schema first, then the first bad value in schema order. A bad
        row's line is zero and its texts are not embedded. The distinct texts
        of the other rows' text columns, numbered column by column in order
        of first appearance, are embedded in one call and copied, scaled,
        into their columns."""
        cases = cs.cases
        matrix = np.zeros((len(cases), self.dim), dtype=np.float64)
        names = self._names
        errors = {row: _outside_schema(case, names)
                  for row, case in enumerate(cases) if not names.issuperset(case.values)}
        text_columns = []
        for name, kind, offset, convert, missing, alpha in self._plan:
            raw = [case.values.get(name) for case in cases]
            try:
                column = [missing if value is None else convert(value) for value in raw]
            except SchemaMismatch:
                column = _convert_each(raw, convert, missing, errors)
            if kind == "text":
                text_columns.append((offset, alpha, column))
            elif kind == "categorical":
                matrix[np.arange(len(cases)), offset + np.array(column, dtype=np.intp)] = alpha
            else:
                matrix[:, offset] = np.multiply(column, alpha)
        good = slice(None)
        if errors:
            good = [row for row in range(len(cases)) if row not in errors]
            matrix[list(errors)] = 0.0
            text_columns = [(offset, alpha, [col[row] for row in good])
                            for offset, alpha, col in text_columns]
        texts: dict[str, int] = {}
        picks = [(offset, alpha, [texts.setdefault(t, len(texts)) for t in column])
                 for offset, alpha, column in text_columns]
        if texts:
            vectors = self.text_embedder.embed_many(list(texts))
            for offset, alpha, rows in picks:
                matrix[good, offset : offset + self.text_embedder.dim] = vectors[rows] * alpha
        return matrix, errors


def _outside_schema(case: SurgicalCase, names: frozenset[str]) -> SchemaMismatch:
    return SchemaMismatch(f"case {case.id!r} has features outside the schema: "
                          f"{sorted(case.values.keys() - names)}")


def _convert_each(raw: list, convert: Callable, missing, errors: dict) -> list:
    """raw converted value by value; a value that convert rejects becomes
    missing, and its error is its row's unless the row already has one."""
    column = []
    for row, value in enumerate(raw):
        try:
            column.append(missing if value is None else convert(value))
        except SchemaMismatch as exc:
            errors.setdefault(row, exc)
            column.append(missing)
    return column


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
    SchemaMismatch when an ordinal or boolean value violates its declaration,
    a numerical feature's float64 mean or std is not finite, or, checked last,
    a case has a feature outside the schema (encode_matrix's error for it).
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
            floats = np.array([_as_float(v, f.name) for v in present], dtype=np.float64)
            if floats.size:
                with np.errstate(over="ignore", invalid="ignore"):
                    mean = float(floats.mean())
                    std = float(floats.std())
                if not (math.isfinite(mean) and math.isfinite(std)):
                    raise SchemaMismatch(
                        f"feature {f.name!r}: training values too large for a finite "
                        f"mean and std (mean {mean!r}, std {std!r})"
                    )
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
    names = frozenset(schema.feature_names)
    stray = next((c for c in train.cases if not names.issuperset(c.values)), None)
    if stray is not None:
        raise _outside_schema(stray, names)
    return FittedEncoder(
        schema=schema,
        text_embedder=text_embedder,
        numeric_stats=numeric_stats,
        ordinal_missing=ordinal_missing,
        cat_vocabs=cat_vocabs,
        bool_missing=bool_missing,
    )
