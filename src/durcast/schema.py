"""Dataset contract: feature schema, case records, CSV ingestion, splitting.

A schema declares an ordered list of features, each with one of five kinds
(numerical, ordinal, categorical, boolean, text), the level order of every
ordinal feature, and the ordered key attributes used for stratum matching
(conventionally department, planned surgery name, surgery level).

Schema files are YAML::

    features:
      - {name: age, kind: numerical}
      - {name: surgery_level, kind: ordinal}
      - {name: department, kind: categorical}
    ordinal_orders:
      surgery_level: ["I", "II", "III", "IV"]
    key_attributes: [department]
    duration_column: duration_min   # optional
    id_column: case_id              # optional

Dataset files are UTF-8 CSV, a leading byte-order mark skipped, with a
header row naming every schema feature plus the duration column; an id
column is optional and synthesized when absent. Empty cells are kept as
explicit missing values (None), never dropped.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import IoError, ParseError, RowError, SchemaError, SpecError

FEATURE_KINDS = ("numerical", "ordinal", "categorical", "boolean", "text")

Value = str | float | None

# The longest recorded duration, in minutes (about two years). Its square is
# 1e12, so a variance, an RMSE or a squared prior median stays finite for any
# corpus.
MAX_DURATION_MIN = 1e6

# libyaml's safe loader, when PyYAML was built with it: it parses a schema
# document about eight times faster than the pure-Python SafeLoader. The two
# read some hand-written text differently (libyaml reads a bare "!" as '',
# SafeLoader as None, and only libyaml takes a tab after it), but not what
# to_yaml writes, so only from_yaml uses it and operator files keep
# yaml.safe_load.
_ARTIFACT_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str


@dataclass(frozen=True)
class FeatureSchema:
    """Declares feature names, kinds, ordinal orders, and key attributes."""

    features: tuple[Feature, ...]
    ordinal_orders: dict[str, tuple[str, ...]] = field(default_factory=dict)
    key_attributes: tuple[str, ...] = ()
    duration_column: str = "duration_min"
    id_column: str = "case_id"

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate feature names: {dupes}")
        for f in self.features:
            if f.kind not in FEATURE_KINDS:
                raise SchemaError(f"feature {f.name!r}: unknown kind {f.kind!r}")
            if f.kind == "ordinal" and f.name not in self.ordinal_orders:
                raise SchemaError(f"ordinal feature {f.name!r} has no level order")
        for name, order in self.ordinal_orders.items():
            if name not in names:
                raise SchemaError(f"ordinal order for unknown feature {name!r}")
            if len(order) != len(set(order)):
                raise SchemaError(f"ordinal order for {name!r} repeats levels")
        missing = [k for k in self.key_attributes if k not in names]
        if missing:
            raise SchemaError(f"key attributes not in schema: {missing}")
        levels = [level for order in self.ordinal_orders.values() for level in order]
        try:
            "".join([*names, *levels, self.duration_column, self.id_column]).encode("utf-8")
        except UnicodeEncodeError as exc:
            # to_yaml escapes a lone surrogate, and libyaml refuses the escape
            raise SchemaError(f"schema text is not valid Unicode: {exc}") from exc

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def kind_of(self, name: str) -> str:
        for f in self.features:
            if f.name == name:
                return f.kind
        raise SchemaError(f"unknown feature {name!r}")

    def to_doc(self) -> dict:
        """The schema as a plain mapping: the YAML document structure."""
        return {
            "features": [{"name": f.name, "kind": f.kind} for f in self.features],
            "ordinal_orders": {k: list(v) for k, v in self.ordinal_orders.items()},
            "key_attributes": list(self.key_attributes),
            "duration_column": self.duration_column,
            "id_column": self.id_column,
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_doc(), sort_keys=False)

    @classmethod
    def from_yaml(cls, text: str) -> FeatureSchema:
        """Read back a document that to_yaml wrote, with libyaml when PyYAML
        has it. Files an operator wrote go through load_schema instead."""
        return _parse_schema(text, _ARTIFACT_LOADER)


@dataclass(frozen=True, slots=True)
class SurgicalCase:
    """One record: feature values plus the observed duration in minutes.

    Query cases may omit the duration; a recorded one is positive and at
    most MAX_DURATION_MIN. Missing feature values are stored as None under
    their key.
    """

    id: str
    values: dict[str, Value]
    duration_min: float | None = None

    def __post_init__(self):
        if self.duration_min is not None and not 0 < self.duration_min <= MAX_DURATION_MIN:
            raise SchemaError(f"case {self.id!r}: duration must be positive and finite, "
                              f"at most {MAX_DURATION_MIN:,.0f} minutes")


@dataclass
class CaseSet:
    cases: list[SurgicalCase]
    schema: FeatureSchema

    def __len__(self) -> int:
        return len(self.cases)

    def durations(self) -> list[float]:
        return [c.duration_min for c in self.cases if c.duration_min is not None]


def load_schema(config_text: str) -> FeatureSchema:
    """Parse a YAML schema document into a validated FeatureSchema.

    Raises ParseError for malformed YAML or a key of the wrong shape and
    SchemaError for semantic violations (duplicate names, ordinal feature
    without an order, unknown kinds).
    """
    return _parse_schema(config_text, yaml.SafeLoader)


def _parse_schema(text: str, loader: type) -> FeatureSchema:
    try:
        doc = yaml.load(text, Loader=loader)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml: a lone surrogate
        raise ParseError(f"schema is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "features" not in doc:
        raise ParseError("schema must be a mapping with a 'features' list")
    raw_features = doc["features"]
    if not isinstance(raw_features, list) or not raw_features:
        raise ParseError("'features' must be a non-empty list")

    features = []
    for i, item in enumerate(raw_features):
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            raise ParseError(f"feature #{i} must declare 'name' and 'kind'")
        features.append(Feature(name=str(item["name"]), kind=str(item["kind"])))

    orders = doc.get("ordinal_orders") or {}
    if not (isinstance(orders, dict) and all(isinstance(v, list) for v in orders.values())):
        raise ParseError("'ordinal_orders' must map each ordinal feature to a list of levels")
    keys = doc.get("key_attributes") or []
    if not isinstance(keys, list):
        raise ParseError(f"'key_attributes' must be a list, got {keys!r}")
    return FeatureSchema(
        features=tuple(features),
        ordinal_orders={str(k): tuple(str(level) for level in v) for k, v in orders.items()},
        key_attributes=tuple(str(k) for k in keys),
        duration_column=str(doc.get("duration_column", "duration_min")),
        id_column=str(doc.get("id_column", "case_id")),
    )


def load_schema_file(path: str | Path) -> FeatureSchema:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read schema file {path}: {exc}") from exc
    return load_schema(text)


def ingest_csv(path: str | Path, schema: FeatureSchema) -> CaseSet:
    """Read a dataset CSV into a CaseSet.

    Each data row becomes one SurgicalCase. Numerical cells are parsed to
    float; all other kinds stay raw strings. Blank cells become None. A row
    with more or fewer cells than the header, a numeric cell or duration
    that is unparseable or not finite, or a duration outside (0,
    MAX_DURATION_MIN], raises RowError with the 1-based data row index, as
    does a row the csv module cannot read (a cell over its field limit). A
    repeated header column, or a header the csv module cannot read, is a
    SchemaError; a file that is not UTF-8 is an IoError. A byte-order mark
    before the header is skipped. Header positions are resolved once per
    file, and each row's cells are read by position.

    Each distinct value is held once per file: rows whose non-numerical
    cells hold equal text share one str, and rows whose numerical cells
    hold equal text share one float, parsed and checked once.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
            except csv.Error as exc:
                raise SchemaError(f"CSV header unreadable: {exc}") from exc
            repeated = sorted({n for n in header if header.count(n) > 1})
            if repeated:
                raise SchemaError(f"CSV header repeats columns: {repeated}")
            missing = [n for n in schema.feature_names if n not in header]
            if missing:
                raise SchemaError(f"CSV header missing schema features: {missing}")
            if schema.duration_column not in header:
                raise SchemaError(
                    f"CSV header missing duration column {schema.duration_column!r}"
                )
            fields = [
                (f.name, header.index(f.name), f.kind == "numerical") for f in schema.features
            ]
            at_duration = header.index(schema.duration_column)
            at_id = header.index(schema.id_column) if schema.id_column in header else None
            # one object per distinct value: a non-numerical cell text maps to
            # itself, a numerical one to its float, parsed and checked once
            texts: dict[str, str] = {}
            numbers: dict[str, float] = {}
            cases, i = [], 0
            try:
                for i, cells in enumerate((row for row in reader if row), start=1):
                    if len(cells) != len(header):
                        raise RowError(i, f"has {len(cells)} cells, the header has {len(header)}")
                    # only numerical cells can fail, and they are read in
                    # schema order, so the first bad one is the row's error
                    values: dict[str, Value] = {}
                    for name, at, numerical in fields:
                        raw = cells[at]
                        if not raw:
                            values[name] = None
                        elif not numerical:
                            values[name] = texts.setdefault(raw, raw)
                        elif (number := numbers.get(raw)) is not None:
                            values[name] = number
                        else:
                            values[name] = numbers[raw] = _finite(i, name, raw)
                    raw_dur = cells[at_duration].strip()
                    duration: float | None
                    if raw_dur == "":
                        duration = None
                    else:
                        try:
                            duration = float(raw_dur)
                        except ValueError as exc:
                            raise RowError(i, f"duration not a number: {raw_dur!r}") from exc
                    case_id = (cells[at_id] if at_id is not None else "") or f"row-{i:06d}"
                    try:
                        cases.append(SurgicalCase(id=case_id, values=values, duration_min=duration))
                    except SchemaError as exc:
                        raise RowError(i, str(exc)) from exc
            except csv.Error as exc:  # e.g. a cell over the csv module's field limit
                raise RowError(i + 1, str(exc)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return CaseSet(cases=cases, schema=schema)


def _finite(row: int, name: str, raw: str) -> float:
    """The finite float a numerical cell's text reads as, else row's RowError."""
    try:
        number = float(raw)
    except ValueError as exc:
        raise RowError(row, f"feature {name!r}: not a number: {raw!r}") from exc
    if not math.isfinite(number):
        raise RowError(row, f"feature {name!r}: not a finite number: {raw!r}")
    return number


def write_csv(cs: CaseSet, path: str | Path) -> None:
    """Write a CaseSet to CSV so that ingest_csv() round-trips it exactly."""
    schema = cs.schema
    header = [schema.id_column, *schema.feature_names, schema.duration_column]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for case in cs.cases:
                row = [case.id]
                for name in schema.feature_names:
                    v = case.values.get(name)
                    row.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
                row.append("" if case.duration_min is None else repr(case.duration_min))
                writer.writerow(row)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def split(
    cs: CaseSet, ratios: tuple[float, float, float], seed: int
) -> tuple[CaseSet, CaseSet, CaseSet]:
    """Partition a CaseSet into train/val/test by shuffled assignment.

    Ratios must be positive, finite and sum to 1 within 1e-9. The shuffle is a
    pure function of the seed, so identical inputs give identical splits.
    """
    if len(ratios) != 3 or not all(0 < r < math.inf for r in ratios):
        raise SpecError(f"ratios must be three positive finite numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SpecError(f"ratios must sum to 1, got sum {sum(ratios)!r}")
    order = list(range(len(cs.cases)))
    random.Random(seed).shuffle(order)
    n = len(order)
    n_train = int(ratios[0] * n)
    n_val = int(ratios[1] * n)
    parts = (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    return tuple(
        CaseSet(cases=[cs.cases[i] for i in sorted(idx)], schema=cs.schema) for idx in parts
    )
