"""Schema parsing, CSV ingestion, and deterministic splitting."""

import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_case, small_schema, tiny_corpus
from durcast import schema as schema_mod
from durcast.errors import (
    DurcastError,
    IoError,
    ParseError,
    RowError,
    SchemaError,
    SpecError,
)
from durcast.schema import (
    FEATURE_KINDS,
    MAX_DURATION_MIN,
    CaseSet,
    Feature,
    FeatureSchema,
    SurgicalCase,
    ingest_csv,
    load_schema,
    load_schema_file,
    split,
    write_csv,
)

GOOD_YAML = """
features:
  - {name: age, kind: numerical}
  - {name: surgery_level, kind: ordinal}
  - {name: department, kind: categorical}
  - {name: emergency, kind: boolean}
  - {name: note, kind: text}
ordinal_orders:
  surgery_level: ["I", "II", "III", "IV"]
key_attributes: [department, surgery_level]
"""


class TestLoadSchema:
    def test_parses_all_fields(self):
        schema = load_schema(GOOD_YAML)
        assert schema.feature_names == (
            "age", "surgery_level", "department", "emergency", "note",
        )
        assert schema.kind_of("note") == "text"
        assert schema.ordinal_orders["surgery_level"] == ("I", "II", "III", "IV")
        assert schema.key_attributes == ("department", "surgery_level")
        assert schema.duration_column == "duration_min"
        assert schema.id_column == "case_id"

    def test_custom_columns(self):
        schema = load_schema(
            GOOD_YAML + "duration_column: minutes\nid_column: mrn\n"
        )
        assert schema.duration_column == "minutes"
        assert schema.id_column == "mrn"

    def test_yaml_roundtrip(self):
        schema = small_schema()
        assert load_schema(schema.to_yaml()) == schema

    @pytest.mark.parametrize(
        "text",
        [
            "features: [",  # broken YAML
            "- just\n- a list",  # not a mapping
            "ordinal_orders: {}",  # no features key
            "features: []",  # empty list
            "features:\n  - {name: age}",  # kind missing
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            load_schema(text)

    @pytest.mark.parametrize(
        ("key", "value"),
        [("ordinal_orders", "[x]"), ("ordinal_orders", "{asa: 3}"),
         ("ordinal_orders", "{asa: I}"), ("key_attributes", "5"),
         ("key_attributes", "asa")],
    )
    def test_wrong_shape_names_the_key(self, key, value):
        text = f"features:\n  - {{name: asa, kind: ordinal}}\n{key}: {value}\n"
        with pytest.raises(ParseError, match=key):
            load_schema(text)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            load_schema("features:\n  - {name: age, kind: float}")

    def test_ordinal_without_order(self):
        with pytest.raises(SchemaError, match="no level order"):
            load_schema("features:\n  - {name: asa, kind: ordinal}")

    def test_order_for_unknown_feature(self):
        with pytest.raises(SchemaError, match="unknown feature"):
            load_schema(
                "features:\n  - {name: age, kind: numerical}\n"
                "ordinal_orders:\n  asa: [I, II]"
            )

    def test_duplicate_feature_names(self):
        with pytest.raises(SchemaError, match="duplicate"):
            FeatureSchema(
                features=(Feature("age", "numerical"), Feature("age", "text"))
            )

    def test_repeated_ordinal_levels(self):
        with pytest.raises(SchemaError, match="repeats"):
            FeatureSchema(
                features=(Feature("asa", "ordinal"),),
                ordinal_orders={"asa": ("I", "I")},
            )

    def test_key_attribute_not_declared(self):
        with pytest.raises(SchemaError, match="key attributes"):
            FeatureSchema(
                features=(Feature("age", "numerical"),),
                key_attributes=("department",),
            )

    def test_kind_of_unknown(self):
        with pytest.raises(SchemaError):
            small_schema().kind_of("nope")

    def test_load_schema_file_missing(self, tmp_path):
        with pytest.raises(IoError):
            load_schema_file(tmp_path / "absent.yaml")


# Any character but a lone surrogate, plus the ones YAML treats specially.
_YAML_HOSTILE = st.text(
    st.one_of(st.characters(codec="utf-8"), st.sampled_from("\t\x85\u2028\ufeff\"'#:!|>-")),
    max_size=200,
)


@st.composite
def feature_schemas(draw):
    names = draw(st.lists(_YAML_HOSTILE, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from(FEATURE_KINDS)) for _ in names]
    return FeatureSchema(
        features=tuple(Feature(n, k) for n, k in zip(names, kinds)),
        ordinal_orders={
            n: tuple(draw(st.lists(_YAML_HOSTILE, max_size=4, unique=True)))
            for n, k in zip(names, kinds)
            if k == "ordinal"
        },
        key_attributes=tuple(draw(st.lists(st.sampled_from(names), max_size=3))),
        duration_column=draw(_YAML_HOSTILE),
        id_column=draw(_YAML_HOSTILE),
    )


class TestFromYaml:
    """from_yaml reads artifacts with libyaml, load_schema reads operator
    files with yaml.safe_load; both must read what to_yaml writes as the
    schema it was written from."""

    def test_uses_libyaml_when_pyyaml_has_it(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert schema_mod._ARTIFACT_LOADER is expected

    @settings(max_examples=300, deadline=None)
    @given(schema=feature_schemas())
    def test_round_trip(self, schema):
        text = schema.to_yaml()
        assert FeatureSchema.from_yaml(text) == load_schema(text) == schema

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, schema_mod._ARTIFACT_LOADER])
    @pytest.mark.parametrize(
        "text, error",
        [
            ("features: [", ParseError),
            ("- just\n- a list", ParseError),
            ("features:\n  - {name: asa, kind: ordinal}", SchemaError),
        ],
    )
    def test_errors_keep_their_types(self, monkeypatch, loader, text, error):
        monkeypatch.setattr(schema_mod, "_ARTIFACT_LOADER", loader)
        with pytest.raises(error):
            FeatureSchema.from_yaml(text)

    def test_lone_surrogate_text_is_a_parse_error(self):
        # libyaml raises UnicodeEncodeError here, the pure-Python reader a
        # YAMLError; both end as a ParseError
        for read in (load_schema, FeatureSchema.from_yaml):
            with pytest.raises(ParseError):
                read("a: \ud800")

    @pytest.mark.parametrize(
        "text, expected",
        [
            # a bare "!" is None to yaml.safe_load and '' to libyaml
            ("features:\n  - name: !\n    kind: numerical\n", "None"),
            # yaml.safe_load refuses these tabs, libyaml reads "x" and "a\tb"
            ("features:\n  - name: !\tx\n    kind: numerical\n", ParseError),
            ("features: [{name: x, kind: numerical}]\nid_column: a\tb\n", ParseError),
        ],
    )
    def test_load_schema_reads_hand_written_text_as_safe_load(self, text, expected):
        if yaml.__with_libyaml__:  # the two loaders do disagree on this text
            assert _doc_or_error(text, yaml.SafeLoader) != _doc_or_error(text, yaml.CSafeLoader)
        if expected is ParseError:
            with pytest.raises(ParseError):
                load_schema(text)
        else:
            assert load_schema(text).feature_names == (expected,)

    @pytest.mark.parametrize(
        "where",
        ["features:\n  - {name: \"\\ud800\", kind: numerical}\n",
         "features: [{name: a, kind: numerical}]\nid_column: \"\\udfff\"\n",
         "features: [{name: a, kind: ordinal}]\nordinal_orders: {a: [I, \"\\ud83d\"]}\n"],
    )
    def test_lone_surrogate_escape_is_refused(self, where):
        """yaml.safe_load turns the escape into a lone surrogate, which
        to_yaml would write back as an escape libyaml refuses."""
        with pytest.raises(SchemaError, match="not valid Unicode"):
            load_schema(where)


def _doc_or_error(text, loader):
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError:
        return "YAMLError"


class TestCases:
    def test_duration_must_be_positive(self):
        with pytest.raises(SchemaError):
            SurgicalCase(id="x", values={}, duration_min=0.0)
        with pytest.raises(SchemaError):
            SurgicalCase(id="x", values={}, duration_min=-5.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(SchemaError, match="finite"):
                SurgicalCase(id="x", values={}, duration_min=bad)
        assert SurgicalCase(id="x", values={}, duration_min=None).duration_min is None

    def test_duration_is_at_most_the_bound(self):
        """A recorded duration lies in (0, MAX_DURATION_MIN]: 1e6 minutes,
        whose square is still far from overflowing."""
        assert MAX_DURATION_MIN == 1e6
        assert SurgicalCase(id="x", values={}, duration_min=1e6).duration_min == 1e6
        for bad in (math.nextafter(1e6, math.inf), 2e6, 1e308):
            with pytest.raises(SchemaError, match="'x': duration must be positive and finite, "
                                                  "at most 1,000,000 minutes"):
                SurgicalCase(id="x", values={}, duration_min=bad)

    def test_durations_skip_missing(self):
        cs = CaseSet(
            cases=[mk_case("a", 60.0), mk_case("b", None)], schema=small_schema()
        )
        assert cs.durations() == [60.0]
        assert len(cs) == 2


def test_case_columns_key_each_value_by_its_kind():
    """A numerical column keys a value by equality, equal numbers sharing an
    entry but the two zeros apart and each unhashable value on its own; any
    other column keys by str(value), so 1 and "1" share an entry and True
    does not. Codes follow first appearance, MISSING (-1) where a value is
    None or absent, and stray lists the rows with a feature outside the
    schema. Columns are computed afresh on each call."""
    schema = FeatureSchema((Feature("x", "numerical"), Feature("c", "categorical")))
    rows = [{"x": 1, "c": 1}, {"x": 1.0, "c": "1"}, {"x": True, "c": True},
            {"x": -0.0, "c": None}, {"x": 0.0}, {"x": [2], "c": [2]},
            {"x": [2], "c": "z", "z": 1}]
    cases = CaseSet([SurgicalCase(f"r{i}", row) for i, row in enumerate(rows)], schema)
    columns = cases.columns()
    assert columns.codes["x"].tolist() == [0, 0, 0, 1, 2, 3, 4]
    assert [repr(v) for v in columns.values["x"]] == ["1", "-0.0", "0.0", "[2]", "[2]"]
    assert columns.codes["c"].tolist() == [0, 0, 1, -1, -1, 2, 3]
    assert columns.values["c"] == ["1", "True", "[2]", "z"]
    assert columns.stray == [6]
    assert cases.columns() is not columns


CSV_TEXT = """case_id,age,surgery_level,department,emergency,note,duration_min
p1,61.5,III,general_surgery,true,bowel prep done,184
p2,,II,thyroid_breast,false,,95
p3,48,I,urology,false,stone visible,
"""


class TestIngestCsv:
    def _schema(self):
        return load_schema(GOOD_YAML)

    def test_parses_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_TEXT, encoding="utf-8")
        cs = ingest_csv(path, self._schema())
        assert [c.id for c in cs.cases] == ["p1", "p2", "p3"]
        assert cs.cases[0].values["age"] == 61.5
        assert cs.cases[0].duration_min == 184.0
        assert cs.cases[1].values["age"] is None
        assert cs.cases[1].values["note"] is None
        assert cs.cases[2].duration_min is None
        # non-numeric kinds stay strings
        assert cs.cases[0].values["emergency"] == "true"

    @pytest.mark.parametrize("first", ["case_id", "age"])
    def test_byte_order_mark_is_skipped(self, tmp_path, first):
        """Excel's "CSV UTF-8" export starts the file with a BOM; the first
        header name must still be read as written, id column or feature."""
        lines = [line.split(",") for line in CSV_TEXT.splitlines()]
        at = lines[0].index(first)
        text = "".join(",".join([c[at], *c[:at], *c[at + 1 :]]) + "\n" for c in lines)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        cs = ingest_csv(marked, self._schema())
        assert [c.id for c in cs.cases] == ["p1", "p2", "p3"]
        assert cs.cases[0].values["age"] == 61.5
        assert cs.cases == ingest_csv(plain, self._schema()).cases

    def test_synthesizes_ids(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "age,surgery_level,department,emergency,note,duration_min\n"
            "40,I,urology,false,ok,60\n",
            encoding="utf-8",
        )
        cs = ingest_csv(path, self._schema())
        assert cs.cases[0].id == "row-000001"

    def test_bad_number_reports_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min\n"
            "p1,40,I,urology,false,ok,60\n"
            "p2,forty,I,urology,false,ok,60\n",
            encoding="utf-8",
        )
        with pytest.raises(RowError, match="row 2") as err:
            ingest_csv(path, self._schema())
        assert err.value.row == 2

    def test_equal_cells_share_one_value(self, tmp_path):
        """Each distinct cell text is held once per file: equal
        non-numerical cells are one str, equal numerical texts one float."""
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min\n"
            "p1,61.5,II,urology,false,stone visible,60\n"
            "p2,40,III,general_surgery,true,bowel prep done,70\n"
            "p3,61.5,II,urology,false,stone visible,80\n",
            encoding="utf-8",
        )
        first, _, third = ingest_csv(path, self._schema()).cases
        for name in ("age", "surgery_level", "department", "emergency", "note"):
            assert third.values[name] is first.values[name], name
        assert first.values["age"] == 61.5

    def test_signed_zeros_keep_their_signs(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min\n"
            + "".join(f"p{i},{age},II,urology,false,ok,60\n"
                      for i, age in enumerate(["0.0", "-0.0", "0.0", "-0.0"])),
            encoding="utf-8",
        )
        ages = [c.values["age"] for c in ingest_csv(path, self._schema()).cases]
        assert [math.copysign(1.0, age) for age in ages] == [1.0, -1.0, 1.0, -1.0]
        assert ages[2] is ages[0] and ages[3] is ages[1]

    def test_bad_number_seen_before_reports_its_own_row(self, tmp_path):
        """A bad numerical text that earlier rows held in other columns is
        still the first bad cell of its own row."""
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min\n"
            "p1,40,II,forty,false,ok,60\n"
            "p2,40,II,urology,false,forty,60\n"
            "p3,forty,II,urology,false,forty,60\n",
            encoding="utf-8",
        )
        with pytest.raises(RowError, match="feature 'age': not a number: 'forty'") as err:
            ingest_csv(path, self._schema())
        assert err.value.row == 3

    def test_bad_duration(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min\n"
            "p1,40,I,urology,false,ok,zero\n",
            encoding="utf-8",
        )
        with pytest.raises(RowError, match="duration"):
            ingest_csv(path, self._schema())

    def test_nonpositive_duration(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min\n"
            "p1,40,I,urology,false,ok,0\n",
            encoding="utf-8",
        )
        with pytest.raises(RowError, match="positive"):
            ingest_csv(path, self._schema())

    @pytest.mark.parametrize(
        ("age", "duration", "match"),
        [
            ("nan", "60", "age"),
            ("inf", "60", "age"),
            ("-Infinity", "60", "age"),
            ("40", "inf", "duration"),
            ("40", "nan", "duration"),
        ],
    )
    def test_non_finite_values(self, tmp_path, age, duration, match):
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min\n"
            "p1,40,I,urology,false,ok,60\n"
            f"p2,{age},I,urology,false,ok,{duration}\n",
            encoding="utf-8",
        )
        with pytest.raises(RowError, match=f"row 2.*{match}.*finite"):
            ingest_csv(path, self._schema())

    def test_missing_feature_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("case_id,age,duration_min\np1,40,60\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="missing schema features"):
            ingest_csv(path, self._schema())

    def test_missing_duration_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note\n"
            "p1,40,I,urology,false,ok\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match="duration column"):
            ingest_csv(path, self._schema())

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            ingest_csv(tmp_path / "absent.csv", self._schema())

    HEADER = "case_id,age,surgery_level,department,emergency,note,duration_min\n"

    @pytest.mark.parametrize(
        "row, cells",
        [
            # truncated before the duration cell: no longer a case without a duration
            ("p2,40,I,urology,false,ok", 6),
            ("p2,40,I", 3),
            ("p2", 1),
            ("p2,40,I,urology,false,ok,60,extra", 8),
            ("p2,40,I,urology,false,ok,60,,", 9),
        ],
    )
    def test_ragged_row_reports_row(self, tmp_path, row, cells):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + "p1,40,I,urology,false,ok,60\n" + row + "\n",
                        encoding="utf-8")
        with pytest.raises(RowError, match=f"row 2: has {cells} cells, the header has 7") as err:
            ingest_csv(path, self._schema())
        assert err.value.row == 2

    def test_blank_lines_are_skipped_not_counted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + "\np1,40,I,urology,false,ok,60\n\np2,40,I\n",
                        encoding="utf-8")
        with pytest.raises(RowError, match="row 2"):
            ingest_csv(path, self._schema())

    def test_cell_over_csv_field_limit_reports_row(self, tmp_path):
        path = tmp_path / "data.csv"
        note = "x" * 131_073
        path.write_text(self.HEADER + "p1,40,I,urology,false,ok,60\n\n"
                        f"p2,40,I,urology,false,{note},60\n", encoding="utf-8")
        with pytest.raises(RowError, match="row 2: field larger than field limit") as err:
            ingest_csv(path, self._schema())
        assert err.value.row == 2

    def test_repeated_header_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "case_id,age,surgery_level,department,emergency,note,duration_min,age\n"
            "p1,40,I,urology,false,ok,60,41\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=r"repeats columns: \['age'\]"):
            ingest_csv(path, self._schema())

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((self.HEADER + "p1,40,I,urology,false,caf\xe9,60\n").encode("latin-1"))
        with pytest.raises(IoError, match="latin1.csv.*utf-8"):
            ingest_csv(path, self._schema())

    def test_schema_file_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_bytes(GOOD_YAML.replace("age", "\xe2ge").encode("latin-1"))
        with pytest.raises(IoError, match="schema.yaml.*utf-8"):
            load_schema_file(path)

    def test_write_read_roundtrip(self, tmp_path):
        original = tiny_corpus()
        original.cases.append(mk_case("q-none", None, age=47.25))
        path = tmp_path / "out.csv"
        write_csv(original, path)
        back = ingest_csv(path, original.schema)
        assert len(back) == len(original)
        for a, b in zip(original.cases, back.cases):
            assert a.id == b.id
            assert a.duration_min == b.duration_min
            for name in original.schema.feature_names:
                va, vb = a.values[name], b.values[name]
                if original.schema.kind_of(name) == "numerical":
                    assert va == vb
                else:
                    assert (va is None and vb is None) or str(va) == str(vb)


_CSV_NUMBERS = st.sampled_from(
    ["95", "3.5", " 7 ", "0", "-5", "", "nan", "-inf", "inf", "1e400", "-1e400",
     "\u0661\u0662", "\u0663.\u0665", "\uff17", "\x00", "1\r"]
)
_CSV_CELLS = st.one_of(
    _CSV_NUMBERS,
    st.sampled_from(["\r", "\r\n", '"', '""', ",", "II", "true"]),
    st.text(max_size=8),
)


@st.composite
def csv_bytes(draw):
    """A header of the schema's columns in any order, some perhaps left
    out, plus junk columns; rows of cells holding NUL, CR, quotes,
    non-finite numbers and Unicode digits, sometimes ragged or quoted; and
    maybe trailing bytes."""
    names = [*small_schema().feature_names, "case_id", "duration_min"]
    kept = draw(st.permutations(names))[: len(names) - draw(st.sampled_from([0, 0, 0, 1]))]
    junk = draw(st.lists(st.one_of(st.sampled_from(names), st.text(max_size=6)), max_size=2))
    header = draw(st.permutations([*kept, *junk]))
    quote = draw(st.booleans())
    lines = [header]
    for _ in range(draw(st.integers(0, 5))):
        cells = [draw(_CSV_NUMBERS if n in ("age", "duration_min") else _CSV_CELLS)
                 for n in header]
        lines.append(cells[: len(cells) - draw(st.sampled_from([0, 0, 0, 0, 1]))])
    text = "\n".join(",".join(f'"{c}"' if quote else c for c in cells) for cells in lines)
    return text.encode("utf-8") + draw(st.one_of(st.just(b""), st.binary(max_size=4)))


@settings(max_examples=400, deadline=None)
@given(blob=st.one_of(csv_bytes(), st.binary(max_size=64)))
def test_ingest_csv_of_any_bytes_is_a_case_set_or_durcast_error(blob):
    """Ingestion of CSV-like or random bytes returns cases with finite numbers and positive finite
    durations, or raises a DurcastError."""
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "data.csv"
        path.write_bytes(blob)
        try:
            cs = ingest_csv(path, small_schema())
        except DurcastError:
            return
    for case in cs.cases:
        assert case.duration_min is None or 0 < case.duration_min <= MAX_DURATION_MIN
        assert case.values["age"] is None or math.isfinite(case.values["age"])


class TestSplit:
    def test_deterministic_partition(self):
        cs = tiny_corpus()
        first = split(cs, (0.5, 0.25, 0.25), seed=11)
        second = split(cs, (0.5, 0.25, 0.25), seed=11)
        for a, b in zip(first, second):
            assert [c.id for c in a.cases] == [c.id for c in b.cases]

    def test_sizes_and_coverage(self):
        cs = tiny_corpus()
        train, val, test = split(cs, (0.5, 0.25, 0.25), seed=3)
        assert len(train) == 8 and len(val) == 4 and len(test) == 4
        ids = [c.id for c in train.cases + val.cases + test.cases]
        assert sorted(ids) == sorted(c.id for c in cs.cases)

    def test_different_seeds_differ(self):
        cs = tiny_corpus()
        a = split(cs, (0.5, 0.25, 0.25), seed=1)[0]
        b = split(cs, (0.5, 0.25, 0.25), seed=2)[0]
        assert [c.id for c in a.cases] != [c.id for c in b.cases]

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.6, 0.3, 0.3), (0.8, 0.2, 0.0)])
    def test_bad_ratios(self, ratios):
        with pytest.raises(SpecError):
            split(tiny_corpus(), ratios, seed=0)
