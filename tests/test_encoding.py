"""Heterogeneous encoding: block layout, per-kind rules, missing-value
imputation, and the per-category scale factors; the in-place encoder and
the hashing embedder, one text or a batch at a time, against per-feature
and per-gram oracles, and golden pins of their output bits."""

import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hashed_embeddings, mk_case, small_schema, tiny_corpus
from durcast import encoding, index
from durcast.errors import EmptyTrainingSet, SchemaMismatch
from durcast.pipeline import FitConfig, Pipeline, save_artifacts
from durcast.schema import CaseSet, Feature, FeatureSchema, SurgicalCase, ingest_csv, write_csv
from durcast.synthetic import SyntheticSpec, generate_synthetic
from durcast.text_embedding import HashingTextEmbedder, RemoteTextEmbedder

EMBEDDER = HashingTextEmbedder(dim=16)


def one_kind_schema(kind: str, names, orders=None) -> FeatureSchema:
    return FeatureSchema(
        features=tuple(Feature(n, kind) for n in names),
        ordinal_orders=orders or {},
    )


def fit_on(schema, rows):
    cases = [
        SurgicalCase(id=f"c{i}", values=dict(row), duration_min=60.0)
        for i, row in enumerate(rows)
    ]
    return encoding.fit(CaseSet(cases=cases, schema=schema), EMBEDDER)


BLOCK_OF_KIND = {"numerical": "num", "ordinal": "ord", "categorical": "cat",
                 "boolean": "bool", "text": "text"}


def block_alphas(enc) -> dict[str, float]:
    """Each block's scale 1/sqrt(width), the width counted from the schema,
    the fitted vocabularies and the embedder's dim, not read from the
    encoder's layout; an empty block's scale is 0."""
    widths = dict.fromkeys(BLOCK_OF_KIND.values(), 0)
    for f in enc.schema.features:
        width = {"categorical": len(enc.cat_vocabs.get(f.name, ())) + 1,
                 "text": enc.text_embedder.dim}.get(f.kind, 1)
        widths[BLOCK_OF_KIND[f.kind]] += width
    return {block: 1.0 / math.sqrt(width) if width else 0.0 for block, width in widths.items()}


def block_spans(enc) -> dict[str, tuple[int, int]]:
    """(start, width) of each block as the encoder lays out its features;
    an empty block sits at enc.dim with width 0."""
    kinds = {f.name: BLOCK_OF_KIND[f.kind] for f in enc.schema.features}
    spans = dict.fromkeys(BLOCK_OF_KIND.values(), (enc.dim, 0))
    for name, offset, width in enc.feature_spans:
        start, length = spans[kinds[name]]
        if length:
            assert start + length == offset, "a block's features are contiguous"
        spans[kinds[name]] = (start if length else offset, length + width)
    return spans


class TestBlockLayout:
    def test_category_order_and_alphas(self):
        enc = encoding.fit(tiny_corpus(), EMBEDDER)
        # blocks appear as num, ord, cat, bool, text regardless of schema order
        blocks = block_spans(enc)
        num = blocks["num"]
        order = blocks["ord"]
        cat = blocks["cat"]
        boolean = blocks["bool"]
        text = blocks["text"]
        assert num == (0, 1)
        assert order == (1, 2)
        # department has 2 training values, surgery_name has 3; each +1 UNKNOWN
        assert cat == (3, 3 + 4)
        assert boolean == (10, 1)
        assert text == (11, EMBEDDER.dim)
        assert enc.dim == 11 + EMBEDDER.dim
        alpha = block_alphas(enc)
        assert alpha["num"] == 1.0
        assert alpha["ord"] == pytest.approx(1 / math.sqrt(2))
        assert alpha["cat"] == pytest.approx(1 / math.sqrt(7))
        assert alpha["text"] == pytest.approx(1 / math.sqrt(EMBEDDER.dim))
        # each block's values are written at its scale
        case = tiny_corpus().cases[0]
        vec = enc.encode(case)
        mean, std = enc.numeric_stats["age"]
        assert vec[0] == (case.values["age"] - mean) / std * alpha["num"]
        ranks = [enc.schema.ordinal_orders[name].index(case.values[name])
                 / (len(enc.schema.ordinal_orders[name]) - 1)
                 for name in ("asa_grade", "surgery_level")]
        assert_same(vec[1:3], np.array(ranks) * alpha["ord"])
        assert sorted(vec[3:10]) == [0.0] * 5 + [alpha["cat"]] * 2
        assert vec[10] == 0.0
        assert_same(vec[11:], EMBEDDER.embed(case.values["note"]) * alpha["text"])

    def test_empty_category_has_zero_alpha(self):
        schema = one_kind_schema("numerical", ("a", "b"))
        enc = fit_on(schema, [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}])
        assert block_spans(enc)["text"] == (2, 0)
        assert block_alphas(enc)["text"] == 0.0

    def test_feature_spans_cover_vector(self):
        enc = encoding.fit(tiny_corpus(), EMBEDDER)
        covered = sorted((off, off + width) for _, off, width in enc.feature_spans)
        assert covered[0][0] == 0
        assert covered[-1][1] == enc.dim
        for (_, end), (start, _) in zip(covered, covered[1:]):
            assert end == start


class TestNumerical:
    def test_z_score_against_training_stats(self):
        schema = one_kind_schema("numerical", ("x",))
        enc = fit_on(schema, [{"x": 1.0}, {"x": 3.0}])
        # mean 2, population std 1, single numeric dim so alpha is 1
        vec = enc.encode(SurgicalCase(id="q", values={"x": 5.0}))
        assert vec[0] == pytest.approx(3.0)

    def test_alpha_scales_with_block_width(self):
        schema = one_kind_schema("numerical", ("a", "b", "c", "d"))
        rows = [
            {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0},
            {"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
        ]
        enc = fit_on(schema, rows)
        vec = enc.encode(SurgicalCase(id="q", values={"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0}))
        # z-score is 1 for every dim, then scaled by 1/sqrt(4)
        assert vec == pytest.approx(np.full(4, 0.5))

    def test_missing_imputes_training_mean(self):
        schema = one_kind_schema("numerical", ("x",))
        enc = fit_on(schema, [{"x": 1.0}, {"x": 3.0}])
        vec = enc.encode(SurgicalCase(id="q", values={"x": None}))
        assert vec[0] == 0.0

    def test_constant_feature_uses_unit_std(self):
        schema = one_kind_schema("numerical", ("x",))
        enc = fit_on(schema, [{"x": 7.0}, {"x": 7.0}])
        assert enc.numeric_stats["x"] == (7.0, 1.0)
        vec = enc.encode(SurgicalCase(id="q", values={"x": 9.0}))
        assert vec[0] == pytest.approx(2.0)

    def test_all_missing_feature_defaults(self):
        schema = one_kind_schema("numerical", ("x",))
        enc = fit_on(schema, [{"x": None}, {"x": None}])
        assert enc.numeric_stats["x"] == (0.0, 1.0)

    @pytest.mark.parametrize(
        "values", [[1e200, 1.0], [1e308, 1e308], [-1e308, 1e308]], ids=["std", "mean", "both"]
    )
    def test_overflowing_statistics_are_refused(self, values):
        """A finite value whose float64 mean or std overflows would store
        inf and silently zero the feature; the fit names it instead, with no
        RuntimeWarning."""
        schema = one_kind_schema("numerical", ("x", "y"))
        rows = [{"x": 1.0, "y": v} for v in values]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaMismatch, match="feature 'y'.*finite mean and std"):
                fit_on(schema, rows)

    def test_non_numeric_value_rejected(self):
        schema = one_kind_schema("numerical", ("x",))
        enc = fit_on(schema, [{"x": 1.0}, {"x": 3.0}])
        with pytest.raises(SchemaMismatch, match="not numeric"):
            enc.encode(SurgicalCase(id="q", values={"x": "tall"}))


class TestOrdinal:
    SCHEMA = one_kind_schema("ordinal", ("asa",), {"asa": ("I", "II", "III")})

    def test_rank_scaling(self):
        enc = fit_on(self.SCHEMA, [{"asa": "I"}, {"asa": "III"}])
        for token, expected in (("I", 0.0), ("II", 0.5), ("III", 1.0)):
            vec = enc.encode(SurgicalCase(id="q", values={"asa": token}))
            assert vec[0] == pytest.approx(expected)

    def test_missing_imputes_mean_rank(self):
        enc = fit_on(self.SCHEMA, [{"asa": "I"}, {"asa": "III"}])
        vec = enc.encode(SurgicalCase(id="q", values={"asa": None}))
        assert vec[0] == pytest.approx(0.5)

    def test_single_level_scale(self):
        schema = one_kind_schema("ordinal", ("x",), {"x": ("only",)})
        enc = fit_on(schema, [{"x": "only"}, {"x": "only"}])
        vec = enc.encode(SurgicalCase(id="q", values={"x": "only"}))
        assert vec[0] == 0.0

    def test_unknown_level_rejected(self):
        enc = fit_on(self.SCHEMA, [{"asa": "I"}, {"asa": "II"}])
        with pytest.raises(SchemaMismatch, match="not in declared order"):
            enc.encode(SurgicalCase(id="q", values={"asa": "V"}))


class TestCategorical:
    SCHEMA = one_kind_schema("categorical", ("dept",))

    def test_one_hot_over_sorted_vocab(self):
        enc = fit_on(self.SCHEMA, [{"dept": "uro"}, {"dept": "gyn"}])
        assert enc.cat_vocabs["dept"] == ("gyn", "uro")
        alpha = 1 / math.sqrt(3)
        vec = enc.encode(SurgicalCase(id="q", values={"dept": "uro"}))
        assert vec == pytest.approx([0.0, alpha, 0.0])

    def test_unseen_and_missing_fire_unknown_slot(self):
        enc = fit_on(self.SCHEMA, [{"dept": "uro"}, {"dept": "gyn"}])
        alpha = 1 / math.sqrt(3)
        unseen = enc.encode(SurgicalCase(id="q", values={"dept": "ent"}))
        missing = enc.encode(SurgicalCase(id="q", values={"dept": None}))
        assert unseen == pytest.approx([0.0, 0.0, alpha])
        assert missing == pytest.approx([0.0, 0.0, alpha])


class TestBoolean:
    SCHEMA = one_kind_schema("boolean", ("emergency",))

    @pytest.mark.parametrize(
        "token,expected",
        [("true", 1.0), ("Yes", 1.0), ("1", 1.0), ("FALSE", 0.0), ("no", 0.0), ("0", 0.0)],
    )
    def test_token_table(self, token, expected):
        enc = fit_on(self.SCHEMA, [{"emergency": "true"}, {"emergency": "false"}])
        vec = enc.encode(SurgicalCase(id="q", values={"emergency": token}))
        assert vec[0] == expected

    def test_missing_imputes_prevalence(self):
        rows = [{"emergency": "true"}, {"emergency": "false"}, {"emergency": "false"}, {"emergency": "false"}]
        enc = fit_on(self.SCHEMA, rows)
        vec = enc.encode(SurgicalCase(id="q", values={"emergency": None}))
        assert vec[0] == pytest.approx(0.25)

    def test_bad_token_rejected(self):
        enc = fit_on(self.SCHEMA, [{"emergency": "true"}, {"emergency": "false"}])
        with pytest.raises(SchemaMismatch, match="not a boolean"):
            enc.encode(SurgicalCase(id="q", values={"emergency": "maybe"}))


class TestText:
    SCHEMA = one_kind_schema("text", ("note",))

    def test_uses_embedder_scaled_by_alpha(self):
        enc = fit_on(self.SCHEMA, [{"note": "a"}, {"note": "b"}])
        vec = enc.encode(SurgicalCase(id="q", values={"note": "fasting overnight"}))
        expected = EMBEDDER.embed("fasting overnight") / math.sqrt(EMBEDDER.dim)
        assert vec == pytest.approx(expected)

    def test_missing_embeds_unknown_token(self):
        enc = fit_on(self.SCHEMA, [{"note": "a"}, {"note": "b"}])
        vec = enc.encode(SurgicalCase(id="q", values={"note": None}))
        expected = EMBEDDER.embed("UNKNOWN") / math.sqrt(EMBEDDER.dim)
        assert vec == pytest.approx(expected)


class TestEncodeApi:
    def test_rejects_foreign_feature(self):
        enc = encoding.fit(tiny_corpus(), EMBEDDER)
        case = SurgicalCase(id="q", values={"age": 50.0, "bogus": 1.0})
        with pytest.raises(SchemaMismatch, match="outside the schema"):
            enc.encode(case)

    def test_absent_keys_treated_as_missing(self):
        enc = encoding.fit(tiny_corpus(), EMBEDDER)
        sparse = enc.encode(SurgicalCase(id="q", values={"age": 50.0}))
        explicit = enc.encode(
            SurgicalCase(
                id="q",
                values={name: None for name in small_schema().feature_names}
                | {"age": 50.0},
            )
        )
        assert np.array_equal(sparse, explicit)

    def test_encode_matrix_rows_match_encode(self):
        corpus = tiny_corpus()
        enc = encoding.fit(corpus, EMBEDDER)
        matrix, errors = enc.encode_matrix(corpus)
        assert errors == {}
        assert matrix.shape == (len(corpus), enc.dim)
        assert np.array_equal(matrix[3], enc.encode(corpus.cases[3]))

    def test_deterministic(self):
        corpus = tiny_corpus()
        enc = encoding.fit(corpus, EMBEDDER)
        a = enc.encode(corpus.cases[0])
        b = enc.encode(corpus.cases[0])
        assert np.array_equal(a, b)

    def test_fit_requires_cases(self):
        with pytest.raises(EmptyTrainingSet):
            encoding.fit(CaseSet(cases=[], schema=small_schema()), EMBEDDER)

    def test_embedding_dim_property(self):
        enc = encoding.fit(tiny_corpus(), EMBEDDER)
        assert enc.encode(tiny_corpus().cases[0]).shape == (enc.dim,)


# Oracles: the encoder as one small array per feature, stacked row by row,
# and the embedder adding one hashed sign per n-gram. The encoder and the
# embedder must give these bits exactly.

ORACLE_BOOL = {"true": 1.0, "yes": 1.0, "1": 1.0, "false": 0.0, "no": 0.0, "0": 0.0}


def oracle_embed(text: str, dim: int, ngram: int) -> np.ndarray:
    padded = "\x02" + text.lower() + "\x03"
    vec = np.zeros(dim, dtype=np.float64)
    for i in range(max(len(padded) - ngram + 1, 0)):
        digest = hashlib.blake2b(padded[i : i + ngram].encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest[:4], "little") % dim] += 1.0 if digest[4] & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def oracle_feature(enc, case, name: str, kind: str) -> np.ndarray:
    value = case.values.get(name)
    if kind == "numerical":
        mean, std = enc.numeric_stats[name]
        if value is None:
            x = mean
        else:
            try:
                x = float(value)
            except (TypeError, ValueError, OverflowError):
                raise SchemaMismatch(f"feature {name!r}: not numeric: {value!r}") from None
        return np.array([(x - mean) / std])
    if kind == "ordinal":
        if value is None:
            return np.array([enc.ordinal_missing[name]])
        order = enc.schema.ordinal_orders[name]
        try:
            rank = order.index(str(value))
        except ValueError:
            raise SchemaMismatch(
                f"feature {name!r}: level {str(value)!r} not in declared order {list(order)}"
            ) from None
        return np.array([0.0 if len(order) == 1 else rank / (len(order) - 1)])
    if kind == "categorical":
        vocab = enc.cat_vocabs[name]
        hot = np.zeros(len(vocab) + 1)
        if value is None or str(value) not in vocab:
            hot[-1] = 1.0
        else:
            hot[vocab.index(str(value))] = 1.0
        return hot
    if kind == "boolean":
        if value is None:
            return np.array([enc.bool_missing[name]])
        token = str(value)
        try:
            return np.array([ORACLE_BOOL[token.strip().lower()]])
        except KeyError:
            raise SchemaMismatch(f"feature {name!r}: not a boolean token: {token!r}") from None
    text = "UNKNOWN" if value is None else str(value)
    return oracle_embed(text, enc.text_embedder.dim, enc.text_embedder.ngram)


def oracle_encode(enc, case) -> np.ndarray:
    unknown = set(case.values) - set(enc.schema.feature_names)
    if unknown:
        raise SchemaMismatch(
            f"case {case.id!r} has features outside the schema: {sorted(unknown)}"
        )
    spans = {name: (offset, width) for name, offset, width in enc.feature_spans}
    alpha = block_alphas(enc)
    vector = np.zeros(enc.dim, dtype=np.float64)
    for f in enc.schema.features:
        offset, width = spans[f.name]
        vector[offset : offset + width] = oracle_feature(enc, case, f.name, f.kind)
        vector[offset : offset + width] *= alpha[BLOCK_OF_KIND[f.kind]]
    return vector


def outcome(fn, *args):
    """The array fn returns, or the SchemaMismatch message it raises."""
    try:
        return fn(*args)
    except SchemaMismatch as exc:
        return str(exc)


def assert_same(got, want) -> None:
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


# Declared out of block order, so an error surfacing in block order rather
# than schema order would show.
MIXED_SCHEMA = FeatureSchema(
    features=(
        Feature("note", "text"),
        Feature("flag", "boolean"),
        Feature("x", "numerical"),
        Feature("grade", "ordinal"),
        Feature("lone", "ordinal"),
        Feature("dept", "categorical"),
        Feature("y", "numerical"),
    ),
    ordinal_orders={"grade": ("I", "II", "III"), "lone": ("only",)},
)
ABSENT = object()
BOOL_TOKENS = ("true", "TRUE", "Yes", " yes ", "1", "false", "False", "NO", "no", "0",
               True, False, 1, 0)
# "ΑΣ" lowers its sigma by context and "İ" lowers to two code points; the
# astral characters take one utf-32 code unit and two utf-16 ones.
TEXTS = st.one_of(
    st.sampled_from(["", "a", "ab", "UNKNOWN", "Fasting OVERNIGHT", "naïve café", "ÜBER ☃",
                     "ΑΣ", "İ", "ΟΔΟΣ ΑΣ", "𝔸𝔹 😀x"]),
    st.text(alphabet="aAbB zZéÉ☃-ΣΑİ😀𝔸", max_size=12),
)


def values_of(valid: bool):
    def kind_values(kind, name):
        common = [st.just(None), st.just(ABSENT)]
        if kind == "numerical":
            good = [st.floats(-1e6, 1e6, allow_nan=False), st.integers(-50, 50),
                    st.sampled_from(["2.5", " 7 ", 0.0, -0.0, True])]
            # 10**400 is an int past float range
            bad = [st.sampled_from(["tall", "", [1], 10**400])]
        elif kind == "ordinal":
            levels = MIXED_SCHEMA.ordinal_orders[name]
            good, bad = [st.sampled_from(levels)], [st.sampled_from(["V", "i", 2])]
        elif kind == "categorical":
            # ints and their strings share a slot, True has its own; unseen
            # values are always valid
            good, bad = [st.sampled_from(["uro", "gyn", "ent", "1", 1, 2, "Uro", True])], []
        elif kind == "boolean":
            good, bad = [st.sampled_from(BOOL_TOKENS)], [st.sampled_from(["maybe", "2", ""])]
        else:
            good, bad = [TEXTS], []
        return st.one_of(*common, *good, *(bad if not valid else []))

    return st.fixed_dictionaries(
        {f.name: kind_values(f.kind, f.name) for f in MIXED_SCHEMA.features}
        | ({} if valid else {"bogus": st.sampled_from([ABSENT] * 9 + [1.0])})
    ).map(lambda row: {k: v for k, v in row.items() if v is not ABSENT})


def as_cases(rows, prefix):
    return [SurgicalCase(id=f"{prefix}{i}", values=row, duration_min=60.0)
            for i, row in enumerate(rows)]


class TestEncoderEqualsOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        train=st.lists(values_of(valid=True), min_size=1, max_size=6),
        queries=st.lists(values_of(valid=False), min_size=1, max_size=6),
        dim=st.sampled_from([1, 7, 16]),
        ngram=st.integers(1, 4),
    )
    def test_encode_and_matrix_rows_equal_oracle(self, train, queries, dim, ngram):
        enc = encoding.fit(
            CaseSet(cases=as_cases(train, "t"), schema=MIXED_SCHEMA),
            HashingTextEmbedder(dim=dim, ngram=ngram),
        )
        cases = as_cases(queries, "q")
        wants = [outcome(oracle_encode, enc, case) for case in cases]
        for case, want in zip(cases, wants):
            assert_same(outcome(enc.encode, case), want)
        matrix, errors = enc.encode_matrix(CaseSet(cases=cases, schema=MIXED_SCHEMA))
        assert matrix.shape == (len(cases), enc.dim)
        assert sorted(errors) == [i for i, want in enumerate(wants) if isinstance(want, str)]
        for i, (row, want) in enumerate(zip(matrix, wants)):
            if isinstance(want, str):
                assert str(errors[i]) == want
                assert_same(row, np.zeros(enc.dim))
            else:
                assert_same(row, want)

    def test_fitted_training_matrix_equals_oracle(self):
        corpus = generate_synthetic(SyntheticSpec(n_cases=120), seed=2)
        enc = encoding.fit(corpus, HashingTextEmbedder(dim=32))
        want = np.stack([oracle_encode(enc, c) for c in corpus.cases])
        matrix, errors = enc.encode_matrix(corpus)
        assert errors == {}
        assert_same(matrix, want)


def oracle_fit(schema, cases):
    """encoding.fit's statistics as (numeric_stats, ordinal_missing,
    cat_vocabs, bool_missing), value by value in row order, or the message
    of the first SchemaMismatch it raises."""
    numeric, ordinal, vocabs, booleans = {}, {}, {}, {}
    for f in schema.features:
        present = [c.values[f.name] for c in cases if c.values.get(f.name) is not None]
        if f.kind == "numerical":
            floats = []
            for value in present:
                try:
                    floats.append(float(value))
                except (TypeError, ValueError, OverflowError):
                    return f"feature {f.name!r}: not numeric: {value!r}"
            mean, std = 0.0, 1.0
            if floats:
                with np.errstate(over="ignore", invalid="ignore"):
                    mean, std = float(np.mean(floats)), float(np.std(floats))
                if not (math.isfinite(mean) and math.isfinite(std)):
                    return (f"feature {f.name!r}: training values too large for a finite "
                            f"mean and std (mean {mean!r}, std {std!r})")
            numeric[f.name] = (mean, 1.0 if std < 1e-12 else std)
        elif f.kind == "ordinal":
            order = schema.ordinal_orders[f.name]
            ranks = []
            for value in present:
                if str(value) not in order:
                    return (f"feature {f.name!r}: level {str(value)!r} not in declared "
                            f"order {list(order)}")
                ranks.append(order.index(str(value)) / max(len(order) - 1, 1))
            ordinal[f.name] = float(np.mean(ranks)) if ranks else 0.5
        elif f.kind == "categorical":
            vocabs[f.name] = tuple(sorted({str(value) for value in present}))
        elif f.kind == "boolean":
            flags = []
            for value in present:
                token = str(value).strip().lower()
                if token not in ORACLE_BOOL:
                    return f"feature {f.name!r}: not a boolean token: {str(value)!r}"
                flags.append(ORACLE_BOOL[token])
            booleans[f.name] = float(np.mean(flags)) if flags else 0.5
    for case in cases:
        unknown = set(case.values) - set(schema.feature_names)
        if unknown:
            return f"case {case.id!r} has features outside the schema: {sorted(unknown)}"
    return numeric, ordinal, vocabs, booleans


# Numerical values that one float can stand for (both zeros, ints, bools,
# numeric strings), a float whose sum overflows, and values float() refuses.
NUMBERS = st.sampled_from([0.0, -0.0, 0, False, True, 1, 1.0, "1", " 2.5 ", "-0.0", 1e308,
                           "tall", [1], 10**400])


@st.composite
def training_rows(draw):
    """1-4 distinct rows, all of valid values or of any, each holding one of
    NUMBERS as y half the time; up to 12 rows drawn from them, so values
    repeat."""
    pool = draw(st.lists(values_of(draw(st.booleans())), min_size=1, max_size=4))
    pool = [row | {"y": draw(NUMBERS)} if draw(st.booleans()) else row for row in pool]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return [pool[i] for i in picks]


class TestFitEqualsOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows=training_rows())
    def test_statistics_and_first_error_equal_oracle(self, rows):
        cases = as_cases(rows, "t")
        want = oracle_fit(MIXED_SCHEMA, cases)
        try:
            enc = encoding.fit(CaseSet(cases=cases, schema=MIXED_SCHEMA), EMBEDDER)
        except SchemaMismatch as exc:
            assert str(exc) == want
            return
        got = (enc.numeric_stats, enc.ordinal_missing, enc.cat_vocabs, enc.bool_missing)
        assert not isinstance(want, str), want
        # a float's repr fixes its bits, so -0.0 and 0.0 differ
        assert repr(got) == repr(want)


class TestEmbedderEqualsOracle:
    SHARED = {}

    @settings(max_examples=200, deadline=None)
    @given(text=TEXTS, dim=st.sampled_from([1, 2, 16, 256]), ngram=st.integers(1, 5))
    def test_embed_equals_oracle(self, text, dim, ngram):
        want = oracle_embed(text, dim, ngram)
        fresh = HashingTextEmbedder(dim=dim, ngram=ngram)
        warm = self.SHARED.setdefault((dim, ngram), HashingTextEmbedder(dim=dim, ngram=ngram))
        for got in (fresh.embed(text), fresh.embed(text), warm.embed(text)):
            assert_same(got, want)

    def test_memo_leaves_equality_repr_and_spec_alone(self):
        """An embedder that has embedded text equals, and prints as, a fresh
        one: it keeps no gram memo or other state."""
        used, unused = HashingTextEmbedder(dim=16), HashingTextEmbedder(dim=16)
        used.embed("laparoscopic")
        assert used == unused
        assert repr(used) == repr(unused) == "HashingTextEmbedder(dim=16, ngram=3)"


class TestEmbedManyEqualsOracle:
    SHARED = {}

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(TEXTS, max_size=30),
        dim=st.sampled_from([1, 2, 16, 256]),
        ngram=st.integers(1, 5),
    )
    def test_rows_equal_oracle_and_embed(self, texts, dim, ngram):
        fresh = HashingTextEmbedder(dim=dim, ngram=ngram)
        warm = self.SHARED.setdefault((dim, ngram), HashingTextEmbedder(dim=dim, ngram=ngram))
        for emb in (fresh, warm):
            got = emb.embed_many(texts)
            assert got.shape == (len(texts), dim) and got.dtype == np.float64
            for row, text in zip(got, texts):
                assert_same(row, oracle_embed(text, dim, ngram))
                assert_same(row, emb.embed(text))


TWO_TEXTS = FeatureSchema(features=(Feature("a", "text"), Feature("x", "numerical"),
                                    Feature("b", "text")))


class TestMatrixTexts:
    def test_remote_fit_posts_each_distinct_text_once(self, stub_server):
        def respond(body, seen):
            texts = json.loads(body)["input"]
            return 200, {"data": [{"embedding": [1.0, float(len(t))]} for t in texts]}

        server = stub_server(respond)
        rows = [{"a": "hip", "b": "knee"}, {"a": "knee", "x": 1.0}, {"b": "hip"}, {"a": "hip"}]
        train = CaseSet(cases=as_cases(rows, "t"), schema=TWO_TEXTS)
        enc = encoding.fit(train, RemoteTextEmbedder(url=server.url, dim=2))
        matrix, errors = enc.encode_matrix(train)
        assert errors == {}
        assert [r["body"]["input"] for r in server.requests] == [["hip", "knee", "UNKNOWN"]]
        blocks = {"hip": [1.0, 3.0], "knee": [1.0, 4.0], "UNKNOWN": [1.0, 7.0]}
        for row, values in zip(matrix, rows):
            for name, offset, width in enc.feature_spans[1:]:
                vec = np.array(blocks[values.get(name, "UNKNOWN")])
                assert_same(row[offset : offset + width],
                            vec / np.linalg.norm(vec) * block_alphas(enc)["text"])

    def test_remote_bad_row_text_is_never_posted(self, stub_server):
        server = stub_server(hashed_embeddings(2))
        rows = [{"a": "hip", "x": 1.0}, {"a": "knee", "x": "tall", "b": "elbow"},
                {"b": "hip"}]
        enc = encoding.fit(
            CaseSet(cases=as_cases(rows[:1], "t"), schema=TWO_TEXTS),
            RemoteTextEmbedder(url=server.url, dim=2),
        )
        server.requests.clear()
        cases = as_cases(rows, "q")
        matrix, errors = enc.encode_matrix(CaseSet(cases=cases, schema=TWO_TEXTS))
        assert [r["body"]["input"] for r in server.requests] == [["hip", "UNKNOWN"]]
        assert list(errors) == [1]
        assert str(errors[1]) == "feature 'x': not numeric: 'tall'"
        assert not matrix[1].any()
        for i in (0, 2):
            assert_same(matrix[i], enc.encode(cases[i]))
        server.requests.clear()
        with pytest.raises(SchemaMismatch, match="not numeric"):
            enc.encode(cases[1])
        assert server.requests == []


# sha256 pins recorded before the encoder and embedder wrote in place; each
# embedder pin hashes the little-endian float64 vectors of GOLDEN_TEXTS.
GOLDEN_TEXTS = ("", "a", "UNKNOWN", "Laparoscopic Cholecystectomy", "naïve ÜBER café ☃",
                "fasting overnight, fasting overnight")
GOLDEN_EMBEDDINGS = {
    (256, 3): "5298bc20be2cb09c50e815329e2b04ddaf849ec27f4958a6192d1402f8b770d3",
    (16, 3): "ca3efc3e6b6a93fc1e8a1866a69859633a6a1f6c2f0dec9bb3fcacd2ccb14417",
    (7, 1): "dabd9ac113a47daca107ca94bbafe960a7d3436318b44bb6e6ba17a4643bfb17",
    (64, 5): "63e5b0701970b12bb3264bba839c77270f39463818e85b99fb9b82c1de68f9f6",
}
# index.bin of a 300-case seed-5 synthetic fit with uniform weights: the
# encoder alone decides its vector bytes (PCA weights would add an
# eigensolver whose last bits vary between LAPACK builds). Recorded for the
# DURCIDX3 layout, one column per feature.
GOLDEN_INDEX_BIN = "aa173bebd32f3db583017f4ab7d518a9b39f30b296bfa1bb3ddbe59b879379ad"
# The float32 vector section of that file, bytes 24 .. 24 + 4 * n * d. Recorded
# from the DURCIDX1 file, which stored the same vectors at the same offset, so
# the layout change left every vector byte in place.
GOLDEN_INDEX_VECTORS = "6ed59d00f4b2794d7ac0a05b6d3c87e120d8ffaedc5087a00074ff3f7bcfb125"
# A 2,000-case seed-7 synthetic corpus, every fifth duration blanked, through
# write_csv -> ingest_csv -> a uniform-weight fit: sha256 of index.bin and of
# encoder.json. Rows without a duration are not training cases, so these are
# the bits of a fit of the 1,600 labelled rows alone: recorded by fitting
# those rows alone, back when a fit's encoder still read unlabelled rows;
# index.bin re-recorded for the DURCIDX3 layout.
GOLDEN_CSV_INDEX_BIN = "901cbffb2fe2e06f432b580b47872dc1f78421a90791781830dcdf0df10ecac6"
GOLDEN_CSV_ENCODER_JSON = "12a81bbead2651a43ca1a41453c665abb5d797ea8bf6c396294402ece9f7d383"
# A 300-case seed-5 synthetic corpus through a uniform-weight fit with a
# dim-8 remote embedder whose stub answers hashed_vector per text: sha256 of
# index.bin and of encoder.json. Recorded while the remote embedder posted
# one text per request; index.bin re-recorded for the DURCIDX3 layout.
GOLDEN_REMOTE_INDEX_BIN = "aabb04ddd08f6f40fb8ccdb3c10f8e5d7f1b7bafcebc74e8692b82c930d5c2d0"
GOLDEN_REMOTE_ENCODER_JSON = "1e8a605a6de3189325bbac7c4a0a72434881378c320008c2c2b30a8cb51c7f0f"


class TestGoldenPins:
    @pytest.mark.parametrize("dim,ngram", sorted(GOLDEN_EMBEDDINGS))
    def test_embedding_bits(self, dim, ngram):
        emb = HashingTextEmbedder(dim=dim, ngram=ngram)
        digest = hashlib.sha256()
        for text in GOLDEN_TEXTS:
            digest.update(emb.embed(text).astype("<f8").tobytes())
        assert digest.hexdigest() == GOLDEN_EMBEDDINGS[(dim, ngram)]

    def test_index_bin_bits(self):
        corpus = generate_synthetic(SyntheticSpec(n_cases=300), seed=5)
        pipe = Pipeline.fit(corpus, FitConfig(pca_weighting=False))
        assert hashlib.sha256(index.save_index(pipe.index)).hexdigest() == GOLDEN_INDEX_BIN

    def test_csv_path_bits(self, tmp_path):
        corpus = generate_synthetic(SyntheticSpec(n_cases=2000), seed=7)
        cases = [replace(c, duration_min=None) if i % 5 == 4 else c
                 for i, c in enumerate(corpus.cases)]
        write_csv(CaseSet(cases=cases, schema=corpus.schema), tmp_path / "train.csv")
        train = ingest_csv(tmp_path / "train.csv", corpus.schema)
        pipe = Pipeline.fit(train, FitConfig(pca_weighting=False))
        assert len(pipe.index.table.ids) == 1600
        assert hashlib.sha256(index.save_index(pipe.index)).hexdigest() == GOLDEN_CSV_INDEX_BIN
        save_artifacts(pipe, tmp_path / "out")
        encoder_json = (tmp_path / "out" / "encoder.json").read_bytes()
        assert hashlib.sha256(encoder_json).hexdigest() == GOLDEN_CSV_ENCODER_JSON

    def test_remote_fit_bits(self, stub_server, tmp_path):
        server = stub_server(hashed_embeddings(8))
        corpus = generate_synthetic(SyntheticSpec(n_cases=300), seed=5)
        embedder = {"type": "remote", "url": server.url, "dim": 8}
        pipe = Pipeline.fit(corpus, FitConfig(pca_weighting=False, embedder=embedder))
        save_artifacts(pipe, tmp_path)
        encoder_json = (tmp_path / "encoder.json").read_bytes()
        assert hashlib.sha256(index.save_index(pipe.index)).hexdigest() == GOLDEN_REMOTE_INDEX_BIN
        assert hashlib.sha256(encoder_json).hexdigest() == GOLDEN_REMOTE_ENCODER_JSON

    def test_index_bin_vector_bits(self):
        corpus = generate_synthetic(SyntheticSpec(n_cases=300), seed=5)
        pipe = Pipeline.fit(corpus, FitConfig(pca_weighting=False))
        n, d = pipe.index.vectors.shape
        section = index.save_index(pipe.index)[24 : 24 + 4 * n * d]
        assert hashlib.sha256(section).hexdigest() == GOLDEN_INDEX_VECTORS
