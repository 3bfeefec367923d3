"""Pipeline fitting, per-mode prediction, and artifact persistence."""

import hashlib
import json
import math
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LEVELS,
    THYROID_DURATIONS,
    hashed_embeddings,
    mk_case,
    small_schema,
    tiny_corpus,
)
from durcast import encoding as encoding_mod, index as index_mod, pca as pca_mod
from durcast import schema as schema_mod
from durcast.errors import (
    ArtifactError,
    BackendTransportError,
    BackendUnreachable,
    DegenerateInput,
    DimensionMismatch,
    DurcastError,
    EmbeddingServiceError,
    EmptyTrainingSet,
    IoError,
    SchemaMismatch,
    SpecError,
)
from durcast.evaluate import run_experiment
from durcast.llm import LlmBackend, MockEchoPrior, MockReferenceMean
from durcast.pipeline import (
    ExperimentConfig,
    FitConfig,
    Pipeline,
    load_artifacts,
    make_embedder,
    save_artifacts,
)
from durcast.priors import compute_prior
from durcast.schema import CaseSet
from durcast.synthetic import SyntheticSpec, generate_synthetic
from durcast.text_embedding import HashingTextEmbedder, RemoteTextEmbedder

ARTIFACT_FILES = (
    "schema.yaml",
    "encoder.json",
    "index.bin",
    "importance.csv",
    "manifest.json",
)


@pytest.fixture(scope="module")
def train():
    base = tiny_corpus()
    extra = mk_case("pending-1", None, age=58.0)
    return CaseSet(cases=[*base.cases, extra], schema=base.schema)


@pytest.fixture(scope="module")
def pipe(train):
    return Pipeline.fit(train)


def thyroid_query(case_id="q-thy"):
    return mk_case(case_id, None, department="thyroid_breast",
                   surgery="thyroidectomy", note="neck ultrasound reviewed")


class TestFit:
    def test_index_holds_only_cases_with_durations(self, train, pipe):
        assert len(train.cases) == 17
        assert len(pipe.index.cases) == 16
        assert all(c.duration_min is not None for c in pipe.index.cases)
        assert list(pipe.train_cases().cases) == list(pipe.index.cases)

    def test_encoder_fitted_on_full_train(self, train, pipe):
        """The training set is the cases with a duration: the pending case's
        age shapes no statistic."""
        ages = [c.values["age"] for c in pipe.index.cases]
        mean, _ = pipe.encoder.numeric_stats["age"]
        assert mean == pytest.approx(sum(ages) / len(ages))
        assert mean != pytest.approx(sum(c.values["age"] for c in train.cases) / len(train.cases))

    def test_fitted_embedder_keeps_no_state(self, pipe):
        """Embedding the training texts leaves nothing on the embedder: a
        fitted encoder holds no more than a loaded one."""
        assert vars(pipe.encoder.text_embedder) == {"dim": 256, "ngram": 3}

    def test_pca_weights_by_default(self, pipe):
        assert pipe.weights.k_used >= 1
        assert not np.allclose(pipe.weights.weights, 1.0)

    def test_uniform_when_pca_disabled(self, train):
        flat = Pipeline.fit(train, FitConfig(pca_weighting=False))
        assert np.array_equal(flat.weights.weights, np.ones(flat.encoder.dim))

    def test_pca_top_m_overrides_variance_rule(self, train):
        pinned = Pipeline.fit(train, FitConfig(pca_top_m=2))
        assert pinned.weights.k_used == 2

    def test_pca_top_m_above_dim_is_clamped(self, train):
        pinned = Pipeline.fit(train, FitConfig(pca_top_m=10_000))
        assert pinned.weights.k_used == pinned.encoder.dim

    def test_every_indexed_case_keeps_a_direction(self, monkeypatch):
        """Among the indexed cases only surgery_level varies, and t2 has
        rank 0 there: PCA alone would weight it to the zero vector."""
        lifted, real_lift = [], pca_mod.lift_zero_weights

        def spy(weights):
            lifted.append(weights)
            return real_lift(weights)

        monkeypatch.setattr(pca_mod, "lift_zero_weights", spy)
        train = CaseSet(cases=[_mk(f"t{i}", r) for i, r in enumerate(LIFTED_ROWS)],
                        schema=small_schema())
        config = FitConfig(embedder={"type": "hashing", "dim": 16, "ngram": 3})
        fitted = Pipeline.fit(train, config)
        assert [c.id for c in fitted.index.cases] == ["t1", "t2"]
        assert len(lifted) == 1 and (lifted[0].weights == 0.0).any()
        assert fitted.index.vectors.any(axis=1).all()
        assert fitted.weights.weights.min() > 0.0
        refs, _ = fitted.retrieve_references(_mk("q", LIFTED_ROWS[2]), k=1)
        assert [c.id for c, _ in refs.references] == ["t2"]

    def test_empty_training_set(self, train):
        with pytest.raises(EmptyTrainingSet):
            Pipeline.fit(CaseSet(cases=(), schema=train.schema))

    def test_no_durations_anywhere(self, train):
        bare = CaseSet(
            cases=tuple(mk_case(f"n{i}") for i in range(3)), schema=train.schema
        )
        with pytest.raises(EmptyTrainingSet):
            Pipeline.fit(bare)

    def test_unlabelled_rows_are_not_training_cases(self, tmp_path):
        """A fit of a set with rows lacking a duration writes the artifact
        bytes a fit of its labelled rows alone writes."""
        corpus = generate_synthetic(SyntheticSpec(n_cases=200), seed=3)
        blanked = [replace(c, duration_min=None) if i % 5 == 4 else c
                   for i, c in enumerate(corpus.cases)]
        labelled = [c for c in blanked if c.duration_min is not None]
        for name, cases in (("mixed", blanked), ("labelled", labelled)):
            save_artifacts(Pipeline.fit(CaseSet(cases, corpus.schema)), tmp_path / name)
        for file in ARTIFACT_FILES:
            assert (tmp_path / "mixed" / file).read_bytes() == \
                (tmp_path / "labelled" / file).read_bytes()

    def test_one_labelled_row_needs_pca_off(self, train):
        """PCA needs two training cases, however many unlabelled rows come
        with the one."""
        one = CaseSet([train.cases[0], *(mk_case(f"n{i}") for i in range(3))], train.schema)
        with pytest.raises(DegenerateInput):
            Pipeline.fit(one)
        flat = Pipeline.fit(one, FitConfig(pca_weighting=False))
        assert [c.id for c in flat.index.cases] == [train.cases[0].id]

    def test_unlabelled_row_values_are_not_read(self, train, pipe):
        """An undeclared ordinal level in a row without a duration does not
        fail the fit, which never reads that row."""
        stray = mk_case("pending-2", None, asa="ZZZ")
        with pytest.raises(SchemaMismatch, match="ZZZ"):
            Pipeline.fit(CaseSet([*train.cases, replace(stray, duration_min=90.0)],
                                 train.schema))
        fitted = Pipeline.fit(CaseSet([*train.cases, stray], train.schema))
        assert fitted.encoder == pipe.encoder
        assert np.array_equal(fitted.index.vectors, pipe.index.vectors)

    def test_remote_fit_posts_nothing_for_a_feature_outside_the_schema(self, stub_server):
        """The encoder fit refuses the row with encode_matrix's error before
        any text is embedded."""
        server = stub_server(hashed_embeddings(16))
        corpus = generate_synthetic(SyntheticSpec(n_cases=50), seed=1)
        stray = replace(corpus.cases[7], values={**corpus.cases[7].values, "ward": "B"})
        train = CaseSet([*corpus.cases[:7], stray, *corpus.cases[8:]], corpus.schema)
        config = FitConfig(embedder={"type": "remote", "url": server.url, "dim": 16})
        with pytest.raises(SchemaMismatch) as caught:
            Pipeline.fit(train, config)
        assert server.requests == []
        clean = encoding_mod.fit(corpus, HashingTextEmbedder(dim=16))
        _, errors = clean.encode_matrix(train)
        assert list(errors) == [7]
        assert str(caught.value) == str(errors[7])

    def test_embed_query_is_weighted_encoding(self, pipe):
        """The query row a retrieval batch weights, bit for bit."""
        q = thyroid_query()
        batch = CaseSet(cases=[mk_case("other", note="fasting overnight"), q], schema=pipe.schema)
        matrix, errors = pipe.encoder.encode_matrix(batch)
        assert errors == {}
        want = (matrix * pipe.weights.weights)[1]
        assert np.array_equal(pipe.embed_query(q), want)

    def test_importance_report_covers_features(self, pipe):
        report = pipe.importance_report()
        assert {name for name, _ in report} == set(pipe.schema.feature_names)
        scores = [s for _, s in report]
        assert scores == sorted(scores, reverse=True)


class TestFitConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("pca_weighting", "yes"),
            ("pca_weighting", 1),
            ("variance_fraction", "0.95"),
            ("variance_fraction", True),
            ("variance_fraction", 0.0),
            ("variance_fraction", 1.5),
            ("variance_fraction", float("nan")),
            ("pca_top_m", 0),
            ("pca_top_m", 2.0),
            ("pca_top_m", True),
            ("min_cohort", 0),
            ("min_cohort", "5"),
            ("min_cohort", 5.0),
            ("min_cohort", None),
            ("embedder", "hashing"),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(SpecError, match=field):
            FitConfig(**{field: value})

    def test_accepts_what_save_artifacts_writes(self):
        for config in (FitConfig(), FitConfig(pca_weighting=False, variance_fraction=1,
                                              pca_top_m=3, min_cohort=1)):
            doc = json.loads(json.dumps(asdict(config)))
            assert FitConfig(**doc) == config


class TestRetrieveReferences:
    def test_postprocessed_stratum(self, pipe):
        refs, (rows, sims) = pipe.retrieve_references(thyroid_query(), k=4)
        assert len(refs.references) == 4
        assert refs.fallback_level == 0
        assert "thyroidectomy" in refs.stratum_descriptor
        assert all(
            c.values["surgery_name"] == "thyroidectomy" for c, _ in refs.references
        )
        assert len(rows) == len(sims) >= len(refs.references)

    def test_plain_topk_when_disabled(self, pipe):
        refs, _ = pipe.retrieve_references(thyroid_query(), k=4, postprocess=False)
        assert len(refs.references) == 4
        assert refs.fallback_level == 4  # global tier of a 3-key ladder
        assert refs.stratum_descriptor == "GLOBAL"
        assert refs.iqr_bounds is None

    def test_expansion_must_be_positive(self, pipe):
        with pytest.raises(SpecError):
            pipe.retrieve_references(thyroid_query(), k=4, expansion_factor=0)

    def test_random_references(self, pipe):
        a = pipe.random_references(k=5, seed=11)
        b = pipe.random_references(k=5, seed=11)
        c = pipe.random_references(k=5, seed=12)
        assert [r.id for r, _ in a.references] == [r.id for r, _ in b.references]
        assert [r.id for r, _ in a.references] != [r.id for r, _ in c.references]
        assert all(sim == 0.0 for _, sim in a.references)

    def test_random_references_cap_at_pool(self, pipe):
        refs = pipe.random_references(k=99, seed=0)
        assert len(refs.references) == 16


def remote_fit(stub_server):
    """A 300-case seed-1 fit whose dim-16 remote embedder posts to a stub,
    the stub, and the next 40 synthetic cases as queries."""
    server = stub_server(hashed_embeddings(16))
    corpus = generate_synthetic(SyntheticSpec(n_cases=340), seed=1)
    config = FitConfig(embedder={"type": "remote", "url": server.url, "dim": 16})
    fitted = Pipeline.fit(CaseSet(corpus.cases[:300], corpus.schema), config)
    server.requests.clear()
    return server, fitted, corpus.cases[300:]


class TestRemoteRetrievalBatch:
    def test_remote_bad_row_costs_no_request_of_its_own(self, stub_server):
        server, fitted, queries = remote_fit(stub_server)
        clean = fitted.retrieve_references_batch(queries)
        only_here = "a note only the bad row holds"
        bad = replace(queries[7], values={**queries[7].values, "asa_grade": "ZZZ",
                                          "preop_note": only_here})
        server.requests.clear()
        mixed = fitted.retrieve_references_batch([*queries[:7], bad, *queries[8:]])
        assert len(server.requests) == 1
        assert only_here not in server.requests[0]["body"]["input"]
        assert isinstance(mixed[7], SchemaMismatch)
        assert "asa_grade" in str(mixed[7])
        for got, want in zip(mixed[:7] + mixed[8:], clean[:7] + clean[8:]):
            assert got[0] == want[0]
            assert np.array_equal(got[1][0], want[1][0])
            assert np.array_equal(got[1][1], want[1][1])

    def test_remote_service_down_fails_every_case_in_one_request(self, stub_server):
        server, fitted, queries = remote_fit(stub_server)
        server.httpd.respond = lambda body, seen: (503, {"error": "down"})
        answers = fitted.retrieve_references_batch(queries)
        assert len(server.requests) == 1
        assert len(answers) == 40
        assert all(isinstance(a, EmbeddingServiceError) for a in answers)
        assert "HTTP 503" in str(answers[0])


def test_dimension_mismatch_fails_every_case_but_its_own_errors(pipe, monkeypatch):
    """An index of another dimension fails every query of a batch with one
    DimensionMismatch; a row that cannot be encoded keeps its own error."""
    wide = np.ones((1, pipe.index.dim + 1))
    monkeypatch.setattr(pipe, "index", index_mod.build(wide, [pipe.index.cases[0]], pipe.schema))
    good = thyroid_query()
    bad = replace(good, id="q-bad", values={**good.values, "not_in_schema": 1})
    answers = pipe.retrieve_references_batch([good, bad, thyroid_query("q-2")])
    assert isinstance(answers[1], SchemaMismatch)
    for answer in (answers[0], answers[2]):
        assert isinstance(answer, DimensionMismatch)
        assert "does not match index" in str(answer)


class AlwaysDown(LlmBackend):
    kind = "down"

    def complete(self, prompt, temperature, round_index):
        raise BackendTransportError("nothing listening")


class TestPredictCase:
    def test_rag_bayesian(self, pipe):
        cfg = ExperimentConfig(MockEchoPrior(), mode="rag", k=4, rounds=3, seed=1)
        pred = pipe.predict_case(thyroid_query(), cfg)
        # prior median is the thyroid tier-0 median; the echo backend repeats
        # it, so shrinkage is a fixed point
        assert pred.prior.median_min == 130.0
        assert pred.prior.cohort_size == 8
        assert pred.estimate.strategy == "bayesian"
        assert pred.estimate.y_hat_min == pytest.approx(130.0)
        assert pred.ensemble.retained_n == 3
        assert pred.mode == "rag"
        assert len(pred.references.references) == 4

    def test_rag_baseline_strategy_skips_prior(self, pipe):
        cfg = ExperimentConfig(MockEchoPrior(), mode="rag", k=4, rounds=3,
                               strategy="median", seed=1)
        pred = pipe.predict_case(thyroid_query(), cfg)
        assert pred.estimate.strategy == "median"
        assert pred.estimate.prior_weight == 0.0
        assert pred.prior is not None  # still audited even when unused

    def test_calibrated_prior_mode(self, pipe):
        cfg = ExperimentConfig(MockEchoPrior(), mode="rag", k=4, rounds=1,
                               prior_mode="calibrated", w_prior=0.9, seed=1)
        pred = pipe.predict_case(thyroid_query(), cfg)
        var = float(np.var(THYROID_DURATIONS))
        want = 0.9 * (8 / 30) * (1.0 / (1.0 + var / 130.0**2))
        assert pred.estimate.prior_weight == pytest.approx(want)

    def test_random_few_shot(self, pipe):
        cfg = ExperimentConfig(MockReferenceMean(), k=4, mode="random_few_shot",
                               rounds=2, seed=7)
        pred = pipe.predict_case(thyroid_query(), cfg)
        assert pred.prior is None
        assert pred.estimate.strategy == "simple_average"
        assert all(sim == 0.0 for _, sim in pred.references.references)
        again = pipe.predict_case(thyroid_query(), cfg)
        assert [c.id for c, _ in again.references.references] == [
            c.id for c, _ in pred.references.references
        ]

    def test_zero_shot(self, pipe):
        cfg = ExperimentConfig(MockReferenceMean(), mode="zero_shot", k=0, rounds=2, seed=7)
        pred = pipe.predict_case(thyroid_query(), cfg)
        assert pred.references is None
        assert pred.prior is None
        assert pred.estimate.strategy == "simple_average"
        assert pred.estimate.y_hat_min == 90.0

    def test_strict_backend_failure_propagates(self, pipe):
        with pytest.raises(BackendUnreachable):
            cfg = ExperimentConfig(AlwaysDown(max_retries=1), mode="rag", k=4, rounds=2)
            pipe.predict_case(thyroid_query(), cfg, strict=True)


class TestMakeEmbedder:
    def test_hashing(self):
        emb = make_embedder({"type": "hashing", "dim": 64, "ngram": 2})
        assert isinstance(emb, HashingTextEmbedder)
        assert emb.dim == 64
        assert emb.ngram == 2

    def test_default_type(self):
        assert isinstance(make_embedder({}), HashingTextEmbedder)

    def test_remote(self):
        emb = make_embedder({"type": "remote", "url": "http://x/v1", "dim": 32})
        assert isinstance(emb, RemoteTextEmbedder)
        assert emb.dim == 32

    def test_unknown(self):
        with pytest.raises(SpecError):
            make_embedder({"type": "tfidf"})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"type": "hashing", "dim": 0, "ngram": 3}, "dim"),
            ({"type": "hashing", "dim": -3, "ngram": 3}, "dim"),
            ({"type": "hashing", "dim": 2.0}, "dim"),
            ({"type": "hashing", "dim": "256"}, "dim"),
            ({"type": "hashing", "dim": True}, "dim"),
            ({"type": "hashing", "dim": 64, "ngram": 0}, "ngram"),
            ({"type": "hashing", "ngram": None}, "ngram"),
            ({"type": "remote", "url": "http://x/v1", "dim": 0}, "dim"),
            ({"type": "remote", "dim": 32}, "url"),
            ({"type": "remote", "url": 7, "dim": 32}, "url"),
            ({"type": None}, "hashing or remote"),
            ({"type": "tfidf"}, "hashing or remote"),
            (["hashing"], "mapping"),
            ({"type": "remote", "url": "http://x/v1", "timeout_s": "soon"}, "timeout_s"),
            ({"type": "remote", "url": "http://x/v1", "timeout_s": 0}, "timeout_s"),
            ({"type": "remote", "url": "http://x/v1", "timeout_s": -1.5}, "timeout_s"),
            ({"type": "remote", "url": "http://x/v1", "timeout_s": float("nan")}, "timeout_s"),
            ({"type": "remote", "url": "http://x/v1", "timeout_s": float("inf")}, "timeout_s"),
            ({"type": "remote", "url": "http://x/v1", "timeout_s": True}, "timeout_s"),
            ({"type": "remote", "url": "http://x/v1", "timeout_s": None}, "timeout_s"),
            ({"type": "hashing", "dimm": 128}, "takes no key 'dimm'"),
            ({"type": "hashing", "url": "http://x/v1"}, "takes no key 'url'"),
            ({"dim": 64, "ngrams": 2, 7: 1}, "^hashing embedder takes no key 'ngrams', 7$"),
        ],
    )
    def test_bad_spec_is_spec_error(self, spec, message):
        with pytest.raises(SpecError, match=message):
            make_embedder(spec)
        with pytest.raises(SpecError, match=message):
            FitConfig(embedder=spec)

    @pytest.mark.parametrize("timeout", [5, 2.5])
    def test_remote_timeout(self, timeout):
        spec = {"type": "remote", "url": "http://x/v1", "timeout_s": timeout}
        assert make_embedder(spec).timeout_s == timeout

    def test_remote_ngram_is_refused(self):
        spec = {"type": "remote", "url": "http://x/v1", "dim": 32, "ngram": 3}
        with pytest.raises(SpecError, match="remote embedder takes no key 'ngram'"):
            FitConfig(embedder=spec)


class RecordingBackend(LlmBackend):
    """Keeps every prompt it is sent and answers a fixed duration."""

    kind = "recording"

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, temperature, round_index):
        self.prompts.append(prompt)
        return "PREDICTION: 120 minutes"


class CustomEmbedder(HashingTextEmbedder):
    """Embeds as the default hashing embedder, but no spec describes it."""


@pytest.fixture(scope="module")
def saved(pipe, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    save_artifacts(pipe, out)
    return out


class TestArtifacts:
    def test_layout(self, saved):
        assert sorted(p.name for p in saved.iterdir()) == sorted(ARTIFACT_FILES)
        manifest = json.loads((saved / "manifest.json").read_text())
        assert set(manifest["files"]) == set(ARTIFACT_FILES) - {"manifest.json"}
        assert manifest["fit_config"]["pca_weighting"] is True

    def test_round_trip_embeddings_exact(self, pipe, saved):
        loaded = load_artifacts(saved)
        q = thyroid_query()
        assert np.array_equal(loaded.embed_query(q), pipe.embed_query(q))
        assert loaded.weights.k_used == pipe.weights.k_used

    def test_round_trip_priors_exact(self, train, pipe, saved):
        loaded = load_artifacts(saved)
        for q in [thyroid_query(), *train.cases]:
            assert loaded.priors.for_query(q) == pipe.priors.for_query(q)

    def test_round_trip_predictions(self, pipe, saved):
        loaded = load_artifacts(saved)
        cfg = ExperimentConfig(MockReferenceMean(), mode="rag", k=4, rounds=2, seed=3)
        orig = pipe.predict_case(thyroid_query(), cfg)
        redux = loaded.predict_case(thyroid_query(), cfg)
        assert [c.id for c, _ in redux.references.references] == [
            c.id for c, _ in orig.references.references
        ]
        assert redux.estimate.y_hat_min == pytest.approx(
            orig.estimate.y_hat_min, rel=1e-6
        )
        again = load_artifacts(saved).predict_case(thyroid_query(), cfg)
        assert again.estimate.y_hat_min == redux.estimate.y_hat_min

    def test_no_pca_file_for_uniform_pipeline(self, train, tmp_path):
        flat = Pipeline.fit(train, FitConfig(pca_weighting=False))
        save_artifacts(flat, tmp_path)
        assert not (tmp_path / "pca.npz").exists()
        loaded = load_artifacts(tmp_path)
        assert np.array_equal(loaded.weights.weights, flat.weights.weights)

    def test_tampered_file_rejected(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        blob = (tmp_path / "index.bin").read_bytes()
        (tmp_path / "index.bin").write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
        with pytest.raises(ArtifactError):
            load_artifacts(tmp_path)

    def test_tampered_manifest_rejected(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["fit_config"]["min_cohort"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest, indent=2))
        with pytest.raises(ArtifactError):
            load_artifacts(tmp_path)

    def test_missing_file_rejected(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        (tmp_path / "importance.csv").unlink()
        with pytest.raises(ArtifactError):
            load_artifacts(tmp_path)

    def test_manifest_must_be_an_object(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ArtifactError, match="not a JSON object"):
            load_artifacts(tmp_path)

    @pytest.mark.parametrize(
        "drop, message",
        [
            (("files",), "must list exactly"),
            (("fit_config",), "fit_config"),
            (("fit_config", "min_cohort"), "fit_config"),
        ],
    )
    def test_manifest_must_be_complete(self, pipe, tmp_path, drop, message):
        save_artifacts(pipe, tmp_path)
        *path, key = drop
        rewrite_manifest(tmp_path, lambda m: dig(m, path).pop(key))
        with pytest.raises(ArtifactError, match=message):
            load_artifacts(tmp_path)

    @pytest.mark.parametrize("unlisted", [True, False])
    def test_manifest_must_list_exactly_the_loaded_files(self, pipe, tmp_path, unlisted):
        save_artifacts(pipe, tmp_path)
        if unlisted:
            change = lambda m: m["files"].pop("importance.csv")
        else:
            (tmp_path / "priors.json").write_text("{}")
            change = lambda m: m["files"].update(
                {"priors.json": hashlib.sha256(b"{}").hexdigest()}
            )
        rewrite_manifest(tmp_path, change)
        with pytest.raises(ArtifactError, match="must list exactly"):
            load_artifacts(tmp_path)

    def test_undecodable_file_is_artifact_error(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        (tmp_path / "encoder.json").write_text("[]")
        digest = hashlib.sha256(b"[]").hexdigest()
        rewrite_manifest(tmp_path, lambda m: m["files"].update({"encoder.json": digest}))
        with pytest.raises(ArtifactError, match="do not decode"):
            load_artifacts(tmp_path)

    @pytest.mark.parametrize("field, value", [("min_cohort", "5"), ("pca_top_m", 0),
                                              ("pca_weighting", None)])
    def test_bad_fit_config_value_is_artifact_error(self, pipe, tmp_path, field, value):
        save_artifacts(pipe, tmp_path)
        rewrite_manifest(tmp_path, lambda m: m["fit_config"].update({field: value}))
        with pytest.raises(ArtifactError, match=field):
            load_artifacts(tmp_path)

    def test_resigned_embedder_dim_zero_is_artifact_error(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        rewrite_manifest(tmp_path, lambda m: m["fit_config"]["embedder"].update(dim=0))
        with pytest.raises(ArtifactError, match="embedder dim"):
            load_artifacts(tmp_path)

    @pytest.mark.parametrize(
        "stale",
        [{"type": "hashing", "dim": 256, "ngram": 3}, {"type": "hashing", "dim": 64, "ngram": 2}],
    )
    def test_encoder_embedder_key_is_ignored(self, pipe, tmp_path, stale):
        """encoder.json of an older build also records the embedder; the
        manifest's fit_config.embedder is the one that is built."""
        save_artifacts(pipe, tmp_path)
        doc = json.loads((tmp_path / "encoder.json").read_text())
        doc["embedder"] = stale
        blob = json.dumps(doc, sort_keys=True, indent=2).encode("utf-8")
        (tmp_path / "encoder.json").write_bytes(blob)
        digest = hashlib.sha256(blob).hexdigest()
        rewrite_manifest(tmp_path, lambda m: m["files"].update({"encoder.json": digest}))
        loaded = load_artifacts(tmp_path)
        assert loaded.encoder.text_embedder == make_embedder(pipe.fit_config.embedder)
        cfg = ExperimentConfig(MockReferenceMean(noise_sd=5.0), mode="rag", k=4, rounds=2)
        assert loaded.predict_case(thyroid_query(), cfg) == pipe.predict_case(thyroid_query(), cfg)

    @pytest.mark.parametrize(
        "embedder",
        [HashingTextEmbedder(dim=64), HashingTextEmbedder(ngram=2), CustomEmbedder()],
    )
    def test_save_refuses_an_embedder_other_than_the_fit_configs(self, pipe, tmp_path, embedder):
        other = Pipeline(
            replace(pipe.encoder, text_embedder=embedder), pipe.weights, pipe.index, pipe.fit_config
        )
        with pytest.raises(SpecError, match="fit_config.embedder"):
            save_artifacts(other, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc["numeric_stats"]["age"].__setitem__(1, 0.0), "std must be positive"),
            # json reads Infinity and NaN as floats
            (lambda doc: doc["numeric_stats"]["age"].__setitem__(1, math.inf), "and finite"),
            (lambda doc: doc["numeric_stats"]["age"].__setitem__(1, math.nan), "std must be"),
            (lambda doc: doc["numeric_stats"]["age"].__setitem__(0, -math.inf), "mean finite"),
            (lambda doc: doc["numeric_stats"]["age"].__setitem__(0, math.nan), "mean finite"),
            (lambda doc: doc["weights"].pop(), "finite floats"),
            (lambda doc: doc["weights"].__setitem__(0, "0.5"), "finite floats"),
            (lambda doc: doc["weights"].__setitem__(0, float("nan")), "finite floats"),
            (lambda doc: doc.update(k_used="2"), "k_used an integer"),
            (lambda doc: doc.pop("weights"), "weights"),
        ],
    )
    def test_resigned_bad_encoder_doc_is_artifact_error(self, pipe, tmp_path, change, message):
        save_artifacts(pipe, tmp_path)
        doc = json.loads((tmp_path / "encoder.json").read_text())
        change(doc)
        blob = json.dumps(doc).encode("utf-8")
        (tmp_path / "encoder.json").write_bytes(blob)
        digest = hashlib.sha256(blob).hexdigest()
        rewrite_manifest(tmp_path, lambda m: m["files"].update({"encoder.json": digest}))
        with pytest.raises(ArtifactError, match=message):
            load_artifacts(tmp_path)

    def test_manifest_of_an_older_build_names_the_rebuild(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        rewrite_manifest(tmp_path, lambda m: m["files"].update({"weights.npz": "0" * 64}))
        with pytest.raises(ArtifactError, match="must list exactly.*durcast build"):
            load_artifacts(tmp_path)

    def test_remote_timeout_survives_reload(self, pipe, tmp_path):
        spec = {"type": "remote", "url": "http://127.0.0.1:9/v1", "dim": 256, "timeout_s": 5}
        remote = Pipeline(
            replace(pipe.encoder, text_embedder=make_embedder(spec)),
            pipe.weights,
            pipe.index,
            replace(pipe.fit_config, embedder=spec),
        )
        save_artifacts(remote, tmp_path)
        assert load_artifacts(tmp_path).encoder.text_embedder.timeout_s == 5.0

    def test_reloaded_pipeline_builds_the_fitted_prompts(self, pipe, saved):
        prompts = {}
        for name, p in (("fitted", pipe), ("reloaded", load_artifacts(saved))):
            backend = RecordingBackend()
            for mode, k in (("rag", 4), ("random_few_shot", 4), ("zero_shot", 0)):
                cfg = ExperimentConfig(backend, mode=mode, k=k, rounds=1)
                p.predict_case(thyroid_query(), cfg)
            prompts[name] = [(q.system_text, q.user_text) for q in backend.prompts]
        assert prompts["fitted"] == prompts["reloaded"]
        # every case block (4 + 1, 4 + 1 and 1 per mode) lists the
        # features in schema order
        order = small_schema().feature_names
        names = [
            line.split(":")[0].strip()
            for _, user in prompts["reloaded"]
            for line in user.splitlines()
            if line.split(":")[0].strip() in order
        ]
        assert names == list(order) * 11

    def test_manifest_embedder_is_compared_resolved(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        rewrite_manifest(tmp_path, lambda m: m["fit_config"].update(embedder={"type": "hashing"}))
        assert load_artifacts(tmp_path).fit_config.embedder == {"type": "hashing"}

    def test_manifest_embedder_key_its_type_does_not_take(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        spec = {"type": "hashing", "dimm": 128}
        rewrite_manifest(tmp_path, lambda m: m["fit_config"].update(embedder=spec))
        with pytest.raises(ArtifactError, match="bad fit_config: hashing embedder takes no key"):
            load_artifacts(tmp_path)

    def test_unusable_index_row_is_artifact_error(self, pipe, tmp_path):
        save_artifacts(pipe, tmp_path)
        blob = bytearray((tmp_path / "index.bin").read_bytes())
        blob[24:28] = np.array([np.nan], dtype="<f4").tobytes()
        (tmp_path / "index.bin").write_bytes(bytes(blob))
        digest = hashlib.sha256(blob).hexdigest()
        rewrite_manifest(tmp_path, lambda m: m["files"].update({"index.bin": digest}))
        with pytest.raises(ArtifactError, match="no finite norm"):
            load_artifacts(tmp_path)

    def test_index_duration_over_the_bound_is_artifact_error(self, pipe, tmp_path):
        """A re-signed index.bin whose first duration is 2e6 minutes, over
        MAX_DURATION_MIN, is refused at load."""
        save_artifacts(pipe, tmp_path)
        blob = bytearray((tmp_path / "index.bin").read_bytes())
        dim, n = np.frombuffer(bytes(blob[8:16]), dtype="<u4").tolist()
        at = 24 + 4 * n * dim
        blob[at : at + 8] = np.array([2e6], dtype="<f8").tobytes()
        (tmp_path / "index.bin").write_bytes(bytes(blob))
        digest = hashlib.sha256(blob).hexdigest()
        rewrite_manifest(tmp_path, lambda m: m["files"].update({"index.bin": digest}))
        first = pipe.index.cases[0].id
        with pytest.raises(ArtifactError, match=f"case {first!r} has duration 2000000.0, "
                                                "not positive and finite, at most 1,000,000"):
            load_artifacts(tmp_path)

    def test_train_cases(self, train, pipe, saved):
        for p in (pipe, load_artifacts(saved)):
            cases = p.train_cases()
            assert [c.id for c in cases.cases] == [
                c.id for c in train.cases if c.duration_min is not None
            ]
            assert cases.schema == train.schema

    def test_slices_of_reloaded_cases_are_the_fitted_cases(self, pipe, saved):
        loaded = load_artifacts(saved)
        for part in (slice(0, 3), slice(-2, None), slice(None, None, 2)):
            expected = list(pipe.index.cases)[part]
            assert loaded.index.cases[part] == expected, part
            assert loaded.train_cases().cases[part] == expected, part

    def test_reloaded_cases_share_equal_values(self, saved):
        """Once every case is read, equal string values are one object, and
        so are equal float values."""
        first, count = {}, 0
        for case in load_artifacts(saved).index.cases:
            for value in case.values.values():
                if isinstance(value, (str, float)):
                    count += 1
                    assert first.setdefault((type(value), repr(value)), value) is value, value
        assert len(first) < count  # some values repeat

    def test_each_file_written_once(self, pipe, tmp_path, monkeypatch):
        written = []
        real_write = Path.write_bytes

        def spy(path, data):
            written.append(path.name)
            return real_write(path, data)

        monkeypatch.setattr(Path, "write_bytes", spy)
        save_artifacts(pipe, tmp_path)
        assert sorted(written) == sorted(ARTIFACT_FILES)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACT_FILES)

    def test_missing_manifest_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_artifacts(tmp_path)


def dig(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def rewrite_manifest(root, change):
    """Apply change() to the manifest and re-sign it, so that only the
    change itself can make it invalid."""
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["fingerprint"]
    change(manifest)
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    manifest["fingerprint"] = hashlib.sha256(blob).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))


@pytest.mark.parametrize("loader", ["libyaml if built", "pure Python"])
@pytest.mark.parametrize(
    "text",
    [
        "features: !!python/object/apply:os.system [\"touch '{marker}'\"]\n",
        "!!python/object/new:os.system [\"touch '{marker}'\"]\n",
        "features:\n  - {{name: !!python/name:os.system , kind: text}}\n",
        "- a list\n- not a mapping\n",
        "features: [\n",
    ],
)
def test_hostile_schema_yaml_is_durcast_error(pipe, tmp_path, monkeypatch, loader, text):
    """A schema.yaml that asks for a Python object, names a function, is
    not a mapping or is not YAML, with the manifest re-signed over it, is a
    DurcastError, and runs nothing; with libyaml's loader and without."""
    if loader == "pure Python":
        monkeypatch.setattr(schema_mod, "_ARTIFACT_LOADER", yaml.SafeLoader)
    marker = tmp_path / "ran"
    root = tmp_path / "artifacts"
    save_artifacts(pipe, root)
    blob = text.format(marker=marker).encode("utf-8")
    (root / "schema.yaml").write_bytes(blob)
    digest = hashlib.sha256(blob).hexdigest()
    rewrite_manifest(root, lambda m: m["files"].update({"schema.yaml": digest}))
    with pytest.raises(DurcastError):
        load_artifacts(root)
    assert not marker.exists()


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(ARTIFACT_FILES),
    at=st.floats(0.0, 1.0, exclude_max=True),
    bit=st.one_of(st.none(), st.integers(0, 7)),
)
def test_corrupt_artifact_loads_only_as_durcast_error(saved, name, at, bit):
    """One file truncated at a byte (bit None) or with one bit flipped, and
    the manifest re-signed over it, so decoding is reached: loading, and a
    prediction from what loads, either succeed or raise a DurcastError. A
    corrupt manifest is not re-signed."""
    with tempfile.TemporaryDirectory() as out:
        root = Path(out)
        for path in saved.iterdir():
            (root / path.name).write_bytes(path.read_bytes())
        blob = bytearray((root / name).read_bytes())
        i = int(at * len(blob))
        if bit is None:
            del blob[i:]
        else:
            blob[i] ^= 1 << bit
        (root / name).write_bytes(bytes(blob))
        if name != "manifest.json":
            digest = hashlib.sha256(bytes(blob)).hexdigest()
            rewrite_manifest(root, lambda m: m["files"].update({name: digest}))
        try:
            cfg = ExperimentConfig(MockReferenceMean(), mode="rag", k=4, rounds=1)
            load_artifacts(root).predict_case(thyroid_query(), cfg)
        except DurcastError:
            pass


# Training strata draw key values from "a"/"b"; queries may also use the
# unseen "z". Any key value, training or query, may be missing. A row is
# (department, surgery_name, surgery_level, duration, age).
def _rows(values, duration):
    key = st.one_of(st.none(), st.sampled_from(values))
    level = st.one_of(st.none(), st.sampled_from(LEVELS[:2]))
    return st.tuples(key, key, level, duration, st.integers(20, 80))


def _mk(case_id, row):
    dept, surgery, level, dur, age = row
    return mk_case(case_id, dur, age=float(age), department=dept, surgery=surgery, level=level)


# Two labelled rows that differ only in surgery_level, the second at rank 0,
# behind one unlabelled row: PCA weights the second to the zero vector, so
# the fit reaches lift_zero_weights.
LIFTED_ROWS = [(None, None, None, None, 20), (None, None, "II", 30.0, 20),
               (None, None, "I", 20.0, 20)]


def _two_labelled(rows):
    return sum(r[3] is not None for r in rows) >= 2


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        _rows(("a", "b"), st.one_of(st.none(), st.integers(20, 400).map(float))),
        min_size=3,
        max_size=14,
    ).filter(_two_labelled),
    queries=st.lists(_rows(("a", "b", "z"), st.none()), min_size=1, max_size=6),
    min_cohort=st.integers(1, 4),
)
@example(rows=LIFTED_ROWS, queries=[(None, None, None, None, 20)], min_cohort=1)
def test_reloaded_priors_equal_fitted(rows, queries, min_cohort):
    """Priors are recomputed from the indexed cases, not persisted: the
    fitted pipeline and its save/load round trip agree on every query."""
    train = CaseSet(cases=[_mk(f"t{i}", r) for i, r in enumerate(rows)], schema=small_schema())
    config = FitConfig(
        min_cohort=min_cohort, embedder={"type": "hashing", "dim": 16, "ngram": 3}
    )
    fitted = Pipeline.fit(train, config)
    with tempfile.TemporaryDirectory() as out:
        save_artifacts(fitted, out)
        loaded = load_artifacts(out)
    for i, row in enumerate(queries):
        q = _mk(f"q{i}", row)
        want = compute_prior(q, train, min_cohort)
        assert fitted.priors.for_query(q) == want
        assert loaded.priors.for_query(q) == want


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        _rows(("a", "b"), st.one_of(st.none(), st.integers(20, 400).map(float))),
        min_size=3,
        max_size=14,
    ).filter(_two_labelled),
    queries=st.lists(_rows(("a", "b", "z"), st.integers(20, 400).map(float)), min_size=2,
                     max_size=6),
    id_pool=st.integers(1, 14),
    pca=st.booleans(),
)
# The third query has the training mean age and no other feature: its
# PCA-weighted encoding is zero, so it has no cosine direction.
@example(
    rows=[(None, "a", None, 20.0, 40), (None, "a", None, 20.0, 58), (None, "a", None, 20.0, 58)],
    queries=[(None, None, None, 20.0, 20), (None, None, None, 20.0, 20),
             (None, None, None, 20.0, 52)],
    id_pool=1,
    pca=True,
)
def test_reloaded_index_equals_fitted(tmp_path_factory, rows, queries, id_pool, pca):
    """Fit rounds the index rows to the precision index.bin stores, so a
    fitted pipeline and its reload hold the same bits and give every query
    the same outcome: the same references with the same similarities, or
    the same error (a query with no weighted direction is a ZeroVector on
    both); run_experiment writes the same JSONL bytes with either, or
    raises the same error."""
    cases = [_mk(f"t{i % id_pool}", r) for i, r in enumerate(rows)]
    train = CaseSet(cases=cases, schema=small_schema())
    config = FitConfig(pca_weighting=pca, embedder={"type": "hashing", "dim": 16, "ngram": 3})
    fitted = Pipeline.fit(train, config)
    out = tmp_path_factory.mktemp("reload")
    save_artifacts(fitted, out / "art")
    loaded = load_artifacts(out / "art")
    assert fitted.index.vectors.dtype == loaded.index.vectors.dtype == np.float32
    assert fitted.index.vectors.tobytes() == loaded.index.vectors.tobytes()
    units = [p.index.vectors.astype(np.float64) for p in (fitted, loaded)]
    units = [unit / np.linalg.norm(unit, axis=1, keepdims=True) for unit in units]
    assert units[0].tobytes() == units[1].tobytes()

    test = CaseSet(cases=[_mk(f"q{i}", r) for i, r in enumerate(queries)], schema=small_schema())

    def outcome(found):
        if isinstance(found, DurcastError):
            return type(found), str(found)
        refs, (candidates, sims) = found
        return candidates.tolist(), sims.tobytes(), [(c.id, s) for c, s in refs.references]

    fitted_found, loaded_found = (
        [outcome(f) for f in p.retrieve_references_batch(test.cases, k=3, expansion_factor=2)]
        for p in (fitted, loaded)
    )
    assert fitted_found == loaded_found
    cfg = ExperimentConfig(MockReferenceMean(noise_sd=5.0), mode="rag", k=3, rounds=2, fit=config)
    runs = []
    for name, p in (("fitted", fitted), ("loaded", loaded)):
        path = out / f"{name}.jsonl"
        try:
            run_experiment(cfg, train, test, pipeline=p, jsonl_path=path)
            error = None
        except DurcastError as exc:
            error = type(exc), str(exc)
        runs.append((error, path.read_bytes() if path.exists() else None))
    assert runs[0] == runs[1]
