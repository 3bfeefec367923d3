"""Metric formulas, experiment protocol runner, and ablation grids."""

import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import mk_case, seeded_faults
from durcast import evaluate as evaluate_mod, index as index_mod
from durcast.aggregate import STRATEGIES
from durcast.errors import (
    BadAxisValue,
    ModeArgumentMismatch,
    NonPositiveTruth,
    ParseError,
    PromptTooLong,
    SpecError,
    NonFiniteVector,
    TooFewSamples,
    ZeroVector,
)
from durcast.evaluate import (
    ABLATION_AXES,
    ExperimentConfig,
    _cell_config,
    compute_metrics,
    global_median_baseline,
    metrics_csv_row,
    parse_axis_values,
    prediction_json,
    run_ablation_grid,
    run_experiment,
    write_grid_csv,
    write_metrics_csv,
)
from durcast import llm as llm_mod
from durcast.llm import HttpChatBackend, LlmBackend, MockReferenceMean, MockScripted
from durcast.pipeline import FitConfig, Pipeline, load_artifacts, save_artifacts
from durcast.priors import PRIOR_MODES
from durcast.prompting import load_template
from durcast.schema import CaseSet, split
from durcast.synthetic import SyntheticSpec, generate_synthetic


def loop_metrics(pairs):
    m = len(pairs)
    mae = sum(abs(y - p) for y, p in pairs) / m
    rmse = math.sqrt(sum((y - p) ** 2 for y, p in pairs) / m)
    mape = 100.0 * sum(abs(y - p) / y for y, p in pairs) / m
    mean_y = sum(y for y, _ in pairs) / m
    ss_res = sum((y - p) ** 2 for y, p in pairs)
    ss_tot = sum((y - mean_y) ** 2 for y, _ in pairs)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else (1.0 if ss_res == 0.0 else -math.inf)
    return mae, rmse, r2, mape


class TestComputeMetrics:
    def test_worked_example(self):
        report = compute_metrics([(100.0, 110.0), (200.0, 190.0)])
        assert report.mae_min == 10.0
        assert report.rmse_min == 10.0
        assert report.r2 == 0.96
        assert report.mape_pct == pytest.approx(7.5, abs=1e-12)
        assert report.m == 2
        assert report.failed == 0

    def test_matches_loop_oracle(self):
        rng = random.Random(23)
        pairs = [
            (rng.uniform(10.0, 700.0), rng.uniform(5.0, 750.0)) for _ in range(200)
        ]
        report = compute_metrics(pairs)
        mae, rmse, r2, mape = loop_metrics(pairs)
        assert report.mae_min == pytest.approx(mae, rel=1e-12)
        assert report.rmse_min == pytest.approx(rmse, rel=1e-12)
        assert report.r2 == pytest.approx(r2, rel=1e-12)
        assert report.mape_pct == pytest.approx(mape, rel=1e-12)

    def test_default_and_explicit_ids(self):
        report = compute_metrics([(100.0, 90.0), (120.0, 110.0)])
        assert [pc[0] for pc in report.per_case] == ["case-0", "case-1"]
        named = compute_metrics([(100.0, 90.0), (120.0, 110.0)], ids=["a", "b"])
        assert named.per_case == (("a", 100.0, 90.0), ("b", 120.0, 110.0))

    def test_constant_truths(self):
        perfect = compute_metrics([(100.0, 100.0), (100.0, 100.0)])
        assert perfect.r2 == 1.0
        off = compute_metrics([(100.0, 90.0), (100.0, 105.0)])
        assert off.r2 == -math.inf

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            compute_metrics([(100.0, 90.0)])

    def test_nonpositive_truth(self):
        with pytest.raises(NonPositiveTruth):
            compute_metrics([(100.0, 90.0), (0.0, 50.0)])

    def test_failed_passthrough(self):
        report = compute_metrics([(100.0, 90.0), (120.0, 110.0)], failed=3)
        assert report.failed == 3


class TestExperimentConfig:
    def backend(self):
        return MockReferenceMean()

    def test_defaults(self):
        cfg = ExperimentConfig(self.backend())
        assert (cfg.mode, cfg.k, cfg.rounds) == ("rag", 8, 5)
        assert cfg.expansion_factor == 10
        assert cfg.w_prior == 0.9
        assert cfg.strategy == "bayesian"

    def test_fit_config_projection(self):
        assert ExperimentConfig(self.backend()).fit == FitConfig()
        fit = FitConfig(pca_weighting=False, min_cohort=9)
        assert ExperimentConfig(self.backend(), fit=fit).fit is fit

    def test_unknown_mode(self):
        with pytest.raises(ModeArgumentMismatch):
            ExperimentConfig(self.backend(), mode="few_shot")

    def test_zero_shot_rejects_k(self):
        with pytest.raises(ModeArgumentMismatch):
            ExperimentConfig(self.backend(), mode="zero_shot", k=8)

    def test_zero_shot_accepts_k_zero(self):
        cfg = ExperimentConfig(self.backend(), mode="zero_shot", k=0)
        assert cfg.k == 0

    def test_reference_modes_need_k(self):
        with pytest.raises(SpecError):
            ExperimentConfig(self.backend(), mode="rag", k=0)

    def test_rounds_positive(self):
        with pytest.raises(SpecError):
            ExperimentConfig(self.backend(), rounds=0)

    def test_unknown_strategy(self):
        with pytest.raises(SpecError):
            ExperimentConfig(self.backend(), strategy="mode_of_modes")

    @pytest.mark.parametrize(
        "over",
        [{"w_prior": math.nan}, {"w_prior": math.inf}, {"w_prior": -1.0},
         {"mode": "zero_shot", "k": 0, "w_prior": -1.0}, {"prior_mode": "loose"}],
    )
    def test_bad_prior_settings(self, over):
        with pytest.raises(SpecError):
            ExperimentConfig(self.backend(), **over)
        with pytest.raises(SpecError):  # an ablation cell's replace checks too
            replace(ExperimentConfig(self.backend()), **over)

    @pytest.mark.parametrize(
        "over",
        [{"rounds": "5"}, {"rounds": 2.0}, {"k": 2.5}, {"k": True}, {"k": "3"},
         {"mode": "zero_shot", "k": 0.0}, {"expansion_factor": 1.5},
         {"expansion_factor": 0}, {"expansion_factor": True}, {"w_prior": "0.5"},
         {"w_prior": True}, {"postprocess": "no"}, {"postprocess": 0}],
        ids=repr,
    )
    def test_bad_setting_types(self, over):
        """A setting of the wrong type is a SpecError at construction, not a
        TypeError later in the run."""
        with pytest.raises(SpecError):
            ExperimentConfig(self.backend(), **over)


@pytest.fixture(scope="module")
def fitted(corpus_module):
    return Pipeline.fit(corpus_module)


@pytest.fixture(scope="module")
def corpus_module():
    from conftest import tiny_corpus

    return tiny_corpus()


@pytest.fixture()
def test_set(corpus_module):
    cases = [c for c in corpus_module.cases if c.id.startswith("thy-")][:4]
    return CaseSet(cases=tuple(cases), schema=corpus_module.schema)


class TestPredictionJson:
    def test_rag_document(self, fitted):
        query = mk_case("q-rag", 131.0, department="thyroid_breast",
                        surgery="thyroidectomy", note="neck ultrasound reviewed")
        cfg = ExperimentConfig(MockReferenceMean(), mode="rag", k=4, rounds=2, seed=3)
        pred = fitted.predict_case(query, cfg)
        doc = prediction_json(pred)
        assert doc["id"] == "q-rag"
        assert doc["mode"] == "rag"
        assert doc["y"] == 131.0
        assert doc["strategy"] == "bayesian"
        assert len(doc["rounds"]) == 2
        assert doc["rounds"][0]["round"] == 1
        assert doc["rounds"][0]["temperature"] == 0.0
        assert len(doc["references"]) == 4
        assert {"id", "similarity", "duration_min"} <= set(doc["references"][0])
        assert doc["fallback_level"] == 0
        assert doc["prior"]["cohort_size"] == 8
        assert doc["prior"]["median_min"] == 130.0
        json.dumps(doc)

    def test_zero_shot_document(self, fitted):
        query = mk_case("q-zero", None)
        cfg = ExperimentConfig(MockReferenceMean(), mode="zero_shot", k=0, rounds=1, seed=3)
        pred = fitted.predict_case(query, cfg)
        doc = prediction_json(pred)
        assert doc["y"] is None
        assert "references" not in doc
        assert "prior" not in doc
        assert doc["y_hat"] == 90.0


class OneBadBackend(LlmBackend):
    """Unparseable output for one query id, a fixed answer otherwise."""

    kind = "one_bad"
    max_retries = 0
    concurrency_limit = 4

    def __init__(self, bad_id):
        self.bad_id = bad_id

    def complete(self, prompt, temperature, round_index):
        if prompt.metadata.query_id == self.bad_id:
            return "no estimate available"
        return "PREDICTION: 120 minutes"


class RaisingBackend(LlmBackend):
    """Raises a DurcastError other than AllRoundsFailed for one query id."""

    kind = "raising"
    concurrency_limit = 4

    def __init__(self, bad_id):
        self.bad_id = bad_id

    def complete(self, prompt, temperature, round_index):
        if prompt.metadata.query_id == self.bad_id:
            raise PromptTooLong("context window exceeded")
        return "PREDICTION: 120 minutes"


class TestRunExperiment:
    def test_rag_over_test_set(self, corpus_module, fitted, test_set, tmp_path):
        cfg = ExperimentConfig(MockReferenceMean(), mode="rag", k=4, rounds=2, seed=5)
        out = tmp_path / "cases.jsonl"
        report = run_experiment(cfg, corpus_module, test_set,
                                pipeline=fitted, jsonl_path=out)
        assert report.m == 4
        assert report.failed == 0
        assert [pc[0] for pc in report.per_case] == [c.id for c in test_set.cases]
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        for line, case in zip(lines, test_set.cases):
            doc = json.loads(line)
            assert doc["id"] == case.id
            assert json.dumps(doc, sort_keys=True) == line

    def test_deterministic_reruns(self, corpus_module, fitted, test_set, tmp_path):
        cfg = ExperimentConfig(MockReferenceMean(), mode="rag", k=4, rounds=3, seed=9)
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a = run_experiment(cfg, corpus_module, test_set, pipeline=fitted,
                           jsonl_path=a_path)
        b = run_experiment(cfg, corpus_module, test_set, pipeline=fitted,
                           jsonl_path=b_path)
        assert a.mae_min == b.mae_min
        assert a.per_case == b.per_case
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_failed_cases_counted_not_scored(self, corpus_module, fitted, test_set,
                                             tmp_path):
        bad_id = test_set.cases[1].id
        cfg = ExperimentConfig(OneBadBackend(bad_id), mode="rag", k=4, rounds=2)
        out = tmp_path / "cases.jsonl"
        report = run_experiment(cfg, corpus_module, test_set,
                                pipeline=fitted, jsonl_path=out)
        assert report.failed == 1
        assert report.m == 3
        assert bad_id not in [pc[0] for pc in report.per_case]
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert docs[1] == {"id": bad_id, "error": "all_rounds_failed"}

    def test_case_error_recorded_not_raised(self, corpus_module, fitted, test_set,
                                            tmp_path):
        bad_id = test_set.cases[2].id
        cfg = ExperimentConfig(RaisingBackend(bad_id), mode="rag", k=4, rounds=2)
        out = tmp_path / "cases.jsonl"
        report = run_experiment(cfg, corpus_module, test_set,
                                pipeline=fitted, jsonl_path=out)
        assert (report.failed, report.m) == (1, 3)
        assert bad_id not in [pc[0] for pc in report.per_case]
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert docs[2] == {"id": bad_id, "error": "PromptTooLong"}
        assert [d["id"] for d in docs] == [c.id for c in test_set.cases]

    def test_all_failed_names_the_cause(self, corpus_module, fitted, test_set, tmp_path):
        cfg = ExperimentConfig(MockScripted(outputs=("no idea",)), mode="rag", k=4, rounds=1)
        out = tmp_path / "cases.jsonl"
        with pytest.raises(TooFewSamples) as exc:
            run_experiment(cfg, corpus_module, test_set, pipeline=fitted, jsonl_path=out)
        assert str(exc.value) == "0 of 4 cases answered; failed: all_rounds_failed 4"
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert docs == [{"id": c.id, "error": "all_rounds_failed"} for c in test_set.cases]

    def test_fits_pipeline_when_not_supplied(self, corpus_module, test_set):
        cfg = ExperimentConfig(MockReferenceMean(), mode="rag", k=3, rounds=1)
        report = run_experiment(cfg, corpus_module, test_set)
        assert report.m == 4

    def test_small_test_set_rejected(self, corpus_module, fitted):
        only = CaseSet(cases=corpus_module.cases[:1], schema=corpus_module.schema)
        cfg = ExperimentConfig(MockReferenceMean())
        with pytest.raises(TooFewSamples):
            run_experiment(cfg, corpus_module, only, pipeline=fitted)


@pytest.fixture(scope="module")
def synthetic_split():
    """A 700-case training set, its fitted pipeline and a 200-case test set."""
    corpus = generate_synthetic(SyntheticSpec(n_cases=900), seed=3)
    train = CaseSet(cases=corpus.cases[:700], schema=corpus.schema)
    test = CaseSet(cases=corpus.cases[700:], schema=corpus.schema)
    return train, Pipeline.fit(train), test


def loop_run(pipe, cfg, test):
    """Reference evaluate: predict_case per case, each retrieving its own
    references, then the same JSONL lines and metrics."""
    template = load_template()
    lines, pairs, ids = [], [], []
    for case in test.cases:
        pred = pipe.predict_case(case, cfg, template)
        lines.append(json.dumps(prediction_json(pred), sort_keys=True) + "\n")
        pairs.append((case.duration_min, pred.estimate.y_hat_min))
        ids.append(case.id)
    return "".join(lines).encode("utf-8"), compute_metrics(pairs, ids)


class TestBatchedRetrieval:
    def cfg(self, **kw):
        backend = MockReferenceMean(noise_sd=10.0, seed=1, concurrency_limit=4)
        return ExperimentConfig(backend, mode="rag", k=8, rounds=3, seed=2, **kw)

    @pytest.mark.parametrize(
        ("postprocess", "block_queries"), [(True, None), (False, None), (True, 3)]
    )
    def test_run_experiment_equals_per_case_loop(self, synthetic_split, tmp_path,
                                                  monkeypatch, postprocess, block_queries):
        train, pipe, test = synthetic_split
        if block_queries is not None:
            monkeypatch.setattr(index_mod, "_BLOCK_SCORES", block_queries * len(pipe.index))
        cfg = self.cfg(postprocess=postprocess)
        out = tmp_path / "cases.jsonl"
        report = run_experiment(cfg, train, test, pipeline=pipe, jsonl_path=out)
        lines, expected = loop_run(pipe, cfg, test)
        assert out.read_bytes() == lines
        assert report == expected

    def test_schema_mismatch_isolated(self, synthetic_split, tmp_path):
        train, pipe, test = synthetic_split
        cases = list(test.cases[:10])
        bad = replace(cases[4], values={**cases[4].values, "asa_grade": "ZZZ"})
        cfg = self.cfg()
        clean_path, mixed_path = tmp_path / "clean.jsonl", tmp_path / "mixed.jsonl"
        clean = run_experiment(cfg, train, CaseSet(cases[:4] + cases[5:], test.schema),
                               pipeline=pipe, jsonl_path=clean_path)
        mixed = run_experiment(cfg, train, CaseSet(cases[:4] + [bad] + cases[5:], test.schema),
                               pipeline=pipe, jsonl_path=mixed_path)
        assert (mixed.m, mixed.failed) == (9, 1)
        lines = mixed_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[4]) == {"id": bad.id, "error": "SchemaMismatch"}
        assert lines[:4] + lines[5:] == clean_path.read_text(encoding="utf-8").splitlines()
        assert mixed.per_case == clean.per_case

    def test_unretrievable_query_isolated(self, synthetic_split, tmp_path, monkeypatch):
        train, pipe, test = synthetic_split
        cases = CaseSet(test.cases[:6], test.schema)
        bad_id = cases.cases[2].id
        encode_matrix = pipe.encoder.encode_matrix

        def zero_for_bad(batch):
            matrix, errors = encode_matrix(batch)
            matrix[[case.id == bad_id for case in batch.cases]] = 0.0
            return matrix, errors

        cfg = self.cfg()
        clean_path, mixed_path = tmp_path / "clean.jsonl", tmp_path / "mixed.jsonl"
        run_experiment(cfg, train, cases, pipeline=pipe, jsonl_path=clean_path)
        monkeypatch.setattr(pipe.encoder, "encode_matrix", zero_for_bad)
        report = run_experiment(cfg, train, cases, pipeline=pipe, jsonl_path=mixed_path)
        assert (report.m, report.failed) == (5, 1)
        lines = mixed_path.read_text(encoding="utf-8").splitlines()
        clean = clean_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[2]) == {"id": bad_id, "error": "ZeroVector"}
        assert lines[:2] + lines[3:] == clean[:2] + clean[3:]
        with pytest.raises(ZeroVector):
            pipe.retrieve_references(cases.cases[2], k=8)


    @pytest.mark.parametrize("age", [math.inf, math.nan])
    def test_non_finite_query_isolated(self, synthetic_split, tmp_path, age):
        train, pipe, test = synthetic_split
        cases = list(test.cases[:6])
        cases[3] = replace(cases[3], values={**cases[3].values, "age": age})
        out = tmp_path / "cases.jsonl"
        report = run_experiment(self.cfg(), train, CaseSet(cases, test.schema),
                                pipeline=pipe, jsonl_path=out)
        assert (report.m, report.failed) == (5, 1)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[3]) == {"id": cases[3].id, "error": "NonFiniteVector"}
        with pytest.raises(NonFiniteVector):
            pipe.retrieve_references(cases[3], k=8)


class BrokenBackend(LlmBackend):
    """Raises an error that is not a DurcastError: a defect, not a case
    failure."""

    kind = "broken"

    def complete(self, prompt, temperature, round_index):
        raise RuntimeError("backend defect")


_FAN_OUT_BACKENDS = {
    "mock_reference_mean": lambda limit: MockReferenceMean(
        noise_sd=10.0, seed=1, concurrency_limit=limit
    ),
    "mock_scripted": lambda limit: MockScripted(
        outputs=("PREDICTION: 77", "about 90", "no idea"), concurrency_limit=limit
    ),
}


class TestHttpFanOut:
    """Against a loopback chat server: concurrency_limit bounds the calls
    in flight, and the outputs do not depend on it."""

    @pytest.mark.parametrize("limit", [1, 2, 3, 10])
    def test_requests_in_flight_within_limit(self, fitted, corpus_module, stub_server, limit):
        server = stub_server(latency_s=0.02)
        backend = HttpChatBackend(endpoint=server.url, concurrency_limit=limit)
        test = CaseSet(cases=corpus_module.cases[:6], schema=corpus_module.schema)
        cfg = ExperimentConfig(backend, mode="rag", k=3, rounds=5)
        assert run_experiment(cfg, corpus_module, test, pipeline=fitted).m == 6
        assert len(server.requests) == 30
        assert 1 <= server.peak <= limit
        if limit > 1:
            assert server.peak > 1  # rounds or cases did overlap

    def test_outputs_do_not_depend_on_limit(self, fitted, corpus_module, stub_server, tmp_path):
        test = CaseSet(cases=corpus_module.cases, schema=corpus_module.schema)
        runs = []
        for limit in (1, 4, 10):
            server = stub_server(seeded_faults)
            backend = HttpChatBackend(endpoint=server.url, concurrency_limit=limit)
            cfg = ExperimentConfig(backend, mode="rag", k=3, rounds=5, seed=4)
            out = tmp_path / f"limit{limit}.jsonl"
            report = run_experiment(cfg, corpus_module, test, pipeline=fitted, jsonl_path=out)
            runs.append((report, out.read_bytes(), len(server.requests)))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][2] > 5 * len(test.cases)  # faults were retried

    def test_next_query_takes_the_idle_threads(self, fitted, corpus_module, stub_server):
        """Two cases of 3 rounds at limit 2: 6 calls on 2 threads take 3
        latencies, where one case at a time would take 4."""
        latency = 0.3
        server = stub_server(latency_s=latency)
        backend = HttpChatBackend(endpoint=server.url, concurrency_limit=2)
        test = CaseSet(cases=corpus_module.cases[:2], schema=corpus_module.schema)
        cfg = ExperimentConfig(backend, mode="rag", k=3, rounds=3)
        start = time.perf_counter()
        assert run_experiment(cfg, corpus_module, test, pipeline=fitted).m == 2
        assert time.perf_counter() - start < 3.5 * latency
        assert server.peak == 2



class TestFanOut:
    """A backend without a call pool, as every mock, runs its cases inline
    on the calling thread at any concurrency_limit, so every limit writes
    the same bytes."""

    @pytest.mark.parametrize("backend", sorted(_FAN_OUT_BACKENDS))
    def test_inline_equals_pool(self, synthetic_split, tmp_path, backend):
        train, pipe, test = synthetic_split
        cases = list(test.cases)
        # one failed line among the answers
        cases[7] = replace(cases[7], values={**cases[7].values, "asa_grade": "ZZZ"})
        runs = []
        for limit in (1, 4, 10):
            cfg = ExperimentConfig(
                _FAN_OUT_BACKENDS[backend](limit), mode="rag", k=8, rounds=3, seed=2
            )
            out = tmp_path / f"limit{limit}.jsonl"
            report = run_experiment(
                cfg, train, CaseSet(cases, test.schema), pipeline=pipe, jsonl_path=out
            )
            runs.append((report, out.read_bytes()))
        assert runs[0][0].failed == 1
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("limit", [1, 10])
    def test_one_worker_uses_no_pool(self, synthetic_split, monkeypatch, limit):
        train, pipe, test = synthetic_split

        def no_pool(*args, **kwargs):
            raise AssertionError("a mock backend's run started a thread pool")

        monkeypatch.setattr(evaluate_mod, "ThreadPoolExecutor", no_pool)
        cfg = ExperimentConfig(_FAN_OUT_BACKENDS["mock_reference_mean"](limit), k=4, rounds=1)
        assert run_experiment(cfg, train, test, pipeline=pipe).m == len(test)

    def test_mocks_run_rounds_on_the_case_thread(self, synthetic_split, monkeypatch):
        train, pipe, test = synthetic_split

        def no_pool(*args, **kwargs):
            raise AssertionError("a mock backend's rounds started a thread pool")

        monkeypatch.setattr(llm_mod, "ThreadPoolExecutor", no_pool)
        cfg = ExperimentConfig(_FAN_OUT_BACKENDS["mock_scripted"](10), k=4, rounds=5)
        assert run_experiment(cfg, train, test, pipeline=pipe).m > 0

    @pytest.mark.parametrize("limit", [1, 4])
    def test_other_errors_propagate(self, synthetic_split, tmp_path, limit):
        train, pipe, test = synthetic_split
        cfg = ExperimentConfig(BrokenBackend(concurrency_limit=limit), k=4, rounds=1)
        out = tmp_path / "cases.jsonl"
        with pytest.raises(RuntimeError, match="backend defect"):
            run_experiment(cfg, train, test, pipeline=pipe, jsonl_path=out)
        assert not out.exists()


class TestGlobalMedianBaseline:
    def test_constant_predictor(self, corpus_module, test_set):
        import numpy as np

        report = global_median_baseline(corpus_module.durations(), test_set)
        median = float(np.median(corpus_module.durations()))
        for _, truth, pred in report.per_case:
            assert pred == median
        assert report.m == 4

    def test_requires_durations(self, corpus_module, test_set):
        empty = CaseSet(
            cases=tuple(mk_case(f"n{i}") for i in range(3)),
            schema=corpus_module.schema,
        )
        with pytest.raises(TooFewSamples):
            global_median_baseline(empty.durations(), test_set)


class TestAblation:
    def base(self, **kw):
        kw.setdefault("mode", "rag")
        kw.setdefault("k", 3)
        kw.setdefault("rounds", 1)
        return ExperimentConfig(MockReferenceMean(), **kw)

    def test_axis_catalogue(self):
        assert set(ABLATION_AXES) == {
            "k", "rounds", "expansion", "strategy", "w_prior",
            "pca_on_off", "prior_on_off", "postprocess_on_off",
        }

    def test_cell_config_mappings(self):
        base = self.base()
        assert _cell_config(base, "k", 5).k == 5
        assert _cell_config(base, "rounds", 2).rounds == 2
        assert _cell_config(base, "expansion", 4).expansion_factor == 4
        assert _cell_config(base, "strategy", "median").strategy == "median"
        assert _cell_config(base, "w_prior", 2).w_prior == 2.0
        assert _cell_config(base, "pca_on_off", False).fit.pca_weighting is False
        assert _cell_config(base, "postprocess_on_off", False).postprocess is False

    def test_prior_off_means_zero_weight(self):
        base = self.base(w_prior=0.9)
        assert _cell_config(base, "prior_on_off", False).w_prior == 0.0
        assert _cell_config(base, "prior_on_off", True) is base

    @pytest.mark.parametrize(
        ("axis", "value"),
        [
            ("k", 0),
            ("k", "3"),
            ("k", True),
            ("rounds", -1),
            ("rounds", True),
            ("expansion", 0),
            ("expansion", 1.5),
            ("strategy", "harmonic"),
            ("w_prior", -0.5),
            ("pca_on_off", 1),
            ("prior_on_off", "yes"),
            ("postprocess_on_off", 0),
        ],
    )
    def test_bad_axis_values(self, axis, value):
        with pytest.raises(BadAxisValue):
            _cell_config(self.base(), axis, value)

    @pytest.mark.parametrize(
        ("axis", "text", "values"),
        [
            ("k", " 4 ,8", [4, 8]),
            ("rounds", "1, 3", [1, 3]),
            ("expansion", " 4 ", [4]),
            ("strategy", "median, bayesian", ["median", "bayesian"]),
            ("w_prior", "0.5,2", [0.5, 2.0]),
            ("pca_on_off", "on,OFF", [True, False]),
            ("prior_on_off", "yes,0", [True, False]),
            ("postprocess_on_off", " true ,No", [True, False]),
        ],
    )
    def test_axis_reads_its_values(self, axis, text, values):
        assert list(map(repr, parse_axis_values(axis, text))) == list(map(repr, values))

    @pytest.mark.parametrize(
        ("axis", "text", "bad"),
        [("pca_on_off", "on,offf", "'offf'"), ("k", "two", "'two'"), ("w_prior", "x", "'x'")],
    )
    def test_axis_refuses_what_it_cannot_read(self, axis, text, bad):
        with pytest.raises(ParseError, match=f"cannot parse --values for axis {axis}: .*{bad}"):
            parse_axis_values(axis, text)

    def test_unknown_axis_and_empty_values(self, corpus_module, test_set):
        with pytest.raises(BadAxisValue):
            run_ablation_grid(self.base(), "knn", [1], corpus_module, test_set)
        with pytest.raises(BadAxisValue):
            run_ablation_grid(self.base(), "k", [], corpus_module, test_set)

    def test_grid_rows_and_csv(self, corpus_module, test_set, tmp_path):
        out = tmp_path / "grid.csv"
        rows = run_ablation_grid(self.base(), "k", [2, 4], corpus_module,
                                 test_set, csv_path=out)
        assert [v for v, _ in rows] == [2, 4]
        assert all(r.m == 4 for _, r in rows)
        text = out.read_text(encoding="utf-8").splitlines()
        assert text[0] == "axis,value,m,failed,mae_min,rmse_min,r2,mape_pct"
        assert text[1].startswith("k,2,4,0,")
        assert len(text) == 3

    def test_pipeline_cache(self, corpus_module, test_set, monkeypatch):
        fits = []
        orig = Pipeline.fit.__func__

        def counting(cls, *args, **kwargs):
            fits.append(1)
            return orig(cls, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "fit", classmethod(counting))
        run_ablation_grid(self.base(), "k", [2, 3, 4], corpus_module, test_set)
        assert len(fits) == 1
        fits.clear()
        run_ablation_grid(self.base(), "pca_on_off", [True, False],
                          corpus_module, test_set)
        assert len(fits) == 2

    def test_cells_do_not_share_backend_state(self, corpus_module, test_set):
        backend = MockScripted(outputs=("PREDICTION: 77", "PREDICTION: 90"))
        base = ExperimentConfig(backend, mode="rag", k=3, rounds=1)
        rows = run_ablation_grid(base, "k", [4, 4], corpus_module, test_set)
        assert rows[0][1] == rows[1][1]

    def test_supplied_pipeline_reused_when_fit_matches(self, corpus_module, fitted,
                                                      test_set, monkeypatch):
        fits = []
        orig = Pipeline.fit.__func__

        def counting(cls, train, config=None):
            fits.append(orig(cls, train, config))
            return fits[-1]

        monkeypatch.setattr(Pipeline, "fit", classmethod(counting))
        run_ablation_grid(self.base(), "pca_on_off", [True, False, True],
                          corpus_module, test_set, pipeline=fitted)
        assert [p.fit_config for p in fits] == [FitConfig(pca_weighting=False)]
        assert fits[0].encoder == fitted.encoder

    @pytest.mark.parametrize("pca, values", [
        (True, [True, False]), (True, [False, True]),
        (False, [True, False]), (False, [False, True]),
    ], ids=["values0", "values1", "no-pca-values0", "no-pca-values1"])
    def test_pca_grid_from_artifacts_equals_grid_from_train(self, tmp_path, pca, values):
        """With rows lacking a duration, which the artifacts do not hold,
        the cell refit from PCA-weighted or from --no-pca artifacts is the
        cell fitted from the training rows, and fits the loaded encoder."""
        corpus = generate_synthetic(SyntheticSpec(n_cases=300), seed=1)
        train, _, test = split(corpus, (0.8, 0.1, 0.1), seed=1)
        train = CaseSet(
            cases=[replace(c, duration_min=None) if i % 5 == 4 else c
                   for i, c in enumerate(train.cases)],
            schema=train.schema,
        )
        base = ExperimentConfig(MockReferenceMean(noise_sd=10.0))
        built = FitConfig(pca_weighting=pca)
        save_artifacts(Pipeline.fit(train, built), tmp_path / "artifacts")
        loaded = load_artifacts(tmp_path / "artifacts")
        run_ablation_grid(replace(base, fit=loaded.fit_config), "pca_on_off", values,
                          loaded.train_cases(), test, tmp_path / "loaded.csv", pipeline=loaded)
        run_ablation_grid(replace(base, fit=built), "pca_on_off", values, train, test,
                          tmp_path / "fitted.csv")
        assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "fitted.csv").read_bytes()
        refit = Pipeline.fit(loaded.train_cases(), FitConfig(pca_weighting=not pca))
        assert refit.encoder == loaded.encoder


GOLDEN_GRID = Path(__file__).parent / "data" / "golden_strategy_grid_{}.csv"


@pytest.fixture(scope="module")
def seed1_split():
    """The train and test splits `durcast generate --n 300 --seed 1` writes."""
    corpus = generate_synthetic(SyntheticSpec(n_cases=300), seed=1)
    train, _, test = split(corpus, (0.8, 0.1, 0.1), seed=1)
    return train, test


class TestStrategyGrid:
    @pytest.mark.parametrize("prior_mode", PRIOR_MODES)
    def test_golden_grid(self, seed1_split, tmp_path, prior_mode):
        # every strategy over the seed-1 corpus, pinned byte for byte
        base = ExperimentConfig(MockReferenceMean(noise_sd=10.0), prior_mode=prior_mode)
        run_ablation_grid(base, "strategy", list(STRATEGIES), *seed1_split,
                          csv_path=tmp_path / "grid.csv")
        golden = GOLDEN_GRID.with_name(GOLDEN_GRID.name.format(prior_mode))
        assert (tmp_path / "grid.csv").read_bytes() == golden.read_bytes()

    def test_two_rounds_give_finite_metrics(self, seed1_split):
        # quantile_average over two distinct rounds keeps neither inside
        # [P25, P75]; every strategy must still score every case
        base = ExperimentConfig(MockReferenceMean(noise_sd=10.0), rounds=2)
        for strategy, report in run_ablation_grid(base, "strategy", list(STRATEGIES),
                                                  *seed1_split):
            assert report.failed == 0, strategy
            values = (report.mae_min, report.rmse_min, report.r2, report.mape_pct)
            assert all(math.isfinite(v) for v in values), strategy


class TestCsvHelpers:
    def test_metrics_csv_row_uses_repr(self):
        report = compute_metrics([(100.0, 110.0), (200.0, 190.0)])
        row = metrics_csv_row("rag", report)
        assert row["experiment"] == "rag"
        assert row["mae_min"] == repr(10.0)
        assert row["mape_pct"] == repr(report.mape_pct)

    def test_write_metrics_csv_round_trip(self, tmp_path):
        report = compute_metrics([(100.0, 110.0), (200.0, 190.0)])
        path = tmp_path / "metrics.csv"
        write_metrics_csv([metrics_csv_row("rag", report)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "experiment,m,failed,mae_min,rmse_min,r2,mape_pct"
        assert lines[1] == "rag,2,0,10.0,10.0,0.96,7.500000000000001"

    def test_write_metrics_csv_rejects_empty(self, tmp_path):
        with pytest.raises(SpecError):
            write_metrics_csv([], tmp_path / "x.csv")

    def test_write_grid_csv(self, tmp_path):
        report = compute_metrics([(100.0, 110.0), (200.0, 190.0)])
        path = tmp_path / "grid.csv"
        write_grid_csv("k", [(4, report)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "k,4,2,0,10.0,10.0,0.96,7.500000000000001"
