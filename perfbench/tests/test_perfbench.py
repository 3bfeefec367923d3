"""Tests for the benchmark's own code: stub replay, span arithmetic,
the retrieval oracle, and agreement with BENCHMARK.json."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest
import requests

import checks
import layers
import run
from stub_server import FAULTS, StubChatServer, StubParams, decide_outcome
from tracer import Span, Tracer, percentile, self_times_ns

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SHARES = {"503": 0.15, "429": 0.1, "malformed": 0.1, "no_sentinel": 0.1, "unparseable": 0.1}


def _body(i: int) -> bytes:
    return json.dumps(
        {
            "model": "m",
            "messages": [
                {"role": "system", "content": "s"},
                {"role": "user", "content": f"observed duration: {100 + i} minutes"},
            ],
            "temperature": 0.1 * (i % 3),
        }
    ).encode()


def _replay(params: StubParams, bodies: list[bytes]) -> list[tuple[int, bytes]]:
    server = StubChatServer(params)
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    try:
        out = []
        for body in bodies:
            resp = requests.post(server.url + "/v1/chat/completions", data=body, timeout=10)
            out.append((resp.status_code, resp.content))
        requests.post(server.url + "/reset", timeout=10).raise_for_status()
        again = [
            requests.post(server.url + "/v1/chat/completions", data=b, timeout=10)
            for b in bodies
        ]
        assert [(r.status_code, r.content) for r in again] == out
        return out
    finally:
        server.shutdown()
        server.server_close()
        worker.join(timeout=10)
        assert not worker.is_alive()


class TestStubServer:
    # Retries resend the same body, so repeats are part of the sequence.
    BODIES = [_body(i) for i in range(12) for _ in range(3)]

    def test_same_seed_replays_the_same_sequence(self):
        params = StubParams(seed=7, latency_ms=0.0, shares=SHARES)
        first = _replay(params, self.BODIES)
        assert first == _replay(params, self.BODIES)
        assert len({status for status, _ in first}) > 1

    def test_retry_of_a_body_gets_a_fresh_draw(self):
        params = StubParams(seed=7, shares=SHARES)
        draws = {decide_outcome(params, _body(0), seen) for seen in range(40)}
        assert len(draws) > 2

    def test_other_seed_gives_another_sequence(self):
        a = [decide_outcome(StubParams(seed=1, shares=SHARES), b, 0) for b in self.BODIES]
        b = [decide_outcome(StubParams(seed=2, shares=SHARES), b, 0) for b in self.BODIES]
        assert a != b

    def test_shares_are_respected(self):
        params = StubParams(seed=3, shares={"503": 0.25})
        outcomes = [decide_outcome(params, _body(i), 0) for i in range(4000)]
        assert set(outcomes) == {"503", "ok"}
        assert abs(outcomes.count("503") / 4000 - 0.25) < 0.03

    def test_rejects_bad_shares(self):
        with pytest.raises(ValueError):
            StubParams(shares={"503": 0.6, "429": 0.5})
        with pytest.raises(ValueError):
            StubParams(shares={"teapot": 0.1})

    def test_ok_reply_is_the_reference_mean(self):
        server = StubChatServer(StubParams(seed=1, latency_ms=0.0, noise_sd=0.0))
        worker = threading.Thread(target=server.serve_forever, daemon=True)
        worker.start()
        try:
            resp = requests.post(server.url + "/v1/chat/completions", data=_body(20), timeout=10)
            content = resp.json()["choices"][0]["message"]["content"]
        finally:
            server.shutdown()
            server.server_close()
            worker.join(timeout=10)
        assert content.endswith("PREDICTION: 120 minutes")


def _span(sid, start, end, parent=-1):
    return Span(sid, f"s{sid}", start, end, parent, "q", "pass1", "")


class TestSpans:
    def test_self_time_subtracts_children(self):
        spans = [_span(0, 0, 100), _span(1, 10, 30, 0), _span(2, 40, 70, 0)]
        assert self_times_ns(spans) == {0: 50, 1: 20, 2: 30}

    def test_overlapping_children_count_once(self):
        # Children on two threads may overlap; their union is 10..50.
        spans = [_span(0, 0, 100), _span(1, 10, 30, 0), _span(2, 20, 50, 0)]
        assert self_times_ns(spans)[0] == 60

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span(0, 0, 100), _span(1, 90, 130, 0), _span(2, 95, 99, 0)]
        assert self_times_ns(spans)[0] == 90

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        spans = [_span(0, 0, 100), _span(1, 10, 60, 0), _span(2, 20, 40, 1)]
        assert self_times_ns(spans) == {0: 50, 1: 30, 2: 20}

    def test_wrapped_calls_nest_and_inherit_the_query_id(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda case: inner(case["n"]), qid_of=lambda a, k: a[0]["id"])
        assert outer({"id": "case-9", "n": 1}) == 2
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent == by_name["outer"].sid
        assert by_name["outer"].parent == -1
        assert by_name["inner"].qid == by_name["outer"].qid == "case-9"

    def test_failed_call_records_its_error(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap("boom", boom)()
        assert tracer.spans[0].error == "KeyError"

    def test_install_and_uninstall_restore_the_original(self):
        class Owner:
            def method(self):
                return "plain"

            @classmethod
            def build(cls):
                return cls

        tracer = Tracer()
        original = Owner.__dict__["method"]
        assert tracer.install(Owner, "method", lambda f: tracer.wrap("m", f))
        assert tracer.install(Owner, "build", lambda f: tracer.wrap("b", f))
        assert not tracer.install(Owner, "absent", lambda f: f)
        assert Owner().method() == "plain" and Owner.build() is Owner
        assert [s.name for s in tracer.spans] == ["m", "b"]
        tracer.uninstall()
        assert Owner.__dict__["method"] is original
        assert isinstance(Owner.__dict__["build"], classmethod)

    @pytest.mark.parametrize("q", [0, 10, 50, 90, 95, 100])
    def test_percentile_matches_numpy(self, q):
        values = [5.0, 1.0, 9.0, 3.0, 7.5, 2.0, 8.0]
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


class TestRetrievalOracle:
    def _case(self, seed=0, n=300, dim=12, m=20):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        ids = [f"c{i:04d}" for i in range(n)]
        query = rng.normal(size=dim)
        sims = checks.oracle_similarities(vectors, query)
        order = sorted(range(n), key=lambda i: (-sims[i], ids[i]))[:m]
        returned = [(ids[i], float(sims[i])) for i in order]
        return returned, ids, sims, m

    def test_accepts_the_oracle_order(self):
        returned, ids, sims, m = self._case()
        assert checks.check_retrieval(returned, ids, sims, m) == []

    def test_rejects_a_permuted_result(self):
        returned, ids, sims, m = self._case()
        permuted = list(returned)
        permuted[2], permuted[7] = permuted[7], permuted[2]
        assert checks.check_retrieval(permuted, ids, sims, m)

    def test_rejects_a_missing_best_candidate(self):
        returned, ids, sims, m = self._case()
        worst = min(range(len(ids)), key=lambda i: sims[i])
        assert checks.check_retrieval(
            returned[1:] + [(ids[worst], float(sims[worst]))], ids, sims, m
        )

    def test_accepts_rounding_level_ties_in_either_order(self):
        returned, ids, sims, m = self._case()
        sims = sims.copy()
        a, b = (ids.index(returned[3][0]), ids.index(returned[4][0]))
        sims[b] = sims[a] - 1e-13
        order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))[:m]
        swapped = [(ids[i], float(sims[i])) for i in order]
        swapped[3], swapped[4] = swapped[4], swapped[3]
        assert checks.check_retrieval(swapped, ids, sims, m) == []

    def test_durcast_index_matches_the_oracle(self):
        from durcast.pipeline import Pipeline
        from durcast.schema import CaseSet
        from durcast.synthetic import SyntheticSpec, generate_synthetic

        corpus = generate_synthetic(SyntheticSpec(n_cases=330), seed=5)
        train = CaseSet(corpus.cases[:300], corpus.schema)
        pipe = Pipeline.fit(train)
        assert checks.check_index_against_oracle(pipe, corpus.cases[300:310], 80) == []


class TestReportCheck:
    def test_flags_out_of_range_and_miscounted_reports(self):
        from durcast.evaluate import compute_metrics

        report = compute_metrics([(100.0, 90.0), (120.0, 900.0)], ["a", "b"], failed=1)
        problems = checks.check_report(report, attempted=4)
        assert any("attempted 4" in p for p in problems)
        assert any("case b" in p for p in problems)
        assert checks.check_report(compute_metrics([(100.0, 90.0), (80.0, 85.0)]), 2) == []


class TestSpecAgreement:
    def test_workloads_match(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)

    def test_http_why_records_the_stub_parameters(self):
        why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "rag-http-4k")
        stub = run.WORKLOADS["rag-http-4k"].stub
        assert f"{stub['latency_ms']:g} ms latency" in why
        for kind, share in stub["shares"].items():
            assert f"{kind.replace('_', ' ')} {share * 100:g}%" in why
        assert set(stub["shares"]) <= set(FAULTS)

    def test_per_layer_names_match_what_the_trace_derives(self, tmp_path):
        from durcast.synthetic import default_schema

        metrics, _ = layers.derive(Tracer(), default_schema().key_attributes, tmp_path, 2, 1.0, 1.0)
        metrics["evaluate.mae_min"] = 0.0
        assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])


def test_stub_tally_must_match_the_client_counts():
    tally = {"ok": 170, "503": 10, "429": 4, "malformed": 2, "no_sentinel": 6, "unparseable": 8}
    per_pass = {"llm.complete_calls": 100, "llm.retries.transport": 8, "llm.retries.unparseable": 4}
    assert checks.check_stub_tally(tally, 2, per_pass) == []
    assert checks.check_stub_tally(tally, 2, dict(per_pass, **{"llm.retries.transport": 7}))
