"""Output parsing, temperature scheduling, mock and HTTP backends, and the
multi-round ensemble driver."""

import pytest

from conftest import mk_case, mk_prior, small_schema
from durcast.errors import (
    AllRoundsFailed,
    BackendTransportError,
    BackendUnreachable,
    BadN,
    UnparseableOutput,
)
from durcast.llm import (
    HttpChatBackend,
    LlmBackend,
    MockEchoPrior,
    MockReferenceMean,
    MockScripted,
    parse_duration,
    predict_ensemble,
    schedule_temperatures,
    stable_seed,
)
from durcast.prompting import build_prompt, load_template

TPL = load_template()


def rag_prompt(query_id="q-1", durations=(110.0, 120.0, 130.0), median=120.0):
    from durcast.index import ReferenceSet

    cases = [mk_case(f"r{i}", d) for i, d in enumerate(durations)]
    refs = ReferenceSet(
        references=tuple((c, 0.9) for c in cases),
        fallback_level=0,
        stratum_descriptor="department=thyroid_breast",
        iqr_bounds=None,
    )
    return build_prompt(
        mk_case(query_id), refs, mk_prior(median=median), "rag", TPL, small_schema()
    )


def zero_prompt(query_id="q-1"):
    return build_prompt(mk_case(query_id), None, None, "zero_shot", TPL, small_schema())


class TestParseDuration:
    def test_sentinel(self):
        assert parse_duration("PREDICTION: 120 minutes") == 120.0

    def test_last_sentinel_wins(self):
        text = "PREDICTION: 90 minutes... wait.\nPREDICTION: 105 minutes"
        assert parse_duration(text) == 105.0

    def test_case_insensitive_and_spacing(self):
        assert parse_duration("prediction :  95.5 minutes") == 95.5

    def test_falls_back_to_last_number(self):
        assert parse_duration("probably 90 to 100 minutes") == 100.0

    def test_clamps_to_ceiling(self):
        assert parse_duration("PREDICTION: 5000 minutes") == 810.0
        assert parse_duration("PREDICTION: 900", max_minutes=600.0) == 600.0

    def test_clamps_to_floor(self):
        assert parse_duration("PREDICTION: 0 minutes") == 1.0

    def test_thousands_separator(self):
        assert parse_duration("PREDICTION: 1,200 minutes", max_minutes=2000.0) == 1200.0
        assert parse_duration("about 1,200 minutes", max_minutes=2000.0) == 1200.0

    def test_hours(self):
        assert parse_duration("PREDICTION: 2 hours") == 120.0
        assert parse_duration("1.5 h") == 90.0
        assert parse_duration("PREDICTION: 3 hrs") == 180.0
        assert parse_duration("PREDICTION: 2 hospital days") == 2.0

    def test_negative_is_unparseable(self):
        with pytest.raises(UnparseableOutput, match="negative"):
            parse_duration("PREDICTION: -5")
        # a hyphen after a word is no sign
        assert parse_duration("ASA-3, about 95 minutes") == 95.0

    def test_range_reads_midpoint(self):
        assert parse_duration("PREDICTION: 90-120 minutes") == 105.0
        assert parse_duration("PREDICTION: 1\u20132 hours") == 90.0

    def test_rejects_numberless_text(self):
        with pytest.raises(UnparseableOutput):
            parse_duration("I cannot answer that.")


class TestSchedule:
    def test_first_round_deterministic(self):
        temps = schedule_temperatures(6, seed=3)
        assert temps[0] == 0.0
        assert len(temps) == 6
        assert all(0.05 <= t <= 0.4 for t in temps[1:])

    def test_single_round(self):
        assert schedule_temperatures(1, seed=0) == [0.0]

    def test_pure_function_of_seed(self):
        assert schedule_temperatures(5, seed=9) == schedule_temperatures(5, seed=9)
        assert schedule_temperatures(5, seed=9) != schedule_temperatures(5, seed=10)

    def test_rejects_bad_n(self):
        with pytest.raises(BadN):
            schedule_temperatures(0, seed=1)


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert stable_seed(1, "a") == stable_seed(1, "a")
        assert stable_seed(1, "a") != stable_seed(1, "b")
        assert stable_seed(1, "a") != stable_seed(2, "a")

    def test_fits_uint64(self):
        s = stable_seed("anything", 42)
        assert 0 <= s < 2**64

    def test_ambiguous_concatenations_differ(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")


class TestMockBackends:
    def test_echo_prior_answers_median(self):
        backend = MockEchoPrior()
        assert backend.complete(rag_prompt(median=120.0), 0.0, 1) == (
            "PREDICTION: 120 minutes"
        )

    def test_echo_prior_refuses_without_prior(self):
        backend = MockEchoPrior()
        text = backend.complete(zero_prompt(), 0.0, 1)
        with pytest.raises(UnparseableOutput):
            parse_duration(text)

    def test_reference_mean(self):
        backend = MockReferenceMean()
        assert backend.complete(rag_prompt(durations=(100.0, 110.0, 120.0)), 0.0, 1) == (
            "PREDICTION: 110 minutes"
        )

    def test_reference_mean_fallback_without_references(self):
        backend = MockReferenceMean()
        assert backend.complete(zero_prompt(), 0.0, 1) == "PREDICTION: 90 minutes"
        assert MockReferenceMean(fallback_min=75.0).complete(zero_prompt(), 0.0, 1) == (
            "PREDICTION: 75 minutes"
        )

    def test_reference_mean_noise_keyed_by_query_and_round(self):
        backend = MockReferenceMean(noise_sd=20.0, seed=4)
        p = rag_prompt(query_id="q-A")
        assert backend.complete(p, 0.0, 1) == backend.complete(p, 0.35, 1)
        assert backend.complete(p, 0.0, 1) != backend.complete(p, 0.0, 2)
        assert backend.complete(p, 0.0, 1) != backend.complete(
            rag_prompt(query_id="q-B"), 0.0, 1
        )
        assert MockReferenceMean(noise_sd=20.0, seed=4).complete(p, 0.0, 1) == (
            backend.complete(p, 0.0, 1)
        )

    def test_reference_mean_floors_at_one_minute(self):
        backend = MockReferenceMean(fallback_min=-50.0)
        assert backend.complete(zero_prompt(), 0.0, 1) == "PREDICTION: 1 minutes"

    def test_scripted_cycles(self):
        backend = MockScripted(outputs=("PREDICTION: 10", "PREDICTION: 20"))
        outs = [backend.complete(zero_prompt(), 0.0, 1) for _ in range(4)]
        assert outs == ["PREDICTION: 10", "PREDICTION: 20"] * 2

    def test_scripted_cycles_per_query(self):
        backend = MockScripted(outputs=("PREDICTION: 10", "PREDICTION: 20"))
        a, b = zero_prompt("q-a"), zero_prompt("q-b")
        outs = [backend.complete(p, 0.0, 1) for p in (a, b, b, a, a)]
        assert outs == ["PREDICTION: 10", "PREDICTION: 10", "PREDICTION: 20",
                        "PREDICTION: 20", "PREDICTION: 10"]


class FlakyBackend(LlmBackend):
    """Raises transport errors for the first `failures` calls, then succeeds."""

    kind = "flaky"
    max_retries = 2

    def __init__(self, failures, text="PREDICTION: 100 minutes"):
        self.failures = failures
        self.text = text
        self.calls = 0

    def complete(self, prompt, temperature, round_index):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendTransportError("synthetic outage")
        return self.text


class TestPredictEnsemble:
    def test_runs_scheduled_rounds(self):
        backend = MockScripted(
            outputs=("PREDICTION: 100", "PREDICTION: 110", "PREDICTION: 120")
        )
        ens = predict_ensemble(rag_prompt(), backend, 3, seed=5)
        assert ens.retained_n == 3
        assert ens.requested_n == 3
        assert ens.values() == [100.0, 110.0, 120.0]
        assert [r.temperature for r in ens.rounds] == schedule_temperatures(3, seed=5)
        assert [r.round_index for r in ens.rounds] == [1, 2, 3]

    def test_clamps_and_flags(self):
        backend = MockScripted(outputs=("PREDICTION: 900 minutes",))
        ens = predict_ensemble(rag_prompt(), backend, 1, seed=0)
        assert ens.values() == [810.0]
        assert ens.rounds[0].clamped is True
        assert ens.rounds[0].raw_text == "PREDICTION: 900 minutes"

    def test_retries_transport_failures(self):
        backend = FlakyBackend(failures=2)
        ens = predict_ensemble(rag_prompt(), backend, 1, seed=0)
        assert ens.values() == [100.0]
        assert backend.calls == 3  # two failures plus the success

    def test_drops_round_after_retry_budget(self):
        backend = FlakyBackend(failures=3)  # round 1 exhausts its 3 attempts
        ens = predict_ensemble(rag_prompt(), backend, 2, seed=0)
        assert [r.round_index for r in ens.rounds] == [2]

    def test_strict_raises_when_first_round_unreachable(self):
        backend = FlakyBackend(failures=99)
        with pytest.raises(BackendUnreachable):
            predict_ensemble(rag_prompt(), backend, 2, seed=0, strict=True)

    def test_nonstrict_unparseable_rounds_do_not_trip_strict_check(self):
        backend = MockScripted(outputs=("no estimate possible",))
        with pytest.raises(AllRoundsFailed):
            predict_ensemble(rag_prompt(), backend, 2, seed=0, strict=True)

    def test_all_rounds_failed(self):
        backend = MockScripted(outputs=("nothing here",))
        with pytest.raises(AllRoundsFailed):
            predict_ensemble(rag_prompt(), backend, 3, seed=0)

    def test_unparseable_retries_then_recovers(self):
        backend = MockScripted(outputs=("nope", "PREDICTION: 130 minutes"))
        ens = predict_ensemble(rag_prompt(), backend, 1, seed=0)
        assert ens.values() == [130.0]


class TestBackendKnobs:
    @pytest.mark.parametrize(
        "cls", [HttpChatBackend, MockEchoPrior, MockReferenceMean, MockScripted]
    )
    def test_shared_knobs_set_at_construction(self, cls):
        backend = cls(max_retries=0, concurrency_limit=3)
        assert (backend.max_retries, backend.concurrency_limit) == (0, 3)
        assert (cls().max_retries, cls().concurrency_limit) == (2, 10)

    def test_only_http_has_a_timeout(self):
        assert HttpChatBackend(timeout_s=2.0).timeout_s == 2.0
        for backend in (MockEchoPrior(), MockReferenceMean(), MockScripted()):
            assert not hasattr(backend, "timeout_s")


class TestHttpChatBackend:
    def _payload(self, text):
        return {"choices": [{"message": {"content": text}}]}

    def test_request_shape_and_parse(self, stub_server, monkeypatch):
        server = stub_server([(200, self._payload("PREDICTION: 140 minutes"))])
        monkeypatch.setenv("DURCAST_API_KEY", "sk-test-123")
        backend = HttpChatBackend(endpoint=server.url + "/v1/chat/completions",
                                  model_name="demo-model")
        prompt = rag_prompt()
        out = backend.complete(prompt, 0.25, 2)
        assert out == "PREDICTION: 140 minutes"
        req = server.requests[0]
        assert req["path"] == "/v1/chat/completions"
        assert req["headers"]["Authorization"] == "Bearer sk-test-123"
        assert req["body"]["model"] == "demo-model"
        assert req["body"]["temperature"] == 0.25
        roles = [m["role"] for m in req["body"]["messages"]]
        assert roles == ["system", "user"]
        assert req["body"]["messages"][0]["content"] == prompt.system_text
        assert req["body"]["messages"][1]["content"] == prompt.user_text

    def test_no_auth_header_without_key(self, stub_server, monkeypatch):
        monkeypatch.delenv("DURCAST_API_KEY", raising=False)
        server = stub_server([(200, self._payload("PREDICTION: 1"))])
        backend = HttpChatBackend(endpoint=server.url)
        backend.complete(zero_prompt(), 0.0, 1)
        assert "Authorization" not in server.requests[0]["headers"]

    def test_http_error_is_transport_error(self, stub_server):
        server = stub_server([(500, {"error": "boom"})])
        backend = HttpChatBackend(endpoint=server.url)
        with pytest.raises(BackendTransportError):
            backend.complete(zero_prompt(), 0.0, 1)

    def test_malformed_payload_is_transport_error(self, stub_server):
        server = stub_server([(200, {"unexpected": []})])
        backend = HttpChatBackend(endpoint=server.url)
        with pytest.raises(BackendTransportError):
            backend.complete(zero_prompt(), 0.0, 1)

    def test_connection_refused_is_transport_error(self):
        backend = HttpChatBackend(endpoint="http://127.0.0.1:9/nothing", timeout_s=2.0)
        with pytest.raises(BackendTransportError):
            backend.complete(zero_prompt(), 0.0, 1)
