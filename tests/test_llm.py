"""Output parsing, temperature scheduling, mock and HTTP backends, and the
multi-round ensemble driver."""

import json
import math
import threading
import time
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chat_reply, mk_case, mk_prior, small_schema
from durcast.errors import (
    AllRoundsFailed,
    BackendTransportError,
    BackendUnreachable,
    BadN,
    SpecError,
    UnparseableOutput,
)
from durcast import transport
from durcast.llm import (
    CallPool,
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
        mk_case(query_id), refs, mk_prior(median=median), TPL, small_schema()
    )


def zero_prompt(query_id="q-1"):
    return build_prompt(mk_case(query_id), None, None, TPL, small_schema())


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

    PIECES = ["PREDICTION:", "prediction :", " ", "\n", "-", "\u2013", ",", ".", "h", "hours",
              "hrs", " minutes", " to ", "ASA", "0", "7", "12", "1,200", "\u0663", "9" * 400]

    @settings(max_examples=500, deadline=None)
    @given(
        raw=st.one_of(st.text(), st.lists(st.sampled_from(PIECES), max_size=12).map("".join)),
        max_minutes=st.floats(1.0, 1e6),
    )
    def test_any_text_reads_in_range_or_is_unparseable(self, raw, max_minutes):
        """Whatever a backend replies, the round gets minutes in
        [1, max_minutes] or an UnparseableOutput to retry on; nothing else."""
        try:
            minutes = parse_duration(raw, max_minutes)
        except UnparseableOutput:
            return
        assert isinstance(minutes, float) and math.isfinite(minutes)
        assert 1.0 <= minutes <= max_minutes


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

    def test_reference_mean_overflowing_draw_is_a_failed_round(self):
        backend = MockReferenceMean(noise_sd=1e308, max_retries=0)
        replies = [backend.complete(rag_prompt(), 0.0, i) for i in range(1, 41)]
        refused = replies.count("I cannot estimate this duration.")
        assert 0 < refused < 40
        ens = predict_ensemble(rag_prompt(), backend, 40, seed=0)
        assert len(ens.rounds) == 40 - refused

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

    def test_strict_inline_stops_after_round_one(self):
        """On the calling thread, a strict failure of round 1 starts no
        further round: a backend that is down sees round 1's attempts only."""
        rounds_seen = []

        class Down(LlmBackend):
            kind = "down"

            def complete(self, prompt, temperature, round_index):
                rounds_seen.append(round_index)
                raise BackendTransportError("synthetic outage")

        backend = Down(max_retries=2)
        assert backend.call_pool is None
        with pytest.raises(BackendUnreachable):
            predict_ensemble(rag_prompt(), backend, 5, seed=0, strict=True)
        assert rounds_seen == [1, 1, 1]

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

    @pytest.mark.parametrize(
        "cls", [HttpChatBackend, MockEchoPrior, MockReferenceMean, MockScripted]
    )
    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_retries": -1},
            {"max_retries": 1.0},
            {"max_retries": True},
            {"max_retries": "2"},
            {"concurrency_limit": 0},
            {"concurrency_limit": -3},
            {"concurrency_limit": True},
            {"concurrency_limit": 2.0},
        ],
    )
    def test_bad_knobs_rejected(self, cls, knobs):
        with pytest.raises(SpecError):
            cls(**knobs)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf"), True, "5"])
    def test_bad_timeout_rejected(self, timeout):
        with pytest.raises(SpecError, match="timeout_s"):
            HttpChatBackend(timeout_s=timeout)

    @pytest.mark.parametrize(
        "cls, knob, value",
        [
            (MockReferenceMean, "noise_sd", -1.0),
            (MockReferenceMean, "noise_sd", float("nan")),
            (MockReferenceMean, "noise_sd", float("inf")),
            (MockReferenceMean, "noise_sd", "1"),
            (MockReferenceMean, "noise_sd", True),
            (MockReferenceMean, "noise_sd", None),
            (MockScripted, "outputs", ()),
            (MockScripted, "outputs", "PREDICTION: 5"),
            (MockScripted, "outputs", ["PREDICTION: 5"]),
            (MockScripted, "outputs", ("PREDICTION: 5", 5)),
        ],
    )
    def test_bad_mock_knob_rejected(self, cls, knob, value):
        with pytest.raises(SpecError, match=knob):
            cls(**{knob: value})

    def test_call_pool(self):
        assert HttpChatBackend(concurrency_limit=3).call_pool.limit == 3
        assert HttpChatBackend(concurrency_limit=1).call_pool is None
        for cls in (MockEchoPrior, MockReferenceMean, MockScripted):
            assert cls(concurrency_limit=10).call_pool is None


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

    @pytest.mark.parametrize(
        "payload",
        [
            b"<html>not json</html>",
            b"\xff\xfe",
            {"choices": []},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": 120}}]},
            [1, 2],
        ],
    )
    def test_malformed_reply_is_transport_error(self, stub_server, payload):
        server = stub_server([(200, payload)])
        with pytest.raises(BackendTransportError):
            HttpChatBackend(endpoint=server.url).complete(zero_prompt(), 0.0, 1)

    @pytest.mark.parametrize("status", [301, 404, 429, 503])
    def test_non_2xx_is_transport_error(self, stub_server, status):
        server = stub_server([(status, self._payload("PREDICTION: 1"))])
        with pytest.raises(BackendTransportError, match=str(status)):
            HttpChatBackend(endpoint=server.url).complete(zero_prompt(), 0.0, 1)

    @pytest.mark.parametrize(
        "endpoint", ["ftp://127.0.0.1/x", "127.0.0.1:8000", "http://h:x/", "http://[::1/v1"]
    )
    def test_bad_endpoint_is_transport_error(self, endpoint):
        with pytest.raises(BackendTransportError):
            HttpChatBackend(endpoint=endpoint).complete(zero_prompt(), 0.0, 1)

    @pytest.mark.parametrize("url", ["ftp://x/y", "http://[::1/v1", "http:///v1"])
    def test_url_that_is_not_http_is_transport_failure(self, url):
        with pytest.raises(transport.TransportFailure, match="not an http"):
            transport.post_json(url, {}, 1.0)

    def test_slow_server_past_timeout_is_transport_error(self, stub_server):
        server = stub_server(latency_s=0.6)
        backend = HttpChatBackend(endpoint=server.url, timeout_s=0.1)
        start = time.perf_counter()
        with pytest.raises(BackendTransportError, match="timed out"):
            backend.complete(zero_prompt(), 0.0, 1)
        assert time.perf_counter() - start < 0.5


class TestProxies:
    """Requests follow HTTP(S)_PROXY, ALL_PROXY and NO_PROXY from the
    environment."""

    def test_http_proxy_receives_request(self, stub_server, no_proxy_env):
        target, proxy = stub_server(), stub_server()
        no_proxy_env.setenv("HTTP_PROXY", proxy.url)
        endpoint = target.url + "/v1/chat/completions"
        assert HttpChatBackend(endpoint=endpoint).complete(zero_prompt(), 0.0, 1)
        assert target.requests == []
        assert [r["path"] for r in proxy.requests] == [endpoint]
        assert proxy.requests[0]["body"]["temperature"] == 0.0

    def test_no_proxy_bypasses_proxy(self, stub_server, no_proxy_env):
        target, proxy = stub_server(), stub_server()
        no_proxy_env.setenv("HTTP_PROXY", proxy.url)
        no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
        HttpChatBackend(endpoint=target.url + "/v1/chat").complete(zero_prompt(), 0.0, 1)
        assert proxy.requests == []
        assert [r["path"] for r in target.requests] == ["/v1/chat"]

    def test_proxy_credentials_become_basic_auth(self, stub_server, no_proxy_env):
        proxy = stub_server()
        host = proxy.url.removeprefix("http://")
        no_proxy_env.setenv("http_proxy", f"http://us%40er:p%3Ass@{host}")
        HttpChatBackend(endpoint="http://chat.invalid/v1").complete(zero_prompt(), 0.0, 1)
        # base64 of "us@er:p:ss"
        assert proxy.requests[0]["headers"]["Proxy-Authorization"] == "Basic dXNAZXI6cDpzcw=="

    def test_https_is_tunnelled_through_proxy(self, stub_server, no_proxy_env):
        proxy = stub_server()
        no_proxy_env.setenv("https_proxy", proxy.url)
        backend = HttpChatBackend(endpoint="https://chat.invalid:8443/v1/chat")
        with pytest.raises(BackendTransportError, match="405"):
            backend.complete(zero_prompt(), 0.0, 1)
        assert proxy.requests == [{"method": "CONNECT", "path": "chat.invalid:8443"}]

    def test_all_proxy_serves_a_scheme_without_its_own(self, stub_server, no_proxy_env):
        proxy = stub_server()
        no_proxy_env.setenv("ALL_PROXY", proxy.url)
        HttpChatBackend(endpoint="http://chat.invalid/v1").complete(zero_prompt(), 0.0, 1)
        assert [r["path"] for r in proxy.requests] == ["http://chat.invalid/v1"]

    def test_non_http_proxy_is_transport_error(self, no_proxy_env):
        no_proxy_env.setenv("ALL_PROXY", "socks5://127.0.0.1:1080")
        with pytest.raises(BackendTransportError, match="unsupported proxy"):
            HttpChatBackend(endpoint="http://chat.invalid/v1").complete(zero_prompt(), 0.0, 1)

    def test_ipv6_literal_tunnels_to_default_port(self, stub_server, no_proxy_env):
        proxy = stub_server()
        no_proxy_env.setenv("https_proxy", proxy.url)
        with pytest.raises(BackendTransportError, match="405"):
            HttpChatBackend(endpoint="https://[::1]/v1").complete(zero_prompt(), 0.0, 1)
        assert [r["path"].rsplit(":", 1) for r in proxy.requests] == [["::1", "443"]]


class TestEndpointUrl:
    def test_ipv6_literal_without_port(self, no_proxy_env):
        conn, target, _ = transport._open(urllib.parse.urlsplit("http://[::1]/v1?x=1"), 1.0)
        assert (conn.host, conn.port, target) == ("::1", 80, "/v1?x=1")

    def test_url_credentials_become_basic_auth(self, stub_server, no_proxy_env):
        server = stub_server()
        host = server.url.removeprefix("http://")
        backend = HttpChatBackend(endpoint=f"http://us%40er:p%3Ass@{host}/v1")
        backend.complete(zero_prompt(), 0.0, 1)
        no_proxy_env.setenv("DURCAST_API_KEY", "k")
        backend.complete(zero_prompt(), 0.0, 1)
        auth = [r["headers"]["Authorization"] for r in server.requests]
        assert auth == ["Basic dXNAZXI6cDpzcw==", "Bearer k"]

    def test_url_credentials_stay_out_of_a_proxied_request_line(self, stub_server, no_proxy_env):
        proxy = stub_server()
        no_proxy_env.setenv("HTTP_PROXY", proxy.url)
        HttpChatBackend(endpoint="http://u:p@chat.invalid/v1").complete(zero_prompt(), 0.0, 1)
        assert [r["path"] for r in proxy.requests] == ["http://chat.invalid/v1"]
        assert proxy.requests[0]["headers"]["Host"] == "chat.invalid"

    def test_redirect_is_not_followed(self, stub_server):
        server = stub_server([(307, {"error": "moved"})])
        with pytest.raises(BackendTransportError, match="307"):
            HttpChatBackend(endpoint=server.url).complete(zero_prompt(), 0.0, 1)
        assert len(server.requests) == 1


class TestConcurrentRounds:
    """The HTTP backend runs a query's rounds at once, up to its limit."""

    def test_rounds_overlap(self, stub_server):
        latency = 0.2
        server = stub_server(latency_s=latency)
        backend = HttpChatBackend(endpoint=server.url, concurrency_limit=4)
        start = time.perf_counter()
        ens = predict_ensemble(rag_prompt(), backend, 4, seed=3)
        assert time.perf_counter() - start < 2 * latency
        assert server.peak == 4
        assert [r.round_index for r in ens.rounds] == [1, 2, 3, 4]
        assert [r.temperature for r in ens.rounds] == schedule_temperatures(4, seed=3)
        sent = sorted(r["body"]["temperature"] for r in server.requests)
        assert sent == sorted(schedule_temperatures(4, seed=3))

    def test_width_caps_requests_in_flight(self, stub_server):
        server = stub_server(latency_s=0.05)
        backend = HttpChatBackend(endpoint=server.url, concurrency_limit=2)
        assert predict_ensemble(rag_prompt(), backend, 5, seed=0).retained_n == 5
        assert server.peak == 2

    def test_retries_keep_their_round(self, stub_server):
        """Each round retries its own body; a dropped round leaves a gap."""

        def respond(body, seen):
            temperature = json.loads(body)["temperature"]
            if temperature == 0.0 or seen == 0:
                return 503, {"error": "overloaded"}
            return 200, chat_reply(f"PREDICTION: {int(temperature * 1000)}")

        server = stub_server(respond)
        backend = HttpChatBackend(endpoint=server.url, concurrency_limit=5, max_retries=1)
        ens = predict_ensemble(rag_prompt(), backend, 5, seed=7)
        temps = schedule_temperatures(5, seed=7)
        assert [r.round_index for r in ens.rounds] == [2, 3, 4, 5]
        assert ens.values() == [float(int(t * 1000)) for t in temps[1:]]
        assert len(server.requests) == 10

    def test_strict_first_round_down_raises(self, stub_server):
        def respond(body, seen):
            if json.loads(body)["temperature"] == 0.0:
                return 503, {"error": "overloaded"}
            return 200, chat_reply("PREDICTION: 90")

        server = stub_server(respond)
        backend = HttpChatBackend(endpoint=server.url, concurrency_limit=5)
        with pytest.raises(BackendUnreachable):
            predict_ensemble(rag_prompt(), backend, 5, seed=0, strict=True)
        assert predict_ensemble(rag_prompt(), backend, 5, seed=0).retained_n == 4


class TestCallPool:
    def test_admit_waits_for_a_free_thread(self):
        pool, release = CallPool(2), threading.Event()
        futures = pool.map(release.wait, [5.0, 5.0])
        admitted = threading.Event()

        def query():
            with pool.admit():
                admitted.set()

        thread = threading.Thread(target=query)
        thread.start()
        assert not admitted.wait(0.2)
        release.set()
        assert admitted.wait(5.0)
        thread.join()
        assert [f.result() for f in futures] == [True, True]

    def test_held_place_goes_to_the_first_call(self):
        """An admitted query's first call takes its place: with one call
        running on a pool of 2, a second query is let in at once."""
        pool, release = CallPool(2), threading.Event()
        second = threading.Event()

        def other_query():
            with pool.admit():
                second.set()

        with pool.admit():
            futures = pool.map(release.wait, [5.0])
            thread = threading.Thread(target=other_query)
            thread.start()
            assert second.wait(5.0)
        release.set()
        thread.join()
        assert futures[0].result()

    def test_rounds_keep_query_order(self):
        """A query's calls start before those of a query asked for later."""
        pool, started, lock = CallPool(1), [], threading.Lock()

        def call(label):
            with lock:
                started.append(label)

        gate = threading.Event()
        first = pool.map(gate.wait, [5.0])
        later = pool.map(call, ["a1", "a2"]) + pool.map(call, ["b1", "b2"])
        gate.set()
        for future in first + later:
            future.result()
        assert started == ["a1", "a2", "b1", "b2"]
