"""Where the traced run wraps durcast, and the per-layer metrics it derives.

Every wrapper sits on a module attribute or class attribute that durcast
looks up at call time, so the package source stays untouched. A target
that a later version of durcast no longer has is skipped with a warning,
and the metrics that depend on it read 0.

Setup targets are wrapped only while the setup repeats run and query
targets only while the traced passes run. Spans carry the tag of their
phase: setup<r>, or pass<p>-<chunk> for one run_experiment call. Counts
come from the first traced pass, so they repeat exactly for a given seed,
while timings pool every traced pass.
"""

from __future__ import annotations

import re
import statistics
import sys
from pathlib import Path

from tracer import Tracer, percentile, self_times_ns

_SENTINEL = re.compile(r"PREDICTION\s*:\s*\d", re.IGNORECASE)
_DIGIT = re.compile(r"\d")

ARTIFACT_FILES = (
    "schema.yaml",
    "encoder.json",
    "pca.npz",
    "weights.npz",
    "index.bin",
    "priors.json",
    "importance.csv",
    "manifest.json",
)

FIRST_PASS_PREFIX = "pass1-"


def tier_name(tier: tuple[str, ...]) -> str:
    return "-".join(tier) if tier else "GLOBAL"


def _install_all(tracer: Tracer, targets) -> None:
    for owner, attr, make in targets:
        if not tracer.install(owner, attr, make):
            print(f"perfbench: {owner!r} has no {attr!r}; not traced", file=sys.stderr)


def install_setup(tracer: Tracer) -> None:
    from durcast import encoding, index, pca, pipeline, text_embedding

    w = tracer.wrap
    _install_all(
        tracer,
        [
            (pipeline.Pipeline, "fit", lambda f: w("pipeline.fit", f)),
            (encoding, "fit", lambda f: w("encoding.fit", f)),
            (encoding.FittedEncoder, "encode_matrix", lambda f: w("encoding.encode_matrix", f)),
            (
                text_embedding.HashingTextEmbedder,
                "embed",
                lambda f: tracer.counting("text_embedding.embed", f),
            ),
            (pca, "fit_pca", lambda f: w("pca.fit_pca", f)),
            (index, "build", lambda f: w("index.build", f)),
            (pipeline, "save_artifacts", lambda f: w("pipeline.save_artifacts", f)),
            (index, "save_index", lambda f: w("index.save_index", f)),
            (pipeline, "load_artifacts", lambda f: w("pipeline.load_artifacts", f)),
            (index, "load_index", lambda f: w("index.load_index", f)),
        ],
    )


def _on_postprocess(tracer, refs, args, kwargs):
    from durcast import strata

    candidates, query, _, key_attributes = args[:4]
    tier = strata.ladder(key_attributes)[refs.fallback_level]
    tracer.count(f"index.fallback_level.{tier_name(tier)}")
    if refs.iqr_bounds is not None:
        lo, hi = refs.iqr_bounds
        tracer.count(
            "index.iqr_dropped",
            sum(
                1
                for c in candidates
                if c.case.duration_min is not None
                and strata.matches_tier(query, c.case, tier)
                and not lo <= c.case.duration_min <= hi
            ),
        )


def _on_prompt(tracer, prompt, args, kwargs):
    tracer.record("prompting.prompt_chars", len(prompt.system_text) + len(prompt.user_text))


def _on_complete(tracer, raw, args, kwargs):
    if not _DIGIT.search(raw):
        tracer.count("llm.retries.unparseable")


def _on_ensemble(tracer, ens, args, kwargs):
    tracer.count("llm.rounds_retained", ens.retained_n)
    tracer.count("llm.rounds_dropped", ens.requested_n - ens.retained_n)
    tracer.count("llm.rounds_clamped", sum(r.clamped for r in ens.rounds))
    tracer.count(
        "llm.fallback_parsed", sum(not _SENTINEL.search(r.raw_text) for r in ens.rounds)
    )


def install_query(tracer: Tracer, backend) -> None:
    from durcast import evaluate, index, pipeline, priors

    w = tracer.wrap
    count = tracer.counting
    _install_all(
        tracer,
        [
            (evaluate, "run_experiment", lambda f: w("evaluate.run_experiment", f)),
            (
                pipeline.Pipeline,
                "predict_case",
                lambda f: w("pipeline.predict_case", f, qid_of=lambda a, k: a[1].id),
            ),
            (pipeline.Pipeline, "embed_query", lambda f: w("pipeline.embed_query", f)),
            (index, "retrieve", lambda f: w("index.retrieve", f)),
            (index, "postprocess", lambda f: w("index.postprocess", f, on_result=_on_postprocess)),
            (index, "matches_tier", lambda f: count("strata.match_calls", f)),
            (priors, "matches_tier", lambda f: count("strata.match_calls", f)),
            (priors.PriorIndex, "for_query", lambda f: w("priors.for_query", f)),
            (priors, "compute_prior", lambda f: w("priors.compute_prior", f)),
            (
                pipeline,
                "build_prompt",
                lambda f: w("prompting.build_prompt", f, on_result=_on_prompt),
            ),
            (
                pipeline,
                "predict_ensemble",
                lambda f: w("llm.predict_ensemble", f, on_result=_on_ensemble),
            ),
            (type(backend), "complete", lambda f: w("llm.complete", f, on_result=_on_complete)),
            (pipeline, "aggregate", lambda f: w("aggregate.aggregate", f)),
        ],
    )


# (metric, span, percentile): span durations pooled over every traced pass.
SPAN_PERCENTILES_MS = (
    ("encoding.query_ms_p50", "pipeline.embed_query", 50),
    ("index.retrieve_ms_p50", "index.retrieve", 50),
    ("index.retrieve_ms_p95", "index.retrieve", 95),
    ("index.postprocess_ms_p50", "index.postprocess", 50),
    ("priors.lookup_ms_p50", "priors.for_query", 50),
    ("prompting.build_ms_p50", "prompting.build_prompt", 50),
    ("llm.backend_ms_p50", "llm.complete", 50),
    ("llm.backend_ms_p95", "llm.complete", 95),
    ("aggregate.ms_p50", "aggregate.aggregate", 50),
)

# (metric, spans): their total in each set-up repeat, median over repeats.
SETUP_SECONDS = (
    ("encoding.fit_matrix_s", ("encoding.fit", "encoding.encode_matrix")),
    ("pca.fit_s", ("pca.fit_pca",)),
    ("index.build_s", ("index.build",)),
    ("index.save_s", ("index.save_index",)),
    ("index.load_s", ("index.load_index",)),
    ("pipeline.fit_s", ("pipeline.fit",)),
    ("pipeline.save_s", ("pipeline.save_artifacts",)),
    ("pipeline.load_s", ("pipeline.load_artifacts",)),
)

# Counters reported as counted over the first traced pass.
FIRST_PASS_COUNTS = (
    "index.iqr_dropped",
    "strata.match_calls",
    "llm.retries.unparseable",
    "llm.rounds_dropped",
    "llm.rounds_clamped",
    "llm.fallback_parsed",
)


def derive(
    tracer: Tracer,
    key_attributes: tuple[str, ...],
    artifact_dir: Path,
    workers: int,
    untraced_cases_per_s: float,
    traced_cases_per_s: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metric values, and the sample count behind each percentile."""
    from durcast import strata

    spans = tracer.spans
    setup_tags = sorted({s.tag for s in spans if s.tag.startswith("setup")})
    pass_tags = {s.tag for s in spans if s.tag.startswith("pass")}
    first = {t for t in pass_tags if t.startswith(FIRST_PASS_PREFIX)}

    def first_pass_count(name):
        return sum(tracer.counts[(name, t)] for t in first)

    def named(name, tags):
        return [s for s in spans if s.name == name and s.tag in tags]

    m: dict[str, float] = {}
    samples: dict[str, int] = {}

    def percentile_ms(metric, q, values_ns):
        samples[metric] = len(values_ns)
        m[metric] = percentile(values_ns, q) / 1e6 if values_ns else 0.0

    for metric, span, q in SPAN_PERCENTILES_MS:
        percentile_ms(metric, q, [s.duration_ns for s in named(span, pass_tags)])
    for metric, names in SETUP_SECONDS:
        per_repeat = [
            sum(s.duration_ns for n in names for s in named(n, {t})) / 1e9 for t in setup_tags
        ]
        m[metric] = statistics.median(per_repeat) if per_repeat else 0.0
    m["text_embedding.embed_calls"] = statistics.median(
        [tracer.counts[("text_embedding.embed", t)] for t in setup_tags] or [0]
    )

    for name in FIRST_PASS_COUNTS:
        m[name] = first_pass_count(name)
    for tier in strata.ladder(key_attributes):
        name = f"index.fallback_level.{tier_name(tier)}"
        m[name] = first_pass_count(name)
    cold = named("priors.compute_prior", first)
    m["priors.cold_lookups"] = len(cold)
    m["priors.cold_lookup_s"] = sum(s.duration_ns for s in cold) / 1e9
    complete = named("llm.complete", first)
    m["llm.complete_calls"] = len(complete)
    m["llm.retries.transport"] = sum(s.error == "BackendTransportError" for s in complete)
    retained = first_pass_count("llm.rounds_retained")
    m["llm.useful_ratio"] = retained / len(complete) if complete else 0.0

    chars = [v for t in pass_tags for v in tracer.values[("prompting.prompt_chars", t)]]
    samples["prompting.prompt_chars_p50"] = len(chars)
    m["prompting.prompt_chars_p50"] = percentile(chars, 50) if chars else 0.0

    for name in ARTIFACT_FILES:
        path = artifact_dir / name
        m[f"pipeline.artifact_bytes.{name}"] = path.stat().st_size if path.exists() else 0
    self_ns = self_times_ns(spans)
    predict = named("pipeline.predict_case", pass_tags)
    percentile_ms("pipeline.predict_self_ms_p50", 50, [self_ns[s.sid] for s in predict])

    reduce_ms, busy_ns, wall_ns = [], 0, 0
    for tag in pass_tags:
        run = named("evaluate.run_experiment", {tag})
        cases = [s for s in predict if s.tag == tag]
        if run and cases:
            reduce_ms.append((run[0].end_ns - max(s.end_ns for s in cases)) / 1e6)
            busy_ns += sum(s.duration_ns for s in cases)
            wall_ns += run[0].duration_ns
    m["evaluate.reduce_ms"] = statistics.median(reduce_ms) if reduce_ms else 0.0
    m["evaluate.worker_busy_share"] = busy_ns / (workers * wall_ns) if wall_ns else 0.0
    m["trace.overhead_share"] = 1.0 - traced_cases_per_s / untraced_cases_per_s
    return m, samples
