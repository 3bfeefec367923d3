"""Acceptance gate: one test per release criterion.

Every test prints exactly one line, CRITERION n PASS/FAIL with the measured
numbers, then asserts. Tolerances are pinned in the assertions; nothing here
reaches the network, the LLM role is played by the deterministic mocks.
"""

import contextlib
import io
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import mk_case, mk_ensemble, mk_prior, tiny_corpus
from durcast import cli
from durcast.aggregate import aggregate
from durcast.evaluate import ExperimentConfig, compute_metrics, run_experiment
from durcast.index import build, postprocess_rows, retrieve
from durcast.llm import MockReferenceMean, schedule_temperatures
from durcast.pca import derive_weights, fit_pca
from durcast.pipeline import Pipeline
from durcast.schema import CaseSet, split, write_csv
from durcast.strata import CaseTable
from durcast.synthetic import SyntheticSpec, generate_synthetic

GOLDEN = Path(__file__).parent / "data" / "golden_predict_audit.txt"

QUERY_SET_FLAGS = [
    "--set", "department=thyroid_breast",
    "--set", "surgery_name=thyroidectomy",
    "--set", "surgery_level=II",
    "--set", "asa_grade=II",
    "--set", "age=47",
    "--set", "emergency=false",
    "--set", "note=neck ultrasound reviewed",
]


def announce(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def build_tiny_artifacts(tmp_dir):
    """Write the hand corpus to disk and build artifacts from it via the CLI."""
    corpus_dir = tmp_dir / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    cs = tiny_corpus()
    (corpus_dir / "schema.yaml").write_text(cs.schema.to_yaml(), encoding="utf-8")
    write_csv(cs, corpus_dir / "train.csv")
    art = tmp_dir / "artifacts"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([
            "build",
            "--train", str(corpus_dir / "train.csv"),
            "--schema", str(corpus_dir / "schema.yaml"),
            "--out", str(art),
            "--embedder-dim", "64",
        ])
    if rc != 0:
        raise AssertionError(f"artifact build failed with exit code {rc}")
    return corpus_dir, art


def c9_build_and_predict(tmp_dir):
    """Shared by the acceptance test and the golden-file generator."""
    _, art = build_tiny_artifacts(tmp_dir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["predict", "--artifacts", str(art), "--k", "8",
                       *QUERY_SET_FLAGS])
    return rc, buf.getvalue()


def test_criterion_1_pca_oracle(capsys):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst_recon = 0.0
    worst_weight = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 11))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
        x += rng.uniform(-5.0, 5.0, size=d)
        model = fit_pca(x)
        cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
        recon = model.components @ np.diag(model.explained_variance) @ model.components.T
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - cov))))
        for k in range(1, d + 1):
            got = derive_weights(model, k).weights
            want = np.zeros(d)
            for dim in range(d):
                acc = 0.0
                for j in range(k):
                    acc += abs(model.components[dim, j]) * model.explained_variance_ratio[j]
                want[dim] = acc / k
            worst_weight = max(worst_weight, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = worst_recon < 1e-8 and worst_weight < 1e-12 and elapsed < 10.0
    announce(capsys, 1, ok,
             f"100 matrices, covariance reconstruction max err {worst_recon:.2e} "
             f"(tol 1e-8), weight-loop max err {worst_weight:.2e} (tol 1e-12), "
             f"{elapsed:.2f}s (limit 10s)")
    assert worst_recon < 1e-8
    assert worst_weight < 1e-12
    assert elapsed < 10.0


def test_criterion_2_retrieval_equals_brute_force(capsys):
    schema = tiny_corpus().schema
    rng = np.random.default_rng(22)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        size = int(rng.integers(1, 499))
        dim = int(rng.integers(2, 9))
        vectors = [rng.normal(size=dim) for _ in range(size)]
        # two rescaled copies of one row: identical cosine direction, so the
        # sort must fall back to the id tie-break
        anchor = vectors[int(rng.integers(0, size))]
        vectors.append(anchor * 4.0)
        vectors.append(anchor * 0.25)
        perm = rng.permutation(len(vectors))
        cases = [mk_case(f"c-{perm[i]:04d}", 60.0) for i in range(len(vectors))]
        idx = build(np.array(vectors), cases, schema)
        query = rng.normal(size=dim)
        m = int(rng.integers(1, len(vectors) + 3))

        qn = query / np.linalg.norm(query)
        sims = [float(np.dot(v / np.linalg.norm(v), qn)) for v in vectors]
        oracle = sorted(range(len(vectors)), key=lambda i: (-sims[i], cases[i].id))[:m]

        got = retrieve(idx, query, m)
        assert [c.case.id for c in got] == [cases[i].id for i in oracle]
        for cand, i in zip(got, oracle):
            assert cand.similarity == pytest.approx(sims[i], abs=1e-12)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 10.0
    announce(capsys, 2, ok,
             f"{checked} random indexes (size <= 500, engineered ties) matched "
             f"the brute-force sort, {elapsed:.2f}s (limit 10s)")
    assert ok


def quartile(values, fraction):
    ordered = sorted(values)
    pos = fraction * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def iqr_oracle(durations):
    if len(durations) <= 4:
        return list(durations), None
    q1 = quartile(durations, 0.25)
    q3 = quartile(durations, 0.75)
    spread = q3 - q1
    lo, hi = q1 - 1.5 * spread, q3 + 1.5 * spread
    return [d for d in durations if lo <= d <= hi], (lo, hi)


def run_iqr_stage(durations):
    # empty key attributes collapse the stratum ladder to the global tier,
    # and k = n disables the top-k cut, isolating the outlier filter
    table = CaseTable.of([mk_case(f"r-{i:03d}", d) for i, d in enumerate(durations)], ())
    rows = np.arange(len(durations))[None, :]
    refs = postprocess_rows(table, rows, 1.0 - rows * 1e-3, [mk_case("q")], len(durations))[0]
    return [c.duration_min for c, _ in refs.references], refs.iqr_bounds


def test_criterion_3_iqr_filter_oracle(capsys):
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    for trial in range(100):
        size = int(rng.integers(2, 41))
        if trial % 10 == 0:
            durations = [float(rng.integers(30, 601))] * size
        else:
            durations = [float(v) for v in rng.integers(30, 601, size=size)]
        kept, bounds = run_iqr_stage(durations)
        want_kept, want_bounds = iqr_oracle(durations)
        assert kept == want_kept
        if want_bounds is None:
            assert bounds is None
        else:
            assert bounds == pytest.approx(want_bounds, abs=1e-9)
    worked_kept, worked_bounds = run_iqr_stage([100.0, 110.0, 120.0, 130.0, 500.0])
    elapsed = time.perf_counter() - t0
    ok = worked_kept == [100.0, 110.0, 120.0, 130.0] and elapsed < 5.0
    announce(capsys, 3, ok,
             f"100 random duration lists matched the hand quartile oracle; "
             f"[100,110,120,130,500] kept {worked_kept} with bounds "
             f"({worked_bounds[0]:.1f}, {worked_bounds[1]:.1f}), "
             f"{elapsed:.2f}s (limit 5s)")
    assert worked_kept == [100.0, 110.0, 120.0, 130.0]
    assert elapsed < 5.0


def test_criterion_4_bayesian_average(capsys):
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(10_000):
        n = int(rng.integers(1, 11))
        level = float(rng.uniform(5.0, 800.0))
        mu = float(rng.uniform(5.0, 800.0))
        w = 0.0 if trial % 10 == 0 else float(rng.uniform(0.0, 10.0))
        est = aggregate(mk_ensemble([level] * n), "bayesian", mk_prior(median=mu), w)
        y_bar = est.ensemble_mean
        want = y_bar if w == 0.0 else (w * mu + n * y_bar) / (w + n)
        worst = max(worst, abs(est.y_hat_min - want))
    zero_exact = True
    for values in ([0.1, 0.1, 0.1], [1.0 / 3.0] * 7, [128.3, 130.7, 99.9, 57.1]):
        ens = mk_ensemble(values)
        shrunk = aggregate(ens, "bayesian", mk_prior(median=999.0), 0.0).y_hat_min
        plain = aggregate(ens, "simple_average").y_hat_min
        zero_exact = zero_exact and shrunk == plain
    worked = aggregate(
        mk_ensemble([120.0, 125.0, 130.0, 135.0, 140.0]), "bayesian", mk_prior(median=120.0), 0.9
    ).y_hat_min
    ok = worst < 1e-12 and zero_exact and abs(worked - 128.47) <= 0.01
    announce(capsys, 4, ok,
             f"10000 draws vs convex identity, max err {worst:.2e} (tol 1e-12); "
             f"w=0 equals the simple average bit for bit: {zero_exact}; "
             f"worked example {worked:.5f} (expected 128.47 +/- 0.01)")
    assert worst < 1e-12
    assert zero_exact
    assert abs(worked - 128.47) <= 0.01


def test_criterion_5_metrics_oracle(capsys):
    rng = np.random.default_rng(55)
    pairs = [
        (float(rng.uniform(10.0, 700.0)), float(rng.uniform(5.0, 750.0)))
        for _ in range(1000)
    ]
    report = compute_metrics(pairs)
    m = len(pairs)
    mae = sum(abs(y - p) for y, p in pairs) / m
    rmse = math.sqrt(sum((y - p) ** 2 for y, p in pairs) / m)
    mape = 100.0 * sum(abs(y - p) / y for y, p in pairs) / m
    mean_y = sum(y for y, _ in pairs) / m
    r2 = 1.0 - sum((y - p) ** 2 for y, p in pairs) / sum(
        (y - mean_y) ** 2 for y, _ in pairs
    )
    rel = max(
        abs(report.mae_min - mae) / abs(mae),
        abs(report.rmse_min - rmse) / abs(rmse),
        abs(report.r2 - r2) / abs(r2),
        abs(report.mape_pct - mape) / abs(mape),
    )
    worked = compute_metrics([(100.0, 110.0), (200.0, 190.0)])
    exact = (
        worked.mae_min == 10.0
        and worked.rmse_min == 10.0
        and worked.r2 == 0.96
        and abs(worked.mape_pct - 7.5) < 1e-12
    )
    ok = rel < 1e-10 and exact
    announce(capsys, 5, ok,
             f"1000 pairs vs loop oracle, max relative err {rel:.2e} (tol 1e-10); "
             f"worked example mae {worked.mae_min} rmse {worked.rmse_min} "
             f"mape {worked.mape_pct:.10f} r2 {worked.r2}")
    assert rel < 1e-10
    assert exact


def test_criterion_6_temperature_schedule(capsys):
    stochastic = []
    cold = True
    bounded = True
    for seed in range(10_000):
        temps = schedule_temperatures(5, seed=seed)
        cold = cold and temps[0] == 0.0
        rest = temps[1:]
        bounded = bounded and all(0.05 <= t <= 0.4 for t in rest)
        stochastic.extend(rest)
    mean = sum(stochastic) / len(stochastic)
    ok = cold and bounded and abs(mean - 0.225) <= 0.01
    announce(capsys, 6, ok,
             f"10000 schedules: first round always 0: {cold}; stochastic rounds "
             f"in [0.05, 0.4]: {bounded}; stochastic mean {mean:.4f} "
             f"(expected 0.225 +/- 0.01)")
    assert cold
    assert bounded
    assert abs(mean - 0.225) <= 0.01


def test_criterion_7_protocol_ordering_on_synthetic_corpus(capsys):
    t0 = time.perf_counter()
    per_seed = []
    for seed in (1, 2, 3):
        corpus = generate_synthetic(SyntheticSpec(n_cases=5000), seed=seed)
        train, _val, test = split(corpus, (0.8, 0.1, 0.1), seed=seed)
        pipe = Pipeline.fit(train)
        backend = MockReferenceMean(seed=seed)
        rag = run_experiment(
            ExperimentConfig(backend, mode="rag", k=8, rounds=5, seed=seed),
            train, test, pipeline=pipe,
        )
        rnd = run_experiment(
            ExperimentConfig(backend, mode="random_few_shot", k=8, rounds=5, seed=seed),
            train, test, pipeline=pipe,
        )
        zero = run_experiment(
            ExperimentConfig(backend, mode="zero_shot", k=0, rounds=5, seed=seed),
            train, test, pipeline=pipe,
        )
        per_seed.append((seed, rag, rnd, zero))
    elapsed = time.perf_counter() - t0
    ordered = all(
        rag.mae_min < rnd.mae_min < zero.mae_min for _, rag, rnd, zero in per_seed
    )
    fits = all(rag.r2 > 0.5 for _, rag, _, _ in per_seed)
    ok = ordered and fits and elapsed < 120.0
    detail = "; ".join(
        f"seed {s}: rag {rag.mae_min:.2f} (r2 {rag.r2:.3f}) < "
        f"random {rnd.mae_min:.2f} < zero {zero.mae_min:.2f}"
        for s, rag, rnd, zero in per_seed
    )
    announce(capsys, 7, ok, f"{detail}; {elapsed:.1f}s (limit 120s)")
    assert ordered
    assert fits
    assert elapsed < 120.0


def test_criterion_8_ablation_orderings(capsys):
    wins = {"pca<=uniform": 0, "rounds5<=rounds1": 0, "prior<=no_prior": 0}
    details = []
    for seed in (1, 2, 3):
        corpus = generate_synthetic(SyntheticSpec(n_cases=5000), seed=seed)
        train, _val, test = split(corpus, (0.8, 0.1, 0.1), seed=seed)
        backend = MockReferenceMean(noise_sd=50.0, seed=seed)
        base = ExperimentConfig(backend, mode="rag", k=8, rounds=5,
                                expansion_factor=25, seed=seed)
        uniform = replace(base, fit=replace(base.fit, pca_weighting=False))
        pipe_pca = Pipeline.fit(train, base.fit)
        pipe_uni = Pipeline.fit(train, uniform.fit)
        mae_pca = run_experiment(base, train, test, pipeline=pipe_pca).mae_min
        mae_uni = run_experiment(uniform, train, test, pipeline=pipe_uni).mae_min
        mae_n1 = run_experiment(
            replace(base, rounds=1), train, test, pipeline=pipe_pca
        ).mae_min
        mae_off = run_experiment(
            replace(base, w_prior=0.0), train, test, pipeline=pipe_pca
        ).mae_min
        wins["pca<=uniform"] += mae_pca <= mae_uni
        wins["rounds5<=rounds1"] += mae_pca <= mae_n1
        wins["prior<=no_prior"] += mae_pca <= mae_off
        details.append(
            f"seed {seed}: pca {mae_pca:.2f} uniform {mae_uni:.2f} "
            f"rounds1 {mae_n1:.2f} no-prior {mae_off:.2f}"
        )
    ok = all(v >= 2 for v in wins.values())
    tally = ", ".join(f"{name} {count}/3" for name, count in wins.items())
    announce(capsys, 8, ok, f"{'; '.join(details)}; {tally} (need >= 2/3 each)")
    for name, count in wins.items():
        assert count >= 2, name


def test_criterion_9_predict_audit_golden(tmp_path, capsys):
    rc, text = c9_build_and_predict(tmp_path)
    golden = GOLDEN.read_text(encoding="utf-8")
    ref_lines = [
        line for line in text.splitlines()
        if re.match(r"^  \d+\. thy-\d+  similarity \d\.\d{3}  duration \d+ min$", line)
    ]
    est = re.search(r"^estimate: (\d+(?:\.\d+)?) minutes", text, re.MULTILINE)
    estimate = float(est.group(1)) if est else float("nan")
    ok = rc == 0 and text == golden and len(ref_lines) == 8 and 115.0 <= estimate <= 155.0
    announce(capsys, 9, ok,
             f"exit {rc}, audit matches golden byte for byte: {text == golden}, "
             f"{len(ref_lines)}/8 reference lines, estimate {estimate:.1f} min "
             f"(required within [115, 155])")
    assert rc == 0
    assert len(ref_lines) == 8
    assert 115.0 <= estimate <= 155.0
    assert text == golden


def test_criterion_10_evaluate_is_deterministic(tmp_path, capsys):
    corpus_dir, art = build_tiny_artifacts(tmp_path)
    outputs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"metrics-{tag}.csv"
        jsonl_path = tmp_path / f"cases-{tag}.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([
                "evaluate",
                "--artifacts", str(art),
                "--test", str(corpus_dir / "train.csv"),
                "--k", "4", "--rounds", "3",
                "--metrics-csv", str(csv_path),
                "--jsonl", str(jsonl_path),
            ])
        assert rc == 0
        outputs.append((csv_path.read_bytes(), jsonl_path.read_bytes()))
    same_csv = outputs[0][0] == outputs[1][0]
    same_jsonl = outputs[0][1] == outputs[1][1]
    ok = same_csv and same_jsonl
    announce(capsys, 10, ok,
             f"two evaluate runs: metrics CSV identical: {same_csv} "
             f"({len(outputs[0][0])} bytes), per-case JSONL identical: "
             f"{same_jsonl} ({len(outputs[0][1])} bytes)")
    assert same_csv
    assert same_jsonl
