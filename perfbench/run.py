"""durcast benchmark: the work of `durcast build` + `durcast evaluate`.

One run drives the library calls those commands make on a synthetic corpus:
ingest_csv -> Pipeline.fit -> save_artifacts -> load_artifacts ->
run_experiment (mode rag, k=8, rounds=5, expansion 10, bayesian prior).
It checks the outputs, then prints one JSON line with the metrics that
BENCHMARK.json declares.

    python3 perfbench/run.py --workload rag-mock-4k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a durcast checkout; it imports the package from
./src and writes its scratch files under ./.perfbench/. --trace 1 reports
the per-layer metrics instead of the end-to-end ones.

A run: generate the corpus from --seed (training cases first, the held-out
test set after them), set up SETUP_REPEATS times, run the correctness
checks, then make whole passes over the test set, one run_experiment call
per chunk of it, for about --seconds (at least one pass), timing
LOADS_PER_CALL more load_artifacts calls after each call. The evaluate loop
is closed: the backend serves at most `workers` cases at a time, and each
worker starts its next case when the last one returns.

Query and load timings are means over samples spread across the whole
run, not medians. A shared host alternates between a fast and a slow
state for seconds to minutes; a median over calls jumps from one state to
the other when the run's mix of the two passes one half, while a mean
moves in proportion to the mix.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, percentile

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"

K, ROUNDS, EXPANSION = 8, 5, 10
MOCK_NOISE_SD, MOCK_SEED = 10.0, 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


N_TRAIN = 4000
CHUNK = 200  # queries per run_experiment call
SETUP_REPEATS = 5
LOADS_PER_CALL = 2  # timed load_artifacts calls after each untraced call
CHECK_QUERIES = 16


@dataclass(frozen=True)
class Workload:
    # A multiple of CHUNK. A run makes whole passes over the test set, so
    # its accuracy always covers the same seed-fixed queries; one pass
    # takes 5-15 s on a 2-vCPU box, so a run makes several.
    n_test: int
    # Closed-loop workers, the backend's concurrency_limit. The mock
    # workload is CPU-bound Python: a second worker only adds handoffs of
    # the interpreter lock, which cost throughput and make latency swing
    # with the host's load. Two workers overlap the HTTP waits.
    workers: int
    # Stub server latency and fault shares; None queries MockReferenceMean.
    stub: dict | None = None


WORKLOADS = {
    "rag-mock-4k": Workload(n_test=400, workers=1),
    "rag-http-4k": Workload(
        n_test=200,
        workers=2,
        stub={
            "latency_ms": 10.0,
            "shares": {
                "503": 0.05,
                "429": 0.02,
                "malformed": 0.01,
                "no_sentinel": 0.02,
                "unparseable": 0.01,
            },
        },
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc()):
            os.environ[var] = str(nproc())


@contextmanager
def backend_for(workload: Workload, seed: int, run_dir: Path):
    """Yield (backend, reset, tally). reset() makes the stub forget which
    request bodies it has seen, so each pass meets the same faults; tally
    is filled with the stub's count of each outcome once it has exited."""
    from durcast.llm import HttpChatBackend, MockReferenceMean

    tally: dict[str, int] = {}
    if workload.stub is None:
        yield MockReferenceMean(
            noise_sd=MOCK_NOISE_SD, seed=MOCK_SEED, concurrency_limit=workload.workers
        ), lambda: None, tally
        return
    import requests

    cmd = [
        sys.executable,
        str(HERE / "stub_server.py"),
        "--seed", str(seed),
        "--latency-ms", str(workload.stub["latency_ms"]),
        "--noise-sd", str(MOCK_NOISE_SD),
        "--max-connections", str(workload.workers),
    ]
    for kind, share in workload.stub["shares"].items():
        cmd += [f"--share-{kind.replace('_', '-')}", str(share)]
    with open(run_dir / "stub_server.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True
        )
        try:
            first = proc.stdout.readline().split()
            if len(first) != 2 or first[0] != "PORT":
                raise RuntimeError(f"stub server did not start; see {log.name}")
            url = f"http://127.0.0.1:{first[1]}"
            backend = HttpChatBackend(
                endpoint=url + "/v1/chat/completions",
                model_name="perfbench-stub",
                timeout_s=10.0,
                max_retries=2,
                concurrency_limit=workload.workers,
            )

            def reset():
                requests.post(url + "/reset", timeout=10.0).raise_for_status()

            yield backend, reset, tally
        finally:
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            if out.strip():
                tally.update(json.loads(out.strip().splitlines()[-1])["tally"])


@dataclass
class Calls:
    """One entry per run_experiment call; a pass calls once per chunk."""

    chunks_per_pass: int
    reports: list = field(default_factory=list)
    walls_s: list[float] = field(default_factory=list)
    case_ns: list[list[int]] = field(default_factory=list)

    @property
    def passes(self) -> list[list]:
        n = self.chunks_per_pass
        return [self.reports[i : i + n] for i in range(0, len(self.reports), n)]

    @property
    def cases_per_s(self) -> float:
        """Cases completed per second of run_experiment wall time."""
        return sum(r.m + r.failed for r in self.reports) / sum(self.walls_s)

    def case_ms(self, q: float) -> float:
        """Mean over calls of each call's q-th percentile case time."""
        return statistics.fmean(percentile(ns, q) for ns in self.case_ns) / 1e6


def measure(
    pipe, cfg, train, chunks, seconds: float, reset, tracer=None, after_call=lambda: None
) -> Calls:
    """Whole passes over the test set, one run_experiment call per chunk,
    until the next pass would end more than half a pass after `seconds`, so
    a run measures `seconds` on average. after_call() runs after each
    call, inside the time. Traced calls are tagged pass<p>-<chunk>."""
    from durcast import evaluate

    out = Calls(len(chunks))
    untimed = pipe.predict_case

    def timed(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return untimed(*args, **kwargs)
        finally:
            out.case_ns[-1].append(time.perf_counter_ns() - start)

    pipe.predict_case = timed
    try:
        begin = time.perf_counter()
        for pass_no in itertools.count(1):
            reset()
            pass_start = time.perf_counter()
            for i, chunk in enumerate(chunks):
                if tracer is not None:
                    tracer.tag = f"pass{pass_no}-{i:03d}"
                out.case_ns.append([])
                start = time.perf_counter()
                out.reports.append(evaluate.run_experiment(cfg, train, chunk, pipeline=pipe))
                out.walls_s.append(time.perf_counter() - start)
                after_call()
            now = time.perf_counter()
            if now - begin + (now - pass_start) / 2 > seconds:
                return out
    finally:
        del pipe.predict_case


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import checks
    import layers
    from durcast import evaluate, pipeline as pipeline_mod, schema as schema_mod
    from durcast.schema import CaseSet
    from durcast.synthetic import SyntheticSpec, default_schema, generate_synthetic

    workload = WORKLOADS[name]
    run_dir = root / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    art_dir = run_dir / "artifacts"
    art_dir.mkdir(parents=True)
    problems: list[str] = []
    phase_s: dict[str, float] = {}
    phase_start = time.perf_counter()

    def phase_done(phase: str) -> None:
        nonlocal phase_start
        now = time.perf_counter()
        phase_s[phase] = now - phase_start
        phase_start = now

    corpus = generate_synthetic(SyntheticSpec(n_cases=N_TRAIN + workload.n_test), seed)
    schema = default_schema()
    train_csv = run_dir / "train.csv"
    schema_mod.write_csv(CaseSet(corpus.cases[:N_TRAIN], schema), train_csv)
    test = CaseSet(corpus.cases[N_TRAIN:], schema)
    chunks = [
        CaseSet(test.cases[i : i + CHUNK], schema) for i in range(0, len(test.cases), CHUNK)
    ]
    del corpus
    phase_done("corpus")

    tracer = Tracer()
    setup_s, load_s = [], []
    for repeat in range(SETUP_REPEATS):
        fitted = loaded = None
        gc.collect()
        tracer.tag = f"setup{repeat}"
        if trace:
            layers.install_setup(tracer)
        start = time.perf_counter()
        train = schema_mod.ingest_csv(train_csv, schema)
        fitted = pipeline_mod.Pipeline.fit(train, pipeline_mod.FitConfig())
        pipeline_mod.save_artifacts(fitted, art_dir)
        saved = time.perf_counter()
        loaded = pipeline_mod.load_artifacts(art_dir)
        done = time.perf_counter()
        tracer.uninstall()
        setup_s.append(done - start)
        load_s.append(done - saved)
        del train
    phase_done("setup")

    sample = random.Random(seed).sample(test.cases, CHECK_QUERIES)
    problems += checks.check_index_against_oracle(loaded, sample, K * EXPANSION)
    problems += checks.check_fitted_matches_loaded(fitted, loaded, sample, K, EXPANSION)
    fitted = None
    phase_done("checks")

    def time_loads():
        """More load_artifacts samples, spread over the measured passes so
        that load_s, like the query timings, spans the whole run."""
        for _ in range(LOADS_PER_CALL):
            gc.collect()
            start = time.perf_counter()
            pipeline_mod.load_artifacts(art_dir)
            load_s.append(time.perf_counter() - start)

    with backend_for(workload, seed, run_dir) as (backend, reset, tally):
        cfg = evaluate.ExperimentConfig(
            backend=backend, mode="rag", k=K, rounds=ROUNDS, expansion_factor=EXPANSION,
            strategy="bayesian",
        )
        train_view = loaded.train_cases()
        plain = measure(loaded, cfg, train_view, chunks, seconds, reset, after_call=time_loads)
        traced = None
        if trace:
            layers.install_query(tracer, backend)
            try:
                traced = measure(loaded, cfg, train_view, chunks, seconds, reset, tracer)
            finally:
                tracer.uninstall()

    phase_done("measure")
    passes = plain.passes + (traced.passes if traced else [])
    for number, reports in enumerate(passes, start=1):
        for chunk, report in zip(chunks, reports):
            problems += [f"pass {number}: {p}" for p in checks.check_report(report, len(chunk))]
        if [(r.per_case, r.failed) for r in reports] != [(r.per_case, r.failed) for r in passes[0]]:
            problems.append(f"pass {number} predicted differently from pass 1")
    mae_min = statistics.fmean(abs(t - p) for r in passes[0] for _, t, p in r.per_case)
    calls = plain.reports + (traced.reports if traced else [])
    attempted = sum(r.m + r.failed for r in calls)
    failed = sum(r.failed for r in calls)

    samples: dict[str, int] = {}
    if trace:
        metrics, samples = layers.derive(
            tracer, schema.key_attributes, art_dir, workload.workers,
            plain.cases_per_s, traced.cases_per_s,
        )
        metrics["evaluate.mae_min"] = mae_min
        if tally:
            problems += checks.check_stub_tally(tally, len(passes), metrics)
        tracer.dump(run_dir / "spans.jsonl")
    else:
        prior_mae = statistics.fmean(
            abs(c.duration_min - loaded.priors.for_query(c).median_min) for c in test.cases
        )
        metrics = {
            "cases_per_s": plain.cases_per_s,
            "case_p50_ms": plain.case_ms(50),
            "case_p95_ms": plain.case_ms(95),
            "setup_s": statistics.median(setup_s),
            "load_s": statistics.fmean(load_s),
            "answered_share": 1.0 - failed / attempted,
            "mae_vs_prior": mae_min / prior_mae,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        per_call = min(len(ns) for ns in plain.case_ns)
        samples = {"case_p50_ms": per_call, "case_p95_ms": per_call}
    shutil.rmtree(art_dir, ignore_errors=True)
    train_csv.unlink()
    (run_dir / "case_ns.json").write_text(json.dumps(plain.case_ns))
    phase_done("derive")

    import numpy

    env = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workers": workload.workers,
        "n_train": N_TRAIN,
        "queries_per_pass": len(test.cases),
        "queries_per_call": CHUNK,
        "passes_untraced": len(plain.passes),
        "passes_traced": len(traced.passes) if traced else 0,
        "setup_repeats": SETUP_REPEATS,
        "phase_s": phase_s,
        "setup_s_each": setup_s,
        "load_s_each": load_s,
        "call_wall_s_each": plain.walls_s,
        "call_case_p50_ms_each": [percentile(ns, 50) / 1e6 for ns in plain.case_ns],
        "mae_min": mae_min,
        "samples": samples,
        "stub": workload.stub,
        "problems": problems,
    }
    return {
        "env": env,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "run_dir": run_dir,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "durcast" / "__init__.py").is_file():
        print(f"perfbench: no durcast package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    sys.path.insert(0, str(src))
    import durcast

    if Path(durcast.__file__).resolve().parent != (src / "durcast").resolve():
        print(f"perfbench: imported durcast from {durcast.__file__}, not {src}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    produced = result["metrics"]
    if set(produced) != set(units):
        missing, extra = set(units) - set(produced), set(produced) - set(units)
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
              f"undeclared {sorted(extra)}", file=sys.stderr)
        return 2
    for problem in result["env"]["problems"]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": produced[name], "unit": unit} for name, unit in units.items()},
    }
    (result["run_dir"] / "result.json").write_text(
        json.dumps({"env": result["env"], **line}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"env": result["env"]}))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        env = json.loads(lines[-2])["env"] if len(lines) > 1 else {}
        verdict = "correct" if result["correct"] else "INCORRECT"
        status |= 0 if result["correct"] else 1
        print(f"{name}: {verdict}, {result['attempted']} cases attempted, "
              f"{result['failed']} failed, {env.get('passes_untraced')} untraced passes "
              f"of {env.get('queries_per_pass')} queries")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    spec_seconds = None
    if SPEC_PATH.is_file():
        spec_seconds = json.loads(SPEC_PATH.read_text(encoding="utf-8"))["run_seconds"]
    p = argparse.ArgumentParser(description="durcast build + evaluate benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1, help="synthetic corpus seed")
    p.add_argument("--seconds", type=float, default=spec_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        p.error("--seconds is required when BENCHMARK.json is absent")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
