"""Metrics, experiment protocols, and ablation grids.

Metrics over m test cases with truths y and predictions p:
    MAE   = mean |y - p|                       (minutes)
    RMSE  = sqrt(mean (y - p)^2)               (minutes)
    R2    = 1 - sum (y-p)^2 / sum (y - mean y)^2
    MAPE  = 100 * mean |y - p| / y             (percent)

run_experiment executes one inference protocol (zero_shot, random_few_shot,
or rag) over a test set, optionally streaming a per-case JSONL audit trail.
All emitted files are deterministic for a fixed config, seed, and mock
backend: no timestamps or timings appear in them.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    AllRoundsFailed,
    BadAxisValue,
    DurcastError,
    IoError,
    NonPositiveTruth,
    ParseError,
    SpecError,
    TooFewSamples,
)
from .pipeline import CasePrediction, ExperimentConfig, Pipeline
from .prompting import PromptTemplate, load_template
from .schema import CaseSet


def _on_off(text: str) -> bool:
    word = text.lower()
    if word in ("true", "on", "1", "yes"):
        return True
    if word in ("false", "off", "0", "no"):
        return False
    raise ValueError(f"expected on/off values, got {text!r}")


# Each ablation axis: how one --values item reads, and the cell config a
# value gives on the base config, which checks the value. An on/off axis
# (read by _on_off) takes bools only.
_AXES = {
    "k": (int, lambda base, k: replace(base, k=k)),
    "rounds": (int, lambda base, n: replace(base, rounds=n)),
    "expansion": (int, lambda base, n: replace(base, expansion_factor=n)),
    "strategy": (str, lambda base, name: replace(base, strategy=name)),
    "w_prior": (float, lambda base, w: replace(replace(base, w_prior=w), w_prior=float(w))),
    "pca_on_off": (
        _on_off, lambda base, on: replace(base, fit=replace(base.fit, pca_weighting=on))
    ),
    "prior_on_off": (_on_off, lambda base, on: base if on else replace(base, w_prior=0.0)),
    "postprocess_on_off": (_on_off, lambda base, on: replace(base, postprocess=on)),
}
ABLATION_AXES = tuple(_AXES)


@dataclass(frozen=True)
class MetricsReport:
    mae_min: float
    rmse_min: float
    r2: float
    mape_pct: float
    m: int
    per_case: tuple[tuple[str, float, float], ...]
    failed: int = 0


def compute_metrics(
    pairs: list[tuple[float, float]],
    ids: list[str] | None = None,
    failed: int = 0,
) -> MetricsReport:
    """Exact metric formulas over (truth, prediction) pairs.

    Needs at least two pairs; every truth must be positive (MAPE divides by
    it). R2 is anchored at the mean of the observed truths; when they are
    all identical it is 1 for a perfect fit and -inf otherwise.
    """
    m = len(pairs)
    if m < 2:
        raise TooFewSamples(f"metrics need at least 2 cases, got {m}")
    y = np.array([p[0] for p in pairs], dtype=np.float64)
    p = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.any(y <= 0.0):
        raise NonPositiveTruth("every observed duration must be positive")
    if ids is None:
        ids = [f"case-{i}" for i in range(m)]
    errors = y - p
    mae = float(np.mean(np.abs(errors)))
    rmse = float(np.sqrt(np.mean(errors**2)))
    mape = float(100.0 * np.mean(np.abs(errors) / y))
    ss_res = float(np.sum(errors**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else float("-inf")
    else:
        r2 = 1.0 - ss_res / ss_tot
    return MetricsReport(
        mae_min=mae,
        rmse_min=rmse,
        r2=r2,
        mape_pct=mape,
        m=m,
        per_case=tuple((i, float(t), float(e)) for i, t, e in zip(ids, y, p)),
        failed=failed,
    )


def prediction_json(pred: CasePrediction) -> dict:
    doc: dict = {
        "id": pred.query_id,
        "mode": pred.mode,
        "y": pred.truth_min,
        "y_hat": pred.estimate.y_hat_min,
        "strategy": pred.estimate.strategy,
        "ensemble_mean": pred.estimate.ensemble_mean,
        "prior_weight": pred.estimate.prior_weight,
        "effective_n": pred.estimate.effective_n,
        "rounds": [
            {
                "round": r.round_index,
                "temperature": r.temperature,
                "raw_text": r.raw_text,
                "parsed": r.parsed_minutes,
                "clamped": r.clamped,
            }
            for r in pred.ensemble.rounds
        ],
    }
    if pred.references is not None:
        doc["references"] = [
            {"id": c.id, "similarity": s, "duration_min": c.duration_min}
            for c, s in pred.references.references
        ]
        doc["fallback_level"] = pred.references.fallback_level
    if pred.prior is not None:
        doc["prior"] = {
            "median_min": pred.prior.median_min,
            "mean_min": pred.prior.mean_min,
            "range_min": list(pred.prior.range_min),
            "iqr_min": list(pred.prior.iqr_min),
            "cohort_size": pred.prior.cohort_size,
            "stratum": pred.prior.stratum_descriptor,
        }
    return doc


def run_experiment(
    cfg: ExperimentConfig,
    train: CaseSet,
    test: CaseSet,
    pipeline: Pipeline | None = None,
    jsonl_path: str | Path | None = None,
    template: PromptTemplate | None = None,
) -> MetricsReport:
    """Evaluate one protocol over the test set.

    Fits the pipeline from train unless one is supplied. In rag mode, every
    test case is embedded, retrieved and refined once per call, in one
    batch, before the fan-out. A backend with a call_pool runs its cases
    on as many threads as the pool has, and a case starts only when the
    pool can start one of its rounds at once; any other backend runs its
    cases one after another on the calling thread. Outputs are reduced and
    written in test order. A case that raises a DurcastError is excluded
    from the metrics, counted in the report's failed field, and logged as
    {"id", "error"}: "all_rounds_failed" when every round failed, else the
    error's class name. Log documents are built only when jsonl_path is given. With fewer
    than two cases scored, the log is still written and TooFewSamples names
    the failures.
    """
    if len(test.cases) < 2:
        raise TooFewSamples(f"test set has {len(test.cases)} cases, need >= 2")
    pipe = pipeline or Pipeline.fit(train, cfg.fit)
    template = template or load_template()
    retrieved = [None] * len(test.cases)
    if cfg.mode == "rag":
        retrieved = pipe.retrieve_references_batch(
            test.cases, cfg.k, cfg.expansion_factor, cfg.postprocess
        )

    def one(case, found) -> CasePrediction | str:
        try:
            if isinstance(found, DurcastError):
                raise found
            refs = found[0] if found else None
            return pipe.predict_case(case, cfg, template, references=refs)
        except AllRoundsFailed:
            return "all_rounds_failed"
        except DurcastError as exc:
            return type(exc).__name__

    calls = cfg.backend.call_pool
    if calls is None:
        results = list(map(one, test.cases, retrieved))
    else:
        def admitted(case, found):
            with calls.admit():
                return one(case, found)

        with ThreadPoolExecutor(max_workers=calls.limit) as pool:
            results = list(pool.map(admitted, test.cases, retrieved))

    pairs = []
    ids = []
    causes = Counter()
    for case, pred in zip(test.cases, results):
        if isinstance(pred, str):
            causes[pred] += 1
        elif case.duration_min is not None:
            pairs.append((case.duration_min, pred.estimate.y_hat_min))
            ids.append(case.id)
    failed = sum(causes.values())
    if jsonl_path is not None:
        try:
            with open(jsonl_path, "w", encoding="utf-8", newline="\n") as fh:
                for case, pred in zip(test.cases, results):
                    line = (
                        {"id": case.id, "error": pred}
                        if isinstance(pred, str)
                        else prediction_json(pred)
                    )
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
        except OSError as exc:
            raise IoError(f"cannot write per-case log {jsonl_path}: {exc}") from exc
    if len(pairs) < 2 and failed:
        raise TooFewSamples(
            f"{len(results) - failed} of {len(results)} cases answered; failed: "
            + ", ".join(f"{label} {count}" for label, count in causes.most_common())
        )
    return compute_metrics(pairs, ids, failed=failed)


def global_median_baseline(train_durations, test: CaseSet) -> MetricsReport:
    """Constant predictor: the median of the training durations (a sequence
    in case order) for every case."""
    if not len(train_durations):
        raise TooFewSamples("train set has no recorded durations")
    median = float(np.median(train_durations))
    pairs = [
        (c.duration_min, median) for c in test.cases if c.duration_min is not None
    ]
    return compute_metrics(pairs, [c.id for c in test.cases if c.duration_min is not None])


def _axis(name: str) -> tuple:
    if name not in ABLATION_AXES:
        raise BadAxisValue(f"unknown axis {name!r}, expected one of {ABLATION_AXES}")
    return _AXES[name]


def parse_axis_values(axis: str, text: str) -> list:
    """The comma-separated values of text, each read as the axis reads one;
    blank items are skipped. Reads no file."""
    read = _axis(axis)[0]
    try:
        return [read(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise ParseError(f"cannot parse --values for axis {axis}: {exc}") from exc


def _cell_config(base: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    read, cell = _axis(axis)
    if read is _on_off and not isinstance(value, bool):
        raise BadAxisValue(f"{axis} values must be booleans, got {value!r}")
    try:
        return cell(base, value)
    except SpecError as exc:
        raise BadAxisValue(f"bad {axis} value {value!r}: {exc}") from exc


def run_ablation_grid(
    base: ExperimentConfig,
    axis: str,
    values: list,
    train: CaseSet,
    test: CaseSet,
    csv_path: str | Path | None = None,
    template: PromptTemplate | None = None,
    pipeline: Pipeline | None = None,
) -> list[tuple[object, MetricsReport]]:
    """One experiment per axis value, all sharing the base seed.

    Each cell runs on a pipeline fitted under its cfg.fit: the supplied
    pipeline when its fit_config matches, else one fitted from train once
    and shared by every cell with that fit (only the PCA toggle changes it).
    A refit from a loaded pipeline's train_cases() is the refit from train.
    Each cell gets its own copy of the backend, so a stateful backend
    starts every cell afresh and the grid isolates the axis.
    """
    if not values:
        raise BadAxisValue(f"axis {axis!r} needs at least one value")
    configs = [(v, _cell_config(base, axis, v)) for v in values]
    pipelines = [pipeline] if pipeline is not None else []
    rows = []
    for value, cfg in configs:
        cfg = replace(cfg, backend=replace(cfg.backend))
        pipe = next((p for p in pipelines if p.fit_config == cfg.fit), None)
        if pipe is None:
            pipe = Pipeline.fit(train, cfg.fit)
            pipelines.append(pipe)
        report = run_experiment(cfg, train, test, pipeline=pipe, template=template)
        rows.append((value, report))
    if csv_path is not None:
        write_grid_csv(axis, rows, csv_path)
    return rows


def _metric_columns(report: MetricsReport) -> dict:
    return {
        "m": report.m,
        "failed": report.failed,
        "mae_min": repr(report.mae_min),
        "rmse_min": repr(report.rmse_min),
        "r2": repr(report.r2),
        "mape_pct": repr(report.mape_pct),
    }


def metrics_csv_row(label: str, report: MetricsReport) -> dict:
    return {"experiment": label, **_metric_columns(report)}


def write_metrics_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise SpecError("metrics CSV needs at least one row")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write metrics CSV {path}: {exc}") from exc


def write_grid_csv(axis: str, rows: list[tuple[object, MetricsReport]], path: str | Path) -> None:
    write_metrics_csv(
        [{"axis": axis, "value": str(value), **_metric_columns(report)} for value, report in rows],
        path,
    )
