"""Operator command line.

Subcommands:
    generate   synthesize a corpus and write train/val/test CSVs + schema
    build      fit encoder/PCA/weights/index/priors and persist artifacts
    predict    run one case end to end and print the audit view
    evaluate   run a protocol over a test CSV, write metrics CSV + JSONL
    ablate     sweep one config axis and write the grid CSV

Exit codes: 0 success, 1 pipeline error, 2 usage error, 3 backend
unreachable.

A YAML config file (--config) may set any long-option name (dashes or
underscores); values from the file override the corresponding flags and
are checked and converted like them (a bad value is a usage error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import yaml

from .aggregate import STRATEGIES
from .errors import (
    BackendUnreachable,
    DurcastError,
    IoError,
    ParseError,
)
from .evaluate import (
    ExperimentConfig,
    global_median_baseline,
    metrics_csv_row,
    parse_axis_values,
    run_ablation_grid,
    run_experiment,
    write_metrics_csv,
)
from .llm import (
    HttpChatBackend,
    MockEchoPrior,
    MockReferenceMean,
    MockScripted,
)
from .pipeline import (
    DEFAULT_EXPANSION,
    DEFAULT_K,
    DEFAULT_ROUNDS,
    DEFAULT_W_PRIOR,
    MODES,
    FitConfig,
    Pipeline,
    load_artifacts,
    save_artifacts,
)
from .priors import PRIOR_MODES
from .prompting import load_template
from .schema import (
    CaseSet,
    SurgicalCase,
    ingest_csv,
    load_schema_file,
    split,
    write_csv,
)
from .synthetic import SyntheticSpec, default_schema, generate_synthetic

BACKENDS = ("mock_reference_mean", "mock_echo_prior", "mock_scripted", "http")


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Overlay values from the YAML config file onto parsed flags, each
    converted and checked like the flag's own argument (a list feeds a
    repeatable flag, null restores the default)."""
    if not getattr(args, "config", None):
        return
    try:
        doc = yaml.safe_load(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        parser.error(f"cannot read config file {args.config}: {exc}")
    if doc is None:
        return
    if not isinstance(doc, dict):
        parser.error(f"config file {args.config} must be a mapping")
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = subparsers.choices[args.command]
    flags = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    for key, value in doc.items():
        action = flags.get(str(key).replace("-", "_"))
        if action is None:
            command.error(f"config file sets unknown option {key!r}")
        if value is None:
            value = action.default
        elif action.nargs == 0:
            if not isinstance(value, bool):
                command.error(f"config option {key!r} must be true or false, got {value!r}")
        elif isinstance(action, argparse._AppendAction):
            items = value if isinstance(value, list) else [value]
            value = [_flag_value(command, action, key, item) for item in items]
        else:
            value = _flag_value(command, action, key, value)
        setattr(args, action.dest, value)


def _flag_value(command: argparse.ArgumentParser, action: argparse.Action, key, value):
    """A config value converted the way argparse converts the flag's argument."""
    convert = action.type or str
    if "\0" in str(value):
        command.error(f"config option {key!r}: no command line holds a NUL character: {value!r}")
    try:
        result = convert(str(value))
    except (TypeError, ValueError):
        command.error(f"config option {key!r}: invalid {convert.__name__} value: {value!r}")
    if action.choices is not None and result not in action.choices:
        command.error(f"config option {key!r}: invalid choice {value!r}, not in {action.choices}")
    return result


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    """Backend flags default to None: an unset flag leaves the backend's
    own default in place. A flag of another backend is a usage error."""
    p.add_argument("--backend", choices=BACKENDS, default="mock_reference_mean")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--api-key-env", default=None)
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--max-retries", type=int, default=None,
                   help="extra attempts per round (default 2)")
    p.add_argument("--concurrency", type=int, default=None,
                   help="most backend calls in flight (default 10); http runs "
                        "its calls on that many threads, the mocks run inline")
    p.add_argument("--noise-sd", type=float, default=None,
                   help="gaussian noise of mock_reference_mean")
    p.add_argument("--mock-seed", type=int, default=None)
    p.add_argument("--script", action="append", default=None,
                   help="completion text for mock_scripted (repeatable)")


# Each backend's class and its own flags, flag dest -> constructor argument.
BACKEND_FLAGS = {
    "http": (HttpChatBackend, {"endpoint": "endpoint", "model": "model_name",
                               "api_key_env": "api_key_env", "timeout_s": "timeout_s"}),
    "mock_echo_prior": (MockEchoPrior, {}),
    "mock_scripted": (MockScripted, {"script": "outputs"}),
    "mock_reference_mean": (MockReferenceMean, {"noise_sd": "noise_sd", "mock_seed": "seed"}),
}


def _check_backend_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Refuse a set flag that the chosen backend does not take."""
    for backend, (_, flags) in BACKEND_FLAGS.items():
        for dest in flags:
            if backend != args.backend and getattr(args, dest) is not None:
                parser.error(
                    f"--{dest.replace('_', '-')} applies to --backend {backend}, "
                    f"not {args.backend}"
                )


def _make_backend(args: argparse.Namespace):
    cls, flags = BACKEND_FLAGS[args.backend]
    given = {arg: getattr(args, dest) for dest, arg in flags.items()}
    if given.get("outputs") is not None:
        given["outputs"] = tuple(given["outputs"])
    given.update(max_retries=args.max_retries, concurrency_limit=args.concurrency)
    return cls(**{name: value for name, value in given.items() if value is not None})


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=MODES, default="rag")
    p.add_argument("--k", type=int, default=None,
                   help="reference count (default: 8, or 0 in zero_shot)")
    p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    p.add_argument("--expansion", type=int, default=DEFAULT_EXPANSION)
    p.add_argument("--w-prior", type=float, default=DEFAULT_W_PRIOR)
    p.add_argument("--strategy", choices=STRATEGIES, default="bayesian")
    p.add_argument("--prior-mode", choices=PRIOR_MODES, default="fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-postprocess", action="store_true")
    p.add_argument("--template", default=None, help="prompt template file")


# The fit flags' dests. They default to None, so an unset flag leaves
# FitConfig's default in place.
FIT_FLAGS = ("no_pca", "pca_top_m", "variance_fraction", "min_cohort")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-pca", action="store_true", default=None)
    p.add_argument("--pca-top-m", type=int, default=None)
    p.add_argument("--variance-fraction", type=float, default=None)
    p.add_argument("--min-cohort", type=int, default=None)


def _fit_config(args: argparse.Namespace, **fixed) -> FitConfig:
    given = {
        "pca_weighting": None if args.no_pca is None else not args.no_pca,
        "pca_top_m": args.pca_top_m,
        "variance_fraction": args.variance_fraction,
        "min_cohort": args.min_cohort,
    }
    return FitConfig(**{k: v for k, v in given.items() if v is not None}, **fixed)


def _resolve_k(args: argparse.Namespace) -> int:
    if args.k is None:
        return 0 if args.mode == "zero_shot" else DEFAULT_K
    return args.k


def _experiment_config(args: argparse.Namespace, pipe: Pipeline | None) -> ExperimentConfig:
    """The run's settings; a loaded pipeline's fit is the run's fit."""
    return ExperimentConfig(
        backend=_make_backend(args),
        mode=args.mode,
        k=_resolve_k(args),
        rounds=args.rounds,
        expansion_factor=args.expansion,
        w_prior=args.w_prior,
        strategy=args.strategy,
        seed=args.seed,
        postprocess=not args.no_postprocess,
        prior_mode=args.prior_mode,
        fit=pipe.fit_config if pipe else _fit_config(args),
    )


def _load_sets(args: argparse.Namespace) -> tuple[Pipeline | None, CaseSet, CaseSet]:
    if getattr(args, "artifacts", None):
        pipe = load_artifacts(args.artifacts)
        schema = pipe.schema
        train = pipe.train_cases()
    else:
        pipe = None
        schema = load_schema_file(args.schema)
        train = ingest_csv(args.train, schema)
    test = ingest_csv(args.test, schema)
    return pipe, train, test


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        ratios = ()  # refused below, as a count other than three is
    if len(ratios) != 3:
        raise ParseError(f"--ratios needs three comma-separated numbers, got {args.ratios!r}")
    corpus = generate_synthetic(SyntheticSpec(n_cases=args.n), seed=args.seed)
    train, val, test = split(corpus, ratios, seed=args.seed)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "schema.yaml").write_text(default_schema().to_yaml(), encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write the corpus under {out}: {exc}") from exc
    for name, cs in (("train", train), ("val", val), ("test", test)):
        write_csv(cs, out / f"{name}.csv")
    print(f"wrote {len(train)}/{len(val)}/{len(test)} cases under {out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    schema = load_schema_file(args.schema)
    train = ingest_csv(args.train, schema)
    fixed = {}
    if args.embedder_dim is not None:
        fixed["embedder"] = {"type": "hashing", "dim": args.embedder_dim, "ngram": 3}
    pipe = Pipeline.fit(train, _fit_config(args, **fixed))
    save_artifacts(pipe, args.out)
    print(f"artifacts written under {args.out}")
    print(f"importance report: {Path(args.out) / 'importance.csv'}")
    return 0


def _query_from_args(args: argparse.Namespace, pipe: Pipeline) -> SurgicalCase:
    if args.case:
        cases = ingest_csv(args.case, pipe.schema).cases
        if len(cases) != 1:
            raise ParseError(f"--case file must hold exactly 1 row, found {len(cases)}")
        return cases[0]
    values: dict = {name: None for name in pipe.schema.feature_names}
    for pair in args.set or []:
        if "=" not in pair:
            raise ParseError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        if key not in pipe.schema.feature_names:
            raise ParseError(f"unknown feature {key!r} in --set")
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError:  # bytes that are not UTF-8 reach argv as surrogates
            raise ParseError(f"feature {key!r}: --set value is not valid UTF-8") from None
        if raw == "":  # missing, as a blank CSV cell is
            values[key] = None
        elif pipe.schema.kind_of(key) == "numerical":
            try:
                values[key] = float(raw)
            except ValueError:
                raise ParseError(f"feature {key!r} expects a number, got {raw!r}") from None
            if not math.isfinite(values[key]):
                raise ParseError(f"feature {key!r} expects a finite number, got {raw!r}")
        else:
            values[key] = raw
    return SurgicalCase(id=args.query_id, values=values, duration_min=None)


def _print_audit(pred) -> None:
    print(f"query case: {pred.query_id}")
    print(f"mode: {pred.mode}")
    if pred.references is not None:
        refs = pred.references
        print(
            f"references (stratum: {refs.stratum_descriptor}, tier {refs.fallback_level}):"
        )
        for i, (case, sim) in enumerate(refs.references, start=1):
            print(
                f"  {i}. {case.id}  similarity {sim:.3f}  "
                f"duration {int(round(case.duration_min))} min"
            )
    if pred.prior is not None:
        p = pred.prior
        print(f"prior (cohort {p.cohort_size}, stratum: {p.stratum_descriptor}):")
        print(f"  median {p.median_min:.1f}  mean {p.mean_min:.1f}")
        print(
            f"  range [{p.range_min[0]:.1f}, {p.range_min[1]:.1f}]  "
            f"IQR [{p.iqr_min[0]:.1f}, {p.iqr_min[1]:.1f}]"
        )
    print("rounds:")
    for r in pred.ensemble.rounds:
        print(f"  {r.round_index}. temperature {r.temperature:.3f}  parsed {r.parsed_minutes:.1f}")
    e = pred.estimate
    print(
        f"estimate: {e.y_hat_min:.1f} minutes ({e.strategy}, "
        f"ensemble mean {e.ensemble_mean:.1f}, prior weight {e.prior_weight:g}, "
        f"effective n {e.effective_n})"
    )


def cmd_predict(args: argparse.Namespace) -> int:
    pipe = load_artifacts(args.artifacts)
    query = _query_from_args(args, pipe)
    template = load_template(args.template) if args.template else None
    pred = pipe.predict_case(query, _experiment_config(args, pipe), template, strict=True)
    if args.json:
        from .evaluate import prediction_json

        print(json.dumps(prediction_json(pred), sort_keys=True, indent=2))
    else:
        _print_audit(pred)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    pipe, train, test = _load_sets(args)
    cfg = _experiment_config(args, pipe)
    template = load_template(args.template) if args.template else None
    report = run_experiment(
        cfg, train, test, pipeline=pipe, jsonl_path=args.jsonl, template=template
    )
    rows = [metrics_csv_row(f"{args.mode}", report)]
    if args.with_median_baseline:
        # a loaded index holds the durations column, so no case is decoded
        durations = pipe.index.table.durations if pipe else train.durations()
        baseline = global_median_baseline(durations, test)
        rows.append(metrics_csv_row("global_median_baseline", baseline))
    if args.metrics_csv:
        write_metrics_csv(rows, args.metrics_csv)
    for row in rows:
        print(
            f"{row['experiment']}: m={row['m']} failed={row['failed']} "
            f"mae={float(row['mae_min']):.2f} rmse={float(row['rmse_min']):.2f} "
            f"r2={float(row['r2']):.4f} mape={float(row['mape_pct']):.2f}%"
        )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    values = parse_axis_values(args.axis, args.values)
    pipe, train, test = _load_sets(args)
    base = _experiment_config(args, pipe)
    template = load_template(args.template) if args.template else None
    rows = run_ablation_grid(
        base, args.axis, values, train, test, csv_path=args.out, template=template, pipeline=pipe
    )
    for value, report in rows:
        print(
            f"{args.axis}={value}: mae={report.mae_min:.2f} "
            f"rmse={report.rmse_min:.2f} r2={report.r2:.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="durcast",
        description="Retrieval-augmented surgical duration prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="fit and persist pipeline artifacts")
    p.add_argument("--train", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embedder-dim", type=int, default=None)
    p.add_argument("--config", default=None)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("predict", help="predict one case and print the audit view")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--case", default=None, help="CSV file with exactly one row")
    p.add_argument("--set", action="append", default=None,
                   help="inline feature as key=value (repeatable)")
    p.add_argument("--query-id", default="query-1")
    p.add_argument("--json", action="store_true")
    p.add_argument("--config", default=None)
    _add_experiment_flags(p)
    _add_backend_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run one protocol over a test set")
    p.add_argument("--train", default=None)
    p.add_argument("--schema", default=None)
    p.add_argument("--artifacts", default=None,
                   help="reuse built artifacts instead of --train/--schema")
    p.add_argument("--test", required=True)
    p.add_argument("--metrics-csv", default=None)
    p.add_argument("--jsonl", default=None)
    p.add_argument("--with-median-baseline", action="store_true")
    p.add_argument("--config", default=None)
    _add_experiment_flags(p)
    _add_fit_flags(p)
    _add_backend_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="sweep one config axis")
    p.add_argument("--train", default=None)
    p.add_argument("--schema", default=None)
    p.add_argument("--artifacts", default=None)
    p.add_argument("--test", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--out", default=None, help="grid CSV path")
    p.add_argument("--config", default=None)
    _add_experiment_flags(p)
    _add_fit_flags(p)
    _add_backend_flags(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config_file(args, parser)
    if args.command in ("evaluate", "ablate") and not args.artifacts:
        if not args.train or not args.schema:
            parser.error(f"{args.command} needs either --artifacts or --train and --schema")
    if getattr(args, "artifacts", None) and any(
        getattr(args, dest, None) is not None for dest in FIT_FLAGS
    ):
        parser.error("fit flags cannot be combined with --artifacts, which fix the fit")
    if hasattr(args, "backend"):
        _check_backend_flags(args, parser)
    try:
        return args.func(args)
    except BackendUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DurcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
