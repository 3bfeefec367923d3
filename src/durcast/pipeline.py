"""End-to-end wiring: fit retrieval state from a training set, predict one
case under any inference mode, persist and reload the fitted artifacts.

Fitting: encode the training cases, derive PCA importance weights (or
uniform ones) and build the flat index over weighted embeddings rounded to
index.STORED_DTYPE, as index.bin stores them, so a fitted pipeline is
bitwise its reload. A pipeline, fitted or reloaded, derives its stratum
priors from the index's case table on first use of each stratum. Loading
reads the index's columns and decodes no case: a reloaded index decodes a
case's values on first access, so a prediction reads only its references.
Prediction: embed the query, retrieve and refine references, look up the
prior, build the prompt, run the multi-round ensemble, aggregate.

ExperimentConfig holds every setting of one prediction protocol; its fit
field is the FitConfig a pipeline is fitted under.

Artifact directory layout (see save_artifacts); the artifacts hold only
what prediction reads:
    schema.yaml      feature schema
    encoder.json     fitted per-feature statistics and the per-dimension
                     weights
    index.bin        flat index: vectors and the case table's columns, each
                     case's values decoded only when a query reads it
    importance.csv   per-feature weight mass, descending
    manifest.json    fit config + sha256 of every other file (fingerprint)

load_artifacts reads schema.yaml with FeatureSchema.from_yaml, which parses
with libyaml's safe loader when PyYAML has it (the pure-Python SafeLoader
otherwise): that file is always to_yaml's output, which both loaders read
alike, and the C parser takes a fraction of the time. An operator's --schema
file goes through load_schema and yaml.safe_load, as the loaders can read
hand-written YAML differently.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import encoding, index as index_mod, pca as pca_mod
from .aggregate import STRATEGIES, AggregateEstimate, aggregate
from .encoding import FittedEncoder
from .errors import (
    ArtifactError,
    DimensionMismatch,
    DurcastError,
    EmbeddingServiceError,
    EmptyTrainingSet,
    IoError,
    ModeArgumentMismatch,
    SpecError,
)
from .index import FlatIndex, ReferenceSet
from .llm import LlmBackend, PredictionEnsemble, _is_int, predict_ensemble, stable_seed
from .priors import DEFAULT_MIN_COHORT, PRIOR_MODES, PriorIndex, StatisticalPrior, prior_strength
from .prompting import PromptTemplate, build_prompt, load_template
from .schema import CaseSet, FeatureSchema, SurgicalCase
from .strata import GLOBAL_STRATUM, ladder
from .text_embedding import HashingTextEmbedder, RemoteTextEmbedder, TextEmbedder

DEFAULT_K = 8
DEFAULT_EXPANSION = 10
DEFAULT_ROUNDS = 5
DEFAULT_W_PRIOR = 0.9

# Every file save_artifacts writes besides manifest.json, which lists each
# one with its sha256.
ARTIFACT_FILES = ("schema.yaml", "encoder.json", "index.bin", "importance.csv")


@dataclass(frozen=True)
class FitConfig:
    """How a pipeline is fitted. pca_top_m pins the number of principal
    components; when None, the fewest reaching variance_fraction are kept."""

    pca_weighting: bool = True
    variance_fraction: float = 0.95
    pca_top_m: int | None = None
    min_cohort: int = DEFAULT_MIN_COHORT
    embedder: dict = field(
        default_factory=lambda: {"type": "hashing", "dim": 256, "ngram": 3}
    )

    def __post_init__(self):
        if not isinstance(self.pca_weighting, bool):
            raise SpecError(f"pca_weighting must be true or false, got {self.pca_weighting!r}")
        fraction = self.variance_fraction
        number = isinstance(fraction, (int, float)) and not isinstance(fraction, bool)
        if not (number and 0.0 < fraction <= 1.0):
            raise SpecError(f"variance_fraction must be a number in (0, 1], got {fraction!r}")
        if self.pca_top_m is not None and not _is_count(self.pca_top_m):
            raise SpecError(f"pca_top_m must be an integer >= 1, got {self.pca_top_m!r}")
        if not _is_count(self.min_cohort):
            raise SpecError(f"min_cohort must be an integer >= 1, got {self.min_cohort!r}")
        make_embedder(self.embedder)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


# The inference modes; predict_case gives each its prompt parts and strategy.
MODES = ("zero_shot", "random_few_shot", "rag")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of one prediction protocol. k, rounds and
    expansion_factor are ints: k is 0 in zero_shot mode and >= 1 otherwise,
    the others >= 1. w_prior is a finite number >= 0 in every mode and
    postprocess a bool. A bad setting is a SpecError; an unknown mode, or a
    k other than 0 in zero_shot, is a ModeArgumentMismatch."""

    backend: LlmBackend
    mode: str = "rag"
    k: int = DEFAULT_K
    rounds: int = DEFAULT_ROUNDS
    expansion_factor: int = DEFAULT_EXPANSION
    w_prior: float = DEFAULT_W_PRIOR
    strategy: str = "bayesian"
    seed: int = 0
    postprocess: bool = True
    prior_mode: str = "fixed"
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ModeArgumentMismatch(f"unknown mode {self.mode!r}")
        if not _is_int(self.k):
            raise SpecError(f"k must be an integer, got {self.k!r}")
        if self.mode == "zero_shot" and self.k != 0:
            raise ModeArgumentMismatch(
                f"zero_shot uses no references; k must be 0, got {self.k}"
            )
        if self.mode != "zero_shot" and self.k < 1:
            raise SpecError(f"mode {self.mode!r} needs k >= 1, got {self.k}")
        for name in ("rounds", "expansion_factor"):
            if not _is_count(getattr(self, name)):
                raise SpecError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if self.strategy not in STRATEGIES:
            raise SpecError(f"unknown strategy {self.strategy!r}")
        w = self.w_prior
        if not (isinstance(w, (int, float)) and not isinstance(w, bool) and 0.0 <= w < np.inf):
            raise SpecError(f"w_prior must be a finite number >= 0, got {w!r}")
        if not isinstance(self.postprocess, bool):
            raise SpecError(f"postprocess must be true or false, got {self.postprocess!r}")
        if self.prior_mode not in PRIOR_MODES:
            raise SpecError(f"unknown prior strength mode {self.prior_mode!r}")


@dataclass(frozen=True)
class CasePrediction:
    """Full audit record for one query."""

    query_id: str
    mode: str
    truth_min: float | None
    references: ReferenceSet | None
    prior: StatisticalPrior | None
    ensemble: PredictionEnsemble
    estimate: AggregateEstimate


def make_embedder(spec: dict) -> TextEmbedder:
    """The embedder a FitConfig's embedder spec describes, absent keys
    taking their defaults; a spec it cannot build, or with a key its type
    does not take, is a SpecError."""
    kind = spec.get("type", "hashing") if isinstance(spec, dict) else None
    if kind not in ("hashing", "remote"):
        raise SpecError(f"embedder must be a mapping of type hashing or remote, got {spec!r}")
    takes = ("dim", "ngram") if kind == "hashing" else ("dim", "url", "timeout_s")
    unknown = [key for key in spec if key != "type" and key not in takes]
    if unknown:
        raise SpecError(f"{kind} embedder takes no key {', '.join(map(repr, unknown))}")
    for key in ("dim", "ngram"):
        if key in spec and not _is_count(spec[key]):
            raise SpecError(f"embedder {key} must be an integer >= 1, got {spec[key]!r}")
    if kind == "hashing":
        return HashingTextEmbedder(dim=spec.get("dim", 256), ngram=spec.get("ngram", 3))
    if not isinstance(spec.get("url"), str):
        raise SpecError(f"remote embedder url must be a string, got {spec.get('url')!r}")
    timeout = spec.get("timeout_s", 30.0)
    number = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
    if not (number and 0.0 < timeout < np.inf):
        raise SpecError(f"embedder timeout_s must be a positive number, got {timeout!r}")
    return RemoteTextEmbedder(url=spec["url"], dim=spec.get("dim", 768), timeout_s=float(timeout))


class Pipeline:
    def __init__(
        self,
        encoder: FittedEncoder,
        weights: pca_mod.WeightVector,
        flat_index: FlatIndex,
        fit_config: FitConfig,
    ):
        self.encoder = encoder
        self.weights = weights
        self.index = flat_index
        self.priors = PriorIndex(flat_index.table, fit_config.min_cohort)
        self.fit_config = fit_config
        self.schema = encoder.schema

    @classmethod
    def fit(cls, train: CaseSet, config: FitConfig | None = None) -> "Pipeline":
        """Fit every stage from the training cases, the rows with a recorded
        duration: the encoder, PCA, the index and so the priors read no other
        row. PCA weights that zero out every coordinate of an indexed case
        have their zero weights raised to the smallest positive weight
        (lift_zero_weights); other fits keep the PCA weights as derived.
        """
        config = config or FitConfig()
        cases = [case for case in train.cases if case.duration_min is not None]
        if not cases:
            raise EmptyTrainingSet("pipeline fit requires training cases with a recorded duration")
        labelled = CaseSet(cases, train.schema)
        encoder = encoding.fit(labelled, make_embedder(config.embedder))
        # encoding.fit refuses every case that encode_matrix could not encode
        matrix, _ = encoder.encode_matrix(labelled)

        if config.pca_weighting:
            pca_model = pca_mod.fit_pca(matrix)
            k = config.pca_top_m
            if k is None:
                k = pca_mod.k_for_cumulative_variance(pca_model, config.variance_fraction)
            k = max(1, min(k, pca_model.dim))
            weights = pca_mod.derive_weights(pca_model, k)
        else:
            weights = pca_mod.uniform_weights(encoder.dim)

        vectors = _index_rows(matrix, weights)
        if config.pca_weighting and not vectors.any(axis=1).all():
            # PCA left some indexed case no nonzero coordinate, so no
            # cosine direction: let every dimension count a little.
            weights = pca_mod.lift_zero_weights(weights)
            vectors = _index_rows(matrix, weights)
        return cls(encoder, weights, index_mod.build(vectors, cases, train.schema), config)

    def embed_query(self, case: SurgicalCase) -> np.ndarray:
        return self.encoder.encode(case) * self.weights.weights

    def retrieve_references(
        self,
        case: SurgicalCase,
        k: int = DEFAULT_K,
        expansion_factor: int = DEFAULT_EXPANSION,
        postprocess: bool = True,
    ) -> tuple[ReferenceSet, tuple[np.ndarray, np.ndarray]]:
        """Expanded retrieval then clinical refinement (or a plain top-k
        cut when postprocessing is disabled), with the expanded candidates
        the references were picked from as (index rows, similarities)
        arrays: retrieve_references_batch for one case, raising its error."""
        found = self.retrieve_references_batch([case], k, expansion_factor, postprocess)[0]
        if isinstance(found, DurcastError):
            raise found
        return found

    def retrieve_references_batch(
        self,
        cases: Sequence[SurgicalCase],
        k: int = DEFAULT_K,
        expansion_factor: int = DEFAULT_EXPANSION,
        postprocess: bool = True,
    ) -> list[tuple[ReferenceSet, tuple[np.ndarray, np.ndarray]] | DurcastError]:
        """retrieve_references for each case, in order, with one
        encode_matrix call, one index.retrieve_units call and one
        index.postprocess_rows call for all of them; each answer holds the
        candidates as (index rows, similarities) arrays. A case whose query
        vector cannot be computed or retrieved (a bad value, wrong
        dimension, non-finite or zero norm) gets that DurcastError in its
        place, so one bad case leaves the others answered. When the batch's
        embedding request fails, that error is every case's answer."""
        if expansion_factor < 1:
            raise SpecError(f"expansion factor must be >= 1, got {expansion_factor}")
        try:
            matrix, errors = self.encoder.encode_matrix(CaseSet(list(cases), self.schema))
        except EmbeddingServiceError as exc:
            return [exc] * len(cases)
        # unit_queries makes the checks retrieval makes, so the batch of
        # answered rows cannot fail
        try:
            units, unusable = index_mod.unit_queries(self.index, matrix * self.weights.weights)
        except DimensionMismatch as exc:
            return [errors.get(i, exc) for i in range(len(cases))]
        out: list = [errors.get(i) or unusable.get(i) for i in range(len(cases))]
        answered = [i for i, found in enumerate(out) if found is None]
        rows, sims = index_mod.retrieve_units(self.index, units[answered], expansion_factor * k)
        if postprocess:
            queries = [cases[i] for i in answered]
            refs = index_mod.postprocess_rows(self.index.table, rows, sims, queries, k)
        else:
            refs = [
                self._unstratified(zip([self.index.cases[i] for i in case_rows], case_sims))
                for case_rows, case_sims in zip(rows[:, :k].tolist(), sims[:, :k].tolist())
            ]
        for i, ref, case_rows, case_sims in zip(answered, refs, rows, sims):
            out[i] = (ref, (case_rows, case_sims))
        return out

    def random_references(self, k: int, seed: int) -> ReferenceSet:
        """k training cases drawn uniformly without replacement; similarity
        is reported as 0 since none was computed."""
        pool = self.index.cases
        # Sampling row numbers picks what sampling the cases would, and
        # reads only the picked cases.
        picks = random.Random(seed).sample(range(len(pool)), min(k, len(pool)))
        return self._unstratified((pool[i], 0.0) for i in picks)

    def _unstratified(self, references) -> ReferenceSet:
        """References picked without the stratum walk: the unfiltered tier."""
        return ReferenceSet(
            references=tuple(references),
            fallback_level=len(ladder(self.schema.key_attributes)) - 1,
            stratum_descriptor=GLOBAL_STRATUM,
            iqr_bounds=None,
        )

    def predict_case(
        self,
        query: SurgicalCase,
        cfg: ExperimentConfig,
        template: PromptTemplate | None = None,
        strict: bool = False,
        references: ReferenceSet | None = None,
    ) -> CasePrediction:
        """One query end to end under cfg's protocol; cfg.fit is not read,
        since the pipeline is already fitted. In rag mode, references, when
        given, are the query's retrieve_references result under cfg and
        stand in for retrieving them here.

        rag prompts with references and the stratum prior and aggregates by
        cfg.strategy; random_few_shot (random references) and zero_shot
        (neither) take a simple average, as the prior is part of the
        retrieval-augmented protocol.
        """
        template = template or load_template()
        refs: ReferenceSet | None = None
        prior: StatisticalPrior | None = None
        strategy = "simple_average"
        if cfg.mode == "rag":
            refs = references
            if refs is None:
                refs = self.retrieve_references(
                    query, cfg.k, cfg.expansion_factor, cfg.postprocess
                )[0]
            prior = self.priors.for_query(query)
            strategy = cfg.strategy
        elif cfg.mode == "random_few_shot":
            refs = self.random_references(cfg.k, stable_seed(cfg.seed, "random-refs", query.id))

        prompt = build_prompt(query, refs, prior, template, self.schema)
        seed = stable_seed(cfg.seed, "ensemble", query.id)
        ensemble = predict_ensemble(prompt, cfg.backend, cfg.rounds, seed=seed, strict=strict)
        bayesian = strategy == "bayesian"
        weight = prior_strength(prior, cfg.w_prior, cfg.prior_mode) if bayesian else 0.0
        estimate = aggregate(ensemble, strategy, prior, weight)
        return CasePrediction(
            query_id=query.id,
            mode=cfg.mode,
            truth_min=query.duration_min,
            references=refs,
            prior=prior,
            ensemble=ensemble,
            estimate=estimate,
        )

    def importance_report(self) -> list[tuple[str, float]]:
        return pca_mod.feature_importance_report(self.weights, self.encoder.feature_spans)

    def train_cases(self) -> CaseSet:
        """The indexed cases, as the index holds them: a loaded index decodes
        a case only when something reads it."""
        return CaseSet(cases=self.index.cases, schema=self.schema)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _index_rows(rows: np.ndarray, weights: pca_mod.WeightVector) -> np.ndarray:
    """rows * weights rounded to index_mod.STORED_DTYPE: each product is
    taken in float64 and rounded once, with no float64 temporary."""
    out = np.empty(rows.shape, dtype=index_mod.STORED_DTYPE)
    return np.multiply(rows, weights.weights, out=out, casting="same_kind")


def save_artifacts(pipeline: Pipeline, out_dir: str | Path) -> None:
    """Persist every fitted stage plus a manifest fingerprinting the files.
    fit_config.embedder is the one record of the text embedder, so an
    encoder that embeds otherwise is a SpecError before anything is written."""
    if make_embedder(pipeline.fit_config.embedder) != pipeline.encoder.text_embedder:
        raise SpecError("cannot save an encoder that embeds otherwise than fit_config.embedder")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create artifact directory {out}: {exc}") from exc

    files: dict[str, bytes] = {}
    files["schema.yaml"] = pipeline.schema.to_yaml().encode("utf-8")

    files["encoder.json"] = json.dumps(
        {
            "numeric_stats": pipeline.encoder.numeric_stats,
            "ordinal_missing": pipeline.encoder.ordinal_missing,
            "cat_vocabs": {k: list(v) for k, v in pipeline.encoder.cat_vocabs.items()},
            "bool_missing": pipeline.encoder.bool_missing,
            "weights": pipeline.weights.weights.tolist(),
            "k_used": pipeline.weights.k_used,
        },
        sort_keys=True,
        indent=2,
    ).encode("utf-8")

    files["index.bin"] = index_mod.save_index(pipeline.index)

    report = pipeline.importance_report()
    report_buf = io.StringIO()
    writer = csv.writer(report_buf)
    writer.writerow(["feature", "score"])
    for name, score in report:
        writer.writerow([name, repr(score)])
    files["importance.csv"] = report_buf.getvalue().encode("utf-8")

    digests = {name: _sha256(blob) for name, blob in files.items()}
    config_doc = {"fit_config": asdict(pipeline.fit_config), "files": digests}
    fingerprint = _sha256(json.dumps(config_doc, sort_keys=True).encode("utf-8"))
    manifest = dict(config_doc, fingerprint=fingerprint)
    files["manifest.json"] = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")

    try:
        for name, blob in files.items():
            (out / name).write_bytes(blob)
    except OSError as exc:
        raise IoError(f"cannot write artifacts under {out}: {exc}") from exc


def load_artifacts(artifact_dir: str | Path) -> Pipeline:
    """Reload a persisted pipeline, verifying every file against the
    manifest fingerprint and decoding the very bytes it verified. A
    mismatch, or a manifest not in the form save_artifacts writes, is a
    hard ArtifactError."""
    root = Path(artifact_dir)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read manifest under {root}: {exc}") from exc
    except ValueError as exc:
        raise ArtifactError(f"manifest under {root} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(f"manifest under {root} is not a JSON object")

    recorded = {k: v for k, v in manifest.items() if k != "fingerprint"}
    if manifest.get("fingerprint") != _sha256(json.dumps(recorded, sort_keys=True).encode()):
        raise ArtifactError(f"manifest fingerprint mismatch under {root}")
    digests, fit_doc = manifest.get("files"), manifest.get("fit_config")
    if not isinstance(digests, dict) or set(digests) != set(ARTIFACT_FILES):
        raise ArtifactError(
            f"manifest under {root} must list exactly {', '.join(ARTIFACT_FILES)}; "
            "rebuild the artifacts with `durcast build`"
        )
    if not isinstance(fit_doc, dict) or set(fit_doc) != {f.name for f in fields(FitConfig)}:
        raise ArtifactError(f"manifest under {root} lacks a complete fit_config")
    blobs = {}
    for name in ARTIFACT_FILES:
        try:
            blobs[name] = (root / name).read_bytes()
        except OSError as exc:
            raise ArtifactError(f"artifact {name} missing under {root}: {exc}") from exc
        if _sha256(blobs[name]) != digests[name]:
            raise ArtifactError(f"artifact {name} does not match its fingerprint")

    try:
        fit_config = FitConfig(**fit_doc)
    except SpecError as exc:
        raise ArtifactError(f"manifest under {root} has a bad fit_config: {exc}") from exc
    try:
        schema = FeatureSchema.from_yaml(blobs["schema.yaml"].decode("utf-8"))
        enc_doc = json.loads(blobs["encoder.json"])
        encoder = FittedEncoder(
            schema=schema,
            text_embedder=make_embedder(fit_config.embedder),
            numeric_stats={k: tuple(v) for k, v in enc_doc["numeric_stats"].items()},
            ordinal_missing=enc_doc["ordinal_missing"],
            cat_vocabs={k: tuple(v) for k, v in enc_doc["cat_vocabs"].items()},
            bool_missing=enc_doc["bool_missing"],
        )
        raw, k_used = enc_doc["weights"], enc_doc["k_used"]
        floats = isinstance(raw, list) and all(type(w) is float for w in raw)
        if not (floats and len(raw) == encoder.dim and np.isfinite(raw).all() and _is_int(k_used)):
            raise ValueError(f"weights must be {encoder.dim} finite floats, k_used an integer")
        weights = pca_mod.WeightVector(np.array(raw), k_used=k_used)
    except (ValueError, KeyError, TypeError, AttributeError, SpecError) as exc:
        raise ArtifactError(f"artifacts under {root} do not decode: {exc}") from exc
    flat_index = index_mod.load_index(blobs["index.bin"], schema)
    return Pipeline(encoder, weights, flat_index, fit_config)
