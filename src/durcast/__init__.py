"""Training-free surgical duration prediction.

Historical cases are encoded into category-normalized vectors, weighted by
PCA-derived importance, and retrieved by cosine similarity with clinical
post-processing; retrieved references and stratum statistics are rendered
into a structured prompt, answered by a multi-round temperature-scheduled
generator, and fused with the stratum prior by Bayesian averaging.
"""

from .aggregate import AggregateEstimate, aggregate
from .encoding import FittedEncoder, fit
from .errors import DurcastError
from .evaluate import (
    ExperimentConfig,
    MetricsReport,
    compute_metrics,
    global_median_baseline,
    run_ablation_grid,
    run_experiment,
)
from .index import (
    FlatIndex,
    ReferenceSet,
    RetrievalCandidate,
    build,
    retrieve,
)
from .llm import (
    HttpChatBackend,
    MockEchoPrior,
    MockReferenceMean,
    MockScripted,
    PredictionEnsemble,
    parse_duration,
    predict_ensemble,
    schedule_temperatures,
)
from .pca import (
    PCAModel,
    WeightVector,
    derive_weights,
    feature_importance_report,
    fit_pca,
    uniform_weights,
)
from .pipeline import CasePrediction, FitConfig, Pipeline, load_artifacts, save_artifacts
from .priors import PriorIndex, StatisticalPrior, compute_prior, prior_strength
from .prompting import Prompt, PromptTemplate, build_prompt, load_template, render_reference
from .schema import CaseSet, FeatureSchema, SurgicalCase, ingest_csv, load_schema, split
from .synthetic import SyntheticSpec, default_schema, generate_synthetic
from .text_embedding import HashingTextEmbedder, RemoteTextEmbedder

__version__ = "0.1.0"
