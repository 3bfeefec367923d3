"""Fusing a prediction ensemble into one estimate.

The primary strategy is Bayesian averaging against the stratum prior:

    y_hat = (w_prior * mu_prior + n * y_bar) / (w_prior + n)

with y_bar the mean of retained rounds, n the retained-round count, and
mu_prior the stratum median. Four baseline strategies (median, majority
voting, quantile average, simple average) operate on the ensemble alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, SpecError
from .llm import PredictionEnsemble
from .priors import StatisticalPrior

BASELINE_STRATEGIES = ("median", "majority_voting", "quantile_average", "simple_average")
STRATEGIES = ("bayesian", *BASELINE_STRATEGIES)

_VOTE_BIN_MIN = 5.0


@dataclass(frozen=True)
class AggregateEstimate:
    y_hat_min: float
    strategy: str
    ensemble_mean: float
    prior_weight: float
    effective_n: int


def _values(ens: PredictionEnsemble) -> np.ndarray:
    if not ens.rounds:
        raise EmptyEnsemble("ensemble has no retained rounds")
    return np.array(ens.values(), dtype=np.float64)


def bayesian_average(
    ens: PredictionEnsemble, prior: StatisticalPrior, w_prior: float
) -> AggregateEstimate:
    """Convex combination of ensemble mean and prior median with weights
    n/(w_prior+n) and w_prior/(w_prior+n)."""
    if not 0.0 <= w_prior < np.inf:
        raise SpecError(f"prior weight must be finite and >= 0, got {w_prior}")
    values = _values(ens)
    n = values.shape[0]
    y_bar = float(values.mean())
    mu = prior.median_min
    if w_prior == 0.0:
        # algebraically the formula collapses to y_bar; computing it via
        # (n * y_bar) / n can drift one ulp
        y_hat = y_bar
    else:
        y_hat = (w_prior * mu + n * y_bar) / (w_prior + n)
    return AggregateEstimate(
        y_hat_min=float(y_hat),
        strategy="bayesian",
        ensemble_mean=y_bar,
        prior_weight=w_prior,
        effective_n=n,
    )


def _majority_vote(values: np.ndarray) -> float:
    """Mode over 5-minute bins; ties resolved toward the bin closest to the
    ensemble mean, an exact tie there toward the lower bin. The winning bin
    value is clamped into the observed range so voting cannot round outside
    the ensemble."""
    bins = [_VOTE_BIN_MIN * np.floor(v / _VOTE_BIN_MIN + 0.5) for v in values]
    counts = Counter(bins)
    best_count = max(counts.values())
    mean = float(values.mean())
    contenders = sorted(b for b, c in counts.items() if c == best_count)
    winner = min(contenders, key=lambda b: (abs(b - mean), b))
    return float(min(max(winner, values.min()), values.max()))


def baseline_aggregate(ens: PredictionEnsemble, strategy: str) -> AggregateEstimate:
    """Prior-free aggregation of the retained rounds.

    median: order-statistic median. simple_average: arithmetic mean.
    quantile_average: mean of values inside [P25, P75] inclusive (trimmed
    mean, linear-interpolation quantiles). majority_voting: see
    _majority_vote.
    """
    if strategy not in BASELINE_STRATEGIES:
        raise SpecError(
            f"unknown strategy {strategy!r}, expected one of {BASELINE_STRATEGIES}"
        )
    values = _values(ens)
    if strategy == "median":
        y_hat = float(np.median(values))
    elif strategy == "simple_average":
        y_hat = float(values.mean())
    elif strategy == "quantile_average":
        q1, q3 = np.percentile(values, [25.0, 75.0])
        kept = values[(values >= q1) & (values <= q3)]
        y_hat = float(kept.mean())
    else:
        y_hat = _majority_vote(values)
    return AggregateEstimate(
        y_hat_min=y_hat,
        strategy=strategy,
        ensemble_mean=float(values.mean()),
        prior_weight=0.0,
        effective_n=values.shape[0],
    )


def aggregate(
    ens: PredictionEnsemble,
    strategy: str,
    prior: StatisticalPrior | None = None,
    w_prior: float = 0.0,
) -> AggregateEstimate:
    """Dispatch to bayesian_average or a baseline by strategy name."""
    if strategy == "bayesian":
        if prior is None:
            raise SpecError("bayesian strategy requires a prior")
        return bayesian_average(ens, prior, w_prior)
    return baseline_aggregate(ens, strategy)
