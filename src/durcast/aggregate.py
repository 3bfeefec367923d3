"""Fusing a prediction ensemble into one estimate.

aggregate is the one entry point. The primary strategy is Bayesian
averaging against the stratum prior:

    y_hat = (w_prior * mu_prior + n * y_bar) / (w_prior + n)

with y_bar the mean of retained rounds, n the retained-round count, and
mu_prior the stratum median. Where that quotient overflows, the same convex
combination is taken as mu_prior + (y_bar - mu_prior) * n / (w_prior + n).
The four baseline strategies of _BASELINES (median, majority voting,
quantile average, simple average) read the ensemble alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, SpecError
from .llm import PredictionEnsemble
from .priors import StatisticalPrior

_VOTE_BIN_MIN = 5.0


@dataclass(frozen=True)
class AggregateEstimate:
    y_hat_min: float
    strategy: str
    ensemble_mean: float
    prior_weight: float
    effective_n: int


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


def _quantile_average(values: np.ndarray) -> float:
    """Mean of the values inside [P25, P75] inclusive (a trimmed mean over
    linear-interpolation quantiles). Two distinct values both fall outside,
    so with none inside it is their median, for two values the midpoint."""
    q1, q3 = np.percentile(values, [25.0, 75.0])
    kept = values[(values >= q1) & (values <= q3)]
    return float(kept.mean()) if kept.size else float(np.median(values))


# Each prior-free strategy: its estimate from the retained round values.
_BASELINES = {
    "median": lambda values: float(np.median(values)),
    "majority_voting": _majority_vote,
    "quantile_average": _quantile_average,
    "simple_average": lambda values: float(values.mean()),
}
STRATEGIES = ("bayesian", *_BASELINES)


def aggregate(
    ens: PredictionEnsemble,
    strategy: str,
    prior: StatisticalPrior | None = None,
    w_prior: float = 0.0,
) -> AggregateEstimate:
    """The estimate of one strategy over the retained rounds. bayesian is
    the convex combination of the ensemble mean and prior's median with
    weights n/(w_prior+n) and w_prior/(w_prior+n), w_prior a finite number
    >= 0; a baseline reads neither and reports prior weight 0."""
    if strategy not in STRATEGIES:
        raise SpecError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    bayesian = strategy == "bayesian"
    if bayesian and prior is None:
        raise SpecError("bayesian strategy requires a prior")
    if bayesian and not 0.0 <= w_prior < np.inf:
        raise SpecError(f"prior weight must be finite and >= 0, got {w_prior}")
    if not ens.rounds:
        raise EmptyEnsemble("ensemble has no retained rounds")
    values = np.array(ens.values(), dtype=np.float64)
    n = values.shape[0]
    y_bar = float(values.mean())
    if not bayesian:
        y_hat, w_prior = _BASELINES[strategy](values), 0.0
    elif w_prior == 0.0:
        # algebraically the formula collapses to y_bar; computing it via
        # (n * y_bar) / n can drift one ulp
        y_hat = y_bar
    else:
        mu = prior.median_min
        y_hat = (w_prior * mu + n * y_bar) / (w_prior + n)
        if not math.isfinite(y_hat):
            # the numerator overflowed; this form of the same convex
            # combination stays between y_bar and mu
            y_hat = mu + (y_bar - mu) * (n / (w_prior + n))
    return AggregateEstimate(
        y_hat_min=float(y_hat),
        strategy=strategy,
        ensemble_mean=y_bar,
        prior_weight=w_prior,
        effective_n=n,
    )
