"""Stratum-level duration statistics used as prompt context and Bayesian prior.

The prior for a query is computed over the first stratum of the shared
ladder walk (CaseTable.walk, the same walk as retrieval post-processing)
that contains at least min_cohort cases; the unfiltered tier always
qualifies as the final fallback. The prior mean for Bayesian aggregation is
the stratum median, which is robust to the long right tail of surgical
durations. Priors are a pure function of the training cases and
min_cohort, so they are computed on first use per stratum and never
persisted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrainingSet, SpecError
from .schema import CaseSet, SurgicalCase
from .strata import CaseTable, describe_tier, quartiles

DEFAULT_MIN_COHORT = 5
# How prior_strength turns the base weight into the prior's weight.
PRIOR_MODES = ("fixed", "calibrated")


@dataclass(frozen=True)
class StatisticalPrior:
    median_min: float
    mean_min: float
    range_min: tuple[float, float]
    iqr_min: tuple[float, float]
    variance_min2: float
    cohort_size: int
    stratum_descriptor: str
    fallback_level: int


def _stats_over(durations: np.ndarray, descriptor: str, level: int) -> StatisticalPrior:
    q1, q3 = quartiles(np.sort(durations)[None, :], [len(durations)])
    return StatisticalPrior(
        median_min=float(np.median(durations)),
        mean_min=float(durations.mean()),
        range_min=(float(durations.min()), float(durations.max())),
        iqr_min=(float(q1[0]), float(q3[0])),
        variance_min2=float(durations.var()),
        cohort_size=int(durations.shape[0]),
        stratum_descriptor=descriptor,
        fallback_level=level,
    )


def stratum_prior(table: CaseTable, query: SurgicalCase, min_cohort: int) -> StatisticalPrior:
    """Statistics of the table's most specific stratum holding >= min_cohort
    cases, over its durations in table order.

    Quartiles use linear interpolation; variance is the population variance.
    """
    # A walk for a batch of one query over every row. With no tier of
    # min_cohort cases the loop ends on the unfiltered tier.
    for level, tier, applicable, mask in table.walk([query], np.arange(len(table))[None, :]):
        if applicable[0] and np.count_nonzero(mask) >= min_cohort:
            break
    return _stats_over(table.durations[mask[0]], describe_tier(query, tier), level)


def compute_prior(
    query: SurgicalCase, train: CaseSet, min_cohort: int = DEFAULT_MIN_COHORT
) -> StatisticalPrior:
    """stratum_prior over the training cases that have a recorded duration."""
    if min_cohort < 1:
        raise SpecError(f"min_cohort must be >= 1, got {min_cohort}")
    with_duration = [c for c in train.cases if c.duration_min is not None]
    if not with_duration:
        raise EmptyTrainingSet("prior needs at least one training duration")
    table = CaseTable.of(with_duration, train.schema.key_attributes)
    return stratum_prior(table, query, min_cohort)


def prior_strength(
    prior: StatisticalPrior, base_w: float, mode: str = "fixed"
) -> float:
    """Weight given to the prior during Bayesian aggregation.

    fixed: base_w unchanged. calibrated: base_w scaled up with cohort size
    (saturating at 30 cases) and down with relative variance:
    base_w * min(1, cohort/30) * 1 / (1 + variance / median^2).
    """
    if not 0.0 <= base_w < np.inf:
        raise SpecError(f"prior weight must be finite and >= 0, got {base_w}")
    if mode == "fixed":
        return base_w
    if mode == "calibrated":
        size_factor = min(1.0, prior.cohort_size / 30.0)
        dispersion_factor = 1.0 / (1.0 + prior.variance_min2 / prior.median_min**2)
        return base_w * size_factor * dispersion_factor
    raise SpecError(f"unknown prior strength mode {mode!r}")


class PriorIndex:
    """Cache of priors over a case table, keyed by the query's key-attribute
    values as the walk compares them: str(value), or None where missing.

    A prior's stratum is found by one walk over the whole table, on the
    first lookup of its key; evaluation issues the same stratum lookups
    repeatedly, so results are memoized. Every table case must have a
    recorded duration (an index's table does).
    """

    def __init__(self, table: CaseTable, min_cohort: int = DEFAULT_MIN_COHORT):
        self.min_cohort = min_cohort
        self._table = table
        self._cache: dict[tuple, StatisticalPrior] = {}

    def key_for(self, query: SurgicalCase) -> tuple:
        return tuple(
            (attr, None if (value := query.values.get(attr)) is None else str(value))
            for attr in self._table.key_attributes
        )

    def for_query(self, query: SurgicalCase) -> StatisticalPrior:
        key = self.key_for(query)
        hit = self._cache.get(key)
        if hit is None:
            hit = stratum_prior(self._table, query, self.min_cohort)
            self._cache[key] = hit
        return hit
