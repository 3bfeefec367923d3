"""PCA-derived per-dimension importance weights.

Fit an eigendecomposition of the training embedding covariance, then score
each dimension by its absolute loadings on the top-K components, each
loading weighted by that component's explained variance ratio:

    w_j = (1/K) * sum_{k<=K} |W_jk| * sigma_k

Dimensions that vary together with the dominant case-mix structure earn
large weights; isolated noise dimensions earn small ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadK, DegenerateInput, DimensionMismatch


@dataclass(frozen=True)
class PCAModel:
    """Eigendecomposition of the training covariance.

    components holds eigenvectors as columns, sorted by descending
    eigenvalue, each column signed so its largest-magnitude coordinate is
    positive. explained_variance_ratio sums to 1; when total variance is
    zero the ratios are uniform.
    """

    components: np.ndarray
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.components.shape[0])


@dataclass(frozen=True)
class WeightVector:
    weights: np.ndarray
    k_used: int

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])


def fit_pca(embeddings: np.ndarray) -> PCAModel:
    """Eigendecompose the sample covariance of the row matrix.

    Requires at least two rows. Deterministic: symmetric solver, descending
    eigenvalue order, sign fixed per component.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DegenerateInput(f"expected an N x D matrix, got shape {x.shape}")
    n, _ = x.shape
    if n < 2:
        raise DegenerateInput(f"PCA needs at least 2 rows, got {n}")
    # np.cov(x - mean, rowvar=False, ddof=1) with its own sums, on one
    # centred copy instead of two: np.cov copies its input, centres the copy
    # a second time, takes dot(c.T, c) and scales it by 1 / (n - 1). The
    # same calls on the same buffer give its bits, and the copy is freed
    # before the solver runs.
    c = x - x.mean(axis=0)
    c -= c.mean(axis=0)
    cov = np.dot(c.T, c)
    cov *= np.true_divide(1, n - 1)
    del c
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]
    # each column's first largest-magnitude entry decides its sign; a
    # product with -1.0 has the bits of a negation
    pivots = np.argmax(np.abs(eigenvectors), axis=0)
    eigenvectors *= np.where(eigenvectors[pivots, np.arange(len(pivots))] < 0.0, -1.0, 1.0)
    total = float(eigenvalues.sum())
    if total > 0.0:
        ratios = eigenvalues / total
    else:
        ratios = np.full(eigenvalues.shape, 1.0 / eigenvalues.shape[0])
    return PCAModel(
        components=eigenvectors,
        explained_variance=eigenvalues,
        explained_variance_ratio=ratios,
    )


def derive_weights(model: PCAModel, k: int) -> WeightVector:
    """Score every dimension from the top-k components (see module docstring)."""
    d = model.dim
    if not 1 <= k <= d:
        raise BadK(f"k must be in [1, {d}], got {k}")
    loadings = np.abs(model.components[:, :k])
    weights = loadings @ model.explained_variance_ratio[:k] / k
    return WeightVector(weights=weights, k_used=k)


def lift_zero_weights(w: WeightVector) -> WeightVector:
    """w with each zero weight raised to its smallest positive weight.

    A dimension off the top-k components, or constant in training, scores
    zero; a case whose nonzero coordinates all lie in such dimensions would
    weight to the zero vector. The top component has a positive variance
    ratio and a unit-norm loading column, so some weight is positive."""
    positive = w.weights > 0.0
    floor = w.weights[positive].min()
    return WeightVector(weights=np.where(positive, w.weights, floor), k_used=w.k_used)


def uniform_weights(dim: int) -> WeightVector:
    if dim < 1:
        raise BadK(f"dimension must be positive, got {dim}")
    return WeightVector(weights=np.ones(dim), k_used=0)


def k_for_cumulative_variance(model: PCAModel, fraction: float = 0.95) -> int:
    """Smallest component count whose cumulative variance ratio reaches
    the fraction."""
    if not 0.0 < fraction <= 1.0:
        raise BadK(f"fraction must be in (0, 1], got {fraction}")
    cumulative = np.cumsum(model.explained_variance_ratio)
    return int(min(np.searchsorted(cumulative, fraction - 1e-12) + 1, model.dim))


def feature_importance_report(
    w: WeightVector, feature_spans: list[tuple[str, int, int]]
) -> list[tuple[str, float]]:
    """Sum weights over each feature's coordinates; rank descending,
    ties broken by feature name."""
    covered = sum(length for _, _, length in feature_spans)
    if covered != w.dim:
        raise DimensionMismatch(
            f"feature spans cover {covered} dims, weights have {w.dim}"
        )
    scores = [
        (name, float(w.weights[offset : offset + length].sum()))
        for name, offset, length in feature_spans
    ]
    return sorted(scores, key=lambda item: (-item[1], item[0]))
