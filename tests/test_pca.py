"""Covariance eigendecomposition and loading-derived dimension weights."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from durcast.errors import BadK, DegenerateInput, DimensionMismatch
from durcast.pca import (
    PCAModel,
    derive_weights,
    feature_importance_report,
    fit_pca,
    k_for_cumulative_variance,
    lift_zero_weights,
    uniform_weights,
)


def random_matrix(seed, n=12, d=5):
    return np.random.default_rng(seed).normal(size=(n, d))


def reference_pca(x):
    """fit_pca written out step by step, with one sign fix per column: its
    first largest-magnitude entry made positive."""
    cov = np.atleast_2d(np.cov(x - x.mean(axis=0), rowvar=False, ddof=1))
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    values = np.clip(values[order], 0.0, None)
    vectors = vectors[:, order]
    for k in range(vectors.shape[1]):
        pivot = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[pivot, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    total = float(values.sum())
    ratios = values / total if total > 0.0 else np.full(values.shape, 1.0 / values.shape[0])
    return vectors, values, ratios


def _tied_columns():
    a = np.random.default_rng(3).normal(size=9)
    return np.column_stack([a, -a])


REFERENCE_INPUTS = {
    "random": random_matrix(5, n=40, d=9),
    "wide": random_matrix(6, n=7, d=15),
    "zero and constant columns": np.column_stack(
        [random_matrix(7, n=20, d=3), np.zeros(20), np.full(20, 2.5), random_matrix(8, n=20, d=2)]
    ),
    "all constant": np.full((6, 4), 3.0),
    "n = 2": random_matrix(9, n=2, d=4),
    "D = 1": random_matrix(10, n=6, d=1),
    "a and -a": _tied_columns(),
}


class TestFitPca:
    @pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
    def test_equals_reference_bitwise(self, name):
        x = REFERENCE_INPUTS[name]
        model = fit_pca(x)
        components, values, ratios = reference_pca(x)
        assert model.components.tobytes() == components.tobytes()
        assert model.explained_variance.tobytes() == values.tobytes()
        assert model.explained_variance_ratio.tobytes() == ratios.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        d=st.integers(1, 40),
        constant=st.sets(st.integers(0, 39), max_size=5),
        scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e4, 1e150]),
    )
    @example(seed=0, n=2, d=1, constant=set(), scale=1.0)
    @example(seed=1, n=2, d=1, constant={0}, scale=1.0)
    @example(seed=2, n=9, d=6, constant={0, 3, 5}, scale=1.0)
    def test_equals_np_cov_reference_bitwise(self, seed, n, d, constant, scale):
        """The covariance fit_pca sums itself is np.cov's, bit for bit:
        constant columns, n = 2 and D = 1 included."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * scale + rng.normal(size=d)
        for j in constant:
            if j < d:
                x[:, j] = x[0, j]
        model = fit_pca(x)
        components, values, ratios = reference_pca(x)
        assert model.components.tobytes() == components.tobytes()
        assert model.explained_variance.tobytes() == values.tobytes()
        assert model.explained_variance_ratio.tobytes() == ratios.tobytes()

    def test_peak_memory_is_one_centred_copy(self):
        """fit_pca holds one n x D float64 copy of a tall matrix at a time;
        np.cov on a centred copy would hold two."""
        n, d = 20_000, 24
        x = random_matrix(12, n=n, d=d)
        fit_pca(x)  # imports and one-time allocations outside the trace
        tracemalloc.start()
        try:
            fit_pca(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8

    def test_tied_magnitudes_take_the_first_entry_sign(self):
        """A component of columns a and -a has entries of one magnitude and
        opposite signs; the first of them is made positive."""
        model = fit_pca(_tied_columns())
        tied = [k for k in range(2) if abs(model.components[0, k]) == abs(model.components[1, k])
                and model.components[0, k] == -model.components[1, k]]
        assert tied
        for k in tied:
            assert model.components[0, k] > 0.0

    def test_reconstructs_covariance(self):
        x = random_matrix(0)
        model = fit_pca(x)
        cov = np.cov(x, rowvar=False, ddof=1)
        recon = model.components @ np.diag(model.explained_variance) @ model.components.T
        assert np.abs(recon - cov).max() < 1e-10

    def test_eigenvalues_sorted_and_nonnegative(self):
        model = fit_pca(random_matrix(1))
        ev = model.explained_variance
        assert np.all(ev[:-1] >= ev[1:])
        assert np.all(ev >= 0.0)

    def test_ratios_sum_to_one(self):
        model = fit_pca(random_matrix(2))
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0)

    def test_sign_convention(self):
        model = fit_pca(random_matrix(3))
        for k in range(model.dim):
            col = model.components[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0.0

    def test_deterministic(self):
        x = random_matrix(4)
        a = fit_pca(x)
        b = fit_pca(x)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.explained_variance, b.explained_variance)

    def test_constant_matrix_gives_uniform_ratios(self):
        model = fit_pca(np.full((6, 4), 3.0))
        assert np.allclose(model.explained_variance, 0.0)
        assert np.allclose(model.explained_variance_ratio, 0.25)

    def test_single_column(self):
        x = np.array([[1.0], [2.0], [4.0]])
        model = fit_pca(x)
        assert model.dim == 1
        assert model.explained_variance[0] == pytest.approx(np.var(x, ddof=1))

    @pytest.mark.parametrize(
        "bad",
        [np.ones((1, 4)), np.ones(5), np.ones((5, 0))],
    )
    def test_degenerate_inputs(self, bad):
        with pytest.raises(DegenerateInput):
            fit_pca(bad)


class TestDeriveWeights:
    def test_matches_straight_loop(self):
        model = fit_pca(random_matrix(5, n=20, d=6))
        for k in range(1, model.dim + 1):
            w = derive_weights(model, k)
            assert w.k_used == k
            for j in range(model.dim):
                expected = (
                    sum(
                        abs(model.components[j, c]) * model.explained_variance_ratio[c]
                        for c in range(k)
                    )
                    / k
                )
                assert abs(w.weights[j] - expected) < 1e-15

    @pytest.mark.parametrize("k", [0, -1, 7])
    def test_k_out_of_range(self, k):
        model = fit_pca(random_matrix(6, d=6))
        with pytest.raises(BadK):
            derive_weights(model, k)

    def test_lift_raises_only_zero_weights(self):
        # Only column 0 varies, so the other columns score zero.
        x = np.array([[1.0, 2.0, 0.0], [0.0, 2.0, 0.0], [2.0, 2.0, 0.0]])
        w = derive_weights(fit_pca(x), 1)
        assert w.weights[0] > 0.0 and not w.weights[1:].any()
        lifted = lift_zero_weights(w)
        assert lifted.weights.tolist() == [w.weights[0]] * 3
        assert lifted.k_used == w.k_used
        kept = derive_weights(fit_pca(random_matrix(7)), 2)
        assert np.array_equal(lift_zero_weights(kept).weights, kept.weights)


class TestUniformAndApply:
    def test_uniform(self):
        w = uniform_weights(5)
        assert np.array_equal(w.weights, np.ones(5))
        assert w.k_used == 0

    def test_uniform_rejects_bad_dim(self):
        with pytest.raises(BadK):
            uniform_weights(0)


class TestCumulativeVariance:
    def _model(self, ratios):
        d = len(ratios)
        return PCAModel(
            components=np.eye(d),
            explained_variance=np.array(ratios, dtype=float),
            explained_variance_ratio=np.array(ratios, dtype=float),
        )

    def test_thresholds(self):
        model = self._model([0.6, 0.3, 0.1])
        assert k_for_cumulative_variance(model, 0.5) == 1
        assert k_for_cumulative_variance(model, 0.6) == 1
        assert k_for_cumulative_variance(model, 0.7) == 2
        assert k_for_cumulative_variance(model, 0.95) == 3
        assert k_for_cumulative_variance(model, 1.0) == 3

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_bad_fraction(self, fraction):
        with pytest.raises(BadK):
            k_for_cumulative_variance(self._model([0.5, 0.5]), fraction)


class TestImportanceReport:
    def test_sums_spans_and_ranks(self):
        w = uniform_weights(6)
        w.weights[:] = [0.1, 0.4, 0.2, 0.2, 0.05, 0.05]
        spans = [("age", 0, 1), ("dept", 1, 2), ("note", 3, 3)]
        report = feature_importance_report(w, spans)
        assert report[0] == ("dept", pytest.approx(0.6))
        assert report[1][0] == "note"
        assert report[2] == ("age", pytest.approx(0.1))

    def test_ties_break_by_name(self):
        w = uniform_weights(2)
        report = feature_importance_report(w, [("b", 0, 1), ("a", 1, 1)])
        assert [name for name, _ in report] == ["a", "b"]

    def test_rejects_uncovered_dims(self):
        with pytest.raises(DimensionMismatch):
            feature_importance_report(uniform_weights(4), [("a", 0, 2)])
