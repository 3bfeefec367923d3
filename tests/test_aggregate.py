"""Bayesian shrinkage and the baseline ensemble aggregators."""

import random
import statistics

import numpy as np
import pytest

from conftest import mk_ensemble, mk_prior
from durcast.aggregate import STRATEGIES, aggregate
from durcast.errors import EmptyEnsemble, SpecError


class TestBayesianAverage:
    def test_worked_example(self):
        # ensemble mean 130 over five rounds, prior median 120, weight 0.9:
        # (0.9 * 120 + 5 * 130) / 5.9
        ens = mk_ensemble([120.0, 125.0, 130.0, 135.0, 140.0])
        est = aggregate(ens, "bayesian", mk_prior(median=120.0), 0.9)
        assert est.y_hat_min == pytest.approx(128.47457627118644, abs=1e-12)
        assert est.ensemble_mean == pytest.approx(130.0)
        assert est.prior_weight == 0.9
        assert est.effective_n == 5
        assert est.strategy == "bayesian"

    def test_convex_identity_randomized(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(1, 10)
            values = [rng.uniform(5.0, 700.0) for _ in range(n)]
            mu = rng.uniform(5.0, 700.0)
            w = rng.uniform(0.0, 10.0)
            est = aggregate(mk_ensemble(values), "bayesian", mk_prior(median=mu), w)
            y_bar = float(np.array(values).mean())
            if w == 0.0:
                want = y_bar
            else:
                want = (w * mu + n * y_bar) / (w + n)
            assert est.y_hat_min == pytest.approx(want, abs=1e-12)
            lo, hi = min(y_bar, mu), max(y_bar, mu)
            assert lo - 1e-9 <= est.y_hat_min <= hi + 1e-9

    def test_zero_weight_recovers_simple_average_exactly(self):
        # 0.1 is inexact in binary; routing through (n * y_bar) / n would
        # drift an ulp, so demand bit equality with the simple average
        for values in ([0.1, 0.1, 0.1], [1.0 / 3.0] * 7, [128.3, 130.7, 99.9]):
            ens = mk_ensemble(values)
            est = aggregate(ens, "bayesian", mk_prior(median=999.0), 0.0)
            plain = aggregate(ens, "simple_average")
            assert est.y_hat_min == plain.y_hat_min
            assert est.y_hat_min == est.ensemble_mean

    def test_large_weight_approaches_prior(self):
        est = aggregate(mk_ensemble([100.0]), "bayesian", mk_prior(median=200.0), 1e9)
        assert est.y_hat_min == pytest.approx(200.0, abs=1e-3)

    def test_rejects_negative_weight(self):
        with pytest.raises(SpecError):
            aggregate(mk_ensemble([100.0]), "bayesian", mk_prior(), -0.1)

    def test_rejects_non_finite_weight(self):
        for w in (np.nan, np.inf):
            with pytest.raises(SpecError):
                aggregate(mk_ensemble([100.0]), "bayesian", mk_prior(), w)

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsemble):
            aggregate(mk_ensemble([]), "bayesian", mk_prior(), 0.9)

    @pytest.mark.parametrize("values,mu,w", [
        # w * mu overflows: a huge weight, or a prior median near the float maximum
        ([100.0, 120.0], 200.0, 1e307),
        ([100.0, 120.0], 1e308, 2.0),
    ])
    def test_overflowing_products_stay_between_mean_and_prior(self, values, mu, w):
        est = aggregate(mk_ensemble(values), "bayesian", mk_prior(median=mu), w)
        y_bar = est.ensemble_mean
        assert np.isfinite(est.y_hat_min)
        assert min(y_bar, mu) <= est.y_hat_min <= max(y_bar, mu)
        want = mu + (y_bar - mu) * (len(values) / (w + len(values)))
        assert est.y_hat_min == want

    def test_finite_blends_keep_the_quotient_bits(self):
        # the overflow fallback only replaces results that are not finite
        rng = random.Random(29)
        for _ in range(2000):
            n = rng.randint(1, 10)
            values = [10.0 ** rng.uniform(-3.0, 300.0) for _ in range(n)]
            mu = 10.0 ** rng.uniform(-3.0, 300.0)
            w = 10.0 ** rng.uniform(-3.0, 6.0)
            est = aggregate(mk_ensemble(values), "bayesian", mk_prior(median=mu), w)
            y_bar = float(np.array(values).mean())
            assert est.y_hat_min == (w * mu + n * y_bar) / (w + n)


class TestAggregateDispatch:
    def test_strategy_lists(self):
        assert STRATEGIES == (
            "bayesian",
            "median",
            "majority_voting",
            "quantile_average",
            "simple_average",
        )

    def test_bayesian_path(self):
        est = aggregate(mk_ensemble([120.0, 130.0, 140.0]), "bayesian",
                        prior=mk_prior(median=120.0), w_prior=0.9)
        want = (0.9 * 120.0 + 3 * 130.0) / 3.9
        assert est.y_hat_min == pytest.approx(want, abs=1e-9)

    def test_bayesian_requires_prior(self):
        with pytest.raises(SpecError):
            aggregate(mk_ensemble([120.0]), "bayesian", prior=None, w_prior=0.9)

    def test_unknown_strategy(self):
        with pytest.raises(SpecError):
            aggregate(mk_ensemble([120.0]), "geometric", prior=None)

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsemble):
            aggregate(mk_ensemble([]), "median", prior=None)

    def test_median(self):
        est = aggregate(mk_ensemble([100.0, 300.0, 120.0]), "median", prior=None)
        assert est.y_hat_min == 120.0
        assert est.prior_weight == 0.0

    def test_simple_average(self):
        est = aggregate(mk_ensemble([100.0, 110.0, 123.0]), "simple_average",
                        prior=None)
        assert est.y_hat_min == pytest.approx(statistics.fmean([100.0, 110.0, 123.0]))

    def test_quantile_average_trims_tails(self):
        # P25 = 2, P75 = 4 with linear interpolation; 1 and 100 fall outside
        est = aggregate(mk_ensemble([1.0, 2.0, 3.0, 4.0, 100.0]), "quantile_average",
                        prior=None)
        assert est.y_hat_min == pytest.approx(3.0)

    def test_quantile_average_single_value(self):
        est = aggregate(mk_ensemble([42.0]), "quantile_average", prior=None)
        assert est.y_hat_min == 42.0

    @pytest.mark.parametrize("values,want", [
        ([100.0, 130.0], 115.0),
        ([130.0, 100.0], 115.0),
        ([0.1, 0.2], float(np.median([0.1, 0.2]))),
        ([100.0, 100.0], 100.0),
    ])
    def test_quantile_average_two_values_is_their_median(self, values, want):
        # two distinct values both lie outside [P25, P75]
        est = aggregate(mk_ensemble(values), "quantile_average", prior=None)
        assert est.y_hat_min == want

    def test_quantile_average_keeps_the_trimmed_mean_bits(self):
        rng = random.Random(31)
        for _ in range(500):
            values = np.array([rng.uniform(5.0, 700.0) for _ in range(rng.randint(3, 10))])
            q1, q3 = np.percentile(values, [25.0, 75.0])
            want = float(values[(values >= q1) & (values <= q3)].mean())
            est = aggregate(mk_ensemble(values.tolist()), "quantile_average")
            assert est.y_hat_min == want

    @pytest.mark.parametrize("strategy,prior,w,ens,error,match", [
        ("geometric", None, -1.0, [], SpecError, "unknown strategy"),
        ("bayesian", None, -1.0, [], SpecError, "requires a prior"),
        ("bayesian", mk_prior(), -1.0, [], SpecError, "prior weight"),
        ("bayesian", mk_prior(), 0.9, [], EmptyEnsemble, "no retained rounds"),
        ("median", None, -1.0, [], EmptyEnsemble, "no retained rounds"),
    ])
    def test_checks_in_order(self, strategy, prior, w, ens, error, match):
        with pytest.raises(error, match=match):
            aggregate(mk_ensemble(ens), strategy, prior, w)

    def test_baselines_ignore_prior_and_weight(self):
        ens = mk_ensemble([100.0, 120.0, 150.0])
        for strategy in STRATEGIES[1:]:
            plain = aggregate(ens, strategy)
            assert aggregate(ens, strategy, mk_prior(median=999.0), 5.0) == plain
            assert plain.prior_weight == 0.0
            assert plain.strategy == strategy


class TestMajorityVote:
    def vote(self, values):
        return aggregate(mk_ensemble(values), "majority_voting", prior=None).y_hat_min

    def test_modal_bin_wins(self):
        # 98 and 102 both land in the 100 bin
        assert self.vote([98.0, 102.0, 120.0]) == 100.0

    def test_exact_tie_takes_lower_bin(self):
        # bins 100 and 130 hold two votes each; the ensemble mean 115 sits
        # exactly halfway, which resolves to the lower bin
        assert self.vote([98.0, 102.0, 128.0, 132.0]) == 100.0

    def test_tie_broken_toward_ensemble_mean(self):
        # bins 100 and 140 hold two votes each; the straggler at 160 pulls
        # the mean to 128, closer to 140
        assert self.vote([98.0, 102.0, 139.0, 141.0, 160.0]) == 140.0

    def test_winner_clamped_into_observed_range(self):
        # 3, 3, 4 all bin to 5, but voting may not round outside the ensemble
        assert self.vote([3.0, 3.0, 4.0]) == 4.0
