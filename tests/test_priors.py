"""Stratum statistics, prior strength, and the memoizing prior cache."""

import numpy as np
import pytest

from conftest import mk_case, small_schema, tiny_corpus
from durcast import priors as priors_mod
from durcast.errors import EmptyTrainingSet, SpecError
from durcast.priors import PriorIndex, compute_prior, prior_strength
from durcast.schema import CaseSet
from durcast.strata import CaseTable


def table_of(corpus):
    return CaseTable.of(corpus.cases, corpus.schema.key_attributes)


def thyroid_query():
    return mk_case(
        "q",
        department="thyroid_breast",
        surgery="thyroidectomy",
        level="II",
    )


class TestComputePrior:
    def test_statistics_match_numpy(self):
        corpus = tiny_corpus()
        prior = compute_prior(thyroid_query(), corpus, min_cohort=5)
        d = np.array([115.0, 120.0, 125.0, 128.0, 132.0, 138.0, 144.0, 150.0])
        assert prior.cohort_size == 8
        assert prior.median_min == float(np.median(d))
        assert prior.mean_min == pytest.approx(d.mean())
        assert prior.range_min == (115.0, 150.0)
        q1, q3 = np.percentile(d, [25.0, 75.0])
        assert prior.iqr_min == (pytest.approx(q1), pytest.approx(q3))
        assert prior.variance_min2 == pytest.approx(d.var())  # population variance
        assert prior.fallback_level == 0
        assert prior.stratum_descriptor == (
            "department=thyroid_breast + surgery_name=thyroidectomy + surgery_level=II"
        )

    def test_descends_to_wider_stratum(self):
        corpus = tiny_corpus()
        query = mk_case(
            "q", department="thyroid_breast", surgery="thyroidectomy", level="II"
        )
        prior = compute_prior(query, corpus, min_cohort=10)
        # 8 thyroidectomies fall short of 10; dept+surgery tier is the same 8;
        # dept+level tier also 8; dept tier has 12
        assert prior.fallback_level == 3
        assert prior.stratum_descriptor == "department=thyroid_breast"
        assert prior.cohort_size == 12

    def test_global_fallback(self):
        corpus = tiny_corpus()
        query = mk_case("q", department="dermatology", surgery="biopsy", level="I")
        prior = compute_prior(query, corpus, min_cohort=5)
        assert prior.stratum_descriptor == "GLOBAL"
        assert prior.cohort_size == len(corpus)
        assert prior.fallback_level == 4

    def test_ignores_cases_without_duration(self):
        corpus = tiny_corpus()
        corpus.cases.append(
            mk_case(
                "nodur",
                None,
                department="thyroid_breast",
                surgery="thyroidectomy",
                level="II",
            )
        )
        prior = compute_prior(thyroid_query(), corpus, min_cohort=5)
        assert prior.cohort_size == 8

    def test_requires_durations(self):
        cs = CaseSet(cases=[mk_case("a", None)], schema=small_schema())
        with pytest.raises(EmptyTrainingSet):
            compute_prior(thyroid_query(), cs)

    def test_rejects_bad_min_cohort(self):
        with pytest.raises(SpecError):
            compute_prior(thyroid_query(), tiny_corpus(), min_cohort=0)


class TestPriorStrength:
    def test_fixed(self):
        prior = compute_prior(thyroid_query(), tiny_corpus())
        assert prior_strength(prior, 0.9, "fixed") == 0.9
        assert prior_strength(prior, 0.0, "fixed") == 0.0

    def test_calibrated_formula(self):
        prior = compute_prior(thyroid_query(), tiny_corpus())
        expected = (
            0.9
            * min(1.0, prior.cohort_size / 30.0)
            / (1.0 + prior.variance_min2 / prior.median_min**2)
        )
        assert prior_strength(prior, 0.9, "calibrated") == pytest.approx(expected)

    def test_rejects_negative_weight(self):
        with pytest.raises(SpecError):
            prior_strength(compute_prior(thyroid_query(), tiny_corpus()), -0.1)

    def test_rejects_non_finite_weight(self):
        for w in (np.nan, np.inf):
            with pytest.raises(SpecError):
                prior_strength(compute_prior(thyroid_query(), tiny_corpus()), w, "calibrated")

    def test_rejects_unknown_mode(self):
        with pytest.raises(SpecError):
            prior_strength(compute_prior(thyroid_query(), tiny_corpus()), 0.9, "loose")


class TestPriorIndex:
    def test_agrees_with_compute_prior(self):
        corpus = tiny_corpus()
        cache = PriorIndex(table_of(corpus), min_cohort=5)
        assert cache.for_query(thyroid_query()) == compute_prior(
            thyroid_query(), corpus, min_cohort=5
        )

    def test_memoizes_by_key_values(self, monkeypatch):
        corpus = tiny_corpus()
        cache = PriorIndex(table_of(corpus), min_cohort=5)
        calls = []
        real = priors_mod.stratum_prior

        def counting(table, query, min_cohort):
            calls.append(query.id)
            return real(table, query, min_cohort)

        monkeypatch.setattr(priors_mod, "stratum_prior", counting)
        cache.for_query(thyroid_query())
        cache.for_query(mk_case("other-id", department="thyroid_breast",
                                surgery="thyroidectomy", level="II"))
        assert calls == ["q"]  # second query shares the key tuple

    @pytest.mark.parametrize(
        "values", [(4.0, 4), (4, 4.0), (True, 1), (1, True)], ids=repr
    )
    def test_values_equal_but_printed_apart_are_apart(self, values):
        """The walk compares str(value): 4 and 4.0, or True and 1, fall in
        different strata, whichever is looked up first."""
        cases = [mk_case(f"c{i}", 60.0 + i) for i in range(12)]
        for case in cases[:6]:
            case.values["ports"] = values[0]
        table = CaseTable.of(cases, ("ports",))
        cache = PriorIndex(table, min_cohort=5)
        for value in values:
            query = mk_case("q")
            query.values["ports"] = value
            assert cache.for_query(query) == priors_mod.stratum_prior(table, query, 5)

    def test_key_for(self):
        cache = PriorIndex(table_of(tiny_corpus()))
        assert cache.key_for(thyroid_query()) == (
            ("department", "thyroid_breast"),
            ("surgery_name", "thyroidectomy"),
            ("surgery_level", "II"),
        )
