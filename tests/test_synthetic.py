"""Synthetic corpus generator: determinism, ranges, and distribution shape."""

import numpy as np
import pytest

from durcast.errors import SpecError
from durcast.synthetic import (
    DepartmentSpec,
    SurgerySpec,
    SyntheticSpec,
    default_schema,
    generate_synthetic,
)


def test_pure_function_of_seed():
    spec = SyntheticSpec(n_cases=200)
    a = generate_synthetic(spec, seed=7)
    b = generate_synthetic(spec, seed=7)
    assert [c.id for c in a.cases] == [c.id for c in b.cases]
    assert [c.duration_min for c in a.cases] == [c.duration_min for c in b.cases]
    assert [c.values for c in a.cases] == [c.values for c in b.cases]


def test_seeds_differ():
    spec = SyntheticSpec(n_cases=200)
    a = generate_synthetic(spec, seed=1)
    b = generate_synthetic(spec, seed=2)
    assert [c.duration_min for c in a.cases] != [c.duration_min for c in b.cases]


def test_size_ids_and_schema():
    cs = generate_synthetic(SyntheticSpec(n_cases=50), seed=3)
    assert len(cs) == 50
    assert cs.cases[0].id == "syn-000000"
    assert cs.cases[49].id == "syn-000049"
    assert cs.schema == default_schema()
    assert all(case.values.keys() <= set(cs.schema.feature_names) for case in cs.cases)


def test_every_case_is_complete_and_bounded():
    spec = SyntheticSpec(n_cases=400)
    cs = generate_synthetic(spec, seed=5)
    names = set(cs.schema.feature_names)
    for case in cs.cases:
        assert set(case.values) == names
        assert spec.duration_floor <= case.duration_min <= spec.duration_ceiling
        assert case.values["asa_grade"] in ("I", "II", "III", "IV")
        assert case.values["emergency"] in ("true", "false")
        assert 16.0 <= case.values["age"] <= 92.0


def test_distribution_shape():
    cs = generate_synthetic(SyntheticSpec(n_cases=3000), seed=11)
    durations = np.array(cs.durations())
    assert 120.0 < durations.mean() < 200.0
    assert 60.0 < durations.std() < 115.0
    assert 100.0 < np.median(durations) < 180.0


def test_sparse_fields_have_expected_missingness():
    cs = generate_synthetic(SyntheticSpec(n_cases=4000), seed=13)
    n = len(cs)
    missing_bmi = sum(c.values["bmi"] is None for c in cs.cases) / n
    have_hba1c = sum(c.values["hba1c_pct"] is not None for c in cs.cases) / n
    have_crp = sum(c.values["crp_mg_l"] is not None for c in cs.cases) / n
    assert 0.01 < missing_bmi < 0.06
    assert 0.20 < have_hba1c < 0.30
    assert 0.15 < have_crp < 0.25
    for c in cs.cases:
        has_months = c.values["months_since_prior_surgery"] is not None
        assert has_months == (c.values["reoperation"] == "true")


def test_key_attributes_are_always_present():
    cs = generate_synthetic(SyntheticSpec(n_cases=100), seed=2)
    for case in cs.cases:
        for attr in cs.schema.key_attributes:
            assert case.values[attr] is not None


def test_custom_departments():
    dept = DepartmentSpec(
        "pilot",
        (SurgerySpec("test procedure", 100, "II", 50, 25, 5.0, 2.0, 0),),
    )
    cs = generate_synthetic(
        SyntheticSpec(n_cases=30, departments=(dept,)), seed=1
    )
    assert all(c.values["department"] == "pilot" for c in cs.cases)
    assert all(c.values["surgery_name"] == "test procedure" for c in cs.cases)


def test_rejects_nonpositive_n():
    with pytest.raises(SpecError):
        SyntheticSpec(n_cases=0)


@pytest.mark.parametrize("seed", [-1, 1.0, "1", True, None])
def test_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(SpecError, match="seed must be an integer >= 0"):
        generate_synthetic(SyntheticSpec(n_cases=5), seed)
