"""Stratum ladder construction and tier matching."""

from conftest import mk_case
from durcast.schema import SurgicalCase
from durcast.strata import (
    GLOBAL_STRATUM,
    describe_tier,
    ladder,
    matches_tier,
    tier_applicable,
    walk,
)


def test_ladder_three_keys():
    assert ladder(("a", "b", "c")) == [
        ("a", "b", "c"),
        ("a", "b"),
        ("a", "c"),
        ("a",),
        (),
    ]


def test_ladder_two_keys():
    assert ladder(("a", "b")) == [("a", "b"), ("a",), ()]


def test_ladder_one_key():
    assert ladder(("a",)) == [("a",), ()]


def test_ladder_no_keys():
    assert ladder(()) == [()]


def test_applicability_requires_present_values():
    q = SurgicalCase(id="q", values={"a": "x", "b": None})
    assert tier_applicable(q, ("a",))
    assert not tier_applicable(q, ("a", "b"))
    assert tier_applicable(q, ())


def test_matching_is_string_equality():
    q = mk_case("q", department="uro", surgery="turp")
    same = mk_case("c1", 60.0, department="uro", surgery="turp")
    other = mk_case("c2", 60.0, department="uro", surgery="nephrectomy")
    tier = ("department", "surgery_name")
    assert matches_tier(q, same, tier)
    assert not matches_tier(q, other, tier)
    assert matches_tier(q, other, ("department",))


def test_matching_rejects_missing_candidate_value():
    q = SurgicalCase(id="q", values={"a": "x"})
    candidate = SurgicalCase(id="c", values={"a": None}, duration_min=60.0)
    assert not matches_tier(q, candidate, ("a",))


def test_describe_tier():
    q = SurgicalCase(id="q", values={"a": "x", "b": "y"})
    assert describe_tier(q, ("a", "b")) == "a=x + b=y"
    assert describe_tier(q, ()) == GLOBAL_STRATUM


def test_walk_yields_applicable_tiers_ending_unfiltered():
    query = SurgicalCase(id="q", values={"department": "d1", "surgery_name": None})
    cases = [
        mk_case("a", department="d1", surgery="s1"),
        mk_case("b", department="d2", surgery="s1"),
        mk_case("c", department="d1", surgery="s2"),
    ]
    steps = list(walk(query, cases, ("department", "surgery_name")))
    # tier 0 needs surgery_name, which the query lacks
    assert [(level, tier, [c.id for c in members]) for level, tier, members in steps] == [
        (1, ("department",), ["a", "c"]),
        (2, (), ["a", "b", "c"]),
    ]


def test_walk_reads_cases_through_case_of():
    query = mk_case("q", department="d1")
    items = [("x", mk_case("a", department="d1")), ("y", mk_case("b", department="d2"))]
    steps = walk(query, items, ("department",), lambda item: item[1])
    assert [[tag for tag, _ in members] for _, _, members in steps] == [["x"], ["x", "y"]]
