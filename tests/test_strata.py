"""Stratum ladder construction, the case table and its tier walk."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_case
from durcast.schema import SurgicalCase
from durcast.strata import MISSING, GLOBAL_STRATUM, CaseTable, describe_tier, ladder, quartiles


def walk_ids(query, cases, keys, rows=None):
    """(level, tier, member ids) for each tier the table walk yields."""
    table = CaseTable.of(cases, keys)
    rows = np.arange(len(cases)) if rows is None else np.asarray(rows)
    return [
        (level, tier, [cases[i].id for i in rows[mask[0]]])
        for level, tier, applicable, mask in table.walk([query], rows[None, :])
        if applicable[0]
    ]


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
    cases = [SurgicalCase(id="c", values={"a": "x", "b": "y"}, duration_min=60.0)]
    assert [tier for _, tier, _ in walk_ids(q, cases, ("a", "b"))] == [("a",), ()]


def test_matching_is_string_equality():
    q = mk_case("q", department="uro", surgery="turp")
    same = mk_case("c1", 60.0, department="uro", surgery="turp")
    other = mk_case("c2", 60.0, department="uro", surgery="nephrectomy")
    steps = walk_ids(q, [same, other], ("department", "surgery_name"))
    assert [ids for _, _, ids in steps] == [["c1"], ["c1", "c2"], ["c1", "c2"]]
    # values equal as strings match whatever their type; unequal ones do not
    cases = [
        SurgicalCase(id=i, values={"a": v}, duration_min=60.0)
        for i, v in (("int", 3), ("str", "3"), ("float", 3.0), ("bool", True))
    ]
    for value, members in ((3, ["int", "str"]), ("3.0", ["float"]), ("True", ["bool"])):
        query = SurgicalCase(id="q", values={"a": value})
        assert walk_ids(query, cases, ("a",))[0][2] == members


def test_matching_rejects_missing_candidate_value():
    q = SurgicalCase(id="q", values={"a": "x"})
    candidate = SurgicalCase(id="c", values={"a": None}, duration_min=60.0)
    absent = SurgicalCase(id="d", values={}, duration_min=60.0)
    assert walk_ids(q, [candidate, absent], ("a",))[0][2] == []


def test_unseen_query_value_matches_nothing():
    cases = [SurgicalCase(id="c", values={"a": None}, duration_min=60.0)]
    q = SurgicalCase(id="q", values={"a": "never seen"})
    assert walk_ids(q, cases, ("a",)) == [(0, ("a",), []), (1, (), ["c"])]


def test_table_columns():
    cases = [
        SurgicalCase(id="b", values={"a": "x"}, duration_min=60.0),
        SurgicalCase(id="a", values={"a": None}, duration_min=75.5),
        SurgicalCase(id="b", values={"a": "y"}, duration_min=90.0),
        SurgicalCase(id="a0", values={"a": "x"}, duration_min=30.0),
    ]
    table = CaseTable.of(cases, ("a",))
    assert table.durations.tolist() == [60.0, 75.5, 90.0, 30.0]
    # stable: the two "b" ids keep their list order
    assert table.id_rank.tolist() == [2, 0, 3, 1]
    assert table.codes[:, 0].tolist() == [0, MISSING, 1, 0]
    assert table.codes.dtype == np.int32
    assert len(CaseTable.of([], ("a",))) == 0


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
    # tier 0 needs surgery_name, which the query lacks
    assert walk_ids(query, cases, ("department", "surgery_name")) == [
        (1, ("department",), ["a", "c"]),
        (2, (), ["a", "b", "c"]),
    ]
    # over a subset of rows, in the given order
    assert walk_ids(query, cases, ("department", "surgery_name"), rows=[2, 1]) == [
        (1, ("department",), ["c"]),
        (2, (), ["c", "b"]),
    ]


# Integer and fractional durations, and a few values repeated often.
_DURATIONS = st.one_of(
    st.integers(1, 900).map(float),
    st.floats(1.0, 900.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([60.0, 61.5, 90.0, 437.8, 800.6]),
)


def quartile_lines(lines):
    """The lines sorted into one array padded with inf, as post-processing
    pads the rows outside its chosen tier, and quartiles of it."""
    ordered = np.full((len(lines), max(map(len, lines))), np.inf)
    for j, line in enumerate(lines):
        ordered[j, : len(line)] = np.sort(line)
    q1, q3 = quartiles(ordered, np.array([len(line) for line in lines]))
    return list(zip(q1.tolist(), q3.tolist()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_DURATIONS, min_size=5, max_size=200), min_size=1, max_size=4))
def test_quartiles_equal_numpy_percentile(lines):
    want = [tuple(np.percentile(np.array(line), [25.0, 75.0]).tolist()) for line in lines]
    assert quartile_lines(lines) == want


def test_quartiles_take_numpy_upper_form():
    """At t >= 0.5 numpy computes b - (b - a) * (1 - t), which here differs
    from a + (b - a) * t in the last bit (709.9 against 709.9000000000001)."""
    line = [100.0, 200.0, 300.0, 437.8, 800.6, 900.0]
    assert quartile_lines([line])[0][1] == np.percentile(line, 75.0) == 709.9
    # one and two values, as a prior over a tiny cohort
    assert quartile_lines([[5.0], [5.0, 6.0]]) == [(5.0, 5.0), (5.25, 5.75)]
