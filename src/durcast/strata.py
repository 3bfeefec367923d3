"""Shared clinical stratum ladder.

Retrieval post-processing and statistical priors both choose their stratum
with the one walk below: it descends a ladder of attribute-match tiers,
from most to least specific. For key attributes (a, b, c) the ladder is:

    0: a + b + c
    1: a + b
    2: a + c
    3: a
    4: unfiltered (GLOBAL)

In general: all keys, then the first key combined with each subset of the
remaining keys in descending size (declared order breaks ties), then the
first key alone, then unfiltered. A tier is applicable to a query only when
the query has every tier attribute present, so the unfiltered tier is
applicable to every query and holds every case.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import combinations
from .schema import SurgicalCase

GLOBAL_STRATUM = "GLOBAL"


def ladder(key_attributes: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Ordered match tiers, most specific first, ending with the empty tier."""
    keys = tuple(key_attributes)
    if not keys:
        return [()]
    head, rest = keys[0], keys[1:]
    tiers = []
    for size in range(len(rest), -1, -1):
        for combo in combinations(rest, size):
            tiers.append((head, *combo))
    tiers.append(())
    return tiers


def tier_applicable(q: SurgicalCase, tier: tuple[str, ...]) -> bool:
    return all(q.values.get(attr) is not None for attr in tier)


def matches_tier(q: SurgicalCase, candidate: SurgicalCase, tier: tuple[str, ...]) -> bool:
    """Exact string equality on every tier attribute."""
    for attr in tier:
        cv = candidate.values.get(attr)
        if cv is None or str(cv) != str(q.values[attr]):
            return False
    return True


def walk(
    query: SurgicalCase,
    items: Sequence,
    key_attributes: tuple[str, ...],
    case_of: Callable[..., SurgicalCase] = lambda item: item,
) -> Iterator[tuple[int, tuple[str, ...], list]]:
    """Yield (level, tier, members) for each tier applicable to the query,
    most specific first. members are the items whose case matches the
    query on every tier attribute, in input order. The last tier yielded
    is always the unfiltered one, with every item as a member.
    """
    for level, tier in enumerate(ladder(key_attributes)):
        if tier_applicable(query, tier):
            yield level, tier, [it for it in items if matches_tier(query, case_of(it), tier)]


def describe_tier(q: SurgicalCase, tier: tuple[str, ...]) -> str:
    if not tier:
        return GLOBAL_STRATUM
    return " + ".join(f"{attr}={q.values[attr]}" for attr in tier)
