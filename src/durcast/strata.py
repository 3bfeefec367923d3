"""Shared clinical stratum ladder over a columnar case table.

Retrieval post-processing and statistical priors both choose their stratum
with the one walk below (CaseTable.walk): it descends a ladder of
attribute-match tiers, from most to least specific. For key attributes
(a, b, c) the ladder is:

    0: a + b + c
    1: a + b
    2: a + c
    3: a
    4: unfiltered (GLOBAL)

In general: all keys, then the first key combined with each subset of the
remaining keys in descending size (declared order breaks ties), then the
first key alone, then unfiltered. A tier is applicable to a query only when
the query has every tier attribute present, so the unfiltered tier is
applicable to every query and holds every case. A case matches a tier when
its value equals the query's as a string on every tier attribute; a case
missing a tier attribute matches no tier that names it.

CaseTable holds what the walk and prediction read of a list of cases as
arrays, with the key attributes dictionary-encoded by str(value), so a
tier's members come from a mask compare instead of per-case string
compares.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations

import numpy as np

from .schema import SurgicalCase

GLOBAL_STRATUM = "GLOBAL"
# Code of a missing key value, in the table and in a query.
MISSING = -1
# Code of a query value that no case has: it matches no table code.
_UNSEEN = -2


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


class CaseTable:
    """Columns of a list of cases, in list order.

    durations: float64 durations. id_rank: each case id's position in a
    stable sort by id, so equal ids keep list order. codes: int32, one
    column per key attribute, each value's index in that attribute's
    vocabulary of str(value), MISSING where the case lacks the value.
    """

    def __init__(self, cases: Sequence[SurgicalCase], key_attributes: tuple[str, ...]):
        self.cases = cases
        self.key_attributes = tuple(key_attributes)
        n = len(cases)
        self.durations = np.array([c.duration_min for c in cases], dtype=np.float64)
        ids = [c.id for c in cases]
        self.id_rank = np.empty(n, dtype=np.int64)
        self.id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
        self.codes = np.empty((n, len(self.key_attributes)), dtype=np.int32)
        self._vocabs: list[dict[str, int]] = []
        values = [c.values for c in cases]
        for j, attr in enumerate(self.key_attributes):
            vocab: dict[str, int] = {}
            self.codes[:, j] = [
                MISSING if (x := v.get(attr)) is None else vocab.setdefault(str(x), len(vocab))
                for v in values
            ]
            self._vocabs.append(vocab)
        keys = self.key_attributes
        self._tiers = [
            (level, tier, [keys.index(attr) for attr in tier])
            for level, tier in enumerate(ladder(keys))
        ]

    def __len__(self) -> int:
        return len(self.cases)

    def walk(
        self, query: SurgicalCase, rows: np.ndarray
    ) -> Iterator[tuple[int, tuple[str, ...], np.ndarray]]:
        """Yield (level, tier, mask) for each tier applicable to the query,
        most specific first. mask is a boolean array over rows (table row
        indices) marking the rows whose case matches the query on every
        tier attribute. The last tier yielded is always the unfiltered one,
        with every row marked.
        """
        query_codes = [
            MISSING if (value := query.values.get(attr)) is None
            else vocab.get(str(value), _UNSEEN)
            for attr, vocab in zip(self.key_attributes, self._vocabs)
        ]
        equal = self.codes[rows] == np.array(query_codes, dtype=np.int32)
        for level, tier, cols in self._tiers:
            if all(query_codes[c] != MISSING for c in cols):
                yield level, tier, equal[:, cols].all(axis=1)


def describe_tier(q: SurgicalCase, tier: tuple[str, ...]) -> str:
    if not tier:
        return GLOBAL_STRATUM
    return " + ".join(f"{attr}={q.values[attr]}" for attr in tier)
