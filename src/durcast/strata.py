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

CaseTable holds what the walk and prediction read of a sequence of cases
as arrays, with the key attributes dictionary-encoded by str(value), so a
tier's members come from a mask compare instead of per-case string
compares; a loaded index hands it its stored columns, and only the cases
a caller picks are ever read. The walk takes a batch of queries, each with
its own candidate rows, and compares every code of the batch at once;
post-processing walks a whole retrieval batch, and a prior is a batch of
one over every row.

quartiles gives Q1 and Q3 of many sorted duration rows at once, by numpy's
linear-interpolation rule, bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations

import numpy as np

from .schema import MISSING, SurgicalCase, dictionary_encode

GLOBAL_STRATUM = "GLOBAL"
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
    """Columns of a sequence of cases, in sequence order.

    cases: the cases themselves, read only for the rows a caller picks.
    ids: the case ids. durations: float64 durations. id_rank: each case
    id's position in a stable sort by id, so equal ids keep sequence order.
    codes: int32, one column per key attribute, each value's index in that
    attribute's vocabulary of str(value) (vocabs, a dict per attribute in
    code order), MISSING where the case lacks the value. A loaded index
    passes its stored columns; of derives them from case objects.
    """

    def __init__(
        self,
        cases: Sequence[SurgicalCase],
        key_attributes: tuple[str, ...],
        ids: list[str],
        durations: np.ndarray,
        codes: np.ndarray,
        vocabs: list[dict[str, int]],
    ):
        self.cases = cases
        self.key_attributes = tuple(key_attributes)
        self.ids = ids
        self.durations = durations
        self.codes = codes
        self.vocabs = vocabs
        n = len(ids)
        self.id_rank = np.empty(n, dtype=np.int64)
        self.id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
        keys = self.key_attributes
        self._tiers = [
            (level, tier, [keys.index(attr) for attr in tier])
            for level, tier in enumerate(ladder(keys))
        ]

    @classmethod
    def of(cls, cases: Sequence[SurgicalCase], key_attributes: tuple[str, ...]) -> "CaseTable":
        """The table of a sequence of case objects: vocabularies in order of
        first appearance."""
        keys = tuple(key_attributes)
        codes = np.empty((len(cases), len(keys)), dtype=np.int32)
        vocabs: list[dict[str, int]] = []
        values = [c.values for c in cases]
        for j, attr in enumerate(keys):
            codes[:, j], distinct = dictionary_encode([v.get(attr) for v in values])
            vocabs.append(dict(zip(distinct, range(len(distinct)))))
        durations = np.array([c.duration_min for c in cases], dtype=np.float64)
        return cls(cases, keys, [c.id for c in cases], durations, codes, vocabs)

    def __len__(self) -> int:
        return len(self.ids)

    def walk(
        self, queries: Sequence[SurgicalCase], rows: np.ndarray
    ) -> Iterator[tuple[int, tuple[str, ...], np.ndarray, np.ndarray]]:
        """Yield (level, tier, applicable, mask) for each ladder tier, most
        specific first, for Q queries with w candidate rows each.

        rows is a Q x w array of table row indices, line j for queries[j].
        applicable (Q booleans) marks the queries with every tier attribute
        present. mask (Q x w booleans) marks the rows whose case matches its
        query on every tier attribute; a line is meaningful only where its
        query is applicable. The last tier is the unfiltered one, applicable
        to every query with every row marked.
        """
        keys = self.key_attributes
        query_codes = np.array(
            [
                [
                    MISSING if (value := query.values.get(attr)) is None
                    else vocab.get(str(value), _UNSEEN)
                    for attr, vocab in zip(keys, self.vocabs)
                ]
                for query in queries
            ],
            dtype=np.int32,
        ).reshape(len(queries), len(keys))
        equal = self.codes[rows] == query_codes[:, None, :]
        present = query_codes != MISSING
        for level, tier, cols in self._tiers:
            yield level, tier, present[:, cols].all(axis=1), equal[:, :, cols].all(axis=2)


def quartiles(ordered: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q1 and Q3 of each line of ordered, whose first counts[j] (>= 1)
    entries are sorted ascending: np.percentile(line[:count], [25, 75]) bit
    for bit. numpy's linear rule takes the virtual index (count - 1) * q
    with a = the value at its floor, b = the next one and t its fraction,
    and returns a + (b - a) * t, or b - (b - a) * (1 - t) where t >= 0.5.
    """
    last = np.asarray(counts) - 1
    out = []
    for q in (0.25, 0.75):
        virtual = last * q
        below = np.floor(virtual)
        t = virtual - below
        below = below.astype(np.intp)
        a = np.take_along_axis(ordered, below[:, None], axis=1)[:, 0]
        b = np.take_along_axis(ordered, np.minimum(below + 1, last)[:, None], axis=1)[:, 0]
        diff = b - a
        out.append(np.where(t >= 0.5, b - diff * (1 - t), a + diff * t))
    return out[0], out[1]


def describe_tier(q: SurgicalCase, tier: tuple[str, ...]) -> str:
    if not tier:
        return GLOBAL_STRATUM
    return " + ".join(f"{attr}={q.values[attr]}" for attr in tier)
