"""Correctness checks that fail a benchmark run.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# Similarities from the index and from the oracle may differ by rounding
# (row-wise dots against a matrix product); a larger gap is a wrong answer.
SIM_TOLERANCE = 1e-9

ESTIMATE_RANGE = (1.0, 810.0)


def oracle_similarities(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Float64 cosine similarity of the query against every row."""
    v = np.asarray(vectors, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    return (v @ q) / (np.linalg.norm(v, axis=1) * np.linalg.norm(q))


def check_retrieval(
    returned: list[tuple[str, float]],
    ids: list[str],
    sims: np.ndarray,
    m: int,
) -> list[str]:
    """Compare a retrieved (id, similarity) list with the brute-force top m
    ordered by (-similarity, id).

    Passes on an exact id match. Otherwise every position must hold a case
    whose oracle similarity is within SIM_TOLERANCE of the oracle's case at
    that position, so only rounding-level ties may be reordered.
    """
    order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))[:m]
    expected = [ids[i] for i in order]
    got = [case_id for case_id, _ in returned]
    if got == expected:
        return []
    if len(got) != len(expected):
        return [f"retrieved {len(got)} candidates, oracle has {len(expected)}"]
    if len(set(got)) != len(got):
        return ["retrieved the same case twice"]
    by_id = dict(zip(ids, sims))
    problems = []
    for pos, ((case_id, sim), oracle_i) in enumerate(zip(returned, order)):
        if case_id not in by_id:
            problems.append(f"position {pos}: unknown case {case_id}")
        elif abs(by_id[case_id] - sims[oracle_i]) > SIM_TOLERANCE:
            problems.append(
                f"position {pos}: {case_id} (sim {by_id[case_id]:.12f}) where the "
                f"oracle has {ids[oracle_i]} (sim {sims[oracle_i]:.12f})"
            )
        elif abs(sim - by_id[case_id]) > SIM_TOLERANCE:
            problems.append(f"position {pos}: reported sim {sim!r} != oracle {by_id[case_id]!r}")
    return problems


def check_index_against_oracle(pipe, queries, m: int) -> list[str]:
    from durcast import index

    ids = [c.id for c in pipe.index.cases]
    problems = []
    for q in queries:
        vec = pipe.embed_query(q)
        returned = [(c.case.id, c.similarity) for c in index.retrieve(pipe.index, vec, m)]
        sims = oracle_similarities(pipe.index.vectors, vec)
        problems += [f"query {q.id}: {p}" for p in check_retrieval(returned, ids, sims, m)]
    return problems


def check_fitted_matches_loaded(fitted, loaded, queries, k: int, expansion: int) -> list[str]:
    problems = []
    for q in queries:
        a = [c.id for c, _ in fitted.retrieve_references(q, k, expansion)[0].references]
        b = [c.id for c, _ in loaded.retrieve_references(q, k, expansion)[0].references]
        if a != b:
            problems.append(f"query {q.id}: fitted picks {a}, reloaded picks {b}")
    return problems


def check_report(report, attempted: int) -> list[str]:
    problems = []
    if report.m + report.failed != attempted:
        problems.append(f"m {report.m} + failed {report.failed} != attempted {attempted}")
    lo, hi = ESTIMATE_RANGE
    for case_id, _, estimate in report.per_case:
        if not (math.isfinite(estimate) and lo <= estimate <= hi):
            problems.append(f"case {case_id}: estimate {estimate!r} outside [{lo}, {hi}]")
    return problems


def check_stub_tally(tally: dict[str, int], passes: int, per_layer: dict) -> list[str]:
    """Every pass meets the same faults, so what the stub served is the
    client-side count of one traced pass times the number of passes."""
    served = {
        "llm.complete_calls": sum(tally.values()),
        "llm.retries.transport": tally["503"] + tally["429"] + tally["malformed"],
        "llm.retries.unparseable": tally["unparseable"],
    }
    return [
        f"stub served {total} for {name} over {passes} passes; the client counted "
        f"{per_layer[name]} per pass"
        for name, total in served.items()
        if total != per_layer[name] * passes
    ]
