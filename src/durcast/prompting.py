"""Structured prompt synthesis: role, reference cases, statistics, query.

Templates are external text files with [section] markers so prompt wording
is data, not code. The builder fills placeholders, assembles the user text
from the parts it is given (reference demonstrations when given references,
stratum statistics when given a prior, and always the query profile), and
appends a machine-parseable output contract to the system text. Which parts
an inference mode gives is the caller's choice (Pipeline.predict_case).

Template sections and their placeholders:
    [system]             no placeholders (contract line is appended)
    [references_header]  no placeholders
    [reference]          {index} {similarity} {duration} {features}
    [statistics]         {stratum} {cohort_size} {median} {mean}
                         {low} {high} {q1} {q3}
    [query]              {features}
    [user]               {references_section} {statistics_section}
                         {query_section}
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import IoError, MissingDuration, ParseError, PromptTooLong
from .index import ReferenceSet
from .priors import StatisticalPrior
from .schema import FeatureSchema, SurgicalCase

OUTPUT_CONTRACT = (
    "Respond with the final answer as `PREDICTION: <integer> minutes` "
    "on the last line."
)

DEFAULT_MAX_CHARS = 40000

_SECTIONS = ("system", "references_header", "reference", "statistics", "query", "user")

# The placeholders of each section that build_prompt formats; system and
# references_header are used verbatim.
_PLACEHOLDERS = {
    "reference": {"index", "similarity", "duration", "features"},
    "statistics": {"stratum", "cohort_size", "median", "mean", "low", "high", "q1", "q3"},
    "query": {"features"},
    "user": {"references_section", "statistics_section", "query_section"},
}
# The placeholders build_prompt fills with ints; it fills the others with strings.
_INT_PLACEHOLDERS = {"index", "duration", "cohort_size"}


@dataclass(frozen=True)
class PromptTemplate:
    system: str
    references_header: str
    reference: str
    statistics: str
    query: str
    user: str


@dataclass(frozen=True)
class PromptMetadata:
    """Structured facts about what went into the prompt: mock backends
    read these instead of re-parsing the rendered text."""

    query_id: str
    reference_durations: tuple[float, ...]
    prior_median: float | None


@dataclass(frozen=True)
class Prompt:
    system_text: str
    user_text: str
    metadata: PromptMetadata


def parse_template(text: str) -> PromptTemplate:
    """Split a template file into its [section] parts. A formatted section
    with a stray brace, a field it does not document or a format spec its
    values do not take is a ParseError."""
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1]
            if name not in _SECTIONS:
                raise ParseError(f"unknown template section [{name}]")
            if name in sections:
                raise ParseError(f"duplicate template section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            if stripped:
                raise ParseError("template text before the first [section] marker")
            continue
        sections[current].append(line)
    missing = [s for s in _SECTIONS if s not in sections]
    if missing:
        raise ParseError(f"template missing sections: {missing}")
    parts = {name: "\n".join(lines).strip("\n") for name, lines in sections.items()}
    for name, allowed in _PLACEHOLDERS.items():
        try:
            fields = {f for _, f, _, _ in string.Formatter().parse(parts[name]) if f is not None}
        except ValueError as exc:
            raise ParseError(f"template section [{name}]: {exc}") from None
        if fields - allowed:
            raise ParseError(
                f"template section [{name}] has unknown placeholders "
                f"{sorted(fields - allowed)}; it takes {sorted(allowed)}"
            )
        # format once with values of the types build_prompt passes, so a
        # bad format spec or conversion fails here and not mid-run
        dummies = {f: 0 if f in _INT_PLACEHOLDERS else "" for f in allowed}
        try:
            parts[name].format(**dummies)
        except (ValueError, LookupError, AttributeError) as exc:
            raise ParseError(f"template section [{name}] does not format: {exc}") from None
    return PromptTemplate(**parts)


def load_template(path: str | Path | None = None) -> PromptTemplate:
    """Load a template file, or the packaged default when no path given."""
    if path is None:
        text = (
            resources.files("durcast").joinpath("templates/default_prompt.txt")
        ).read_text(encoding="utf-8")
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError(f"cannot read template file {path}: {exc}") from exc
    return parse_template(text)


def _render_features(case: SurgicalCase, names: tuple[str, ...]) -> str:
    """One "  name: value" line per feature, in names order: a missing value
    shows as unknown and an integral float as an integer."""
    values = case.values
    lines = []
    for name in names:
        value = values.get(name)
        if value is None:
            value = "unknown"
        elif isinstance(value, float) and value.is_integer():
            value = int(value)
        lines.append(f"  {name}: {value}")
    return "\n".join(lines)


def render_reference(
    case: SurgicalCase,
    similarity: float,
    template: PromptTemplate,
    feature_names: tuple[str, ...],
    index: int = 1,
) -> str:
    """One demonstration block: features in feature_names order, similarity
    (3 decimals), duration."""
    if case.duration_min is None:
        raise MissingDuration(f"reference case {case.id!r} has no recorded duration")
    return template.reference.format(
        index=index,
        similarity=f"{similarity:.3f}",
        duration=int(round(case.duration_min)),
        features=_render_features(case, feature_names),
    )


def _render_statistics(prior: StatisticalPrior, template: PromptTemplate) -> str:
    return template.statistics.format(
        stratum=prior.stratum_descriptor,
        cohort_size=prior.cohort_size,
        median=f"{prior.median_min:.1f}",
        mean=f"{prior.mean_min:.1f}",
        low=f"{prior.range_min[0]:.1f}",
        high=f"{prior.range_min[1]:.1f}",
        q1=f"{prior.iqr_min[0]:.1f}",
        q3=f"{prior.iqr_min[1]:.1f}",
    )


def build_prompt(
    query: SurgicalCase,
    refs: ReferenceSet | None,
    prior: StatisticalPrior | None,
    template: PromptTemplate,
    schema: FeatureSchema,
) -> Prompt:
    """Assemble the full prompt for one query, each case's features listed
    in schema order: the reference section when given refs, the statistics
    section when given prior, and the query section.

    Deterministic: identical inputs produce byte-identical prompts. Errors
    rather than truncating when the rendered text exceeds DEFAULT_MAX_CHARS.
    """
    names = schema.feature_names
    references_section = ""
    statistics_section = ""
    durations: tuple[float, ...] = ()
    if refs is not None:
        blocks = [
            render_reference(case, sim, template, names, index=i)
            for i, (case, sim) in enumerate(refs.references, start=1)
        ]
        references_section = template.references_header + "\n" + "\n".join(blocks) + "\n"
        durations = tuple(float(case.duration_min) for case, _ in refs.references)
    if prior is not None:
        statistics_section = _render_statistics(prior, template) + "\n"
    query_section = template.query.format(features=_render_features(query, names))

    user_text = template.user.format(
        references_section=references_section,
        statistics_section=statistics_section,
        query_section=query_section,
    )
    while "\n\n\n" in user_text:
        user_text = user_text.replace("\n\n\n", "\n\n")
    system_text = template.system + "\n" + OUTPUT_CONTRACT
    if len(system_text) + len(user_text) > DEFAULT_MAX_CHARS:
        raise PromptTooLong(
            f"prompt is {len(system_text) + len(user_text)} chars, limit {DEFAULT_MAX_CHARS}"
        )
    return Prompt(
        system_text=system_text,
        user_text=user_text,
        metadata=PromptMetadata(
            query_id=query.id,
            reference_durations=durations,
            prior_median=prior.median_min if prior is not None else None,
        ),
    )
