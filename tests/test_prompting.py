"""Template parsing and four-part prompt assembly."""

from importlib import resources

import pytest

from conftest import mk_case, mk_prior, small_schema
from durcast.errors import MissingDuration, ParseError, PromptTooLong
from durcast import prompting
from durcast.index import ReferenceSet
from durcast.prompting import (
    OUTPUT_CONTRACT,
    build_prompt,
    load_template,
    parse_template,
    render_reference,
)

DEFAULT_TEMPLATE = (resources.files("durcast") / "templates/default_prompt.txt").read_text(
    encoding="utf-8"
)
MINIMAL_TEMPLATE = """[system]
You schedule operating rooms.

[references_header]
Similar cases:

[reference]
Case {index} (sim {similarity}):
{features}
  took {duration} minutes

[statistics]
Cohort {stratum} of {cohort_size}: median {median}, mean {mean},
range {low}-{high}, IQR {q1}-{q3}

[query]
Estimate this case:
{features}

[user]
{references_section}
{statistics_section}
{query_section}
"""


SCHEMA = small_schema()


def refs_of(*cases_with_sims) -> ReferenceSet:
    return ReferenceSet(
        references=tuple(cases_with_sims),
        fallback_level=0,
        stratum_descriptor="department=thyroid_breast",
        iqr_bounds=None,
    )


class TestParseTemplate:
    def test_round_trips_sections(self):
        tpl = parse_template(MINIMAL_TEMPLATE)
        assert tpl.system == "You schedule operating rooms."
        assert "{features}" in tpl.reference
        assert "{stratum}" in tpl.statistics

    def test_packaged_default_loads(self):
        tpl = load_template()
        for section in (tpl.system, tpl.references_header, tpl.reference,
                        tpl.statistics, tpl.query, tpl.user):
            assert section.strip()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text(MINIMAL_TEMPLATE, encoding="utf-8")
        assert parse_template(MINIMAL_TEMPLATE) == load_template(path)

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown template section"):
            parse_template("[banner]\nhi\n" + MINIMAL_TEMPLATE)

    def test_duplicate_section(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_template(MINIMAL_TEMPLATE + "\n[system]\nagain\n")

    def test_missing_section(self):
        text = MINIMAL_TEMPLATE.replace("[statistics]", "[query]")
        with pytest.raises(ParseError):
            parse_template(text)

    def test_text_before_first_marker(self):
        with pytest.raises(ParseError, match="before the first"):
            parse_template("stray text\n" + MINIMAL_TEMPLATE)

    @pytest.mark.parametrize("spec, section", [("{index:zz}", "reference"),
                                               ("{median:d}", "statistics")])
    def test_bad_format_spec_fails_at_load(self, tmp_path, spec, section):
        """build_prompt formats index as an int and median as a string, so
        neither spec can render; loading says so before any prompt."""
        field = spec[1:].split(":")[0]
        path = tmp_path / "tpl.txt"
        path.write_text(DEFAULT_TEMPLATE.replace("{" + field + "}", spec), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"\[{section}\] does not format"):
            load_template(path)


class TestRenderReference:
    def test_formats_fields(self):
        tpl = parse_template(MINIMAL_TEMPLATE)
        case = mk_case("r1", 123.4, age=61.0, department="urology", surgery="turp")
        text = render_reference(case, 0.87654, tpl, SCHEMA.feature_names, index=3)
        assert "Case 3 (sim 0.877):" in text
        assert "took 123 minutes" in text
        assert "  age: 61" in text  # integral floats print as integers
        assert "  department: urology" in text

    def test_missing_values_render_as_unknown(self):
        tpl = parse_template(MINIMAL_TEMPLATE)
        case = mk_case("r1", 100.0)
        case.values["age"] = None
        assert "  age: unknown" in render_reference(case, 0.5, tpl, SCHEMA.feature_names)

    def test_requires_duration(self):
        tpl = parse_template(MINIMAL_TEMPLATE)
        with pytest.raises(MissingDuration):
            render_reference(mk_case("r1", None), 0.5, tpl, SCHEMA.feature_names)


class TestBuildPrompt:
    TPL = parse_template(MINIMAL_TEMPLATE)

    def _refs(self, k=2):
        return refs_of(
            *((mk_case(f"r{i}", 110.0 + 10 * i), 0.9 - 0.1 * i) for i in range(k))
        )

    def test_rag_contains_all_parts(self):
        query = mk_case("q")
        prompt = build_prompt(query, self._refs(), mk_prior(), self.TPL, SCHEMA)
        assert prompt.system_text.endswith(OUTPUT_CONTRACT)
        assert "Similar cases:" in prompt.user_text
        assert "Case 1 (sim 0.900):" in prompt.user_text
        assert "Case 2 (sim 0.800):" in prompt.user_text
        assert "Cohort department=thyroid_breast of 12" in prompt.user_text
        assert "median 120.0" in prompt.user_text
        assert "Estimate this case:" in prompt.user_text
        assert "\n\n\n" not in prompt.user_text

    def test_zero_shot_has_only_query(self):
        prompt = build_prompt(mk_case("q"), None, None, self.TPL, SCHEMA)
        assert "Similar cases:" not in prompt.user_text
        assert "Cohort" not in prompt.user_text
        assert "Estimate this case:" in prompt.user_text

    def test_random_few_shot_has_references_no_statistics(self):
        prompt = build_prompt(
            mk_case("q"), self._refs(), None, self.TPL, SCHEMA
        )
        assert "Similar cases:" in prompt.user_text
        assert "Cohort" not in prompt.user_text

    def test_metadata(self):
        query = mk_case("q-77")
        prompt = build_prompt(
            query, self._refs(3), mk_prior(median=111.0), self.TPL, SCHEMA
        )
        md = prompt.metadata
        assert md.query_id == "q-77"
        assert md.reference_durations == (110.0, 120.0, 130.0)
        assert md.prior_median == 111.0

    def test_zero_shot_metadata(self):
        md = build_prompt(mk_case("q"), None, None, self.TPL, SCHEMA).metadata
        assert md.reference_durations == ()
        assert md.prior_median is None

    def test_deterministic(self):
        query = mk_case("q")
        a = build_prompt(query, self._refs(), mk_prior(), self.TPL, SCHEMA)
        b = build_prompt(query, self._refs(), mk_prior(), self.TPL, SCHEMA)
        assert a.system_text == b.system_text
        assert a.user_text == b.user_text

    @pytest.mark.parametrize("with_refs", [False, True])
    @pytest.mark.parametrize("with_prior", [False, True])
    def test_prompt_holds_exactly_the_given_sections(self, with_refs, with_prior):
        refs = self._refs() if with_refs else None
        prior = mk_prior(median=111.0) if with_prior else None
        prompt = build_prompt(mk_case("q"), refs, prior, self.TPL, SCHEMA)
        text = prompt.user_text
        assert text.count("Similar cases:") == with_refs
        assert text.count("(sim ") == (2 if with_refs else 0)
        assert text.count("Cohort ") == with_prior
        assert text.count("Estimate this case:") == 1
        assert "\n\n\n" not in text
        order = [text.find(h) for h in ("Similar cases:", "Cohort ", "Estimate this case:")]
        present = [i for i in order if i >= 0]
        assert present == sorted(present)
        assert prompt.metadata.reference_durations == ((110.0, 120.0) if with_refs else ())
        assert prompt.metadata.prior_median == (111.0 if with_prior else None)

    def test_oversized_prompt_rejected(self, monkeypatch):
        monkeypatch.setattr(prompting, "DEFAULT_MAX_CHARS", 50)
        with pytest.raises(PromptTooLong):
            build_prompt(mk_case("q"), self._refs(), mk_prior(), self.TPL, SCHEMA)
