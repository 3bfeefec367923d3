"""Seeded synthetic surgical corpus generator.

Stands in for private hospital data. Durations are stratified by department
and surgery with additive case-level effects, so key attributes carry
retrieval signal; the numeric profile (age, BMI, planned incision length)
clusters by procedure, so variance-derived importance weights align with
that signal. Deliberately uninformative features exist so weighting and
ablation tests have something to suppress: a random free-text note,
scheduling noise (ward assignment, nursing acuity, weekend admission,
trainee observer), and sparse optional labs (HbA1c, CRP, months since a
prior operation) that are missing for most cases and random where present.
All of these vote in unweighted similarity at full block scale despite
carrying nothing about duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError
from .schema import CaseSet, Feature, FeatureSchema, SurgicalCase, Value

ASA_LEVELS = ("I", "II", "III", "IV")
SURGERY_LEVELS = ("I", "II", "III", "IV")

# P(asa_grade | surgery_level): sicker patients reach bigger surgeries.
_ASA_BY_LEVEL = {
    "I": (0.50, 0.40, 0.09, 0.01),
    "II": (0.30, 0.45, 0.20, 0.05),
    "III": (0.15, 0.40, 0.35, 0.10),
    "IV": (0.05, 0.30, 0.45, 0.20),
}

# P(anesthesia_type | surgery_level) over (general, spinal, local).
_ANESTHESIA_BY_LEVEL = {
    "I": (0.45, 0.25, 0.30),
    "II": (0.70, 0.20, 0.10),
    "III": (0.90, 0.08, 0.02),
    "IV": (0.98, 0.02, 0.00),
}

_NOTE_VOCAB = (
    "stable vitals afebrile consent signed fasting overnight mild anemia "
    "hypertension controlled metformin held allergies none denies smoking "
    "ambulatory independent labs reviewed ecg unremarkable chest clear "
    "anxiety reported pain score low prophylaxis ordered site marked "
    "interpreter requested family present prior imaging available "
    "anticoagulant bridged glucose monitored airway assessed"
).split()


@dataclass(frozen=True)
class SurgerySpec:
    """One procedure: its base duration, level, and patient profile.

    incision_cm is the planned incision length; it is nearly deterministic
    per procedure, which makes it the strongest single numeric marker of
    what operation a case actually is."""

    name: str
    base_min: float
    level: str
    age_mean: float
    bmi_mean: float
    incision_cm: float
    los_days: float
    port_count: int


@dataclass(frozen=True)
class DepartmentSpec:
    name: str
    surgeries: tuple[SurgerySpec, ...]
    emergency_rate: float = 0.12
    female_rate: float = 0.5


@dataclass(frozen=True)
class SyntheticSpec:
    """Corpus-level knobs. Defaults target a global mean near 156 minutes
    with standard deviation near 84 and durations inside [8, 810]."""

    n_cases: int
    departments: tuple[DepartmentSpec, ...] = ()
    noise_sd: float = 28.0
    asa_effect_min: float = 14.0
    emergency_effect_min: float = 18.0
    age_effect_min_per_year: float = 0.5
    missing_bmi_rate: float = 0.03
    duration_floor: float = 8.0
    duration_ceiling: float = 810.0

    def __post_init__(self):
        if self.n_cases <= 0:
            raise SpecError(f"n_cases must be positive, got {self.n_cases}")
        if not self.departments:
            object.__setattr__(self, "departments", DEFAULT_DEPARTMENTS)


DEFAULT_DEPARTMENTS = (
    DepartmentSpec(
        "general_surgery",
        (
            SurgerySpec("laparoscopic cholecystectomy", 75, "II", 48, 27, 2.0, 1.0, 4),
            SurgerySpec("open appendectomy", 60, "I", 34, 24, 7.2, 2.0, 0),
            SurgerySpec("laparoscopic colectomy", 175, "III", 63, 25, 8.6, 6.0, 5),
            SurgerySpec("inguinal hernia repair", 70, "I", 55, 26, 7.8, 0.5, 0),
        ),
        emergency_rate=0.20,
    ),
    DepartmentSpec(
        "orthopedics",
        (
            SurgerySpec("total knee arthroplasty", 135, "II", 68, 29, 18.0, 4.0, 0),
            SurgerySpec("hip hemiarthroplasty", 120, "II", 78, 23, 14.0, 7.0, 0),
            SurgerySpec("posterior spinal fusion", 250, "IV", 54, 27, 22.0, 6.0, 0),
            SurgerySpec("ankle fracture fixation", 95, "II", 41, 25, 10.5, 2.0, 0),
        ),
        emergency_rate=0.18,
    ),
    DepartmentSpec(
        "neurosurgery",
        (
            SurgerySpec("craniotomy tumor resection", 305, "IV", 56, 24, 13.0, 8.0, 0),
            SurgerySpec("lumbar laminectomy", 150, "III", 58, 26, 9.5, 4.0, 0),
            SurgerySpec("ventriculoperitoneal shunt", 85, "II", 47, 23, 4.8, 3.0, 0),
        ),
    ),
    DepartmentSpec(
        "thyroid_breast",
        (
            SurgerySpec("thyroidectomy", 130, "II", 46, 24, 6.0, 1.5, 0),
            SurgerySpec("breast lumpectomy", 75, "I", 52, 25, 3.6, 0.5, 0),
            SurgerySpec("modified radical mastectomy", 155, "III", 57, 26, 15.5, 3.0, 0),
        ),
        emergency_rate=0.04,
        female_rate=0.85,
    ),
    DepartmentSpec(
        "urology",
        (
            SurgerySpec("transurethral prostate resection", 80, "II", 71, 26, 0.5, 2.0, 0),
            SurgerySpec("radical nephrectomy", 185, "III", 61, 25, 16.5, 5.0, 4),
            SurgerySpec("ureteroscopy with lithotripsy", 65, "I", 45, 26, 0.5, 0.5, 0),
        ),
        emergency_rate=0.10,
        female_rate=0.25,
    ),
    DepartmentSpec(
        "cardiothoracic",
        (
            SurgerySpec("coronary artery bypass graft", 315, "IV", 66, 27, 25.0, 9.0, 0),
            SurgerySpec("thoracoscopic lobectomy", 225, "III", 64, 24, 11.5, 6.0, 4),
            SurgerySpec("mediastinoscopy", 70, "II", 58, 25, 2.8, 1.0, 1),
        ),
        emergency_rate=0.15,
    ),
    DepartmentSpec(
        "gynecology",
        (
            SurgerySpec("laparoscopic hysterectomy", 130, "II", 47, 26, 5.4, 2.0, 4),
            SurgerySpec("ovarian cystectomy", 90, "II", 33, 23, 4.2, 1.5, 3),
            SurgerySpec("laparoscopic myomectomy", 110, "II", 38, 24, 6.6, 2.0, 4),
        ),
        female_rate=1.0,
    ),
)

ACUITY_LEVELS = ("1", "2", "3", "4", "5")
_WARDS = ("ward_a", "ward_b", "ward_c", "ward_d", "ward_e", "ward_f")


def default_schema() -> FeatureSchema:
    return FeatureSchema(
        features=(
            Feature("age", "numerical"),
            Feature("bmi", "numerical"),
            Feature("planned_incision_cm", "numerical"),
            Feature("expected_los_days", "numerical"),
            Feature("planned_port_count", "numerical"),
            Feature("hba1c_pct", "numerical"),
            Feature("crp_mg_l", "numerical"),
            Feature("months_since_prior_surgery", "numerical"),
            Feature("asa_grade", "ordinal"),
            Feature("surgery_level", "ordinal"),
            Feature("nursing_acuity", "ordinal"),
            Feature("department", "categorical"),
            Feature("gender", "categorical"),
            Feature("anesthesia_type", "categorical"),
            Feature("assigned_ward", "categorical"),
            Feature("emergency", "boolean"),
            Feature("reoperation", "boolean"),
            Feature("weekend_admission", "boolean"),
            Feature("observer_present", "boolean"),
            Feature("surgery_name", "text"),
            Feature("preop_note", "text"),
        ),
        ordinal_orders={
            "asa_grade": ASA_LEVELS,
            "surgery_level": SURGERY_LEVELS,
            "nursing_acuity": ACUITY_LEVELS,
        },
        key_attributes=("department", "surgery_name", "surgery_level"),
    )


def generate_synthetic(spec: SyntheticSpec, seed: int) -> CaseSet:
    """Draw a CaseSet per the SyntheticSpec. Pure function of (spec, seed);
    seed must be an integer >= 0."""
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        raise SpecError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    schema = default_schema()
    cases = []
    for i in range(spec.n_cases):
        dept = spec.departments[int(rng.integers(len(spec.departments)))]
        surgery = dept.surgeries[int(rng.integers(len(dept.surgeries)))]

        age = float(np.clip(rng.normal(surgery.age_mean, 9.0), 16.0, 92.0))
        bmi = float(np.clip(rng.normal(surgery.bmi_mean, 2.6), 14.0, 45.0))
        incision = float(np.clip(rng.normal(surgery.incision_cm, 0.4), 0.3, 40.0))
        los = float(np.clip(rng.normal(surgery.los_days, 0.8), 0.5, 30.0))
        ports = float(np.clip(round(rng.normal(surgery.port_count, 0.35)), 0, 7))
        asa_rank = int(rng.choice(4, p=_ASA_BY_LEVEL[surgery.level]))
        anesthesia = ("general", "spinal", "local")[
            int(rng.choice(3, p=_ANESTHESIA_BY_LEVEL[surgery.level]))
        ]
        emergency = bool(rng.random() < dept.emergency_rate)
        reoperation = bool(rng.random() < 0.08)
        gender = "female" if rng.random() < dept.female_rate else "male"
        hba1c = (
            round(float(np.clip(rng.normal(6.1, 0.9), 4.5, 11.0)), 1)
            if rng.random() < 0.25
            else None
        )
        crp = (
            round(float(np.clip(np.exp(rng.normal(1.0, 0.8)), 0.2, 80.0)), 1)
            if rng.random() < 0.20
            else None
        )
        prior_months = float(rng.integers(2, 121)) if reoperation else None
        weekend = bool(rng.random() < 0.28)
        observer = bool(rng.random() < 0.5)
        acuity = ACUITY_LEVELS[int(rng.choice(5, p=(0.20, 0.20, 0.20, 0.20, 0.20)))]
        ward = _WARDS[int(rng.integers(len(_WARDS)))]
        note_len = int(rng.integers(4, 10))
        note = " ".join(rng.choice(_NOTE_VOCAB, size=note_len))

        duration = (
            surgery.base_min
            + spec.asa_effect_min * asa_rank
            + (spec.emergency_effect_min if emergency else 0.0)
            + spec.age_effect_min_per_year * (age - 52.0)
            + rng.normal(0.0, spec.noise_sd)
        )
        duration = float(
            np.clip(round(duration), spec.duration_floor, spec.duration_ceiling)
        )

        values: dict[str, Value] = {
            "age": round(age, 1),
            "bmi": None if rng.random() < spec.missing_bmi_rate else round(bmi, 1),
            "planned_incision_cm": round(incision, 1),
            "expected_los_days": round(los, 1),
            "planned_port_count": ports,
            "hba1c_pct": hba1c,
            "crp_mg_l": crp,
            "months_since_prior_surgery": prior_months,
            "asa_grade": ASA_LEVELS[asa_rank],
            "surgery_level": surgery.level,
            "nursing_acuity": acuity,
            "department": dept.name,
            "gender": gender,
            "anesthesia_type": anesthesia,
            "assigned_ward": ward,
            "emergency": "true" if emergency else "false",
            "reoperation": "true" if reoperation else "false",
            "weekend_admission": "true" if weekend else "false",
            "observer_present": "true" if observer else "false",
            "surgery_name": surgery.name,
            "preop_note": note,
        }
        cases.append(
            SurgicalCase(id=f"syn-{i:06d}", values=values, duration_min=duration)
        )
    return CaseSet(cases=cases, schema=schema)
