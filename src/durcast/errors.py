"""Exception types raised across the durcast pipeline."""

from __future__ import annotations


class DurcastError(Exception):
    """Base class for all durcast errors."""


# dataset / schema
class ParseError(DurcastError):
    """Malformed schema or config text."""


class SchemaError(DurcastError):
    """Schema violates its own invariants, or a file does not match it."""


class RowError(DurcastError):
    """A CSV row could not be parsed. Carries the 1-based data-row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class IoError(DurcastError):
    """File could not be read or written."""


class SpecError(DurcastError):
    """Invalid generation or split parameters."""


# encoding
class EmptyTrainingSet(DurcastError):
    """Encoder fitting requires at least one training case."""


class SchemaMismatch(DurcastError):
    """A case value cannot be encoded under the fitted schema."""


class EmbeddingServiceError(DurcastError):
    """Remote embedding endpoint unreachable or returned a bad payload."""


# PCA weighting
class DegenerateInput(DurcastError):
    """Not enough rows to estimate a covariance."""


class BadK(DurcastError):
    """Component count outside [1, D]."""


class DimensionMismatch(DurcastError):
    """Vector dimensions disagree."""


# retrieval
class ZeroVector(DurcastError):
    """Cosine similarity is undefined for a zero-norm vector."""


class NonFiniteVector(DurcastError):
    """A vector holds nan or inf, or its norm overflows: it has no cosine
    direction."""


class EmptyIndex(DurcastError):
    """Query against an index with no entries."""


class EmptyInput(DurcastError):
    """Index build requires at least one entry."""


class NoCandidates(DurcastError):
    """Post-processing requires a non-empty candidate list."""


# prompting
class ModeArgumentMismatch(DurcastError):
    """Unknown inference mode, or a reference count it does not take."""


class MissingDuration(DurcastError):
    """A reference case must carry an observed duration."""


class PromptTooLong(DurcastError):
    """Rendered prompt exceeds the configured character budget."""


# generation
class BadN(DurcastError):
    """Round count must be >= 1."""


class UnparseableOutput(DurcastError):
    """No numeric duration could be extracted from the model output."""


class BackendTransportError(DurcastError):
    """A single completion request failed (network, HTTP, bad payload)."""


class BackendUnreachable(DurcastError):
    """Strict mode: the deterministic first round exhausted its retries."""


class AllRoundsFailed(DurcastError):
    """Every generation round was dropped after retries."""


# aggregation / evaluation
class EmptyEnsemble(DurcastError):
    """Aggregation requires at least one retained round."""


class TooFewSamples(DurcastError):
    """Metrics require at least two (y, y_hat) pairs."""


class NonPositiveTruth(DurcastError):
    """MAPE divides by the observed duration; it must be positive."""


class BadAxisValue(DurcastError):
    """Unknown ablation axis or invalid value for it."""


# artifacts
class ArtifactError(DurcastError):
    """Persisted artifacts are missing, corrupted, or fingerprint-mismatched."""
