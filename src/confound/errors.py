"""Exception hierarchy shared by every module in the package.

Two branches matter to callers. ``InputError`` means the data or arguments
were malformed (the CLI exits 2); ``AnalysisError`` means the input was
well-formed but a precondition of the requested analysis failed (the CLI
exits 3). Every class carries a stable machine-readable ``code`` that the
CLI prints as ``error:<code>: message``.
"""

from __future__ import annotations


class ConfoundError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InputError(ConfoundError):
    """Malformed input data or arguments."""

    code = "input"


class AnalysisError(ConfoundError):
    """A precondition of the requested analysis does not hold."""

    code = "analysis"


class ValidationError(InputError):
    """A domain value violates its construction invariants."""

    code = "invalid-value"


class EmptyInput(AnalysisError):
    code = "empty-input"


class UnknownColumn(InputError):
    """A named column is not in the header."""

    code = "unknown-column"


class NotTwoGroups(InputError):
    """Detection entry points require exactly two group values."""

    code = "not-two-groups"


class EmptyStratumSide(AnalysisError):
    """A stratum or a rate's cell has no subjects, so its rate is undefined."""

    code = "empty-stratum-side"


class TooFewDistinctValues(AnalysisError):
    code = "too-few-distinct-values"


class EmptyCandidates(InputError):
    code = "empty-candidates"


class AllStrataFiltered(AnalysisError):
    """Every stratum fell below the minimum size during a scan."""

    code = "all-strata-filtered"


class WeightMismatch(AnalysisError):
    """Weight labels do not match the comparison's strata."""

    code = "weight-mismatch"


class InsufficientData(AnalysisError):
    code = "insufficient-data"


class NumericOverflow(AnalysisError):
    """A float statistic left the float range: the values are too large."""

    code = "numeric-overflow"


class UndefinedCorrelation(AnalysisError):
    """A correlation with zero variance was used where its sign is needed."""

    code = "undefined-correlation"


class DegenerateRange(AnalysisError):
    """All diagram points coincide; there is nothing to draw."""

    code = "degenerate-range"


class GenerationFailed(AnalysisError):
    """The reversal generator exhausted its attempt budget."""

    code = "generation-failed"


class NotFound(AnalysisError):
    """An exhaustive search finished without a witness inside the bound."""

    code = "not-found"


class CsvError(InputError):
    """Base for CSV parse errors. ``line`` is 1-based; 0 marks file-level faults."""

    code = "csv"

    def __init__(self, message: str, line: int = 0):
        super().__init__(message if line == 0 else f"line {line}: {message}")
        self.line = line


class BadHeader(CsvError):
    code = "bad-header"


class EmptyData(CsvError):
    code = "empty-data"


class DuplicateCell(CsvError):
    code = "duplicate-cell"


class MissingCell(CsvError):
    code = "missing-cell"


class BadCount(CsvError):
    code = "bad-count"


class RaggedRow(CsvError):
    code = "ragged-row"


class BadOutcomeValue(CsvError):
    code = "bad-outcome-value"


class NonNumeric(CsvError):
    """A value (or a whole column) is not numeric where numbers are needed."""

    code = "non-numeric"
