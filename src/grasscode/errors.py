"""Exception hierarchy.

Every error raised by this package derives from GrasscodeError.  The CLI
maps subclasses onto exit codes: validation problems (bad arguments,
malformed files, violated preconditions) exit 1, numerical-health failures
exit 2, size-limit refusals exit 3.
"""


class GrasscodeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(GrasscodeError):
    """Bad input: violated precondition, malformed data, failed self-check."""

    exit_code = 1


class DimensionMismatch(ValidationError):
    pass


class RankDeficient(ValidationError):
    pass


class RankTooLarge(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class NotDominant(ValidationError):
    pass


class PartitionTooLong(ValidationError):
    pass


class LengthExceedsVariables(ValidationError):
    pass


class VariableCountMismatch(ValidationError):
    pass


class UnsupportedPartition(ValidationError):
    pass


class DegenerateDenominator(ValidationError):
    pass


class FormatError(ValidationError):
    """Malformed or inconsistent code file."""


class DuplicateMember(ValidationError):
    pass


class ValidationFailure(ValidationError):
    """A mandatory internal cross-check failed (carries both sides)."""


class NumericalHealthError(GrasscodeError):
    """Floating-point output outside its certified range."""

    exit_code = 2


class NumericalDegeneracy(NumericalHealthError):
    """Eigenstructure could not be resolved at working precision."""


class ClusterAmbiguity(NumericalHealthError):
    """Clusters closer than the ambiguity band; tolerance cannot separate them."""


class DegenerateAtOnes(ValidationError):
    """Polynomial vanishes at the all-ones point; cannot normalize."""


class SizeLimit(GrasscodeError):
    """Requested object exceeds the configured size guard."""

    exit_code = 3
