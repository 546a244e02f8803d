"""Exception hierarchy.

Every failure mode raised by the library derives from :class:`ArvcanonError`,
so callers can distinguish library failures from programming errors.  The CLI
maps these onto exit codes (see ``cli.py``): parse failures are distinct from
validation failures, which are distinct from compute-budget exhaustion.
"""


class ArvcanonError(Exception):
    """Base class for all library errors."""


class InputError(ArvcanonError):
    """An argument is malformed (non-finite entries, wrong shape, bad range)."""


class CoefficientError(InputError):
    """A coefficient-set invariant is violated; the message names the first
    offending constraint and, when available, the interval index."""


class PreconditionError(ArvcanonError):
    """An operation's mathematical precondition does not hold (e.g. the input
    matrix is not j-contractive, or a map is not monotone)."""


class DomainError(ArvcanonError):
    """Evaluation requested outside the defined range (e.g. beyond a finite
    tail, or a point on/outside the unit circle where a disk point is needed)."""


class GaugeError(ArvcanonError):
    """A transfer family does not satisfy the structure its gauge tag claims."""


class InconsistencyError(ArvcanonError):
    """A computed quantity violates the structure guaranteed for j-monotonic
    families; signals that the input data was not genuinely j-monotonic."""


class DegenerateActionError(ArvcanonError):
    """A projective (Moebius) action was applied to a vector it annihilates."""


class BudgetError(ArvcanonError):
    """An iterative computation exhausted its budget before reaching the
    requested tolerance.  Carries the last iterate for diagnostics."""

    def __init__(self, message, last_disk=None, l_stop=None):
        super().__init__(message)
        self.last_disk = last_disk
        self.l_stop = l_stop


class ParseError(ArvcanonError):
    """A file or grid specification could not be parsed."""
