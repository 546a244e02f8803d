"""Exception hierarchy.

Every failure mode raised by the library derives from :class:`ArvcanonError`,
so callers can distinguish library failures from programming errors.  The CLI
maps these onto exit codes (see ``cli.py``): parse failures are distinct from
validation failures, which are distinct from every other library error.
"""

import numpy as np


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


class ParseError(ArvcanonError):
    """A file or grid specification could not be parsed."""


def _raise_first(error, *checks):
    """Raise ``error`` at the first element, in C order, that fails one of
    ``checks``: (mask, message) pairs over one shape, ``message`` a function
    of the element's index.  The first check failing there gives the
    message, so a stack is reported as a loop over its elements would."""
    fails = np.array([mask for mask, _ in checks], dtype=bool)
    hit = fails.any(axis=0)
    if hit.any():
        at = np.unravel_index(np.argmax(hit), hit.shape)
        raise error(checks[int(np.argmax(fails[(slice(None), *at)]))][1](*at))
