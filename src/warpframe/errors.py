"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: schema problems are I/O-level (exit 1),
invariant and residual failures are data-level (exit 2), integrator blow-ups
are exit 3.
"""


class WarpframeError(Exception):
    pass


class SchemaError(WarpframeError):
    """Malformed document: missing keys, wrong shapes, bad types."""


class InvariantViolation(WarpframeError):
    """Data violates a structural invariant (symmetry, skewness, domain).
    problems lists every finding, or is [message] if none is given."""

    def __init__(self, message, problems=None):
        super().__init__(message)
        self.problems = list(problems) if problems else [message]


class DomainError(WarpframeError):
    """Evaluation outside the declared domain (t outside I, a(t) <= 0)."""


class DegenerateDataError(WarpframeError):
    """Induced metric or frame completion degenerates at some node."""


class IntegrationBlowup(WarpframeError):
    """Non-finite values produced while propagating the frame field."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NonConvergence(WarpframeError):
    """Iterative scheme failed to converge within its iteration budget."""


class AlignmentDegenerate(WarpframeError):
    """Point set too degenerate to determine an aligning isometry."""
