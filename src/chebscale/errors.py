"""Exception hierarchy shared across the package."""


class ChebscaleError(Exception):
    """Base class for all library errors."""


class EvaluationError(ChebscaleError):
    """A function or jet could not be evaluated at the requested point."""


class NoArrayForm(EvaluationError):
    """An evaluator was given a node array but evaluates one point at a time."""


class DivisionByZeroJet(EvaluationError):
    """Jet division by a jet whose value coefficient is (numerically) zero."""


class DomainErrorJet(EvaluationError):
    """log/sqrt/real-power of a jet with a nonpositive value coefficient."""


class OrderExceeded(ChebscaleError):
    """A derivative beyond the truncation order of a jet was requested."""


class ExprSyntaxError(ChebscaleError):
    """Parse failure, carrying the byte offset and the expected token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class BadScheduleParams(ChebscaleError):
    """Invalid probe-schedule parameters."""


class NotAsymptoticScale(ChebscaleError):
    """The supplied function tuple failed hierarchy/nonvanishing verification."""


class IndexConditionViolated(ChebscaleError):
    """Wronskian index sets do not satisfy the comparison precondition."""


class ToleranceNotMet(ChebscaleError):
    """Adaptive quadrature exhausted its budget before reaching tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class DivergentTail(ChebscaleError):
    """A nested integral level oriented toward the limit point diverges.

    ``decisive`` says whether the divergence is a verdict (it shows on the
    level's resolved cells) or only that the level could not be resolved."""

    def __init__(self, message, decisive=False):
        super().__init__(message)
        self.decisive = decisive


class WronskianDegenerate(ChebscaleError):
    """A required Wronskian is below tolerance at an evaluation point."""


class PivotVanishes(EvaluationError):
    """Divide-and-differentiate hit a pivot image that vanishes at a probe;
    past that point the chain's weights cannot be evaluated."""


class NotConstant(ChebscaleError):
    """A quantity that must be constant failed the constancy test."""


class LimitDiverged(ChebscaleError):
    """A required limit is infinite or oscillatory."""
