"""Exception types shared across the package."""

from __future__ import annotations


class PremlogError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PremlogError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, col {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class ArityConflict(ParseError):
    """A predicate is used with two different arities."""


class MalformedAggregate(ParseError):
    """Aggregate goal whose group-by/measured lists are not well formed."""


class MissingResult(ParseError):
    """Counting aggregate without a result variable."""


class SafetyError(ParseError):
    """A rule reads a variable its body leaves unbound, or its aggregate does not cover its head."""


class LoadError(PremlogError):
    """Bad line in an external fact or edge-list file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnboundVariable(PremlogError):
    """A variable had no binding where a ground value was required."""


class Overflow(PremlogError):
    """64-bit signed integer arithmetic overflow (checked, never wraps)."""


class TypeMismatch(PremlogError):
    """Ordering comparison or arithmetic between incompatible value types."""


class StratificationError(PremlogError):
    """Negation or a non-monotonic aggregate occurs inside a recursive clique."""

    def __init__(self, message: str, rule_id: str | None = None):
        self.rule_id = rule_id
        if rule_id is not None:
            message = f"rule {rule_id}: {message}"
        super().__init__(message)


class AmbiguousCost(PremlogError):
    """Two distinct argument positions of one predicate would be cost arguments."""


class NoCost(PremlogError):
    """The constrained variable does not flow through the recursion."""


class PlanMismatch(PremlogError):
    """A push plan was applied to a program it was not computed for."""


class NegativeLength(PremlogError):
    """The shortest-distance reference requires non-negative arc lengths."""


class BudgetExceeded(PremlogError):
    """Tuple or iteration budget exhausted; carries the partial state."""

    def __init__(self, message: str, stats=None, partial=None):
        self.stats = stats
        self.partial = partial
        super().__init__(message)
