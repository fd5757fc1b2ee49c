"""Exception hierarchy for the carlitz package.

Every error raised on purpose by this package derives from CarlitzError,
so callers can catch one base class.  The leaves mirror the failure modes
of the algebra: inexact division, mixing elements of different fields,
enumeration budgets, precision shortfalls, and grammar errors.
"""


class CarlitzError(Exception):
    """Base class for all errors raised by the carlitz package."""


class FieldConstructionError(CarlitzError, ValueError):
    """Invalid finite-field parameters (q not a prime power, bad modulus, q = 2...)."""


class ContextMismatch(CarlitzError, ValueError):
    """Two values from distinct field contexts were combined."""


class DivisionByZero(CarlitzError, ZeroDivisionError):
    """Division by the zero polynomial or the zero fraction."""


class InexactDivision(CarlitzError, ArithmeticError):
    """Polynomial division was requested to be exact but left a remainder."""


class BothZero(CarlitzError, ValueError):
    """gcd(0, 0) requested."""


class ConstantInput(CarlitzError, ValueError):
    """An operation requiring degree >= 1 received a constant polynomial."""


class ArityMismatch(CarlitzError, ValueError):
    """Multivariate values with different numbers of variables were combined."""


class IndexOutOfRange(CarlitzError, IndexError):
    """A variable index outside 1..s was used."""


class NonMonicInput(CarlitzError, ValueError):
    """A semi-character was evaluated at a non-monic polynomial."""


class UnsupportedCharacter(CarlitzError, ValueError):
    """A semi-character factor outside the supported families was requested."""


class BudgetExceeded(CarlitzError, RuntimeError):
    """A brute-force enumeration would exceed the configured budget."""

    def __init__(self, requested, budget):
        self.requested = requested
        self.budget = budget
        super().__init__(
            f"enumeration of {requested} monic polynomials exceeds the budget of {budget}"
        )


class TailNotVanishing(CarlitzError, ArithmeticError):
    """The truncation heuristic for a finite zeta sum failed its vanishing assertion."""


class NonIntegral(CarlitzError, ArithmeticError):
    """Reduction mod P was requested for a fraction whose denominator P divides."""


class NotAUnit(CarlitzError, ArithmeticError):
    """Inversion of a Tate series without a dominant unit term."""


class PrecisionInsufficient(CarlitzError, ValueError):
    """A valuation check was requested beyond the known precision of its inputs."""


class NonConvergent(CarlitzError, ArithmeticError):
    """A zeta series failed to show increasing valuations while summing."""


class ClosedFormMismatch(CarlitzError, RuntimeError):
    """A closed form disagreed with its brute-force companion; signals a bug."""


class UnknownCheck(CarlitzError, KeyError):
    """An identity check id is not present in the registry."""


class InvalidParams(CarlitzError, ValueError):
    """Parameters passed to an identity check failed validation."""


class GrammarError(CarlitzError, ValueError):
    """Syntax error while parsing the textual grammars; carries a position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class WeightZero(GrammarError):
    """A matrix-data column with weight < 1."""


class BadIndex(GrammarError):
    """A variable index in the grammar that is not a positive integer."""
