"""Exception types shared across the toolkit.

Every concrete error derives from exactly one of two bases, which carry
the exit-code policy of the command line: an :class:`InputError` (a bad
configuration, data file or request) exits 2 with ``config error:``, and
a :class:`NumericalError` (a run that failed numerically) exits 3 with
``numerical error:``.
"""


class AvgFWError(Exception):
    """Base class for all toolkit errors."""


class InputError(AvgFWError):
    """Bad input or an undefined request; the command line exits 2."""


class NumericalError(AvgFWError):
    """A run that failed numerically; the command line exits 3."""


class ConfigError(InputError):
    """Invalid or inconsistent configuration (dimensions, missing keys, bad values)."""


class NonFiniteGradient(ConfigError):
    """An LMO was handed a gradient with a NaN or infinite entry."""


class DegenerateGradient(NumericalError):
    """The LMO direction is undefined (zero gradient on a smooth ball)."""


class UnsupportedKind(InputError):
    """Operation not defined for this constraint-set kind."""


class NumericalBlowup(NumericalError):
    """Non-finite objective value or gradient during iteration."""

    def __init__(self, k: int, message: str = ""):
        self.k = k
        super().__init__(message or f"non-finite value encountered at iteration {k}")


class ParseError(InputError):
    """Malformed line in a data file."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(message or f"malformed line {line_no}")
