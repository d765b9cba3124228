"""Exception types shared across the toolkit."""


class AvgFWError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AvgFWError):
    """Invalid or inconsistent configuration (dimensions, missing keys, bad values)."""


class NonFiniteGradient(ConfigError):
    """An LMO was handed a gradient with a NaN or infinite entry."""


class DegenerateGradient(AvgFWError):
    """The LMO direction is undefined (zero gradient on a smooth ball)."""


class UnsupportedKind(AvgFWError):
    """Operation not defined for this constraint-set kind."""


class BrokenOracle(AvgFWError):
    """The duality gap came out significantly negative; the LMO violated optimality."""


class WrongBranch(AvgFWError):
    """Closed form requested on the schedule branch where it does not exist."""


class NumericalBlowup(AvgFWError):
    """Non-finite objective value or gradient during iteration."""

    def __init__(self, k: int, message: str = ""):
        self.k = k
        super().__init__(message or f"non-finite value encountered at iteration {k}")


class StepTooLarge(AvgFWError):
    """Euler step above the supported maximum flows.MAX_DT."""

    def __init__(self, suggested_dt: float, message: str = ""):
        self.suggested_dt = suggested_dt
        super().__init__(message or f"integration step too large; retry with dt <= {suggested_dt:g}")


class InsufficientData(AvgFWError):
    """Too few usable points for a rate fit."""


class NoZeroSet(AvgFWError):
    """Degeneracy margin undefined: the candidate optimum has no zero coordinates."""


class ParseError(AvgFWError):
    """Malformed line in a data file."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(message or f"malformed line {line_no}")


class LabelError(AvgFWError):
    """Label outside the accepted set {-1, 0, +1}."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(message or f"unsupported label on line {line_no}")
