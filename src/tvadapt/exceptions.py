"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


class ContractError(RuntimeError):
    """A caller violated an operation's contract (e.g. non-scalar loss)."""


class ConfigError(ValueError):
    """An experiment configuration is invalid or inconsistent."""


class InputError(ValueError):
    """Runtime input (video, tokens, candidate set) is malformed."""


class VersionError(RuntimeError):
    """A checkpoint cannot be read by this version of the code."""


class ConsistencyError(RuntimeError):
    """An internal cross-check (closed form vs enumeration) failed."""


class WorkerError(RuntimeError):
    """A forked worker process died or could not send its result back."""
