"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: missing inputs and
malformed files exit 2, invalid parameters and configs exit 3, as does
an enumeration past its budget (a caller's choice of the exhaustive
count, not a fault; no command certifies with one, and delta prints
such an oracle as skipped), and anything else exits 1.
"""


class PatchcertError(Exception):
    """Base class for all package errors."""


class ParameterError(PatchcertError, ValueError):
    """A caller-supplied parameter is out of range or inconsistent."""


class DimensionError(ParameterError):
    """Tensor shapes do not line up for the requested operation."""


class InputError(PatchcertError, ValueError):
    """Input data (not a scalar parameter) violates a precondition."""


class EmptyVotesError(InputError):
    """A vote aggregate with zero total cannot produce a prediction."""


class FormatError(InputError):
    """An on-disk artifact does not match its declared binary format."""


class ConfigError(ParameterError):
    """Loaded components disagree (e.g. checkpoint vs dataset shape)."""


class BudgetError(PatchcertError, RuntimeError):
    """An exhaustive enumeration would exceed its safety budget."""


class DivergenceError(PatchcertError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, batch_index: int | None = None):
        super().__init__(message)
        self.batch_index = batch_index
