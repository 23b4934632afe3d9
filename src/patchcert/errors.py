"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: missing inputs,
malformed files and a model whose forward is not finite exit 2;
invalid parameters and configs exit 3, and so does a diverged training
run, whose remedy is a parameter; anything else exits 1. No command
lets an enumeration past its budget escape: certify and sweep use the
closed-form Delta, and delta prints such an oracle as skipped.
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


class NonFiniteError(InputError):
    """A forward overflowed or gave a logit that is not finite, which argmax reads as class 0."""


class BudgetError(PatchcertError, RuntimeError):
    """An exhaustive enumeration would exceed its safety budget."""


class DivergenceError(PatchcertError, RuntimeError):
    """Training produced a non-finite loss, or a model whose validation forward is not finite."""

    def __init__(self, message: str, batch_index: int | None = None):
        super().__init__(message)
        self.batch_index = batch_index
