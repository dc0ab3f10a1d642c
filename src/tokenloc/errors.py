"""Exception classes shared across the package.

The CLI maps these onto exit codes: format/IO problems exit 3, contract
violations (bad arguments, degenerate inputs, misuse of the tape) exit 4.
"""

import contextlib


class DimensionError(ValueError):
    """Shapes or extents disagree with an operation's contract."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but degenerate (all-zero mask, zero-mass attention)."""


class ContractError(RuntimeError):
    """An API contract was violated (tape reuse, empty stack, invalid argument)."""


class FormatError(RuntimeError):
    """Base class for file-format failures."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class TruncationError(FormatError):
    """File ended before the declared payload was complete."""


class UnsupportedDtypeError(FormatError):
    """Tensor file declares a dtype code this implementation does not know."""


class TensorHeaderError(FormatError):
    """Tensor header declares no dimensions or a zero extent."""


class CheckpointError(FormatError):
    """Checkpoint structure is invalid (duplicate, missing or mismatched entries)."""


class ManifestError(FormatError):
    """Manifest line failed to parse; message carries the line number."""


@contextlib.contextmanager
def cited(where):
    """Put `where: ` (the file, config field or option at fault) in front of a FormatError,
    ContractError or DimensionError raised inside, keeping its class and so its exit code."""
    try:
        yield
    except (FormatError, ContractError, DimensionError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc
