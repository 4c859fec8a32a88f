"""Exceptions shared across the package."""


class ValidationError(ValueError):
    """Bad user input: parameters, files, or arguments out of contract."""


class IntegrityError(RuntimeError):
    """Internal invariant broke: corrupt symbols, inconsistent state."""


class SymbolMismatch(IntegrityError):
    """A provided symbol disagrees with the codeword the others determine."""

    def __init__(self, position: int) -> None:
        super().__init__(f"inconsistent symbol at position {position}")
        self.position = position
