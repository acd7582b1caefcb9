"""Exception types shared across the package."""


class PnfkitError(Exception):
    """Base class for all pnfkit errors."""


class WordParseError(PnfkitError, ValueError):
    """Input text is not a valid binary word.

    ``position`` is the 1-based index of the first offending character.
    """

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid character {char!r} at position {position} (expected '0' or '1')")


class ScaleError(PnfkitError, ValueError):
    """The requested ``size`` of ``what`` exceeds a desk-scale guard's ``limit``.

    ``unsafe_large=True`` (``--unsafe-large`` on the CLI) lifts every guard
    but the series-order one.
    """

    def __init__(self, what: str, size: int, limit: int):
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(f"{what} {size} refused: the limit is {limit}")


def check_scale(what: str, size: int, limit: int, unsafe_large: bool) -> None:
    """The one refusal policy: a negative size is a plain ValueError;
    refuse size > limit unless unsafe_large is set."""
    if size < 0:
        raise ValueError(f"{what} must be non-negative, got {size}")
    if size > limit and not unsafe_large:
        raise ScaleError(what, size, limit)


class ContractError(PnfkitError, ValueError):
    """A documented precondition of an operation was violated."""


class IndexFormatError(PnfkitError, ValueError):
    """A stored index file is malformed or fails its invariants."""
