"""Exception hierarchy shared by all widthlab modules."""


class WidthLabError(Exception):
    """Base class for all widthlab-specific errors."""


class ParameterError(WidthLabError, ValueError):
    """A graph-family or formula parameter is outside its admissible range."""


class SizeCapError(WidthLabError):
    """An exhaustive computation was requested above its hard size cap.

    Caps are never silently relaxed into approximations; an oversized
    request is refused outright.
    """


class PreconditionError(WidthLabError):
    """An operation's structural precondition does not hold for the input."""


class StructuralError(WidthLabError):
    """A decomposition shape is malformed (not a tree, bad bag indices)."""


class UndefinedValueError(WidthLabError):
    """The requested quantity is undefined for the input (e.g. bandwidth of a zero matrix)."""


class HypothesisError(WidthLabError):
    """A bound's hypothesis is not met, so the bound is not claimed."""


class ParseError(WidthLabError):
    """A PACE-format file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
