"""Exception types shared across the package."""


class HolTypesError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HolTypesError):
    def __init__(self, line, column, message):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class DuplicateNameError(HolTypesError):
    def __init__(self, name):
        super().__init__(f"name already declared: {name!r}")
        self.name = name


class ArityMismatchError(HolTypesError):
    def __init__(self, function, expected, got, line=None, column=None):
        super().__init__(
            f"equation of {function!r} has {got} pattern(s), declared type takes {expected}"
        )
        self.function = function
        self.expected = expected
        self.got = got
        self.line = line
        self.column = column


class UnknownNameError(HolTypesError):
    def __init__(self, name):
        super().__init__(f"unknown function or constructor: {name!r}")
        self.name = name


class UnificationError(HolTypesError):
    """Base class for reduction failures."""


class MismatchError(UnificationError):
    def __init__(self, left, right):
        super().__init__(f"cannot relate {left} with {right}")
        self.left = left
        self.right = right


class OccursError(UnificationError):
    def __init__(self, var, type_):
        super().__init__(f"variable {var} occurs in {type_}")
        self.var = var
        self.type = type_


class ConflictError(UnificationError):
    def __init__(self, var, type1, type2):
        super().__init__(f"variable {var} bound to both {type1} and {type2}")
        self.var = var
        self.type1 = type1
        self.type2 = type2


class RenderError(HolTypesError):
    def __init__(self, message):
        super().__init__(message)
