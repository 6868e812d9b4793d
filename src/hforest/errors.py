"""The library's error classes and count rule, in a module importing nothing.

Each class is re-exported by the module whose inputs it reports on
(``forest``, ``nested``, ``ordinal``, ``space``), so imports from there
keep working; the CLI imports them from here, to map them to exit codes
without loading the modules that raise them.
"""


class ForestError(ValueError):
    """Domain error on forest inputs."""


class SpaceError(ValueError):
    """Domain error on space, base, partition or family inputs."""


class TermSyntaxError(ValueError):
    """Malformed forest term text, with the position of the fault."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class OrdinalSyntaxError(ValueError):
    """Malformed ordinal text, with the position of the fault."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def check_count(n, what: str, error: type, least=None, low: str = "") -> int:
    """n, if it is an int (a bool is not one) not below least, if given."""
    if n.__class__ is not int:
        raise error(f"{what} must be an integer, not {n!r}")
    if least is not None and n < least:
        raise error(low.format(n))
    return n
