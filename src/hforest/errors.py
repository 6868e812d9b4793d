"""The library's error classes, in one module that imports nothing.

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
