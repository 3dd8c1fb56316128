"""Exception hierarchy shared across the package.

Each class carries the CLI exit code used when it escapes to the command
line: 1 config, 2 data, 3 checkpoint, 4 other runtime failures, 5 output
faults.
"""


class MdvtError(Exception):
    exit_code = 4


class ConfigError(MdvtError):
    exit_code = 1


class DataError(MdvtError):
    exit_code = 2


class CheckpointError(MdvtError):
    exit_code = 3


class OutputError(MdvtError):
    """An output that cannot be written (a full disk, an ``--out`` under a
    file): the code of every OSError that reaches the command line."""

    exit_code = 5


class SelectionError(MdvtError):
    """Raised when a virtual-triplet selector has too few candidate items."""


class TrainingCollapseError(MdvtError):
    """Raised when a user representation degenerates to the zero vector."""
