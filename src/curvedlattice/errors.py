"""The base of every package error, with its exit status, and SpectralError."""


class CurvedLatticeError(Exception):
    """A failure the CLI reports as one line on stderr.

    ``exit_code`` is 2 for an invalid setting, or a request the program
    cannot serve, and 3 for a numerical failure; subclasses override it.
    """

    exit_code = 2


class SpectralError(CurvedLatticeError):
    """Eigensolver precondition failure or numerical breakdown."""

    exit_code = 3
