"""The base of every package error, with the exit status the CLI gives it."""


class CurvedLatticeError(Exception):
    """A failure the CLI reports as one line on stderr.

    ``exit_code`` is 2 for an invalid setting, or a request the program
    cannot serve, and 3 for a numerical failure; subclasses override it.
    """

    exit_code = 2
