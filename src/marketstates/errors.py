"""Exception types shared across the package, and the exit code of each family.

The CLI and run_pipeline both read EXIT_CODES: a DataError or an OSError (an
input that cannot be read, an output that cannot be written) exits 2, a
NumericError 3, any other exception 1, as a CLI usage or parameter error does.
"""


class DataError(Exception):
    """Input data is unreadable, malformed, or inconsistent."""


class NumericError(Exception):
    """A computation is undefined or degenerate for the given input."""


EXIT_CODES = {DataError: 2, OSError: 2, NumericError: 3}


def exit_code(exc: BaseException) -> int:
    """The exit code of ``exc``'s family in EXIT_CODES, else 1."""
    return next((code for family, code in EXIT_CODES.items() if isinstance(exc, family)), 1)
