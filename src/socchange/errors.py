"""Exception taxonomy shared by the library and the CLI exit codes."""

from contextlib import contextmanager


class SocChangeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SocChangeError):
    """Invalid configuration or parameter outside its domain (CLI exit 1)."""


class DataError(SocChangeError):
    """Malformed or incomplete input data (CLI exit 2)."""


class NumericsError(SocChangeError):
    """Numerical failure: non-convergence, infeasible baseline (CLI exit 3)."""


class InfeasibleBaselineError(NumericsError):
    """Inferred plant input is negative: manure exceeds total turnover."""


@contextmanager
def writing(path):
    """Report an OSError raised while writing ``path`` as a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None
