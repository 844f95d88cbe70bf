"""The package's two failure classes: every exception it defines is one of them.

A ``ConfigError`` is the user's: a config key, or a model parameter that one
sets, holds a value the program rejects (exit 2).  A ``NumericalError`` is the
model's: a solve or a simulation went non-finite, or a time step exceeded a
stability bound (exit 3).  Any other exception, a ``ValueError`` of a check
that only a fault can reach included, is a bug and propagates.
"""

__all__ = ["ConfigError", "NumericalError"]


class ConfigError(ValueError):
    """Invalid, unknown or unparseable configuration input, or a model
    parameter out of its domain."""


class NumericalError(RuntimeError):
    """Non-finite values in a backward solve or a simulated state, or a time
    step too large for an explicitly treated term."""
