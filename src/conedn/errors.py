"""Exception taxonomy shared across the package.

DomainError and ConfigurationError mark bad inputs (the CLI maps them to
exit code 2); EvaluationError marks a numerical routine that failed to meet
its own tolerance (exit code 1).
"""

__all__ = ["ConednError", "DomainError", "ConfigurationError", "EvaluationError"]


class ConednError(Exception):
    """Base class for all package errors."""


class DomainError(ConednError):
    """A mathematical precondition was violated (argument out of domain)."""


class ConfigurationError(ConednError):
    """Inconsistent or malformed configuration / plumbing input."""


class EvaluationError(ConednError):
    """A numerical evaluation failed to converge to its tolerance."""
