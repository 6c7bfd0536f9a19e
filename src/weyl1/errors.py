"""Shared exception types.

DomainError marks failures of a computation's stated domain (window
escapes, unverified endomorphism pairs, ...) as opposed to malformed
input; the command-line front end maps the two kinds to different exit
codes.
"""


class DomainError(Exception):
    """A computation left (or was asked to leave) its stated domain."""


class UnverifiedEndoError(DomainError):
    """An operation required an endomorphism pair with [y, x] = 1."""


class WindowEscapeError(DomainError):
    """An image fell outside the target window or target span."""


class ChainBasisError(DomainError):
    """Chain-basis construction hypotheses failed (kernel size, solvability)."""
