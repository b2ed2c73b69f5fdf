"""Shared exception types."""

from __future__ import annotations

MAX_DIGITS = 4300  # Python's limit for int() and str() of a decimal string


class ResourceLimit(Exception):
    """An enumeration or memory guard tripped before the work started.

    ``bound`` names the guard, ``needed`` the estimated requirement and
    ``allowed`` the configured cap, so reports can state which limit fired.
    """

    def __init__(self, bound: str, needed, allowed):
        super().__init__(
            f"{bound}: needs about {needed}, allowed {allowed}")
        self.bound = bound
        self.needed = needed
        self.allowed = allowed


class InvariantError(Exception):
    """An internal consistency check failed: the program is at fault, not
    the input.  Deliberately not a ``RuntimeError``, which reports a failed
    mathematical check (a violation)."""
