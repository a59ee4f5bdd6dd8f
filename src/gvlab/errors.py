"""Semantic errors shared by all gvlab modules.

Every contract violation raises :class:`GvlabError` carrying a short,
stable ``code`` (e.g. ``"bad-variable"``, ``"empty-table"``) so callers
and tests can dispatch on the failure kind without parsing messages.
"""

from __future__ import annotations


class GvlabError(ValueError):
    """Contract violation with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code, self.message = code, message

    def __reduce__(self):  # so an error raised in a worker process reaches the caller intact
        return type(self), (self.code, self.message)
