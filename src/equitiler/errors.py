"""Shared exception types."""

from __future__ import annotations

__all__ = ["PreconditionError", "InternalContradiction"]


class PreconditionError(ValueError):
    """A documented hypothesis of the called routine does not hold."""


class InternalContradiction(RuntimeError):
    """A guaranteed construction failed verification.

    Raised instead of returning a wrong answer; seeing this means either a
    bug or a falsified hypothesis, so the message carries the evidence.
    """
