"""Shared exception types."""


class ScaleRefusal(RuntimeError):
    """Raised when an exact operation would exceed its configured size bound.

    The message names the offending count and, where there is one, the bound.
    """
