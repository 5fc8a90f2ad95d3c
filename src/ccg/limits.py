"""Enumeration size limits.

Exhaustive operations (materialization, equilibrium enumeration, potential
sweeps) refuse inputs whose search space exceeds a bound instead of silently
thrashing. The bound defaults to ten million table cells; the only way to
set it is the ``CCG_SIZE_LIMIT`` environment variable, read on every check.
"""

from __future__ import annotations

import os
from decimal import Decimal

from .errors import InvalidParamsError, SizeLimitExceededError

DEFAULT_SIZE_LIMIT = 10_000_000

SIZE_LIMIT_ENV = "CCG_SIZE_LIMIT"


def effective_size_limit() -> int:
    raw = os.environ.get(SIZE_LIMIT_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise InvalidParamsError(f"{SIZE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
        if value <= 0:
            raise InvalidParamsError(f"{SIZE_LIMIT_ENV} must be positive, got {value}")
        return value
    return DEFAULT_SIZE_LIMIT


def ensure_within_limit(count: int, what: str) -> None:
    bound = effective_size_limit()
    if count > bound:
        try:
            needs = f"{count} entries"
        except ValueError:  # str() refuses ints of too many digits; Decimal counts them exactly
            needs = f"a {Decimal(count).adjusted() + 1}-digit number of entries"
        raise SizeLimitExceededError(f"{what} needs {needs}, limit is {bound}")
