"""Exceptions shared across the toolkit, with CLI exit codes, and the
enumeration cap behind CapExceeded."""

import os

DEFAULT_CAP = 10 ** 6


class RaagBnsError(Exception):
    exit_code = 1


class MalformedInput(RaagBnsError):
    """Unparseable or inconsistent input data (exit 2)."""

    exit_code = 2


class CapExceeded(RaagBnsError):
    """An enumeration or a word expansion would grow past the cap (exit 3)."""

    exit_code = 3


class InvariantViolation(RaagBnsError):
    """An internal consistency check failed; indicates a bug (exit 4)."""

    exit_code = 4


def enumeration_cap():
    raw = os.environ.get("RAAGBNS_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise MalformedInput(f"RAAGBNS_CAP must be a non-negative integer, got {raw!r}")
    return cap


def admit(size, cap, claim):
    """Refuse, before the work, a computation of `size` steps over the cap
    (the configured one when `cap` is None); `claim` says what it would do."""
    cap = enumeration_cap() if cap is None else cap
    if size > cap:
        raise CapExceeded(f"{claim}, over the cap of {cap}; raise RAAGBNS_CAP to insist")
