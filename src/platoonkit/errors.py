"""Exception types shared across the package, and the checks that raise them
on numeric input and on sizes too large for memory."""

import math
import os


class ParameterError(ValueError):
    """Invalid user-supplied parameter (bad n/k, malformed reference set, ...)."""


class NumericalError(RuntimeError):
    """A numerical routine failed (eigensolver non-convergence, singular solve)."""


def check(name: str, value, low=-math.inf, *, strict: bool = False, integer: bool = False):
    """Return `value` (as an int when `integer`) if it is a finite number, at
    least `low` (above it when `strict`) and whole when `integer`; else raise
    ParameterError naming `name`.  Every numeric input comes through here,
    since a bare comparison lets NaN pass (``nan <= 0`` is false).  Finite
    means finite as a float: an int beyond the float range is refused here,
    not where it is first converted."""
    try:
        ok = math.isfinite(float(value)) and (
            value > low if strict else value >= low) and (not integer or value == int(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:.12g}"
        raise ParameterError(
            f"{name} must be a finite {'integer' if integer else 'number'}{bound}, got {value!r}")
    return int(value) if integer else value


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def check_memory(what: str, nbytes: float) -> None:
    """Refuse `what`, before anything is allocated, when it needs `nbytes`
    bytes of buffers and that is more than physical memory."""
    if nbytes > _physical_memory():
        raise ParameterError(
            f"{what} needs {nbytes / 2**30:.4g} GiB of buffers, more than this "
            f"machine's {_physical_memory() / 2**30:.4g} GiB of memory"
        )
