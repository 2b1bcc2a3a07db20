"""Exception types shared across the package, and the one check on scalar inputs."""
import math
import numbers


class ValidationError(ValueError):
    """Invalid physical parameters or configuration; message carries field paths."""


class ConvergenceError(RuntimeError):
    """A solve that did not converge; part of the taxonomy, raised nowhere in the package."""


class UnstableSystemError(RuntimeError):
    """The drift matrix has spectrum outside the left half-plane; no steady state."""


class SolverError(RuntimeError):
    """A linear solve produced an unacceptable residual or conditioning."""


def check_real(path: str, value, above=None, at_least=None, below=None) -> float:
    """``float(value)`` of a finite real number inside the given bounds.

    ``above``/``below`` are strict bounds, ``at_least`` an inclusive one.
    A bool, string, None, complex or other non-number, NaN, +-inf or an
    out-of-range value raises ValidationError with a message that starts
    with ``path``.
    """
    # a plain float skips the numbers.Real ABC check, some 30 times slower than
    # this type test; one working point makes about 60 calls
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{path}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf if value > 0 else -math.inf
    if (abs(value) < math.inf and (above is None or value > above)
            and (at_least is None or value >= at_least) and (below is None or value < below)):
        return value
    wanted = ["finite"]
    if above is not None:
        wanted.append("strictly positive" if above == 0 else f"> {above}")
    if at_least is not None:
        wanted.append("non-negative" if at_least == 0 else f">= {at_least}")
    if below is not None:
        wanted.append(f"< {below}")
    raise ValidationError(f"{path}: must be {' and '.join(wanted)}, got {value}")
