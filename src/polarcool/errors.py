"""Exception types shared across the package, the checks on inputs, and the one text writer."""
import math
import numbers
import os

import numpy as np


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
    # this type test; a clean working point calls it on its angle, not on what it derives
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


def check_choice(path: str, value, choices: tuple):
    """``value`` if it is one of the strings ``choices``, else a ValidationError naming
    ``path`` that words two choices as ``'a' or 'b'`` and more as ``one of (...)``."""
    if isinstance(value, str) and value in choices:  # an array's == would not give a bool
        return value
    wanted = " or ".join(map(repr, choices)) if len(choices) == 2 else f"one of {choices}"
    raise ValidationError(f"{path}: expected {wanted}, got {value!r}")


def check_integer(path: str, value, at_least: int) -> int:
    """``int(value)`` of an integer other than a bool of at least ``at_least``,
    else a ValidationError naming ``path``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= at_least:
        return int(value)
    raise ValidationError(f"{path}: expected an integer >= {at_least}, got {value!r}")


def check_type(path: str, value, kind: type):
    """``value`` if it is a ``kind``, else a ValidationError naming ``path``."""
    if isinstance(value, kind):
        return value
    raise ValidationError(f"{path}: expected a {kind.__name__}, got {value!r}")


def check_entries(path: str, value, kind: type | None = None) -> tuple:
    """``value`` as a tuple, or a ValidationError naming ``path`` if it is not a
    sequence; with ``kind`` each entry must be a ``kind`` (:func:`check_type`,
    named ``path[i]``)."""
    try:
        entries = tuple(value)
    except TypeError:
        raise ValidationError(f"{path}: expected a sequence, got {value!r}") from None
    if kind is not None:
        for i, entry in enumerate(entries):
            if not isinstance(entry, kind):
                check_type(f"{path}[{i}]", entry, kind)
    return entries


def check_path(path) -> None:
    """A ValidationError unless ``path`` is a file path (a str, bytes or os.PathLike);
    an int, which ``open`` would take as a file descriptor, is not one."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"path: expected a file path, got {path!r}")


def write_text(path, text: str, kind: str) -> None:
    """``text`` to the file at ``path`` as UTF-8 with LF line endings on every
    platform; a ``path`` that is not a file path (:func:`check_path`) or that cannot
    be written raises ValidationError naming it and the ``kind`` of file."""
    check_path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write the {kind} file ({exc.strerror})") from exc


def _real_array(path: str, a) -> np.ndarray:
    """``a`` as a float array, or a ValidationError naming ``path`` if it is ragged,
    not numeric, boolean or complex (rejected before any conversion), or holds an
    int beyond the float range (an infinite entry, as :func:`check_real` takes it)."""
    try:
        arr = np.asarray(a)
        kind = arr.dtype.kind
        if kind not in "bc":
            arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: expected a real numeric matrix") from None
    except OverflowError:
        raise ValidationError(f"{path}: contains a NaN or infinite entry") from None
    if kind == "b":
        raise ValidationError(f"{path}: expected a real numeric matrix, got booleans")
    if kind == "c":
        raise ValidationError(f"{path}: expected a real matrix, got complex entries")
    return arr


def check_matrix(path: str, a) -> np.ndarray:
    """``a`` as a real, square, non-empty and finite float matrix, or a ValidationError.

    A bool or complex matrix is rejected before any conversion; the result may
    share memory with ``a``.
    """
    arr = _real_array(path, a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{path}: expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{path}: expected a non-empty matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{path}: contains a NaN or infinite entry")
    return arr


def check_drift_diffusion(drift, diffusion) -> tuple[np.ndarray, np.ndarray]:
    """:func:`check_matrix` of both, of matching shapes, the diffusion symmetric
    within 1e-12 max(1, max|D|)."""
    r = check_matrix("drift", drift)
    d = check_matrix("diffusion", diffusion)
    if r.shape != d.shape:
        raise ValidationError(
            f"drift/diffusion: expected matching shapes, got {r.shape} and {d.shape}"
        )
    # an exactly symmetric D, as every builder makes, passes without the tolerance
    if not (d == d.T).all() and np.abs(d - d.T).max() > 1e-12 * max(1.0, np.abs(d).max()):
        raise ValidationError("diffusion: must be symmetric")
    return r, d
