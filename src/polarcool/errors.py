"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid physical parameters or configuration; message carries field paths."""


class ConvergenceError(RuntimeError):
    """A solve that did not converge; part of the taxonomy, raised nowhere in the package."""


class UnstableSystemError(RuntimeError):
    """The drift matrix has spectrum outside the left half-plane; no steady state."""


class SolverError(RuntimeError):
    """A linear solve produced an unacceptable residual or conditioning."""
