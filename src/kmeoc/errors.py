"""Exception hierarchy.

Every error raised by this package derives from :class:`KmeocError`, so
callers (including the CLI) can distinguish library failures from plain
bugs.  Errors that point at a specific step of an iterative computation
carry that step as an attribute.
"""

from __future__ import annotations

__all__ = [
    "KmeocError",
    "InputError",
    "IntegrationError",
    "EstimationError",
    "ScoringError",
    "DivergenceError",
    "PropagationError",
    "RolloutError",
    "StorageError",
    "HeaderError",
    "VersionError",
    "ChecksumError",
    "InvariantError",
]


class KmeocError(Exception):
    """Base class for all library errors."""


class InputError(KmeocError, ValueError):
    """An argument fails validation (shape, emptiness, range)."""


class IntegrationError(KmeocError):
    """SDE/ODE integration produced a non-finite state.

    Attributes
    ----------
    step : int
        Index of the substep at which the state became non-finite.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class EstimationError(KmeocError):
    """A ridge is zero or too small.

    Raised by the fit when its ridge stays too small after jitter
    escalation, and by the one ridge solver, in the fit or a state-Gram
    solve, when the ridge is 0 or does not exceed the low-rank gap of
    its Gram (rho >= 1).

    Attributes
    ----------
    smallest_pivot : float
        Smallest eigenvalue of the low-rank control Gram W W^T the fit
        would have regularized (NaN from the solver); advisory for
        choosing a larger gamma.
    """

    def __init__(self, message: str, smallest_pivot: float = float("nan")):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class ScoringError(KmeocError):
    """Model scoring failed (e.g. eigenvalue iteration did not converge)."""


class DivergenceError(KmeocError):
    """The backward value recursion produced a non-finite iterate.

    This usually signals an unstable learned operator spectrum; choosing
    a different kernel scale tends to help.

    Attributes
    ----------
    step : int
        The backward time index k at which the blow-up was detected.
    spectral_radius : float
        Spectral radius of the closed-loop operator under the lowest
        policy row at or above ``step`` whose policy map has a finite
        D-square block, read from that block in the operators' rank-r
        coordinates (inf when no row's block is finite, NaN when not
        computed).  That row may already be far into the blow-up.
    max_control : float
        Largest |u| in that policy row.
    max_training_control : float
        Largest |U| among the training controls, for comparison.
    """

    def __init__(
        self,
        message: str,
        step: int,
        spectral_radius: float = float("nan"),
        max_control: float = float("nan"),
        max_training_control: float = float("nan"),
    ):
        super().__init__(message)
        self.step = step
        self.spectral_radius = spectral_radius
        self.max_control = max_control
        self.max_training_control = max_training_control


class PropagationError(KmeocError):
    """Forward measure propagation produced a non-finite weight vector."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class RolloutError(KmeocError):
    """A closed-loop simulation escaped the instability guard region."""


class StorageError(KmeocError):
    """Base class for persistence failures."""


class HeaderError(StorageError):
    """File is not an artifact (bad magic, truncated header)."""


class VersionError(StorageError):
    """Artifact version is not supported by this build."""


class ChecksumError(StorageError):
    """Artifact payload bytes do not match their recorded checksum."""


class InvariantError(StorageError):
    """A loaded artifact violates an invariant of its payload type.

    Attributes
    ----------
    invariant : str
        Human-readable name of the violated invariant.
    """

    def __init__(self, message: str, invariant: str):
        super().__init__(message)
        self.invariant = invariant
