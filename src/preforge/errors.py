"""Exception hierarchy shared across the package."""


class PreForgeError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PreForgeError, ValueError):
    """Hilbert-space or coordinate dimension is invalid."""


class ShapeError(PreForgeError, ValueError):
    """An array argument has the wrong shape."""


class NormalizationError(PreForgeError, ValueError):
    """A density matrix fails its trace/Hermiticity requirements."""


class ConvergenceError(PreForgeError, RuntimeError):
    """An iterative numerical routine failed; carries a residual report."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SteadyStateError(PreForgeError, ValueError):
    """The Liouvillian lacks a unique steady state (singular generator)."""


class AssumptionError(PreForgeError, ValueError):
    """A model assumption is violated (e.g. rank-deficient steady state)."""


class InvalidSettingError(PreForgeError, ValueError):
    """A detection setting (S, beta) fails its semi-unitarity contract."""


class SubspaceError(PreForgeError, ValueError):
    """An invariant subspace certificate is violated or infeasible."""


class PermutationError(PreForgeError, ValueError):
    """A member permutation is inconsistent with the symmetry group action."""


class EnsembleError(PreForgeError, ValueError):
    """An ensemble violates purity, positivity, rates or connectivity."""


class SynthesisError(PreForgeError, RuntimeError):
    """No measurement scheme was found at tolerance; carries best residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class RealizationError(PreForgeError, RuntimeError):
    """A scheme does not pin its ensemble's member chain, or a member never clicks."""
