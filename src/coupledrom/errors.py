"""Exception hierarchy shared by all coupledrom modules."""


class RomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeometryError(RomError):
    """Mesh description is geometrically invalid (zero/negative sizes, bad order)."""


class MissingTagError(RomError):
    """A boundary face was requested that does not exist on the mesh."""


class EmptyTraceError(RomError):
    """An interface trace holds no degrees of freedom."""


class CoefficientDomainError(RomError):
    """A coefficient field evaluated outside its admissible range."""


class InconsistentConstraintError(RomError):
    """Two conflicting Dirichlet values were prescribed for the same DoF."""


class DimensionMismatchError(RomError):
    """Array dimensions do not match the operation's contract."""


class SolverFailureError(RomError):
    """A linear solve did not reach the required residual tolerance."""

    def __init__(self, message, residual=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.step = step


class EmptySampleError(RomError):
    """A sample set of size zero was requested."""


class DegenerateSnapshotsError(RomError):
    """Snapshot matrix carries no energy (identically zero)."""


class DegenerateBasisError(RomError):
    """Greedy index selection hit an exactly singular interpolation submatrix."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class OversamplingError(RomError):
    """More interpolation indices requested than source DoFs available."""


class ProjectionDistanceError(RomError):
    """A target interface point lies too far from the source interface."""


class SingularRomError(RomError):
    """The reduced system is singular (tolerances likely too loose)."""


class EstimatorConvergenceError(RomError):
    """An iterative estimate (singular value / norm) did not converge."""


class ConfigError(RomError):
    """Experiment configuration failed validation."""

    def __init__(self, message, field=None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
