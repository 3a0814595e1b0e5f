"""Exception hierarchy.

Everything raised on purpose by this package derives from GraphainError, so
callers can catch a single type at the boundary.
"""


class GraphainError(Exception):
    """Base class for all package errors."""


class IndexOutOfRangeError(GraphainError):
    """A node index lies outside [0, n)."""


class FeatureRowMismatchError(GraphainError):
    """Feature matrix row count does not match the node count."""


class NonFiniteFeatureError(GraphainError):
    """A feature value is NaN or infinite."""


class DimensionMismatchError(GraphainError):
    """Operand shapes are incompatible."""


class NotSymmetricError(GraphainError):
    """A matrix expected to be symmetric is not."""


class NoConvergenceError(GraphainError):
    """The symmetric eigensolver failed: non-finite input, or LAPACK did not converge."""


class RankDeficientError(GraphainError):
    """A matrix is numerically rank deficient where full rank is required."""


class NotOrthonormalError(GraphainError):
    """Columns expected to be orthonormal are not."""


class TooLargeError(GraphainError):
    """Problem size exceeds the dense-oracle cap."""


class DegenerateGapError(GraphainError):
    """The requested eigenspace is ill-defined due to a repeated eigenvalue."""


class NotErgodicError(GraphainError):
    """Graph is disconnected or bipartite; the deep-propagation limit is undefined."""


class SingularSystemError(GraphainError):
    """Label propagation cannot reach some unlabeled node."""


class InvalidCoefficientsError(GraphainError):
    """Mixing coefficients violate their constraints."""


class ZeroActivationError(GraphainError):
    """Embedding collapsed to zero, so renormalization is undefined."""


class NonFiniteActivationError(GraphainError):
    """An activation's norm is NaN or infinite, so renormalization is undefined."""


class RowNotStochasticError(GraphainError):
    """Rows expected to be probability distributions are not."""


class EmptyIncludeError(GraphainError):
    """A loss was requested over an empty node subset."""


class NonFiniteLossError(GraphainError):
    """Training loss became NaN or infinite."""


class MissingMaskError(GraphainError):
    """Dataset has no train/val/test masks but the command needs them."""


class ConfigError(GraphainError):
    """A configuration value is invalid (unknown key, bad value, bad range)."""


class ParseError(GraphainError):
    """A dataset file failed to parse; carries file path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
