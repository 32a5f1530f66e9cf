"""Exception types shared across the package."""


class GrassmannScatterError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GrassmannScatterError):
    """Input is outside the mathematical domain of the operation.

    Raised for non-symmetric / non-positive-definite / non-unimodular scatter
    matrices, rank-deficient bases, singular group elements, and matrices whose
    eigenvalue ratio exceeds the conditioning guard (1e14 by default).
    """


class UsageError(GrassmannScatterError):
    """The call is well-formed numerically but violates an API contract.

    Examples: a tangent vector that is not tangent at the declared base point,
    a law passed where a sample is evaluated, a sample size below 1.
    """


class ExistenceError(GrassmannScatterError):
    """No estimate can exist for the given data (atoms of positive weight span a proper subspace).

    Carries the witness subspace basis in ``witness`` (m x k array).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegeneracyError(GrassmannScatterError):
    """The limiting-covariance construction is numerically degenerate.

    Raised when the restriction of the linearization operator to the image of
    the score covariance is singular beyond the Moore-Penrose cutoff, which
    happens when the measure does not charge enough of the subspace manifold.
    """
