"""Exception types shared across the package, and the dimension limit one of them names.

Validation never repairs its input: a matrix that misses an invariant, or a
survey file that misses the schema, is rejected with the violated quantity
attached so the caller can tell a bug from a tolerance problem.
"""

from __future__ import annotations


class QuasilogicError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# operator / state validation


class DimensionMismatchError(QuasilogicError):
    """Operands live on spaces of different dimension."""


class NonFiniteError(QuasilogicError):
    """A matrix or vector has a NaN or infinite entry."""


class NotHermitianError(QuasilogicError):
    """Matrix is not self-adjoint within tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"hermiticity residual {residual:.3e} exceeds tol {tol:.3e}")


class NotIdempotentError(QuasilogicError):
    """Matrix squared differs from the matrix within tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"idempotency residual {residual:.3e} exceeds tol {tol:.3e}")


class NotPositiveSemidefiniteError(QuasilogicError):
    """State matrix has an eigenvalue below -tol."""

    def __init__(self, min_eigenvalue: float, tol: float):
        self.min_eigenvalue = min_eigenvalue
        self.tol = tol
        super().__init__(f"minimum eigenvalue {min_eigenvalue:.3e} below -{tol:.3e}")


class TraceNotOneError(QuasilogicError):
    """State matrix trace differs from 1 within tolerance."""

    def __init__(self, trace: complex, tol: float):
        self.trace = trace
        self.tol = tol
        super().__init__(f"trace {trace} differs from 1 beyond tol {tol:.3e}")


MAX_DIM = 64
"""Largest supported dimension, ``hilbert.MAX_DIM``; kept here so the CLI reads it without numpy."""


class BadDimensionError(QuasilogicError):
    """Matrix is not square, or its dimension is outside [2, :data:`MAX_DIM`]."""


class BadRankError(QuasilogicError):
    """Requested projector rank is not in 1 <= rank < dim."""


class TooFewTrialsError(QuasilogicError):
    """A sampled check was asked for fewer than one trial per dimension, or a sampler
    for a negative number of members."""


class BadSeedError(QuasilogicError):
    """A sampled check was given a negative seed."""


class BadToleranceError(QuasilogicError):
    """A sampled check was given a tolerance that is not positive and finite."""


class UnknownOptionError(QuasilogicError, ValueError):
    """A sampler purity, or a joint or table method, that the Hilbert layer does not define."""


class ZeroPostSelectionError(QuasilogicError):
    """Post-selection probability too small for a weak value to be defined."""


class NotOrthonormalError(QuasilogicError):
    """Supplied vectors are not orthonormal within tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"Gram residual {residual:.3e} exceeds tol {tol:.3e}")


class IncompleteBasisError(QuasilogicError):
    """Supplied vector list does not span the full space."""


class IdentityCheckError(QuasilogicError, ArithmeticError):
    """An identity a result must meet (table marginality, survey's xor/conjunction
    balance) fails beyond tolerance or is NaN."""


# ---------------------------------------------------------------------------
# logic


class UnknownConnectiveError(QuasilogicError, ValueError):
    """A truth table was asked for a connective the logic layer does not define."""


# ---------------------------------------------------------------------------
# survey input and statistics


class SchemaError(QuasilogicError):
    """Survey count file violates the expected CSV schema."""


class NegativeCountError(SchemaError):
    """A cell count is negative."""


class MissingCellError(SchemaError):
    """A required (order, first, second) cell has no row."""


class DuplicateCellError(SchemaError):
    """A (order, first, second) cell appears more than once."""


class BadConfidenceError(QuasilogicError):
    """Confidence level outside the open interval (0, 1)."""


class TooFewIterationsError(QuasilogicError):
    """Bootstrap iteration count below the supported minimum."""


class LowExpectedCountWarning(UserWarning):
    """Chi-square expected cell count below 5; the statistic is still computed."""
