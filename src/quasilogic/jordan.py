"""Numerical checks of the symmetrised-product algebra on Hermitian matrices.

The commutative product x ∘ y = (xy + yx)/2 on self-adjoint matrices is the
algebraic image of the logical conjunction of ideal sequential questions.
The residual kernels here measure its structure on concrete inputs:
idempotency transfer, the order symmetry of the mapped exclusive disjunction,
and formal reality (a sum of squares only vanishes when every term does).
They return residual norms and leave the verdict to the caller, as ``verify``
does; formal reality is probed over random inputs, so its verdict is
"consistent with", never a proof.

The residual kernels norm the defects of private builders, which ``verify``
reduces to the worst spectral norm of a stack itself (``hilbert._worst_norm``); the XOR
builder takes the mapped disjunctions that ``verify`` forms once for both suites.
Formal reality needs no singular values: x∘x + y∘y = x² + y² and its inputs
are Hermitian, so each spectral norm is the largest absolute eigenvalue, from
``eigvalsh`` (:func:`_hermitian_norm`), which the kernel and ``verify``'s sweep share; the
sweep bounds each sampled matrix, and each sum where it does not solve the sums
at once, by the Frobenius norms of its powers, and solves one only where it can
set a reported value.  By Weyl's inequality λ_max(x² + y²) ≥ max(‖x‖², ‖y‖²),
so the residual is at least 100 times the sweep's floor 0.01 max(‖x‖², ‖y‖²).
The public kernels reject a NaN or infinite operand, then one not Hermitian
within ``DEFAULT_TOL``, before any arithmetic, and a finite operand whose products
overflow with :class:`QuasilogicError` (:func:`_unless_overflowed`); the
builders check nothing, so that ``verify`` does not validate the stacks it
sampled, and its NaN controls reach its checks.

Every kernel takes d x d matrices (giving floats) or (n, d, d) stacks and
works memberwise, so a sweep costs one numpy call per dimension.  Operands
follow the shape rule of the ``hilbert`` kernels, whose operand layer and
formulas this module shares: one common d, one common stack length, and a
d x d matrix or a one-member stack broadcasts against a stack; anything else
raises :class:`DimensionMismatchError`.
"""
from __future__ import annotations

import numpy as np

from . import hilbert
from .errors import QuasilogicError
from .hilbert import DEFAULT_TOL

__all__ = [
    "jordan_product",
    "idempotency_residuals",
    "formal_reality_residuals",
    "xor_symmetry_residuals",
]


def jordan_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetrised product (xy + yx)/2 of two Hermitian matrices, memberwise on stacks.

    Commutative and Hermitian by construction; non-associative in general.  On
    two questions (or two stacks of them) it is the operator image of their
    logical conjunction, and satisfies the operator marginality
    (A ∘ B) + (A ∘ B̄) = A.
    """
    xm, ym = (hilbert._hermitian(m, DEFAULT_TOL) for m in _finite_operands(x, y))
    with np.errstate(all="ignore"):
        return _unless_overflowed(hilbert._symmetrised(xm, ym))[0]


def idempotency_residuals(a: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Cubic ||A A A - A|| and square ||A ∘ A - A|| residuals, per member of a stack.

    Asking a question twice is asking it once when both vanish.  Takes raw
    Hermitian matrices, so that a near-projector can be diagnosed.
    """
    m = hilbert._hermitian(_finite_operands(a)[0], DEFAULT_TOL)
    with np.errstate(all="ignore"):
        cubic, square = _unless_overflowed(*_idempotency_defects(m))
    return hilbert._norm(cubic), hilbert._norm(square)


def _idempotency_defects(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A A A - A and A ∘ A - A, whose norms :func:`idempotency_residuals` returns.

    A ∘ A reduces to the ordinary square, which is formed once: A A A is (A A) A.
    """
    square = m @ m
    return square @ m - m, square - m


def formal_reality_residuals(
    x: np.ndarray, y: np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Residual ||x∘x + y∘y|| and input scale max(||x||, ||y||), per member of two stacks.

    For Hermitian inputs the sum of squares is positive semidefinite, so the
    residual vanishes only when both inputs do; a vanishing residual at a
    nonzero scale would signal broken arithmetic.  Every norm is the largest
    absolute eigenvalue (:func:`_hermitian_norm`).
    """
    xm, ym = (hilbert._hermitian(m, DEFAULT_TOL) for m in _finite_operands(x, y))
    with np.errstate(all="ignore"):
        sums = _unless_overflowed(_formal_reality_sums(xm @ xm, ym @ ym))[0]
    residual = _hermitian_norm(sums)
    return residual, np.maximum(_hermitian_norm(xm), _hermitian_norm(ym))


def _formal_reality_sums(x_squares: np.ndarray, y_squares: np.ndarray) -> np.ndarray:
    """x∘x + y∘y from x² and y², whose norm :func:`formal_reality_residuals` returns.

    x ∘ x reduces to the ordinary square, which a sweep over a chain of pairs
    takes once per matrix.
    """
    return x_squares + y_squares


def _hermitian_norm(m: np.ndarray) -> float | np.ndarray:
    """Spectral norm max(−λ_min, λ_max) of a Hermitian matrix, or of each member of a stack.

    Reads only the lower triangle.  A NaN or infinite entry raises
    :class:`NonFiniteError` before the solve, as in :func:`hilbert.operator_norm`.
    """
    eigenvalues = np.linalg.eigvalsh(hilbert._finite(m, "matrix"))
    return np.maximum(-eigenvalues[..., 0], eigenvalues[..., -1])


def xor_symmetry_residuals(a: np.ndarray, b: np.ndarray) -> tuple[float | np.ndarray, ...]:
    """Swap and both expansion residuals of the mapped exclusive disjunction.

    Takes projectors, as d x d matrices or (n, d, d) stacks, and returns one
    residual of each kind per member.
    """
    a, b = _finite_operands(a, b)
    with np.errstate(all="ignore"):
        defects = _unless_overflowed(*_xor_symmetry_defects(
            hilbert._mapped_xor(a, b), hilbert._mapped_xor(b, a), hilbert._xor_expansion(a, b)))
    return tuple(hilbert._norm(defect) for defect in defects)


def _xor_symmetry_defects(forward: np.ndarray, backward: np.ndarray, expansion: np.ndarray):
    """The swap and both expansion defects whose norms :func:`xor_symmetry_residuals` returns,
    of the mapped exclusive disjunctions of A, B and of B, A, and A + B - AB - BA."""
    return forward - backward, forward - expansion, backward - expansion


def _unless_overflowed(*results: np.ndarray) -> tuple[np.ndarray, ...]:
    """``results``, computed from finite operands, once every entry is finite.

    A NaN or an infinity can then only come from an overflow, which raises
    :class:`QuasilogicError` rather than misname the input as non-finite.
    """
    if not all(np.isfinite(m).all() for m in results):
        raise QuasilogicError("the result overflowed: the finite input is too large")
    return results


def _finite_operands(*operands) -> list[np.ndarray]:
    """:func:`hilbert._operands` once every entry is finite, else :class:`NonFiniteError`."""
    return [hilbert._finite(m, "matrix") for m in hilbert._operands(*operands)]
