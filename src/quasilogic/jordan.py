"""Numerical checks of the symmetrised-product algebra on Hermitian matrices.

The commutative product x ∘ y = (xy + yx)/2 on self-adjoint matrices is the
algebraic image of the logical conjunction of ideal sequential questions.
The residual kernels here measure its structure on concrete inputs:
idempotency transfer, the order symmetry of the mapped exclusive disjunction,
and formal reality (a sum of squares only vanishes when every term does).
They return residual norms and leave the verdict to the caller, as ``verify``
does; formal reality is probed over random inputs, so its verdict is
"consistent with", never a proof.

The idempotency and XOR-symmetry kernels norm the defects of private builders,
which ``verify`` reduces itself: its checks keep only the worst spectral norm
of a stack, and σ₁² ≤ ‖MᴴM‖_F bounds every member, so ``hilbert._worst_norm``
solves just the members whose Gram bound reaches the worst norm found.  The
formal-reality sweep keeps one norm per member, as it reports the smallest
residual and ratio over all pairs.

Every kernel takes d x d matrices (giving floats) or (n, d, d) stacks and
works memberwise, so a sweep costs one numpy call per dimension.  Operands
follow the shape rule of the ``hilbert`` kernels, whose operand layer and
formulas this module shares: one common d, one common stack length, and a
d x d matrix or a one-member stack broadcasts against a stack; anything else
raises :class:`DimensionMismatchError`.
"""
from __future__ import annotations

import numpy as np

from .hilbert import (DEFAULT_TOL, Projector, _hermitian, _mapped_xor, _operands, _symmetrised,
                      _xor_expansion, operator_norm)

__all__ = [
    "jordan_product",
    "mapped_conjunction",
    "idempotency_residuals",
    "formal_reality_residuals",
    "xor_symmetry_residuals",
]


def jordan_product(
    x: np.ndarray | Projector, y: np.ndarray | Projector, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Symmetrised product (xy + yx)/2 of two Hermitian matrices, memberwise on stacks.

    Commutative and Hermitian by construction; non-associative in general.
    """
    xm, ym = _operands(x, y)
    return _symmetrised(_hermitian(xm, tol), _hermitian(ym, tol))


def mapped_conjunction(
    a: Projector | np.ndarray, b: Projector | np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Operator image of the logical conjunction of two questions (or two stacks of them).

    Identical to the symmetrised product of the projectors; satisfies the
    operator marginality  (A ∘ B) + (A ∘ B̄) = A.
    """
    return jordan_product(a, b, tol)


def idempotency_residuals(
    a: np.ndarray | Projector, tol: float = DEFAULT_TOL
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Cubic ||A A A - A|| and square ||A ∘ A - A|| residuals, per member of a stack.

    Asking a question twice is asking it once when both vanish.  Takes raw
    Hermitian matrices, so that a near-projector can be diagnosed.
    """
    cubic, square = _idempotency_defects(a, tol)
    return operator_norm(cubic), operator_norm(square)


def _idempotency_defects(a: np.ndarray | Projector, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """A A A - A and A ∘ A - A, whose norms :func:`idempotency_residuals` returns."""
    m = _hermitian(*_operands(a), tol)
    return m @ m @ m - m, m @ m - m  # x ∘ x reduces to the ordinary square


def formal_reality_residuals(
    x: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL, *, norms=None
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Residual ||x∘x + y∘y|| and input scale max(||x||, ||y||), per member of two stacks.

    For Hermitian inputs the sum of squares is positive semidefinite, so the
    residual vanishes only when both inputs do; a vanishing residual at a
    nonzero scale would signal broken arithmetic.
    ``norms`` is (||x||, ||y||) when the caller has them, as a sweep of overlapping pairs does.
    """
    xm, ym = (_hermitian(m, tol) for m in _operands(x, y))
    residual = operator_norm(xm @ xm + ym @ ym)  # x ∘ x reduces to the ordinary square
    x_norms, y_norms = (operator_norm(xm), operator_norm(ym)) if norms is None else norms
    return residual, np.maximum(x_norms, y_norms)


def xor_symmetry_residuals(
    a: Projector | np.ndarray, b: Projector | np.ndarray
) -> tuple[float | np.ndarray, ...]:
    """Swap and both expansion residuals of the mapped exclusive disjunction.

    Takes projectors, or matrices and (n, d, d) stacks of validated projector
    matrices, and returns one residual of each kind per member.
    """
    return tuple(operator_norm(defect) for defect in _xor_symmetry_defects(a, b))


def _xor_symmetry_defects(a: Projector | np.ndarray, b: Projector | np.ndarray) -> tuple:
    """The swap and both expansion defects whose norms :func:`xor_symmetry_residuals` returns."""
    am, bm = _operands(a, b)
    forward, backward = _mapped_xor(am, bm), _mapped_xor(bm, am)
    expansion = _xor_expansion(am, bm)
    return forward - backward, forward - expansion, backward - expansion
