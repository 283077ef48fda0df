"""Numerical checks of the symmetrised-product algebra on Hermitian matrices.

The commutative product x ∘ y = (xy + yx)/2 on self-adjoint matrices is the
algebraic image of the logical conjunction of ideal sequential questions.
This module verifies its structural properties on concrete inputs: symmetry,
marginality, idempotency transfer, power associativity, the order symmetry of
the mapped exclusive disjunction, and formal reality (a sum of squares only
vanishes when every term does).

Formal reality is probed statistically over random inputs; the verdict is
"consistent with", never a proof.

Every kernel takes d x d matrices or (n, d, d) stacks and then works
memberwise, so a sweep costs one numpy call per dimension rather than one per
input; the report functions (``*_check``, ``*_probe``) are the single-matrix
forms.  The operands follow the shape rule of the ``hilbert`` kernels, whose
operand layer this module shares: one common d, one common stack length, and
a d x d matrix or a one-member stack broadcasts against a stack; anything
else raises :class:`DimensionMismatchError`.  The product and the mapped
exclusive disjunction are the same formulas the ``hilbert`` algebraic route
evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .hilbert import (DEFAULT_TOL, Projector, _hermitian, _mapped_xor, _operands, _symmetrised,
                      _xor_expansion, operator_norm)

__all__ = [
    "jordan_product",
    "mapped_conjunction",
    "IdempotencyReport",
    "idempotency_residuals",
    "idempotency_transfer_check",
    "FormalRealityReport",
    "formal_reality_residuals",
    "formal_reality_probe",
    "XorSymmetryReport",
    "xor_symmetry_residuals",
    "xor_operator_symmetry_check",
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


@dataclass(frozen=True)
class IdempotencyReport:
    """Residuals of the two idempotency requirements for a question operator."""

    cubic_residual: float       # ||A A A - A||
    square_residual: float      # ||A ∘ A - A||
    tol: float

    @property
    def passed(self) -> bool:
        return self.cubic_residual <= self.tol and self.square_residual <= self.tol


def idempotency_residuals(
    a: np.ndarray | Projector, tol: float = DEFAULT_TOL
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Cubic ||A A A - A|| and square ||A ∘ A - A|| residuals, per member of a stack."""
    m = _hermitian(*_operands(a), tol)
    cubic = operator_norm(m @ m @ m - m)
    square = operator_norm(m @ m - m)  # x ∘ x reduces to the ordinary square
    return cubic, square


def idempotency_transfer_check(
    a: np.ndarray | Projector, tol: float = DEFAULT_TOL
) -> IdempotencyReport:
    """Check that asking a question twice is equivalent to asking it once.

    Accepts raw Hermitian matrices so that near-projectors can be diagnosed;
    a genuine projector passes both residual checks trivially.
    """
    cubic, square = idempotency_residuals(a, tol)
    return IdempotencyReport(cubic_residual=cubic, square_residual=square, tol=tol)


@dataclass(frozen=True)
class FormalRealityReport:
    """Result of probing x ∘ x + y ∘ y = 0  =>  x = y = 0 on one input pair."""

    residual_norm: float
    input_scale: float          # max(||x||, ||y||)
    verdict: Literal["consistent", "violated"]


def formal_reality_residuals(
    x: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL, *, norms=None
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Residual ||x∘x + y∘y|| and input scale max(||x||, ||y||), per member of two stacks.

    ``norms`` is (||x||, ||y||) when the caller has them, as a sweep of overlapping pairs does.
    """
    xm, ym = (_hermitian(m, tol) for m in _operands(x, y))
    residual = operator_norm(xm @ xm + ym @ ym)  # x ∘ x reduces to the ordinary square
    x_norms, y_norms = (operator_norm(xm), operator_norm(ym)) if norms is None else norms
    return residual, np.maximum(x_norms, y_norms)


def formal_reality_probe(
    x: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL
) -> FormalRealityReport:
    """Measure ||x∘x + y∘y|| against the input scale.

    For Hermitian inputs the sum of squares is positive semidefinite, so the
    residual can only vanish when both inputs do; a "violated" verdict
    (vanishing residual with nonzero input) must never occur and would signal
    broken arithmetic.
    """
    residual, scale = formal_reality_residuals(x, y, tol)
    scale = float(scale)
    violated = residual <= tol and scale > tol
    return FormalRealityReport(
        residual_norm=residual,
        input_scale=scale,
        verdict="violated" if violated else "consistent",
    )


@dataclass(frozen=True)
class XorSymmetryReport:
    """Residuals for the order symmetry of the mapped exclusive disjunction."""

    swap_residual: float        # ||(A B̄ A + Ā B Ā) - (B Ā B + B̄ A B̄)||
    expansion_residual_ab: float  # ||(A B̄ A + Ā B Ā) - (A + B - AB - BA)||
    expansion_residual_ba: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.swap_residual <= self.tol
            and self.expansion_residual_ab <= self.tol
            and self.expansion_residual_ba <= self.tol
        )


def xor_symmetry_residuals(
    a: Projector | np.ndarray, b: Projector | np.ndarray
) -> tuple[float | np.ndarray, ...]:
    """Swap and both expansion residuals of the mapped exclusive disjunction.

    Takes projectors, or matrices and (n, d, d) stacks of validated projector
    matrices, and returns one residual of each kind per member.
    """
    am, bm = _operands(a, b)
    forward, backward = _mapped_xor(am, bm), _mapped_xor(bm, am)
    expansion = _xor_expansion(am, bm)
    return (
        operator_norm(forward - backward),
        operator_norm(forward - expansion),
        operator_norm(backward - expansion),
    )


def xor_operator_symmetry_check(
    a: Projector, b: Projector, tol: float = DEFAULT_TOL
) -> XorSymmetryReport:
    """Verify that the mapped exclusive disjunction does not depend on order.

    Both orderings of the mapped operator are compared with each other and
    with the common expansion A + B - AB - BA.
    """
    swap, expansion_ab, expansion_ba = xor_symmetry_residuals(a, b)
    return XorSymmetryReport(
        swap_residual=swap,
        expansion_residual_ab=expansion_ab,
        expansion_residual_ba=expansion_ba,
        tol=tol,
    )
