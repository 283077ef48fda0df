"""The algebra where commutative question logic lives.

Mapping the logical conjunction of ideal sequential questions into operators
lands on the symmetrised product (AB + BA)/2: commutative, marginality-
preserving, and formally real (a sum of squares never vanishes for nonzero
inputs).  These are the properties this demo measures on random matrices.
"""

import numpy as np

from quasilogic import hilbert, jordan

a = hilbert.validate_projector(np.diag([1.0, 0.0]))
b = hilbert.rank_one_projector(np.array([1.0, 1.0]))

print("symmetrised product of |0><0| and |+><+|:")
print(np.round(jordan.jordan_product(a, b).real, 4))

print()
print("operator marginality, (A o B) + (A o not-B) = A:")
bbar = hilbert.complement_projector(b)
total = jordan.jordan_product(a, b) + jordan.jordan_product(a, bbar)
print(f"  residual: {hilbert.operator_norm(total - a):.2e}")

print()
print("the mapped exclusive disjunction is order-symmetric:")
swap, expansion_ab, _ = jordan.xor_symmetry_residuals(a, b)
print(f"  swap residual:      {swap:.2e}")
print(f"  expansion residual: {expansion_ab:.2e}"
      "  (against A + B - AB - BA)")

print()
print("idempotency transfers from A*A = A to the cubic A*A*A = A:")
cubic, _ = jordan.idempotency_residuals(
    hilbert.sample_projectors(6, [3], np.random.default_rng(0))[0])
print(f"  random rank-3 projector at d=6: cubic residual {cubic:.2e}")
near = np.diag([1.0, 0.0]) + 1e-3 * np.diag([1.0, -1.0])
near_cubic, near_square = jordan.idempotency_residuals(near)
print(f"  perturbed near-projector: square residual {near_square:.2e},"
      f" passed={max(near_cubic, near_square) <= 1e-10}")

print()
print("formal reality probed on random Hermitian pairs, dims 2..8:")
print("  (one stacked call per dimension: 200 pairs as two (200, d, d) stacks)")
worst = np.inf
for dim in range(2, 9):
    rng = np.random.default_rng([1000, dim])
    x = hilbert.sample_hermitians(dim, 200, rng)
    y = hilbert.sample_hermitians(dim, 200, rng)
    residual, scale = jordan.formal_reality_residuals(x, y)
    assert (residual > 0.01 * scale**2).all()
    worst = min(worst, float((residual / (0.01 * scale**2)).min()))
print(f"  1400 pairs, all consistent; smallest residual/floor ratio {worst:.1f}")
print("  (statistical evidence, not a proof)")

print()
single, _ = jordan.formal_reality_residuals(x[0], y[0])
print(f"one pair is the same kernel on d x d matrices: residual "
      f"{single:.4f} == {residual[0]:.4f}")
