"""A negative logical joint probability on a two-level system.

The state (|0> - 3|1>)/sqrt(10) asked the questions A = |0><0| and
B = |+><+| has strongly order-dependent sequential probabilities, yet its
logical joint probability is order-invariant -- and negative.  The weak value
of A post-selected on B sits outside [0, 1], which is only possible when the
real part of the Kirkwood-Dirac distribution is negative.
"""

import numpy as np

from quasilogic import hilbert, logic, survey

rho, a, b = hilbert.worked_example()

print("single-question probabilities:")
print(f"  P(A=1) = {hilbert.born_probability(rho, a):.3f}")
print(f"  P(B=1) = {hilbert.born_probability(rho, b):.3f}")
disturbed = hilbert.nonselective_state(rho, a)
print(f"  P(B=1 after nonselective A) = {hilbert.born_probability(disturbed, b):.3f}")

print()
print("sequential probabilities depend on the order:")
print(f"  P(A=1 then B=1) = {hilbert.sequential_probability(rho, a, b):.3f}")
print(f"  P(B=1 then A=1) = {hilbert.sequential_probability(rho, b, a):.3f}")

print()
print("the logical joint probability does not (and is negative):")
print(f"  operational route: {hilbert.logical_joint(rho, a, b, 'operational'):+.3f}")
print(f"  algebraic route:   {hilbert.logical_joint(rho, a, b, 'jordan'):+.3f}")
print(f"  arguments swapped: {hilbert.logical_joint(rho, b, a, 'operational'):+.3f}")

print()
print("full quasi-probability table:")
table = hilbert.quasi_prob_table(rho, a, b)
for cell in reversed(logic.CELLS):
    print(f"  P(A={cell[0]}, B={cell[1]}) = {table.cells[cell]:+.3f}")
print(f"  sum = {table.total():.6f}, marginals ({table.marginal_a:.3f}, {table.marginal_b:.3f})")

print()
print("a two-order survey of this model gives the same -0.1 back from either order:")
p_ab, p_ba = hilbert.model_sequential_probabilities(rho, a, b)
for order, logical in zip(("A first", "B first"), survey.logical_tables_from_probs(p_ab, p_ba)):
    print(f"  {order}: P(A=1, B=1) = {logical[(1, 1)]:+.3f}")

print()
wv = hilbert.weak_value(rho, a, b)
print(f"weak value of A post-selected on B: {wv.real:+.3f}{wv.imag:+.3f}i")

print()
print("the same -0.1 appears as a Kirkwood-Dirac real part:")
basis_a = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
basis_b = [np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)]
kd = hilbert.kd_distribution(rho, basis_a, basis_b)
print(np.array2string(np.round(kd, 4)))

print()
print("how negative can a cell get?  For fixed questions, the lowest value over")
print("all states is the lowest eigenvalue of a Jordan product:")
value, cell = hilbert.min_cell_over_states(a, b)
print(f"  these questions (overlap 1/sqrt(2)): {value:+.4f} at cell {cell}")
a_half = hilbert.rank_one_projector(np.array([1.0, 0.0]))
b_half = hilbert.rank_one_projector(np.array([0.5, np.sqrt(3) / 2]))
value, cell = hilbert.min_cell_over_states(a_half, b_half)
print(f"  rank-one questions at overlap 1/2:   {value:+.4f} at cell {cell}")
print("  (-1/8 exactly: Jordan's two-subspace lemma puts no cell of any pair lower)")
