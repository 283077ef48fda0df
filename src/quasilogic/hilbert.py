"""Hilbert-space semantics for sequential yes-no questions.

Questions are Hermitian projectors on a finite-dimensional complex space,
states are density matrices, and the sequential question "A then B" is
evaluated with the Lüders update rule.  On top of those three ingredients the
module computes sequential probabilities, logical joint (quasi-)probabilities,
Kirkwood-Dirac distributions, weak values, and negativity witnesses.

The logical joint probability is computed by two deliberately independent
routes: an operational one that composes measurement updates, and an algebraic
one that takes the expectation of the symmetrised operator product.  Their
agreement is the central consistency check of the module and is enforced by
the test suite rather than assumed.

All functions are pure; stored matrices are marked read-only after validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    BadDimensionError,
    BadRankError,
    DimensionMismatchError,
    IncompleteBasisError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthonormalError,
    NotPositiveSemidefiniteError,
    TraceNotOneError,
    ZeroPostSelectionError,
    ZeroProbabilityBranchError,
)
from .logic import CELLS

__all__ = [
    "DEFAULT_TOL",
    "MAX_DIM",
    "Projector",
    "DensityState",
    "QuasiProbTable",
    "NegativitySearchResult",
    "operator_norm",
    "hermiticity_residual",
    "validate_projector",
    "validate_density",
    "complement_projector",
    "rank_one_projector",
    "sample_state",
    "sample_states",
    "sample_projector",
    "sample_projectors",
    "sample_hermitian",
    "sample_hermitians",
    "sample_orthonormal_basis",
    "sample_commuting_triple",
    "born_probability",
    "clamp_probability",
    "lueders_update",
    "sequential_probability",
    "nonselective_state",
    "logical_joint",
    "xor_expectation",
    "quasi_prob_table",
    "kd_distribution",
    "weak_value",
    "worked_example",
    "negativity_search",
    "negativity_random_search",
    "model_sequential_probabilities",
    "matrix_to_json",
    "matrix_from_json",
]

DEFAULT_TOL = 1e-10
MAX_DIM = 64

UpdateMode = Literal["selective_yes", "selective_no", "nonselective"]
JointMethod = Literal["operational", "jordan"]
XorMethod = Literal["operational", "mapped_operator"]


def operator_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Spectral norm (largest singular value); one per member of an (n, d, d) stack."""
    if np.ndim(matrix) == 2:
        return float(np.linalg.norm(matrix, 2))
    return np.linalg.norm(matrix, 2, axis=(-2, -1))


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every member of a stack."""
    return m.conj().swapaxes(-1, -2)


def _worst(residuals: float | np.ndarray) -> float:
    """Largest residual of a matrix (a float already) or a stack (0 when empty)."""
    if isinstance(residuals, float):
        return residuals
    return float(residuals.max(initial=0.0))


def hermiticity_residual(m: np.ndarray) -> float:
    """Worst ||m - m^H|| over a matrix or an (n, d, d) stack.

    Exactly Hermitian input has residual 0 without a singular-value solve.
    """
    skew = m - _dagger(m)
    return _worst(operator_norm(skew)) if skew.any() else 0.0


def _freeze(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128)
    out.flags.writeable = False
    return out


def _check_square(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_dim(d: int, max_dim: int) -> None:
    if not 2 <= d <= max_dim:
        raise BadDimensionError(f"dimension {d} outside supported range [2, {max_dim}]")


@dataclass(frozen=True, eq=False)
class Projector:
    """Validated Hermitian idempotent matrix (a yes-no question operator)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(self.matrix.trace().real))


@dataclass(frozen=True, eq=False)
class DensityState:
    """Validated unit-trace positive-semidefinite matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_projector(
    matrix: np.ndarray, tol: float = DEFAULT_TOL, max_dim: int = MAX_DIM
) -> Projector:
    """Validate a candidate question operator; reject rather than repair.

    Raises :class:`NotHermitianError` or :class:`NotIdempotentError` with the
    violated operator-norm residual attached.
    """
    return Projector(_validated_projectors(_check_square(matrix), tol, max_dim))


def _validated_projectors(m: np.ndarray, tol: float, max_dim: int) -> np.ndarray:
    """Frozen copy of a matrix or (n, d, d) stack after the checks of :func:`validate_projector`.

    A stack is checked at once; an error carries the worst member's residual.
    """
    _check_dim(m.shape[-1], max_dim)
    herm = hermiticity_residual(m)
    if herm > tol:
        raise NotHermitianError(herm, tol)
    idem = _worst(operator_norm(m @ m - m))
    if idem > tol:
        raise NotIdempotentError(idem, tol)
    return _freeze(m)


def validate_density(
    matrix: np.ndarray, tol: float = DEFAULT_TOL, max_dim: int = MAX_DIM
) -> DensityState:
    """Validate a candidate density matrix (Hermitian, PSD, unit trace)."""
    return DensityState(_validated_densities(_check_square(matrix), tol, max_dim))


def _validated_densities(m: np.ndarray, tol: float, max_dim: int) -> np.ndarray:
    """Frozen copy of a matrix or (n, d, d) stack after the checks of :func:`validate_density`.

    A stack is checked at once; an error carries the worst member's value.
    """
    _check_dim(m.shape[-1], max_dim)
    herm = hermiticity_residual(m)
    if herm > tol:
        raise NotHermitianError(herm, tol)
    lowest = float(np.linalg.eigvalsh((m + _dagger(m)) / 2).min(initial=np.inf))
    if lowest < -tol:
        raise NotPositiveSemidefiniteError(lowest, tol)
    traces = np.ravel(np.trace(m, axis1=-2, axis2=-1))
    gaps = np.abs(traces - 1.0)
    if gaps.max(initial=0.0) > tol:
        raise TraceNotOneError(complex(traces[gaps.argmax()]), tol)
    return _freeze(m)


def _check_dims(*operands: Projector | DensityState) -> int:
    dims = {op.dim for op in operands}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")
    return dims.pop()


def complement_projector(p: Projector) -> Projector:
    """The 'no' question: identity minus the projector."""
    return Projector(_freeze(np.eye(p.dim) - p.matrix))


def rank_one_projector(vector: np.ndarray, tol: float = DEFAULT_TOL) -> Projector:
    """Projector onto the ray of a (not necessarily normalised) vector."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot project onto the zero vector")
    v = v / norm
    return validate_projector(np.outer(v, v.conj()), tol)


# ---------------------------------------------------------------------------
# sampling (deterministic in the seed)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _gaussian_stack(seeds: Sequence[int], shape: tuple[int, ...]) -> np.ndarray:
    """One complex Gaussian draw of ``shape`` per seed, stacked on a new first axis."""
    draws = [_complex_gaussian(np.random.default_rng(seed), shape) for seed in seeds]
    return np.array(draws).reshape(len(draws), *shape)


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from complex Gaussian matrices (a matrix or a stack)."""
    q, r = np.linalg.qr(g)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_unitaries(_complex_gaussian(rng, (dim, dim)))


def sample_state(
    dim: int, purity: Literal["pure", "mixed"] = "pure", seed: int = 0
) -> DensityState:
    """Random state: Haar-uniform pure vector, or Hilbert-Schmidt mixed state."""
    return DensityState(sample_states(dim, [purity], [seed])[0])


def sample_states(
    dim: int, purities: Sequence[Literal["pure", "mixed"]], seeds: Sequence[int]
) -> np.ndarray:
    """Read-only (n, d, d) stack whose member i is ``sample_state(dim, purities[i], seeds[i])``.

    Each member comes from its own seed's draws, bit for bit; the stack is
    validated once.
    """
    for purity in purities:
        if purity not in ("pure", "mixed"):
            raise ValueError(f"purity must be 'pure' or 'mixed', got {purity!r}")
    rho = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    pure = [i for i, purity in enumerate(purities) if purity == "pure"]
    mixed = [i for i, purity in enumerate(purities) if purity == "mixed"]
    if pure:
        vectors = _gaussian_stack([seeds[i] for i in pure], (dim,))
        for v in vectors:
            v /= np.linalg.norm(v)
        rho[pure] = vectors[:, :, None] * vectors.conj()[:, None, :]
    if mixed:
        g = _gaussian_stack([seeds[i] for i in mixed], (dim, dim))
        products = g @ _dagger(g)
        rho[mixed] = products / np.trace(products, axis1=1, axis2=2).real[:, None, None]
    return _validated_densities((rho + _dagger(rho)) / 2, DEFAULT_TOL, MAX_DIM)


def sample_projector(dim: int, rank: int, seed: int = 0) -> Projector:
    """Random rank-``rank`` projector from a Haar-random orthonormal frame."""
    return Projector(sample_projectors(dim, [rank], [seed])[0])


def sample_projectors(dim: int, ranks: Sequence[int], seeds: Sequence[int]) -> np.ndarray:
    """Read-only (n, d, d) stack whose member i is ``sample_projector(dim, ranks[i], seeds[i])``.

    Each member comes from its own seed's draws, bit for bit; frames of equal
    rank are multiplied out together and the stack is validated once.
    """
    ranks = np.asarray(ranks, dtype=int)
    for rank in ranks.tolist():
        if not 1 <= rank < dim:
            raise BadRankError(f"rank must satisfy 1 <= rank < dim, got rank={rank}, dim={dim}")
    u = _haar_unitaries(_gaussian_stack(seeds, (dim, dim)))
    p = np.empty_like(u)
    for rank in np.unique(ranks).tolist():
        members = ranks == rank
        frame = u[members][:, :, :rank]
        p[members] = frame @ _dagger(frame)
    return _validated_projectors((p + _dagger(p)) / 2, DEFAULT_TOL, MAX_DIM)


def sample_hermitian(dim: int, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries of the given scale."""
    return sample_hermitians(dim, [seed], scale)[0]


def sample_hermitians(dim: int, seeds: Sequence[int], scale: float = 1.0) -> np.ndarray:
    """(n, d, d) stack whose member i is ``sample_hermitian(dim, seeds[i], scale)``."""
    g = _gaussian_stack(seeds, (dim, dim))
    return scale * (g + _dagger(g)) / 2


def sample_orthonormal_basis(dim: int, seed: int = 0) -> np.ndarray:
    """Haar-random orthonormal basis, returned as an array of row vectors."""
    rng = np.random.default_rng(seed)
    return _haar_unitary(dim, rng).T


def sample_commuting_triple(
    dim: int, seed: int = 0
) -> tuple[DensityState, Projector, Projector]:
    """State and two questions diagonal in one random basis (a classical triple)."""
    rng = np.random.default_rng(seed)
    u = _haar_unitary(dim, rng)
    probs = rng.dirichlet(np.ones(dim))

    def diagonal_pattern() -> np.ndarray:
        while True:
            bits = rng.integers(0, 2, size=dim)
            if 0 < bits.sum() < dim:
                return bits.astype(float)

    rho = u @ np.diag(probs.astype(complex)) @ u.conj().T
    a = u @ np.diag(diagonal_pattern().astype(complex)) @ u.conj().T
    b = u @ np.diag(diagonal_pattern().astype(complex)) @ u.conj().T
    return (
        validate_density((rho + rho.conj().T) / 2),
        validate_projector((a + a.conj().T) / 2),
        validate_projector((b + b.conj().T) / 2),
    )


# ---------------------------------------------------------------------------
# probabilities and updates


def born_probability(rho: DensityState, p: Projector) -> float:
    """Probability of the answer 'yes': Re Tr(rho P).

    The raw value is returned unclamped (it may sit at -1e-16 from round-off);
    use :func:`clamp_probability` for human-readable reporting.
    """
    _check_dims(rho, p)
    return float(np.trace(rho.matrix @ p.matrix).real)


def clamp_probability(value: float) -> float:
    """Clamp to [0, 1] for display; never use before negativity checks."""
    return min(max(value, 0.0), 1.0)


def lueders_update(
    rho: DensityState, p: Projector, mode: UpdateMode, tol: float = DEFAULT_TOL
) -> tuple[float, DensityState]:
    """Measurement update of a state by a question.

    ``selective_yes``/``selective_no`` condition on the answer and return
    (branch probability, renormalised post-state); ``nonselective`` discards
    the answer and returns (1, sum of both branches).

    Raises :class:`ZeroProbabilityBranchError` when a selective branch has
    probability at or below ``tol``.
    """
    dim = _check_dims(rho, p)
    revalidate = dict(tol=max(tol, 1e-12), max_dim=max(MAX_DIM, dim))
    if mode == "nonselective":
        pbar = complement_projector(p)
        post = (
            p.matrix @ rho.matrix @ p.matrix
            + pbar.matrix @ rho.matrix @ pbar.matrix
        )
        return 1.0, validate_density((post + post.conj().T) / 2, **revalidate)
    if mode == "selective_yes":
        proj = p
    elif mode == "selective_no":
        proj = complement_projector(p)
    else:
        raise ValueError(f"unknown update mode {mode!r}")
    branch = proj.matrix @ rho.matrix @ proj.matrix
    probability = float(branch.trace().real)
    if probability <= tol:
        raise ZeroProbabilityBranchError(probability, tol)
    post = branch / probability
    return probability, validate_density((post + post.conj().T) / 2, **revalidate)


def nonselective_state(rho: DensityState, p: Projector, tol: float = DEFAULT_TOL) -> DensityState:
    """State after asking a question and discarding the answer."""
    _, post = lueders_update(rho, p, "nonselective", tol)
    return post


def sequential_probability(rho: DensityState, a: Projector, b: Projector) -> float:
    """Probability of 'yes' to A and then 'yes' to B: Tr(B A rho A).

    Generally order-dependent; swapping the arguments changes the value.
    """
    _check_dims(rho, a, b)
    return float(np.trace(b.matrix @ a.matrix @ rho.matrix @ a.matrix).real)


def logical_joint(
    rho: DensityState, a: Projector, b: Projector, method: JointMethod = "operational"
) -> float:
    """Logical joint probability of 'yes' to both questions.

    ``operational`` composes measurements: the sequential probability plus
    half the difference between the undisturbed and the nonselectively
    disturbed single-question probability of B,

        P(A then B) + [P(B) - P(B after nonselective A)] / 2.

    ``jordan`` evaluates the expectation of the symmetrised product
    (AB + BA)/2.  Both equal Re Tr(rho A B); they agree to round-off, and the
    value may be negative.  Order-symmetric in (a, b) by construction.
    """
    _check_dims(rho, a, b)
    if method == "operational":
        seq = sequential_probability(rho, a, b)
        disturbed = nonselective_state(rho, a)
        return seq + (born_probability(rho, b) - born_probability(disturbed, b)) / 2
    if method == "jordan":
        sym = (a.matrix @ b.matrix + b.matrix @ a.matrix) / 2
        return float(np.trace(rho.matrix @ sym).real)
    raise ValueError(f"unknown method {method!r}")


def xor_expectation(
    rho: DensityState,
    a: Projector,
    b: Projector,
    method: XorMethod = "operational",
    tol: float = DEFAULT_TOL,
) -> float:
    """Expectation of the exclusive disjunction of two questions.

    ``operational`` sums the two disjoint sequential branches
    P(A then not-B) + P(not-A then B).  ``mapped_operator`` evaluates
    Tr(rho (A B̄ A + Ā B Ā)) after verifying that the operator expands to the
    manifestly order-symmetric form A + B - AB - BA within ``tol``.
    """
    _check_dims(rho, a, b)
    abar = complement_projector(a)
    bbar = complement_projector(b)
    if method == "operational":
        return sequential_probability(rho, a, bbar) + sequential_probability(
            rho, abar, b
        )
    if method == "mapped_operator":
        mapped = (
            a.matrix @ bbar.matrix @ a.matrix
            + abar.matrix @ b.matrix @ abar.matrix
        )
        symmetric = (
            a.matrix + b.matrix - a.matrix @ b.matrix - b.matrix @ a.matrix
        )
        residual = operator_norm(mapped - symmetric)
        if residual > tol:
            raise ArithmeticError(
                f"mapped XOR operator deviates from its symmetric expansion by {residual:.3e}"
            )
        return float(np.trace(rho.matrix @ mapped).real)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# quasi-probability tables


@dataclass(frozen=True)
class QuasiProbTable:
    """2x2 table of logical joint probabilities, cell (a, b) for answers a, b.

    Cells sum to 1 and marginalise to the single-question probabilities, but
    individual cells may be negative.
    """

    cells: dict[tuple[int, int], float]
    marginal_a: float
    marginal_b: float

    def total(self) -> float:
        return sum(self.cells.values())

    def row_sums(self) -> dict[int, float]:
        return {a: self.cells[(a, 1)] + self.cells[(a, 0)] for a in (1, 0)}

    def column_sums(self) -> dict[int, float]:
        return {b: self.cells[(1, b)] + self.cells[(0, b)] for b in (1, 0)}

    def min_cell(self) -> tuple[float, tuple[int, int]]:
        cell = min(self.cells, key=lambda k: self.cells[k])
        return self.cells[cell], cell

    def to_csv(self) -> str:
        lines = ["a,b,value"]
        for a, b in reversed(CELLS):
            lines.append(f"{a},{b},{self.cells[(a, b)]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "QuasiProbTable":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows or rows[0] != "a,b,value":
            raise ValueError("expected header 'a,b,value'")
        cells: dict[tuple[int, int], float] = {}
        for row in rows[1:]:
            a_str, b_str, value = row.split(",")
            cells[(int(a_str), int(b_str))] = float(value)
        if set(cells) != set(CELLS):
            raise ValueError(f"expected exactly cells {CELLS}")
        marginal_a = cells[(1, 1)] + cells[(1, 0)]
        marginal_b = cells[(1, 1)] + cells[(0, 1)]
        return cls(cells=cells, marginal_a=marginal_a, marginal_b=marginal_b)


def quasi_prob_table(
    rho: DensityState,
    a: Projector,
    b: Projector,
    method: JointMethod = "operational",
    tol: float = DEFAULT_TOL,
) -> QuasiProbTable:
    """Logical joint probabilities for all four answer pairs.

    The four cells are the logical joints of (A or its complement) with
    (B or its complement).  Normalisation and both marginality relations are
    verified within ``tol``; a violation raises, since it would be a defect.
    """
    _check_dims(rho, a, b)
    abar = complement_projector(a)
    bbar = complement_projector(b)
    questions = {1: a, 0: abar}
    answers_b = {1: b, 0: bbar}
    cells = {
        (ia, ib): logical_joint(rho, questions[ia], answers_b[ib], method)
        for ia, ib in reversed(CELLS)
    }
    pa = born_probability(rho, a)
    pb = born_probability(rho, b)
    table = QuasiProbTable(cells=cells, marginal_a=pa, marginal_b=pb)

    checks = (
        abs(table.total() - 1.0),
        abs(table.row_sums()[1] - pa),
        abs(table.row_sums()[0] - (1.0 - pa)),
        abs(table.column_sums()[1] - pb),
        abs(table.column_sums()[0] - (1.0 - pb)),
    )
    worst = max(checks)
    if worst > tol:
        raise ArithmeticError(f"table marginality residual {worst:.3e} exceeds tol {tol:.3e}")
    return table


def _validate_basis(
    vectors: Sequence[np.ndarray] | np.ndarray, dim: int, tol: float, name: str
) -> np.ndarray:
    mat = np.asarray([np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors])
    if mat.shape[0] != dim:
        raise IncompleteBasisError(
            f"{name}: expected {dim} vectors, got {mat.shape[0]}"
        )
    if mat.shape[1] != dim:
        raise IncompleteBasisError(
            f"{name}: vectors have length {mat.shape[1]}, expected {dim}"
        )
    gram = mat.conj() @ mat.T
    residual = operator_norm(gram - np.eye(dim))
    if residual > tol:
        raise NotOrthonormalError(residual, tol)
    return mat


def kd_distribution(
    rho: DensityState,
    basis_a: Sequence[np.ndarray] | np.ndarray,
    basis_b: Sequence[np.ndarray] | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Kirkwood-Dirac quasi-probability over two orthonormal bases.

    Entry (i, j) is <b_j|a_i><a_i|rho|b_j>: complex in general, summing to 1.
    The real part of entry (i, j) equals the logical joint probability of the
    rank-one questions |a_i><a_i| and |b_j><b_j|.
    """
    d = rho.dim
    av = _validate_basis(basis_a, d, tol, "basis_a")
    bv = _validate_basis(basis_b, d, tol, "basis_b")
    overlap = bv.conj() @ av.T          # (j, i) = <b_j|a_i>
    sandwich = av.conj() @ rho.matrix @ bv.T  # (i, j) = <a_i|rho|b_j>
    return overlap.T * sandwich


def weak_value(
    rho: DensityState, a: Projector, post: Projector, tol: float = DEFAULT_TOL
) -> complex:
    """Weak value of a question with post-selection: Tr(post A rho) / Tr(post rho).

    May lie outside [0, 1]; a negative real part at some input certifies a
    negative logical joint probability for the same triple.  Raises
    :class:`ZeroPostSelectionError` when the post-selection probability is at
    or below ``tol``.
    """
    _check_dims(rho, a, post)
    denominator = float(np.trace(post.matrix @ rho.matrix).real)
    if denominator <= tol:
        raise ZeroPostSelectionError(
            f"post-selection probability {denominator:.3e} at or below tol {tol:.3e}"
        )
    numerator = complex(np.trace(post.matrix @ a.matrix @ rho.matrix))
    return numerator / denominator


# ---------------------------------------------------------------------------
# negativity witnesses


def worked_example() -> tuple[DensityState, Projector, Projector]:
    """The two-level (state, A, B) whose logical joint table has a -0.1 cell.

    State (|0> - 3|1>)/sqrt(10), A = |0><0|, B = |+><+|: the (1, 1) cell is
    -0.1 and the weak value of A post-selected on B is -0.5.
    """
    psi = np.array([1.0, -3.0]) / np.sqrt(10.0)
    rho = validate_density(np.outer(psi, psi.conj()))
    a = validate_projector(np.diag([1.0, 0.0]))
    b = rank_one_projector(np.array([1.0, 1.0]))
    return rho, a, b


@dataclass(frozen=True, eq=False)
class NegativitySearchResult:
    """Best (most negative) cell found by a random search; no global claim."""

    min_value: float
    cell: tuple[int, int]
    draw_index: int
    state: DensityState
    question_a: Projector
    question_b: Projector


def negativity_search(
    rho: DensityState, a: Projector, b: Projector
) -> tuple[float, tuple[int, int]]:
    """Minimum cell of the quasi-probability table and the outcome pair attaining it."""
    return quasi_prob_table(rho, a, b, method="jordan").min_cell()


def negativity_random_search(
    dim: int,
    draws: int,
    seed: int = 0,
    purity: Literal["pure", "mixed"] = "pure",
) -> NegativitySearchResult:
    """Search random (state, question, question) triples for negative cells.

    Pure states are drawn by default since cells are linear in the state, so
    mixing can only shrink negativity.  Records the best value found; this is
    a brute-force search, not an optimiser, and makes no optimality claim.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    rng = np.random.default_rng(seed)
    best: NegativitySearchResult | None = None
    for i in range(draws):
        if purity == "pure":
            v = _complex_gaussian(rng, dim)
            v /= np.linalg.norm(v)
            rho_m = np.outer(v, v.conj())
        else:
            g = _complex_gaussian(rng, (dim, dim))
            rho_m = g @ g.conj().T
            rho_m /= rho_m.trace().real
        ops = []
        for _ in range(2):
            rank = int(rng.integers(1, dim))
            u = _haar_unitary(dim, rng)
            frame = u[:, :rank]
            ops.append(frame @ frame.conj().T)
        a_m, b_m = ops
        # direct cell evaluation; the wrapped API is exercised on the winner
        value = np.trace(rho_m @ a_m @ b_m).real
        pa = np.trace(rho_m @ a_m).real
        pb = np.trace(rho_m @ b_m).real
        cells = {
            (1, 1): value,
            (1, 0): pa - value,
            (0, 1): pb - value,
            (0, 0): 1.0 - pa - pb + value,
        }
        cell = min(cells, key=lambda k: cells[k])
        if best is None or cells[cell] < best.min_value:
            best = NegativitySearchResult(
                min_value=float(cells[cell]),
                cell=cell,
                draw_index=i,
                state=validate_density((rho_m + rho_m.conj().T) / 2),
                question_a=validate_projector((a_m + a_m.conj().T) / 2),
                question_b=validate_projector((b_m + b_m.conj().T) / 2),
            )
    return best


# ---------------------------------------------------------------------------
# bridge to survey data


def model_sequential_probabilities(
    rho: DensityState, a: Projector, b: Projector
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Sequential outcome distributions for both question orders.

    Returns (p_ab, p_ba): ``p_ab[(first, second)]`` is the probability of
    answering ``first`` to A and then ``second`` to B; ``p_ba`` likewise with
    B asked first.  These are the infinite-sample expected frequencies of a
    two-order survey run on this model.
    """
    _check_dims(rho, a, b)
    abar = complement_projector(a)
    bbar = complement_projector(b)
    firsts = {1: a, 0: abar}
    seconds = {1: b, 0: bbar}
    p_ab = {(fa, sb): sequential_probability(rho, firsts[fa], seconds[sb]) for fa, sb in CELLS}
    p_ba = {(fb, sa): sequential_probability(rho, seconds[fb], firsts[sa]) for fb, sa in CELLS}
    return p_ab, p_ba


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(matrix: np.ndarray) -> dict:
    """JSON-ready dict { "dim": d, "re": [[...]], "im": [[...]] }."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; checks shape consistency."""
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise BadDimensionError(
            f"re/im shapes {re.shape}/{im.shape} inconsistent with dim {dim}"
        )
    return re + 1j * im
