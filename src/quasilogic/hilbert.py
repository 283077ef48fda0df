"""Hilbert-space semantics for sequential yes-no questions.

Questions are Hermitian projectors on a finite-dimensional complex space,
states are density matrices, and the sequential question "A then B" is
evaluated with the Lüders update rule.  On top of those three ingredients the
module computes sequential probabilities, logical joint (quasi-)probabilities,
Kirkwood-Dirac distributions, weak values, and negativity witnesses.

The logical joint probability is computed by two deliberately independent
routes: an operational one that sums sequential probabilities, each a
composition of Lüders updates, and an algebraic one that takes the expectation
of the symmetrised operator product.  Their agreement is the central
consistency check of the module and is enforced by the test suite rather than
assumed.

States and questions are plain complex arrays.  Every evaluation has a
stacked kernel (``born_probabilities``, ``nonselective_states``, ``logical_joints``,
``quasi_prob_tables``, ...) that takes d x d matrices or (n, d, d) stacks,
broadcast against each other under one shape rule (``_operands``, which
``jordan`` shares too), and works memberwise; the single-matrix functions
(``born_probability``, ``logical_joint``, ``matrix_to_json``, ...) are their
one-matrix forms, which reject a stack (``_matrices``).  Every table follows
``logic.CELLS``.  Long stacks are processed in blocks of bounded size.

Only the ``validate_*`` functions, ``rank_one_projectors`` and
``kd_distribution``'s bases check that an operand is a state, a projector or
an orthonormal basis.  The kernels trust their operands to be states and
projectors, and check their shapes (``_operands``) and their own results:
``nonselective_states`` validates the post-measurement states it returns, and
the tables check their marginality identities, which a NaN fails.  Both joint
routes and the exclusive disjunction build no state and return a value for any
operands of the right shape.

Every sampler is stacked: it checks its arguments, then draws n members from
the ``numpy.random.Generator`` it is given, which it advances; one draw is
member 0 of a one-member stack.  It draws its Gaussians whole and builds its
result in their place or beside them, block by block, so its working memory is
its result plus one stack.  Its states and projectors are valid by construction,
so it freezes them unvalidated.  All other functions are pure.
Every state or projector the module returns, validated, sampled or built, is a
read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import (
    MAX_DIM,
    BadDimensionError,
    BadRankError,
    DimensionMismatchError,
    IdentityCheckError,
    IncompleteBasisError,
    NonFiniteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthonormalError,
    NotPositiveSemidefiniteError,
    TooFewTrialsError,
    TraceNotOneError,
    UnknownOptionError,
    ZeroPostSelectionError,
)
from .logic import CELLS

__all__ = [
    "DEFAULT_TOL",
    "MAX_DIM",
    "QuasiProbTable",
    "operator_norm",
    "validate_projector",
    "validate_density",
    "complement_projector",
    "rank_one_projector",
    "rank_one_projectors",
    "sample_states",
    "sample_projectors",
    "sample_hermitians",
    "sample_orthonormal_bases",
    "sample_commuting_triples",
    "born_probability",
    "born_probabilities",
    "clamp_probability",
    "sequential_probability",
    "sequential_probabilities",
    "nonselective_state",
    "nonselective_states",
    "logical_joint",
    "logical_joints",
    "logical_joint_table",
    "xor_expectation",
    "xor_expectations",
    "quasi_prob_table",
    "quasi_prob_tables",
    "table_marginality_residuals",
    "kd_distribution",
    "weak_value",
    "worked_example",
    "min_cell_over_states",
    "min_cells_over_states",
    "model_sequential_probabilities",
    "matrix_to_json",
]

DEFAULT_TOL = 1e-10

_BLOCK_ENTRIES = 1 << 12
"""Matrix entries per member stack in one block of a long stack, which bounds temporaries."""

JointMethod = Literal["operational", "jordan"]


def operator_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Spectral norm (largest singular value); one per member of an (n, d, d) stack.

    A NaN or infinite entry raises :class:`NonFiniteError` before the solve, which LAPACK refuses.
    """
    return _norm(_operands(matrix)[0])


def _norm(m: np.ndarray) -> float | np.ndarray:
    """:func:`operator_norm` of a complex matrix or stack, as the kernels hold it."""
    _finite(m, "matrix")
    if m.ndim == 2:
        return float(np.linalg.norm(m, 2))
    return np.linalg.norm(m, 2, axis=(-2, -1))


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every member of a stack."""
    return m.conj().swapaxes(-1, -2)


def _worst(residuals: float | np.ndarray) -> float:
    """Largest residual of a matrix (a float already) or a stack (0 when empty)."""
    if isinstance(residuals, float):
        return residuals
    return float(residuals.max(initial=0.0))


def _worst_norm(m: np.ndarray) -> float:
    """``_worst(operator_norm(m))``, bit for bit, solving only the members that could be the largest.

    An all-zero stack gives 0 at once.  The member of the largest Frobenius
    norm is solved first, and its σ₁ is a lower bound w on the result.  Each
    member's σ₁ is at most its Frobenius norm F, so a member with
    F² (1 + 1e-10) below w² cannot be the worst: it is dropped before any
    product.  Where (max F)² overflows or is below 1e-200, the squares of the
    entries lose that relative accuracy and the stack takes the full solve.
    Then σ₁² ≤ (Σ σᵢ⁴)^½ = ‖MᴴM‖_F, so b = (‖MᴴM‖_F (1 + 1e-10))^½ bounds each
    member's computed spectral norm: at d <= 64 the computed Gram norm is within
    about 5e-13 relative and LAPACK's σ₁ far closer, so a member with b below w
    cannot be the worst and is not solved.  The members left take the full
    solve where a Gram norm is inf or NaN, or a nonzero member's Gram norm
    underflows towards the subnormals (where that relative accuracy is lost).
    A NaN or inf entry makes the result the largest Frobenius norm (NaN or
    inf), without the singular-value solve, which LAPACK refuses.
    """
    if not np.isfinite(m).all():
        # inf·0 in an imaginary part, which the norm drops; an overflowing square of a
        # finite entry can only give the NaN or inf the result already is
        with np.errstate(invalid="ignore", over="ignore"):
            return _worst(np.linalg.norm(m, axis=(-2, -1)))
    if m.ndim == 2 or len(m) < 2:
        return _worst(_norm(m))
    if not m.any():
        return 0.0
    with np.errstate(all="ignore"):
        squares = np.einsum("nij,nij->n", m.real, m.real) + np.einsum("nij,nij->n", m.imag, m.imag)
        first = int(squares.argmax())
        if not 1e-200 <= squares[first] < np.inf:
            return _worst(_norm(m))
        worst = _norm(m[first])
        rest = squares * (1 + 1e-10) >= worst * worst
        rest[first] = False
        m = m[rest]
        if len(m) > 1:
            gram = _gram_norms(m)
            small = gram < 1e-140
            lost = small.any() and (small & m.any(axis=(-2, -1))).any()
            if np.isfinite(gram).all() and not lost:
                m = m[np.sqrt(gram * (1 + 1e-10)) >= worst]
    return max(worst, _worst(_norm(m))) if len(m) else worst


def _gram_norms(m: np.ndarray) -> np.ndarray:
    """‖MᴴM‖_F of each member of an (n, d, d) stack, block by block."""
    return np.concatenate(_blockwise(
        lambda block: np.linalg.norm(_dagger(block) @ block, axis=(-2, -1)), m))


def _re_trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix (0-d) or of every member of a stack."""
    return np.trace(m, axis1=-2, axis2=-1).real


def _blockwise(fn, *operands: np.ndarray) -> list:
    """``fn`` of each block of the longest stack among :func:`_operands` results, in order.

    A matrix or a one-member stack goes whole into every block; operands that
    fit in one block give ``[fn(*operands)]``.
    """
    n = max((len(m) for m in operands if m.ndim == 3), default=0)
    blocks = _blocks(n, operands[0].shape[-1], _BLOCK_ENTRIES)
    if len(blocks) <= 1:
        return [fn(*operands)]
    return [fn(*(m[block] if m.ndim == 3 and len(m) == n else m for m in operands))
            for block in blocks]


def _blocks(n: int, dim: int, entries: int) -> list[slice]:
    """Slices of at most ``entries // dim²`` members (at least one) that cover n members in order."""
    step = max(1, entries // dim**2)
    return [slice(i, i + step) for i in range(0, n, step)]


def _gate_norm(m: np.ndarray, tol: float) -> float:
    """Worst spectral norm over a matrix or a stack, as far as a check against ``tol`` needs it.

    The spectral norm is at most the Frobenius norm, so when every member's
    Frobenius norm is at most tol·(1 - 1e-12) (the margin covers the rounding
    of both norms at d <= 64) the check passes and 0 is returned without a
    singular-value solve; otherwise the exact worst spectral norm is returned,
    the value an error reports.
    """
    frobenius = _worst(np.linalg.norm(m, axis=(-2, -1)))
    if frobenius <= tol * (1 - 1e-12):
        return 0.0
    return _worst_norm(m)


def _hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    """``m`` once its hermiticity residual, checked block by block, is within ``tol``.

    :class:`NotHermitianError` carries the worst member's residual.  Here and below,
    overflow leaves inf or NaN, which fails the check silently and in any block.
    """
    with np.errstate(all="ignore"):
        herm = float(np.max(_blockwise(lambda block: _gate_norm(block - _dagger(block), tol), m)))
    if not herm <= tol:
        raise NotHermitianError(herm, tol)
    return m


def _freeze(m: np.ndarray) -> np.ndarray:
    """Mark a complex array the caller no longer writes to read-only, in place."""
    m.flags.writeable = False
    return m


def _finite(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` once every entry is finite; a NaN or an infinity raises :class:`NonFiniteError`."""
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{what} has a NaN or infinite entry")
    return m


def _check_square(matrix: np.ndarray) -> np.ndarray:
    """A complex copy of a finite square matrix (validation freezes it, not the caller's array).

    A three-dimensional array, a stack, raises :class:`DimensionMismatchError` like every
    one-matrix form's; anything else that is not a square matrix of numbers
    :class:`BadDimensionError`.
    """
    try:
        m = np.array(matrix, dtype=np.complex128)
    except (TypeError, ValueError):  # a string, a ragged list, an object
        raise BadDimensionError(
            f"expected a square matrix of numbers, got a {type(matrix).__name__}") from None
    if m.ndim == 3:
        raise DimensionMismatchError(f"expected a d x d matrix, got a stack of shape {m.shape}")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
    return _finite(m, "matrix")


def _check_dim(d: int) -> None:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise TypeError(f"dimension must be an int, got {d!r}")
    if not 2 <= d <= MAX_DIM:
        raise BadDimensionError(f"dimension {d} outside supported range [2, {MAX_DIM}]")


def validate_projector(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A read-only complex copy of a candidate question operator; reject rather than repair.

    Raises :class:`NotHermitianError` or :class:`NotIdempotentError` with the
    violated operator-norm residual attached.
    """
    m = _check_square(matrix)
    _check_dim(m.shape[0])
    return _validated_projectors(m, tol)


def _validated_projectors(m: np.ndarray, tol: float) -> np.ndarray:
    """A complex matrix or (n, d, d) stack, frozen after the matrix checks of
    :func:`validate_projector` (not its dimension check).

    A stack is checked block by block; an error carries the worst member's residual.
    """
    _hermitian(m, tol)
    with np.errstate(all="ignore"):
        idem = float(np.max(_blockwise(lambda p: _gate_norm(p @ p - p, tol), m)))
    if not idem <= tol:
        raise NotIdempotentError(idem, tol)
    return _freeze(m)


def validate_density(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A read-only complex copy of a candidate density matrix, once it is Hermitian, PSD and
    of unit trace with d in [2, ``MAX_DIM``]."""
    m = _check_square(matrix)
    _check_dim(m.shape[0])
    return _validated_densities(m, tol)


def _validated_densities(m: np.ndarray, tol: float) -> np.ndarray:
    """A complex matrix or (n, d, d) stack, frozen after the matrix checks of
    :func:`validate_density` (not its dimension check).

    A stack is checked block by block, one ``eigvalsh`` per block; an error carries the
    worst member's value.
    """
    _hermitian(m, tol)
    with np.errstate(all="ignore"):  # r/2 + r^H/2, unlike (r + r^H)/2, cannot overflow
        lowest = float(np.min(_blockwise(
            lambda r: np.linalg.eigvalsh(r / 2 + _dagger(r) / 2).min(initial=np.inf), m)))
        traces = np.ravel(np.trace(m, axis1=-2, axis2=-1))
        gaps = np.abs(traces - 1.0)
    if not lowest >= -tol:
        raise NotPositiveSemidefiniteError(lowest, tol)
    if not gaps.max(initial=0.0) <= tol:
        raise TraceNotOneError(complex(traces[gaps.argmax()]), tol)
    return _freeze(m)


# ---------------------------------------------------------------------------
# operand layer: the shape rule and the operator formulas every kernel shares


def _operands(*operands) -> list[np.ndarray]:
    """Complex arrays of kernel operands, checked against one shape rule.

    An operand is a d x d matrix or an (n, d, d) stack.  All share d, and all
    stacks of more than one member share n, so a matrix or a one-member stack
    broadcasts against a stack; anything else, an operand that is not a rectangular
    array of numbers among them, raises :class:`DimensionMismatchError`.
    """
    try:
        arrays = [np.asarray(op, dtype=np.complex128) for op in operands]
    except (TypeError, ValueError):  # a string, a ragged list, an object
        raise DimensionMismatchError(
            f"expected a square matrix or an (n, d, d) stack of numbers, got operands of types"
            f" {[type(op).__name__ for op in operands]}") from None
    for m in arrays:
        if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
            raise DimensionMismatchError(
                f"expected a square matrix or an (n, d, d) stack, got shape {m.shape}"
            )
    dims = {m.shape[-1] for m in arrays}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")
    lengths = {len(m) for m in arrays if m.ndim == 3} - {1}
    if len(lengths) > 1:
        raise DimensionMismatchError(f"mixed stack lengths {sorted(lengths)}")
    return arrays


def _matrices(*operands) -> list[np.ndarray]:
    """:func:`_operands` for a kernel of single d x d operands: a stack raises
    :class:`DimensionMismatchError` naming every shape."""
    arrays = _operands(*operands)
    if any(m.ndim != 2 for m in arrays):
        raise DimensionMismatchError(
            f"expected d x d matrices, got shapes {[m.shape for m in arrays]}")
    return arrays


def _answers(p: np.ndarray) -> dict[int, np.ndarray]:
    """The question for answer 1 and its complement 1 - P for answer 0, memberwise."""
    return {1: p, 0: np.eye(p.shape[-1]) - p}


def _symmetrised(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jordan product (AB + BA)/2, memberwise on stacks, with one temporary: BA."""
    p = a @ b
    p += b @ a
    p /= 2
    return p


def _re_trace_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(XY) = Re Σᵢⱼ Xᵢⱼ Yⱼᵢ, memberwise on broadcast stacks, without forming XY.

    Each pair is one BLAS dot product of X flattened row by row with Yᵀ flattened
    row by row, through numpy's broadcasting matmul, so a pair's value depends on
    its two members only, not on the stacks around them or their layout.  Yᵀ is
    copied unless Y is a transposed view of a C-contiguous stack.
    """
    entries = x.shape[-2] * x.shape[-1]
    rows = x.reshape(*x.shape[:-2], 1, entries)
    columns = y.swapaxes(-1, -2).reshape(*y.shape[:-2], entries, 1)
    return (rows @ columns)[..., 0, 0].real


def _operational_joint(sequential, other, born):
    """P(A then B) + [P(B) - P(B after nonselective A)] / 2 from P(A then B), P(Ā then B), P(B)."""
    return sequential + (born - (sequential + other)) / 2


def _mapped_xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mapped exclusive disjunction A B̄ A + Ā B Ā of two questions, memberwise."""
    abar, bbar = _answers(a)[0], _answers(b)[0]
    return a @ bbar @ a + abar @ b @ abar


def _xor_expansion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-symmetric expansion A + B - AB - BA of the mapped exclusive disjunction."""
    return a + b - a @ b - b @ a


def complement_projector(p: np.ndarray) -> np.ndarray:
    """The 'no' question: identity minus the projector, read-only."""
    return _freeze(_answers(*_matrices(p))[0])


def rank_one_projector(vector: np.ndarray) -> np.ndarray:
    """Read-only projector onto the ray of a (not necessarily normalised) vector."""
    return rank_one_projectors(np.reshape(vector, (1, -1)))[0]


def rank_one_projectors(vectors: np.ndarray) -> np.ndarray:
    """Read-only (n, d, d) stack whose member i is ``rank_one_projector(vectors[i])``.

    The vectors are checked (shape, d in [2, ``MAX_DIM``] before the stack is
    built, finite entries, no zero vector); the stack built from them is a
    projector to rounding, so it is not validated again.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        raise BadDimensionError(f"expected an (n, d) array of vectors, got shape {v.shape}")
    _check_dim(v.shape[-1])
    return _freeze(_ray_projectors(_finite(v, "vector")))


def _ray_projectors(vectors: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of |v><v| / <v|v>, one per row of a complex (n, d) array.

    Each row is divided by its ``np.linalg.norm``, computed as that function
    does, sqrt(re·re + im·im) from dot products of the strided real and
    imaginary parts, so the result matches normalising one vector at a time.
    A row whose sum of squares over- or underflowed is divided by its largest
    real or imaginary part first; a zero row raises :class:`BadRankError`.
    """
    re, im = vectors.real[:, None, :], vectors.imag[:, None, :]
    with np.errstate(over="ignore"):
        squares = (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0]
    rescale = ~((squares >= np.finfo(float).tiny) & (squares <= np.finfo(float).max))
    if rescale.any():
        scales = np.maximum(abs(vectors.real), abs(vectors.imag))[rescale].max(axis=-1)
        if not scales.all():
            raise BadRankError("cannot project onto the zero vector")
        vectors = vectors.copy()
        # real division of the parts: complex division by a subnormal scale overflows
        vectors.view(float)[rescale] /= scales[:, None]
        return _ray_projectors(vectors)  # every row's sum of squares is now normal
    v = vectors / np.sqrt(squares)[:, None]
    return v[:, :, None] * v.conj()[:, None, :]


# ---------------------------------------------------------------------------
# sampling: each sampler checks its arguments, then draws its n members from
# one Generator, one call per stack; a single draw from a seed is member 0 of a
# one-member stack on ``default_rng(seed)``


def _check_sampler(dim: int, rng: np.random.Generator, n: int = 0) -> None:
    """Reject, before any draw, a bad dimension (:func:`_check_dim`), a member count ``n``
    that is not an int of at least 0 (:class:`TooFewTrialsError` if negative) and an ``rng``
    that is not a ``numpy.random.Generator``; a wrong type raises a ``TypeError`` naming it."""
    _check_dim(dim)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 0:
        raise TooFewTrialsError(f"n must be at least 0, got {n}")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {rng!r}")


def _complex_gaussians(rng: np.random.Generator, n: int, shape: tuple[int, ...]) -> np.ndarray:
    """n complex Gaussian arrays of ``shape``, each drawn as its real, then its imaginary parts.

    The imaginary parts are multiplied by 1j into the result and the real parts added in
    place: the bits of ``real + 1j * imag``, without its complex temporary.
    """
    parts = rng.standard_normal((n, 2, *shape))
    g = np.multiply(1j, parts[:, 1], out=np.empty((n, *shape), dtype=np.complex128))
    g += parts[:, 0]
    return g


def _hermitian_parts(m: np.ndarray) -> np.ndarray:
    """(M + Mᴴ)/2 of a complex matrix or of each member of a stack, as a new C-contiguous array.

    The real and imaginary parts are summed through views, which is the complex sum
    M + Mᴴ bit for bit, so the conjugate is never copied.
    """
    h = np.empty(m.shape, dtype=np.complex128)
    np.add(m.real, m.real.swapaxes(-1, -2), out=h.real)
    np.subtract(m.imag, m.imag.swapaxes(-1, -2), out=h.imag)
    h /= 2
    return h


def _haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from complex Gaussian matrices (a matrix or a stack)."""
    q, r = np.linalg.qr(g)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def _in_place(fn, m: np.ndarray) -> np.ndarray:
    """``m`` with each block of members replaced by ``fn`` of that block, so that ``fn``'s
    temporaries are a block's; ``fn`` works memberwise."""
    for block in _blocks(len(m), m.shape[-1], _BLOCK_ENTRIES):
        m[block] = fn(m[block])
    return m


def sample_states(
    dim: int, purities: Sequence[Literal["pure", "mixed"]], rng: np.random.Generator
) -> np.ndarray:
    """Read-only (n, d, d) stack of random states, member i of purity ``purities[i]``:
    Haar-uniform pure vectors and Hilbert-Schmidt mixed states.

    The pure members' Gaussians are drawn first, then the mixed members', each
    in member order.
    """
    _check_sampler(dim, rng)
    if isinstance(purities, str):
        raise TypeError(f"purities must be a sequence of 'pure' or 'mixed', got {purities!r}")
    for purity in purities:
        if purity not in ("pure", "mixed"):
            raise UnknownOptionError(f"purity must be 'pure' or 'mixed', got {purity!r}")
    pure = [i for i, purity in enumerate(purities) if purity == "pure"]
    mixed = [i for i, purity in enumerate(purities) if purity == "mixed"]
    vectors = _complex_gaussians(rng, len(pure), (dim,))
    grams = _in_place(_normalised_grams, _complex_gaussians(rng, len(mixed), (dim, dim)))
    rho = np.empty((len(purities), dim, dim), dtype=np.complex128)
    rho[mixed] = grams
    del grams
    for block in _blocks(len(pure), dim, _BLOCK_ENTRIES):
        rho[pure[block]] = _ray_projectors(vectors[block])
    return _freeze(_in_place(_hermitian_parts, rho))


def _normalised_grams(g: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt states g g^H / Tr(g g^H), one per member of an (n, d, d) stack."""
    products = g @ _dagger(g)
    products /= _re_trace(products)[:, None, None]
    return products


def sample_projectors(dim: int, ranks: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Read-only (n, d, d) stack of random projectors, member i of rank ``ranks[i]``,
    each onto a Haar-random subspace.

    Member i draws the real, then the imaginary parts of a d × k complex Gaussian G,
    k = min(rank, d - rank); its projector is QQᴴ of G's reduced QR, or I - QQᴴ where
    k < rank, as the complement of a Haar-random subspace is one too.
    """
    _check_sampler(dim, rng)
    for rank in ranks:
        if isinstance(rank, bool) or not isinstance(rank, (int, np.integer)):
            raise TypeError(f"ranks must be ints, got {rank!r}")
        if not 1 <= rank < dim:
            raise BadRankError(f"rank must satisfy 1 <= rank < dim, got rank={rank}, dim={dim}")
    ranks = np.asarray(ranks, dtype=int)
    widths = np.minimum(ranks, dim - ranks)
    normals = rng.standard_normal(2 * dim * int(widths.sum()))
    starts = 2 * dim * (np.cumsum(widths) - widths)
    p = np.empty((len(ranks), dim, dim), dtype=np.complex128)
    for width in sorted(set(widths.tolist())):
        members = np.flatnonzero(widths == width)
        for block in _blocks(len(members), dim, _BLOCK_ENTRIES):
            m = members[block]
            g = normals[starts[m, None] + np.arange(2 * dim * width)].reshape(len(m), 2, dim, width)
            q, _ = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
            frames = q @ _dagger(q)
            np.subtract(np.eye(dim), frames, out=frames, where=(ranks[m] > width)[:, None, None])
            p[m] = _hermitian_parts(frames)
    return _freeze(p)


def sample_hermitians(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d, d) stack of random Hermitian matrices, distributed as (M + Mᴴ)/2 of standard
    complex Gaussians M: member i draws d² normals, its diagonal, then the real and then the
    imaginary parts of the entries above it, row by row, those scaled by √½."""
    _check_sampler(dim, rng, n)
    normals = rng.standard_normal((n, dim * dim))
    normals[:, dim:] *= np.sqrt(0.5)
    re, im = np.split(normals[:, dim:], 2, axis=1)
    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)  # a mask reads its entries row by row
    h = np.zeros((n, dim, dim), dtype=np.complex128)
    h.real[:, np.eye(dim, dtype=bool)] = normals[:, :dim]
    h.real[:, upper] = h.real.swapaxes(1, 2)[:, upper] = re
    h.imag[:, upper] = im
    h.imag.swapaxes(1, 2)[:, upper] = np.negative(im, out=im)
    return h


def sample_orthonormal_bases(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d, d) stack of Haar-random orthonormal bases, the rows of member i its vectors."""
    _check_sampler(dim, rng, n)
    return _in_place(_haar_unitaries, _complex_gaussians(rng, n, (dim, dim))).swapaxes(-1, -2)


def sample_commuting_triples(
    dim: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (n, d, d) stacks of states and of both questions, each triple
    diagonal in one Haar-random basis (a classical triple).

    Drawn in turn for all members: the unitaries, Dirichlet eigenvalues for
    the states, and a proper 0/1 diagonal for question A, then for question B.
    The stack of question B is built in place of the unitaries.
    """
    _check_sampler(dim, rng, n)
    u = _complex_gaussians(rng, n, (dim, dim))
    eigenvalues = rng.dirichlet(np.ones(dim), size=n)
    patterns_a = _proper_patterns(rng, n, dim)
    patterns_b = _proper_patterns(rng, n, dim)
    rho, a = np.empty_like(u), np.empty_like(u)
    index = np.arange(dim)
    for block in _blocks(n, dim, _BLOCK_ENTRIES):
        unitaries = _haar_unitaries(u[block])
        for out, values in ((rho, eigenvalues), (a, patterns_a), (u, patterns_b)):
            diagonal = np.zeros_like(unitaries)
            diagonal[:, index, index] = values[block]
            out[block] = _hermitian_parts(unitaries @ diagonal @ _dagger(unitaries))
    return _freeze(rho), _freeze(a), _freeze(u)


def _proper_patterns(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n random 0/1 rows of length ``dim``; all-0 and all-1 rows are redrawn until none is left."""
    bits = rng.integers(0, 2, size=(n, dim))
    while (improper := bits.min(axis=1) == bits.max(axis=1)).any():
        bits[improper] = rng.integers(0, 2, size=(int(improper.sum()), dim))
    return bits.astype(float)


# ---------------------------------------------------------------------------
# probabilities and updates


def born_probability(rho: np.ndarray, p: np.ndarray) -> float:
    """Probability of the answer 'yes': Re Tr(rho P).

    The raw value is returned unclamped (it may sit at -1e-16 from round-off);
    use :func:`clamp_probability` for human-readable reporting.
    """
    return float(born_probabilities(*_matrices(rho, p)))


def born_probabilities(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Re Tr(rho P) per member of broadcast state and projector stacks."""
    rho, p = _operands(rho, p)
    return _re_trace(rho @ p)


def clamp_probability(value: float) -> float:
    """Clamp to [0, 1] for display; never use before negativity checks."""
    return min(max(value, 0.0), 1.0)


def nonselective_state(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Read-only state after asking a question and discarding the answer: P rho P + P̄ rho P̄."""
    return nonselective_states(*_matrices(rho, p))


def nonselective_states(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """:func:`nonselective_state` per member of broadcast state and projector stacks.

    The read-only post-states are validated as states once per stack, since raw
    operands need not be states and projectors (an error carries the worst
    member's value).
    """
    rho, p = _operands(rho, p)
    no = _answers(p)[0]
    return _validated_densities(_hermitian_parts(p @ rho @ p + no @ rho @ no), DEFAULT_TOL)


def sequential_probability(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Probability of 'yes' to A and then 'yes' to B: Tr(B A rho A).

    Generally order-dependent; swapping the arguments changes the value.
    """
    return float(sequential_probabilities(*_matrices(rho, a, b)))


def sequential_probabilities(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(B A rho A) per member of broadcast state and projector stacks."""
    rho, a, b = _operands(rho, a, b)
    return _re_trace(b @ a @ rho @ a)


def logical_joint(
    rho: np.ndarray, a: np.ndarray, b: np.ndarray, method: JointMethod = "operational"
) -> float:
    """Logical joint probability of 'yes' to both questions.

    ``operational`` composes measurements: the sequential probability plus
    half the difference between the undisturbed and the nonselectively
    disturbed single-question probability of B,

        P(A then B) + [P(B) - P(B after nonselective A)] / 2,

    where the disturbance is linear in the state, so P(B after nonselective A) is
    the sum P(A then B) + P(Ā then B) of its two sequential branches.

    ``jordan`` evaluates the expectation of the Jordan product A∘B = (AB + BA)/2
    as Tr((rho∘A) B), which equals Tr(rho (A∘B)) because the trace form is
    associative; it composes no measurements.  Both routes equal Re Tr(rho A B);
    they agree to round-off, and the value may be negative.  Order-symmetric in
    (a, b) by construction.
    """
    return float(logical_joints(*_matrices(rho, a, b), method))


def logical_joints(
    rho: np.ndarray, a: np.ndarray, b: np.ndarray, method: JointMethod = "operational"
) -> np.ndarray:
    """:func:`logical_joint` per member of broadcast state and projector stacks.

    The operational route sums Lüders compositions, Tr(B A rho A) and Tr(B Ā rho Ā) for
    the disturbed term; it builds no post-state and validates none, so, like the
    ``jordan`` route, it returns a value for operands that are not states or
    projectors.  A stack longer than a block is evaluated block by block, so
    temporaries stay bounded.  The ``jordan`` route contracts rho∘A with B
    entrywise, one dot product per member (:func:`_re_trace_product`), so its bits
    do not depend on how ``_blockwise`` cuts the stacks or on their layout.  When
    rho and A are single matrices (or one-member stacks), rho∘A is formed once and
    contracted with one C-contiguous copy of Bᵀ, as in :func:`logical_joint_table`.
    """
    rho, a, b = _operands(rho, a, b)
    if method not in ("operational", "jordan"):
        raise UnknownOptionError(f"unknown method {method!r}")

    def joints(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if method == "jordan":
            return _re_trace_product(_symmetrised(rho, a), b)
        return _operational_joint(sequential_probabilities(rho, a, b),
                                  sequential_probabilities(rho, _answers(a)[0], b),
                                  born_probabilities(rho, b))

    if method == "jordan" and all(m.ndim == 2 or len(m) == 1 for m in (rho, a)):
        return _re_trace_product(_symmetrised(rho, a), b)  # one Bᵀ copy, not one per block
    blocks = _blockwise(joints, rho, a, b)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def logical_joint_table(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n_a, n_b) table of the ``jordan`` route's joints Re Tr((rho∘A_i) B_j).

    ``rho`` is one d x d state; ``a`` and ``b`` are questions, each a d x d
    matrix or an (n, d, d) stack, and their lengths may differ.  Row i equals
    ``logical_joints(rho, a[i], b, "jordan")`` bit for bit: every entry is the
    same per-pair dot product (:func:`_re_trace_product`), broadcast over the
    rows.  Bᵀ is copied once, C-contiguous, for all the row blocks to share, and
    rho∘A is formed block by block over the rows, so the temporaries are one
    block of rho∘A and that copy; no (n_a·n_b, d, d) array is built.
    """
    (rho, a), (_, b) = _operands(rho, a), _operands(rho, b)
    if rho.ndim != 2:
        raise DimensionMismatchError(f"expected a single state, got shape {rho.shape}")
    d = rho.shape[-1]
    a, b = a.reshape(-1, d, d), b.reshape(-1, d, d)
    b = np.ascontiguousarray(b.swapaxes(-1, -2)).swapaxes(-1, -2)  # Bᵀ C-contiguous, read as B
    rows = _blockwise(lambda block: _re_trace_product(_symmetrised(rho, block)[:, None], b), a)
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def xor_expectation(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Expectation of the exclusive disjunction of two questions: the sum
    P(A then not-B) + P(not-A then B) of its two disjoint sequential branches."""
    return float(xor_expectations(*_matrices(rho, a, b)))


def xor_expectations(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`xor_expectation` per member of broadcast state and projector stacks."""
    rho, a, b = _operands(rho, a, b)
    return (sequential_probabilities(rho, a, _answers(b)[0])
            + sequential_probabilities(rho, _answers(a)[0], b))


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

    def min_cell(self) -> tuple[float, tuple[int, int]]:
        cell = min(self.cells, key=lambda k: self.cells[k])
        return self.cells[cell], cell


def quasi_prob_table(
    rho: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    method: JointMethod = "operational",
    tol: float = DEFAULT_TOL,
) -> QuasiProbTable:
    """Logical joint probabilities for all four answer pairs.

    The four cells are the logical joints of (A or its complement) with
    (B or its complement).  Normalisation and both marginality relations are
    verified within ``tol``; a violation raises, since it would be a defect.
    """
    cells, pa, pb = quasi_prob_tables(*_matrices(rho, a, b), method, tol)
    return QuasiProbTable(dict(zip(CELLS, cells.tolist())), float(pa), float(pb))


def quasi_prob_tables(
    rho: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    method: JointMethod = "operational",
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`quasi_prob_table` per member of broadcast state and projector stacks.

    Returns the cells, shape (..., 4) in the order of ``logic.CELLS``: (0, 0),
    (0, 1), (1, 0), (1, 1); and the marginals P(A) and P(B).  The worst marginality residual
    of the stack (see :func:`table_marginality_residuals`) must be within ``tol``, if finite.
    Each block forms each product once: the ``jordan`` route rho∘A and rho∘Ā, so every cell
    equals its :func:`logical_joints` value bit for bit, and the ``operational`` route the four
    branches Tr(B_j A_i rho A_i) and P(B_j), cells (1, j) and (0, j) sharing their disturbed term.
    """
    def table(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        firsts, seconds = _answers(a), _answers(b)
        if method == "jordan":
            products = {i: _symmetrised(rho, firsts[i]) for i in (0, 1)}
            return np.stack([_re_trace_product(products[i], seconds[j]) for i, j in CELLS], -1)
        if method != "operational":
            raise UnknownOptionError(f"unknown method {method!r}")
        branches = {(i, j): sequential_probabilities(rho, firsts[i], seconds[j]) for i, j in CELLS}
        born = {j: born_probabilities(rho, seconds[j]) for j in (0, 1)}
        return np.stack([_operational_joint(branches[i, j], branches[1 - i, j], born[j])
                         for i, j in CELLS], -1)

    rho, a, b = _operands(rho, a, b)
    blocks = _blockwise(table, rho, a, b)
    cells = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    pa, pb = born_probabilities(rho, a), born_probabilities(rho, b)
    worst = float(table_marginality_residuals(cells, pa, pb).max(initial=0.0))
    if not worst <= tol and tol != np.inf:
        raise IdentityCheckError(f"table marginality residual {worst:.3e} exceeds tol {tol:.3e}")
    return cells, pa, pb


def table_marginality_residuals(
    cells: np.ndarray, pa: np.ndarray, pb: np.ndarray
) -> np.ndarray:
    """Residuals of the five table identities, shape (..., 5), from :func:`quasi_prob_tables`.

    In order: |total - 1|, |row a=1 - P(A)|, |row a=0 - (1 - P(A))|,
    |column b=1 - P(B)| and |column b=0 - (1 - P(B))|.
    """
    c00, c01, c10, c11 = np.moveaxis(cells, -1, 0)
    return np.abs(np.stack([
        c11 + c10 + c01 + c00 - 1.0,
        c11 + c10 - pa,
        c01 + c00 - (1.0 - pa),
        c11 + c01 - pb,
        c10 + c00 - (1.0 - pb),
    ], axis=-1))


def _validate_basis(
    vectors: Sequence[np.ndarray] | np.ndarray, dim: int, tol: float, name: str
) -> np.ndarray:
    rows = []
    for i, v in enumerate(vectors):
        try:
            rows.append(np.asarray(v, dtype=np.complex128).reshape(-1))
        except (TypeError, ValueError):  # a nested or non-numeric entry
            raise IncompleteBasisError(f"{name}: vector {i} is not a list of numbers") from None
    if len(rows) != dim:
        raise IncompleteBasisError(f"{name}: expected {dim} vectors, got {len(rows)}")
    for row in rows:
        if len(row) != dim:
            raise IncompleteBasisError(f"{name}: vectors have length {len(row)}, expected {dim}")
    mat = _finite(np.array(rows), name)
    with np.errstate(all="ignore"):  # overflow leaves inf or NaN, which fails the check
        residual = _gate_norm(mat.conj() @ mat.T - np.eye(dim), tol)
    if not residual <= tol:
        raise NotOrthonormalError(residual, tol)
    return mat


def kd_distribution(
    rho: np.ndarray,
    basis_a: Sequence[np.ndarray] | np.ndarray,
    basis_b: Sequence[np.ndarray] | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Kirkwood-Dirac quasi-probability over two orthonormal bases.

    Entry (i, j) is <b_j|a_i><a_i|rho|b_j>: complex in general, summing to 1.
    The real part of entry (i, j) equals the logical joint probability of the
    rank-one questions |a_i><a_i| and |b_j><b_j|.
    """
    (rho,) = _matrices(rho)
    av = _validate_basis(basis_a, len(rho), tol, "basis_a")
    bv = _validate_basis(basis_b, len(rho), tol, "basis_b")
    overlap = bv.conj() @ av.T          # (j, i) = <b_j|a_i>
    sandwich = av.conj() @ rho @ bv.T   # (i, j) = <a_i|rho|b_j>
    return overlap.T * sandwich


def weak_value(rho: np.ndarray, a: np.ndarray, post: np.ndarray) -> complex:
    """Weak value of a question with post-selection: Tr(post A rho) / Tr(post rho).

    May lie outside [0, 1]; a negative real part at some input certifies a
    negative logical joint probability for the same triple.  Raises
    :class:`ZeroPostSelectionError` when the post-selection probability is at
    or below ``DEFAULT_TOL``, and :class:`DimensionMismatchError` for a stack.
    """
    rho, a, post = _matrices(rho, a, post)
    denominator = float(np.trace(post @ rho).real)
    if denominator <= DEFAULT_TOL:
        raise ZeroPostSelectionError(
            f"post-selection probability {denominator:.3e} at or below tol {DEFAULT_TOL:.3e}"
        )
    numerator = complex(np.trace(post @ a @ rho))
    return numerator / denominator


# ---------------------------------------------------------------------------
# negativity witnesses


def worked_example() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-level (state, A, B), read-only, whose logical joint table has a -0.1 cell.

    State (|0> - 3|1>)/sqrt(10), A = |0><0|, B = |+><+|: the (1, 1) cell is
    -0.1 and the weak value of A post-selected on B is -0.5.
    """
    psi = np.array([1.0, -3.0]) / np.sqrt(10.0)
    rho = validate_density(np.outer(psi, psi.conj()))
    a = validate_projector(np.diag([1.0, 0.0]))
    b = rank_one_projector(np.array([1.0, 1.0]))
    return rho, a, b


def min_cell_over_states(a: np.ndarray, b: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Most negative table cell over all states for fixed questions, and its cell.

    Raises :class:`DimensionMismatchError` for a stack; see :func:`min_cells_over_states`.
    """
    lowest = min_cells_over_states(*_matrices(a, b))
    k = int(lowest.argmin())
    return float(lowest[k]), CELLS[k]


def min_cells_over_states(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum over all states of each table cell, shape (..., 4) in the cell order of
    :func:`quasi_prob_tables`, per member of broadcast question stacks.

    Cell (i, j) is Tr(rho (A_i ∘ B_j)), with A_1 = A, A_0 = its complement and
    likewise for B; it is linear in rho, so its minimum over states is the
    lowest eigenvalue of the Jordan product A_i ∘ B_j, one ``eigvalsh`` per block
    for all four products of every member.  Jordan's two-subspace lemma bounds
    it below by -1/8, reached by rank-one questions with overlap |<a|b>| = 1/2.
    A product with a NaN or infinite entry has no eigenvalues, and its cell is NaN.
    """
    blocks = _blockwise(lambda a, b: _least_eigenvalues(np.stack(_cell_products(a, b), axis=-3)),
                        *_operands(a, b))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _cell_products(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """The four Jordan products A_i ∘ B_j of each member, in the cell order."""
    firsts, seconds = _answers(a), _answers(b)
    return [_symmetrised(firsts[i], seconds[j]) for i, j in CELLS]


def _least_eigenvalues(products: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each product, NaN for one with a NaN or inf entry, zeroed in place."""
    finite = np.isfinite(products).all(axis=(-2, -1))
    products[~finite] = 0
    return np.where(finite, np.linalg.eigvalsh(products)[..., 0], np.nan)


# ---------------------------------------------------------------------------
# bridge to survey data


def model_sequential_probabilities(
    rho: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Sequential outcome distributions for both question orders.

    Returns (p_ab, p_ba): ``p_ab[(first, second)]`` is the probability of
    answering ``first`` to A and then ``second`` to B; ``p_ba`` likewise with
    B asked first.  These are the infinite-sample expected frequencies of a
    two-order survey run on this model.  Raises :class:`DimensionMismatchError`
    for a stack.
    """
    return tuple({cell: float(p) for cell, p in order.items()}
                 for order in _sequential_tables(*_matrices(rho, a, b)))


def _sequential_tables(
    rho: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[dict[tuple[int, int], np.ndarray], dict[tuple[int, int], np.ndarray]]:
    """:func:`model_sequential_probabilities` per member of broadcast state and projector
    stacks: (p_ab, p_ba), one :func:`sequential_probabilities` result per order and cell."""
    firsts, seconds = _answers(a), _answers(b)
    p_ab = {(i, j): sequential_probabilities(rho, firsts[i], seconds[j]) for i, j in CELLS}
    p_ba = {(i, j): sequential_probabilities(rho, seconds[i], firsts[j]) for i, j in CELLS}
    return p_ab, p_ba


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(matrix: np.ndarray) -> dict:
    """JSON-ready dict { "dim": d, "re": [[...]], "im": [[...]] } of one d x d operand.

    A stack raises :class:`DimensionMismatchError`, any other array that is not a square
    matrix :class:`BadDimensionError`, and a NaN or infinite entry :class:`NonFiniteError`.
    """
    m = _check_square(matrix)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
