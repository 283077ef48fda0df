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

States and questions are plain complex arrays.  Every evaluation has a
stacked kernel (``born_probabilities``, ``lueders_updates``, ``logical_joints``,
``quasi_prob_tables``, ...) that takes d x d matrices or (n, d, d) stacks,
broadcast against each other under one shape rule (``_operands``, which
``jordan`` shares too), and works memberwise; the single-matrix functions
(``born_probability``, ``logical_joint``, ``matrix_to_json``, ...) are their
one-matrix forms, which reject a stack (``_matrices``).  Every table follows
``logic.CELLS``.  Long stacks are processed in blocks of bounded size.

Only the ``validate_*`` functions, ``rank_one_projectors`` and
``kd_distribution``'s bases check that an operand is a state, a projector or
an orthonormal basis.  The kernels trust their operands to be states and
projectors, and check their shapes (``_operands``) and their own results: the
Lüders updates validate the post-measurement states they build, and the tables
and the mapped XOR operator check their identities, which a NaN fails.

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
    TraceNotOneError,
    ZeroPostSelectionError,
    ZeroProbabilityBranchError,
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
    "lueders_update",
    "lueders_updates",
    "sequential_probability",
    "sequential_probabilities",
    "nonselective_state",
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
MAX_DIM = 64

_BLOCK_ENTRIES = 1 << 12
"""Matrix entries per member stack in one block of a long stack, which bounds temporaries."""

UpdateMode = Literal["selective_yes", "selective_no", "nonselective"]
JointMethod = Literal["operational", "jordan"]
XorMethod = Literal["operational", "mapped_operator"]


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

    An all-zero stack gives 0 at once.  σ₁ ≥ F/√d for a member of Frobenius
    norm F, so the largest member's σ₁ is at least max F/√d, and a member
    with F² below (max F)²/d (1 - 1e-10) cannot be the worst: it is dropped
    before any product, unless (max F)² overflows or is below 1e-200, where
    the squares of the entries lose that relative accuracy.  Then
    σ₁² ≤ (Σ σᵢ⁴)^½ = ‖MᴴM‖_F, so b = (‖MᴴM‖_F (1 + 1e-10))^½ bounds each
    member's computed spectral norm: at d <= 64 the computed Gram norm is
    within about 5e-13 relative and LAPACK's σ₁ far closer, so a member with
    b below the computed norm of the largest-bound member cannot be the worst
    and is not solved.  A stack with an inf or NaN Gram norm, or a nonzero
    member whose Gram norm underflows towards the subnormals (where that
    relative accuracy is lost), takes the full solve.  A NaN or inf entry
    makes the result the largest Frobenius norm (NaN or inf), without the
    singular-value solve, which LAPACK refuses.
    """
    if not np.isfinite(m).all():
        with np.errstate(invalid="ignore"):  # inf·0 in an imaginary part, which the norm drops
            return _worst(np.linalg.norm(m, axis=(-2, -1)))
    if m.ndim == 2 or len(m) < 2:
        return _worst(_norm(m))
    if not m.any():
        return 0.0
    with np.errstate(all="ignore"):
        squares = np.einsum("nij,nij->n", m.real, m.real) + np.einsum("nij,nij->n", m.imag, m.imag)
        top = squares.max()
        if 1e-200 <= top < np.inf:  # an overflowed square leaves the stack to the Gram pass
            m = m[squares >= top / m.shape[-1] * (1 - 1e-10)]
        if len(m) < 2:
            return _worst(_norm(m))
        gram = np.concatenate(_blockwise(
            lambda block: np.linalg.norm(_dagger(block) @ block, axis=(-2, -1)), m))
    small = gram < 1e-140
    if not np.isfinite(gram).all() or (small.any() and (small & m.any(axis=(-2, -1))).any()):
        return _worst(_norm(m))
    first = int(gram.argmax())
    worst = _norm(m[first])
    rest = np.sqrt(gram * (1 + 1e-10)) >= worst
    rest[first] = False
    return max(worst, _worst(_norm(m[rest])))


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

    A stack is checked block by block; an error carries the worst member's value.
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

    The vectors are checked (shape, finite entries, no zero vector, d in
    [2, ``MAX_DIM``]); the stack built from them is a projector to rounding,
    so it is not validated again.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        raise BadDimensionError(f"expected an (n, d) array of vectors, got shape {v.shape}")
    p = _ray_projectors(_finite(v, "vector"))
    _check_dim(p.shape[-1])
    return _freeze(p)


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
    _check_dim(dim)
    for purity in purities:
        if purity not in ("pure", "mixed"):
            raise ValueError(f"purity must be 'pure' or 'mixed', got {purity!r}")
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
    _check_dim(dim)
    ranks = np.asarray(ranks, dtype=int)
    for rank in ranks.tolist():
        if not 1 <= rank < dim:
            raise BadRankError(f"rank must satisfy 1 <= rank < dim, got rank={rank}, dim={dim}")
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
    _check_dim(dim)
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
    _check_dim(dim)
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
    _check_dim(dim)
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


def lueders_update(rho: np.ndarray, p: np.ndarray, mode: UpdateMode) -> tuple[float, np.ndarray]:
    """Measurement update of a state by a question.

    ``selective_yes``/``selective_no`` condition on the answer and return
    (branch probability, renormalised post-state); ``nonselective`` discards
    the answer and returns (1, sum of both branches).  The post-state is a
    read-only array, validated as a state.

    Raises :class:`ZeroProbabilityBranchError` when a selective branch has
    probability at or below ``DEFAULT_TOL``.
    """
    probability, post = lueders_updates(*_matrices(rho, p), mode)
    return float(probability), post


def lueders_updates(
    rho: np.ndarray, p: np.ndarray, mode: UpdateMode
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lueders_update` per member of broadcast state and projector stacks.

    Returns the branch probabilities and the read-only post-states, validated as
    states once per stack, since raw operands need not be states and projectors
    (an error carries the worst member's value).  A selective branch at or below
    ``DEFAULT_TOL`` raises :class:`ZeroProbabilityBranchError` with the smallest
    probability.
    """
    rho, p = _operands(rho, p)
    answers = _answers(p)
    if mode == "nonselective":
        post = p @ rho @ p + answers[0] @ rho @ answers[0]
        probability = np.ones(post.shape[:-2])
    else:
        answer = {"selective_yes": 1, "selective_no": 0}.get(mode)
        if answer is None:
            raise ValueError(f"unknown update mode {mode!r}")
        branch = answers[answer] @ rho @ answers[answer]
        probability = _re_trace(branch)
        lowest = float(probability.min(initial=np.inf))
        if lowest <= DEFAULT_TOL:
            raise ZeroProbabilityBranchError(lowest, DEFAULT_TOL)
        with np.errstate(invalid="ignore"):  # a NaN operand fails the state check below
            post = branch / probability[..., None, None]
    return probability, _validated_densities(_hermitian_parts(post), DEFAULT_TOL)


def nonselective_state(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Read-only state after asking a question and discarding the answer."""
    _, post = lueders_update(rho, p, "nonselective")
    return post


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

        P(A then B) + [P(B) - P(B after nonselective A)] / 2.

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

    The operational route composes Lüders updates and validates the disturbed
    states once per block; a stack longer than a block is evaluated block by
    block, so temporaries stay bounded.  The ``jordan`` route contracts rho∘A
    with B entrywise, one dot product per member (:func:`_re_trace_product`), so
    its bits do not depend on how ``_blockwise`` cuts the stacks or on their layout.
    When rho and A are single matrices (or one-member stacks), rho∘A is formed
    once and contracted with B block by block.
    """
    rho, a, b = _operands(rho, a, b)
    if method not in ("operational", "jordan"):
        raise ValueError(f"unknown method {method!r}")

    def joints(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if method == "jordan":
            return _re_trace_product(_symmetrised(rho, a), b)
        _, disturbed = lueders_updates(rho, a, "nonselective")
        undisturbed_b = born_probabilities(rho, b)
        return sequential_probabilities(rho, a, b) + (
            undisturbed_b - born_probabilities(disturbed, b)
        ) / 2

    if method == "jordan" and all(m.ndim == 2 or len(m) == 1 for m in (rho, a)):
        blocks = _blockwise(_re_trace_product, _symmetrised(rho, a), b)
    else:
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


def xor_expectation(
    rho: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    method: XorMethod = "operational",
    tol: float = DEFAULT_TOL,
) -> float:
    """Expectation of the exclusive disjunction of two questions.

    ``operational`` sums the two disjoint sequential branches
    P(A then not-B) + P(not-A then B).  ``mapped_operator`` evaluates
    Tr(rho (A B̄ A + Ā B Ā)) after verifying that the operator expands to the
    manifestly order-symmetric form A + B - AB - BA within ``tol``.
    """
    return float(xor_expectations(*_matrices(rho, a, b), method, tol))


def xor_expectations(
    rho: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    method: XorMethod = "operational",
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """:func:`xor_expectation` per member of broadcast state and projector stacks.

    The ``mapped_operator`` error carries the worst member's expansion residual;
    at an infinite ``tol`` the residual is neither formed nor checked.
    """
    rho, a, b = _operands(rho, a, b)
    if method == "operational":
        return (sequential_probabilities(rho, a, _answers(b)[0])
                + sequential_probabilities(rho, _answers(a)[0], b))
    if method == "mapped_operator":
        mapped = _mapped_xor(a, b)
        if tol != np.inf:  # at an infinite tol the caller checks the residual itself
            residual = _gate_norm(mapped - _xor_expansion(a, b), tol)
            if not residual <= tol:
                raise IdentityCheckError(
                    f"mapped XOR operator deviates from its symmetric expansion by {residual:.3e}"
                )
        return _re_trace(rho @ mapped)
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
    """
    rho, a, b = _operands(rho, a, b)
    firsts, seconds = _answers(a), _answers(b)
    cells = np.stack([logical_joints(rho, firsts[i], seconds[j], method) for i, j in CELLS], -1)
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
    def lowest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        firsts, seconds = _answers(a), _answers(b)
        products = _symmetrised(
            np.stack([firsts[i] for i, _ in CELLS], axis=-3),
            np.stack([seconds[j] for _, j in CELLS], axis=-3),
        )
        finite = np.isfinite(products).all(axis=(-2, -1))
        if not finite.all():
            products[~finite] = 0
        return np.where(finite, np.linalg.eigvalsh(products)[..., 0], np.nan)

    blocks = _blockwise(lowest, *_operands(a, b))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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
    rho, a, b = _matrices(rho, a, b)
    firsts, seconds = _answers(a), _answers(b)
    p_ab = {(i, j): float(sequential_probabilities(rho, firsts[i], seconds[j])) for i, j in CELLS}
    p_ba = {(i, j): float(sequential_probabilities(rho, seconds[i], firsts[j])) for i, j in CELLS}
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
