"""Machine-checkable invariant suites for the logic, Hilbert and algebra layers.

Each suite returns a flat list of :class:`CheckResult`; a failed check with a
residual at the double-precision floor is a tolerance artefact, one above it
is an identity violation (a defect).  The suites are what the ``verify`` and
``jordan-verify`` CLI commands run, and what the acceptance tests pin down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from . import hilbert, jordan, logic, survey
from .errors import BadDimensionError, BadSeedError, TooFewTrialsError
from .hilbert import _worst_norm

__all__ = [
    "CheckResult",
    "DOUBLE_PRECISION_FLOOR",
    "logic_suite",
    "hilbert_suite",
    "FormalRealitySweep",
    "jordan_sweep_report",
    "jordan_suite",
    "run_all",
]

DOUBLE_PRECISION_FLOOR = 1e-12
"""Residuals at or below this are attributable to double-precision round-off."""

_CLASSICAL_TRIALS = 1000  # commuting triples whose cells the hilbert suite checks

_SUITE_BLOCK_ENTRIES = 1 << 16
"""Matrix entries per sampled stack in one block of a dimension's checks: each check's
temporaries are a block's, and every dimension the commands sample by default is one block."""

# Each suite draws its samples at dimension d from one stream, default_rng([seed, suite, d]).
_QUESTIONS, _STATES, _PRODUCTS, _SWEEP, _CLASSICAL, _ROUND_TRIP = range(6)


def _stream(seed: int, suite: int, dim: int) -> np.random.Generator:
    return np.random.default_rng([seed, suite, dim])


def _check_sampling(dims: tuple[int, ...], trials_per_dim: int, seed: int) -> None:
    """Reject, before any sampling, a trial count that is not an ``int`` of at least 1,
    dimensions that are none, not ``int``, or outside [2, ``hilbert.MAX_DIM``], and a
    seed that is not an ``int`` of at least 0 (the sweep's records echo it into JSON).

    A ``bool`` or another type raises a ``TypeError`` that names the trial count, the
    dimension or the seed; a negative seed raises :class:`BadSeedError`.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise BadSeedError(f"seed must be at least 0, got {seed}")
    if isinstance(trials_per_dim, bool) or not isinstance(trials_per_dim, int):
        raise TypeError(f"trials_per_dim must be an int, got {trials_per_dim!r}")
    if trials_per_dim < 1:
        raise TooFewTrialsError(f"trials_per_dim must be at least 1, got {trials_per_dim}")
    if not dims:
        raise BadDimensionError("dims names no dimension")
    for dim in dims:
        hilbert._check_dim(dim)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""

    @property
    def failure_kind(self) -> str:
        """'' when passed; 'tolerance' when only round-off exceeded a tiny tol."""
        if self.passed:
            return ""
        return "tolerance" if self.residual <= DOUBLE_PRECISION_FLOOR else "violation"

    def as_dict(self) -> dict:
        data = asdict(self)
        data["failure_kind"] = self.failure_kind
        return data


def _exact(name: str, holds: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=holds, residual=0.0 if holds else float("inf"),
                       tol=0.0, detail=detail)


def _residual(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=residual <= tol, residual=residual,
                       tol=tol, detail=detail)


def _worst_residual(*residuals, initial: float = 0.0) -> float:
    """Largest of ``initial``, residual values and the spectral norms of (n, d, d) residual stacks.

    Unlike Python's ``max``, a NaN anywhere is the result, so the check it feeds
    fails as a violation.  A matrix stack is reduced by :func:`hilbert._worst_norm`,
    which gives a NaN or inf for a stack with such an entry.  A -0.0 never
    replaces 0.0.
    """
    worst = initial
    for r in residuals:
        value = float(np.max(r, initial=worst)) if np.ndim(r) < 3 else _worst_norm(r)
        if value > worst or value != value:
            worst = value
    return worst


class _WorstByCheck(dict):
    """The worst residual so far of each check, by name, in the order the checks first report."""

    def add(self, name: str, *residuals) -> None:
        self[name] = _worst_residual(*residuals, initial=self.get(name, 0.0))


# ---------------------------------------------------------------------------
# logic suite (all exact)


def logic_suite() -> list[CheckResult]:
    results: list[CheckResult] = []

    conj = {(r.a, r.b_alone, r.b_after): v for r, v in logic.truth_table("conjunction")}
    disj = {(r.a, r.b_alone, r.b_after): v for r, v in logic.truth_table("inclusive_or")}
    xor = {(r.a, r.b_alone, r.b_after): v for r, v in logic.truth_table("xor")}

    results.append(_exact("logic.conjunction_matches_reference",
                          conj == logic.CONJUNCTION_REFERENCE))
    results.append(_exact("logic.inclusive_or_matches_reference",
                          disj == logic.INCLUSIVE_OR_REFERENCE))
    results.append(_exact(
        "logic.xor_from_balance_rule",
        all(
            xor[key] == Fraction(key[0] + key[1]) - 2 * conj[key]
            for key in conj
        ),
    ))
    results.append(_exact(
        "logic.value_ranges",
        set(conj.values()) == {Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)}
        and set(disj.values()) == {Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)}
        and min(conj.values()) == Fraction(-1, 2)
        and max(disj.values()) == Fraction(3, 2),
    ))

    boolean_ok = True
    for record in logic.ALL_RECORDS:
        if record.boolean:
            b = record.b_alone
            boolean_ok &= logic.conjunction_value(record) == record.a * b
            boolean_ok &= logic.or_value(record) == record.a + b - record.a * b
            boolean_ok &= logic.xor_value(record) == (record.a + b) % 2
    results.append(_exact("logic.boolean_corners", boolean_ok))

    per_record = [
        logic.identity_suite(r, r) for r in logic.ALL_RECORDS
    ]
    results.append(_exact(
        "logic.balance_and_sum_rules",
        all(rep.xor_conjunction_balance and rep.disjunction_sum_rule for rep in per_record),
    ))
    results.append(_exact(
        "logic.marginality_relations",
        all(rep.marginal_over_second and rep.marginal_over_first for rep in per_record),
    ))

    swap_ok = all(
        logic.identity_suite(r_ab, r_ba).order_swap_antisymmetry
        for r_ab, r_ba in itertools.product(logic.ALL_RECORDS, repeat=2)
    )
    results.append(_exact("logic.order_swap_all_64_pairs", swap_ok))
    return results


# ---------------------------------------------------------------------------
# hilbert suite


def _sampled_questions(dim: int, trials_per_dim: int, seed: int):
    """The two read-only (n, d, d) question stacks of one dimension.

    The questions stream of the dimension gives the ranks of every A, then of
    every B, then the A stack, then the B stack.
    """
    rng = _stream(seed, _QUESTIONS, dim)
    ranks = rng.integers(1, dim, size=(2, trials_per_dim))
    return tuple(hilbert.sample_projectors(dim, r, rng) for r in ranks)


def _questions(dim: int, trials_per_dim: int, seed: int, questions=None):
    """``questions[dim]`` when given, else :func:`_sampled_questions` of the dimension."""
    if questions is not None:
        return questions[dim]
    return _sampled_questions(dim, trials_per_dim, seed)


def _sampled_stacks(dims: tuple[int, ...], trials_per_dim: int, seed: int, questions=None):
    """(dim, states, questions_a, questions_b) per dimension: read-only (n, d, d) stacks.

    The state of trial t is pure for even t, else mixed, drawn from the
    states stream of the dimension; the questions are :func:`_sampled_questions`.
    """
    purities = ["pure" if t % 2 == 0 else "mixed" for t in range(trials_per_dim)]
    for dim in dims:
        questions_a, questions_b = _questions(dim, trials_per_dim, seed, questions)
        states = hilbert.sample_states(dim, purities, _stream(seed, _STATES, dim))
        yield dim, states, questions_a, questions_b


def hilbert_suite(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    trials_per_dim: int = 100,
    seed: int = 42,
    tol: float = hilbert.DEFAULT_TOL,
    *,
    questions: dict | None = None,
) -> list[CheckResult]:
    """Hilbert-semantics checks on sampled triples, a worked example and baselines.

    ``questions`` maps each dimension to its :func:`_sampled_questions` result,
    so that a caller running :func:`jordan_suite` too samples them once.  Each
    dimension's checks run on member blocks of at most ``_SUITE_BLOCK_ENTRIES``
    entries per stack, as in :func:`jordan_suite`.
    """
    _check_sampling(dims, trials_per_dim, seed)
    worst = _WorstByCheck()
    min_table_cell = np.inf
    lowest_cells = []  # (dim, the least cell over all states of each question pair)
    count = 0
    for dim, rho, a, b in _sampled_stacks(dims, trials_per_dim, seed, questions):
        count += len(rho)
        lowest_cells.append((dim, hilbert.min_cells_over_states(a, b)))
        for block in hilbert._blocks(len(rho), dim, _SUITE_BLOCK_ENTRIES):
            min_table_cell = _triple_checks(worst, rho[block], a[block], b[block], min_table_cell)

    detail = f"{count} triples over dims {dims}"
    details = {"hilbert.quasi_prob_floor": f"{detail}, min cell {min_table_cell:.6f}"}
    results = [_residual(name, residual, tol, details.get(name, detail))
               for name, residual in worst.items()]

    # fixed worked example: negative cell, weak value, genuine order dependence
    rho, a, b = hilbert.worked_example()
    joint = hilbert.logical_joint(rho, a, b, "operational")
    results.append(_residual("hilbert.example_negative_cell", abs(joint - (-0.1)), 1e-12))
    wv = hilbert.weak_value(rho, a, b)
    results.append(_residual("hilbert.example_weak_value", abs(wv.real - (-0.5)), 1e-12))
    seq_gap = abs(
        hilbert.sequential_probability(rho, a, b) - hilbert.sequential_probability(rho, b, a)
    )
    joint_gap = abs(joint - hilbert.logical_joint(rho, b, a, "operational"))
    results.append(_exact(
        "hilbert.sequential_order_dependence",
        seq_gap > 0.01 and joint_gap <= tol,
        f"sequential gap {seq_gap:.4f}, logical gap {joint_gap:.2e}",
    ))

    # the floor is attained: rank-one questions at d=2 with overlap |<a|b>| = 1/2
    floor, floor_cell = hilbert.min_cell_over_states(
        hilbert.rank_one_projector(np.array([1.0, 0.0])),
        hilbert.rank_one_projector(np.array([0.5, np.sqrt(3) / 2])),
    )
    results.append(_residual(
        "hilbert.quasi_prob_floor_witness", abs(floor - (-1 / 8)), 1e-12,
        f"d=2, overlap 1/2, min cell {floor:.6f} at {floor_cell}",
    ))

    # classical baseline: commuting triples never go negative; trial t has
    # dimension 2 + t % 4, and each dimension's triples come from its own stream
    negativity, min_cell = 0.0, np.inf
    for dim in range(2, 6):
        n = len(range(dim - 2, _CLASSICAL_TRIALS, 4))
        triples = hilbert.sample_commuting_triples(dim, n, _stream(seed, _CLASSICAL, dim))
        cells, _, _ = hilbert.quasi_prob_tables(*triples, "jordan")
        negativity = _worst_residual(-cells, initial=negativity)
        min_cell = float(np.min(cells, initial=min_cell))
    results.append(_residual(
        "hilbert.classical_triples_nonnegative", negativity, 1e-12,
        f"{_CLASSICAL_TRIALS} commuting triples, min cell {min_cell:.3e}",
    ))

    results.append(_negativity_floor(lowest_cells, dims, tol))

    # survey round trip: model probabilities reconstruct the model's joints;
    # one stream gives the 20 states (pure for even t), then the A and the B questions
    rng = _stream(seed, _ROUND_TRIP, 2)
    states = hilbert.sample_states(2, ["pure" if t % 2 == 0 else "mixed" for t in range(20)], rng)
    questions_a = hilbert.sample_projectors(2, [1] * 20, rng)
    questions_b = hilbert.sample_projectors(2, [1] * 20, rng)
    joints, _, _ = hilbert.quasi_prob_tables(
        states, questions_a, questions_b, "operational", tol=np.inf
    )
    gaps = []
    for rho_m, a_m, b_m, model in zip(states, questions_a, questions_b, joints.tolist()):
        p_ab, p_ba = hilbert.model_sequential_probabilities(rho_m, a_m, b_m)
        for table in survey.logical_tables_from_probs(p_ab, p_ba):
            gaps += [abs(table[cell] - value) for cell, value in zip(logic.CELLS, model)]
    results.append(_residual(
        "hilbert.survey_round_trip", _worst_residual(gaps), tol, "20 seeded models at d=2"))

    return results


def _triple_checks(worst: _WorstByCheck, rho, a, b, min_table_cell: float) -> float:
    """Fold the checks on sampled triples, member blocks of (n, d, d) stacks, into ``worst``;
    returns the least table cell among ``min_table_cell`` and the block's (NaN if any is)."""
    operational = hilbert.logical_joints(rho, a, b, "operational")
    algebraic = hilbert.logical_joints(rho, a, b, "jordan")
    kd_real = np.trace(rho @ a @ b, axis1=1, axis2=2).real
    worst.add("hilbert.joint_operational_vs_algebraic", np.abs(operational - algebraic))
    worst.add("hilbert.joint_equals_re_trace",
              np.abs(operational - kd_real), np.abs(algebraic - kd_real))
    worst.add("hilbert.joint_order_symmetry",
              np.abs(operational - hilbert.logical_joints(rho, b, a, "operational")))
    xor_op = hilbert.xor_expectations(rho, a, b, "operational")
    # the suite measures the operator residual itself (below); disable the
    # op-level contract check so impossible tolerances report, not crash
    xor_mapped = hilbert.xor_expectations(rho, a, b, "mapped_operator", tol=np.inf)
    worst.add("hilbert.xor_operational_vs_mapped", np.abs(xor_op - xor_mapped))
    worst.add("hilbert.xor_order_symmetry",
              np.abs(xor_op - hilbert.xor_expectations(rho, b, a, "operational")))
    swap, expansion_ab, _ = jordan._xor_symmetry_defects(a, b)
    worst.add("hilbert.xor_operator_expansion", expansion_ab, swap)
    del swap, expansion_ab, _
    cells, pa, pb = hilbert.quasi_prob_tables(rho, a, b, "jordan", tol=np.inf)
    # total, row a=1 and column b=1
    worst.add("hilbert.table_marginality",
              hilbert.table_marginality_residuals(cells, pa, pb)[:, [0, 1, 3]])
    # Jordan's two-subspace lemma: no cell of any table is below -1/8
    worst.add("hilbert.quasi_prob_floor", -1 / 8 - cells)
    worst.add("hilbert.repeated_question",
              np.abs(hilbert.sequential_probabilities(rho, a, a) - pa))
    return float(np.min(cells, initial=min_table_cell))


def _negativity_floor(lowest_cells, dims: tuple[int, ...], tol: float) -> CheckResult:
    """``hilbert.negativity_search_floor``: how far the exact minimum over all states of
    any pair's cells (``lowest_cells``, by dimension) lies below -1/8, and that pair's
    dimension, index and cell."""
    residual, floor, at, count = 0.0, np.inf, "", 0
    for dim, lowest in lowest_cells:
        count += len(lowest)
        residual = _worst_residual(-1 / 8 - lowest, initial=residual)
        pair, cell = divmod(int(lowest.argmin()), 4)
        if not lowest[pair, cell] >= floor:  # a NaN is kept and named
            floor = float(lowest[pair, cell])
            at = f"d={dim}, pair {pair}, cell {logic.CELLS[cell]}"
    return _residual(
        "hilbert.negativity_search_floor", residual, tol,
        f"{count} question pairs over dims {dims}, min cell over states {floor:.6f} at {at}",
    )


# ---------------------------------------------------------------------------
# jordan suite


@dataclass(frozen=True)
class FormalRealitySweep:
    """Formal-reality probes over several dimensions, from one stacked pass each."""

    trials_per_dim: int
    records: list[dict]  # one JSON record per dimension
    min_ratio: float     # smallest residual / (0.01 max(||x||², ||y||²)) over pairs with a floor
    violations: int


def jordan_sweep_report(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    trials_per_dim: int = 1000,
    seed: int = 42,
    tol: float = hilbert.DEFAULT_TOL,
) -> FormalRealitySweep:
    """Formal-reality sweep: ``records`` in the documented JSON shape, plus the
    inputs of the ``jordan.formal_reality`` check, from ``trials_per_dim``
    probes of x∘x + y∘y per dimension.

    Each dimension draws trials_per_dim + 1 Hermitian matrices from its sweep
    stream, and pair t is (matrix t, matrix t + 1), so the y of pair t is the
    x of pair t + 1.  Each matrix is squared once, and every pair sum is solved
    in one stacked call per dimension; the sampled matrices are solved only
    where their pair can set the minimum ratio or a verdict (:func:`_sweep_norms`).
    The norms are those of ``jordan.formal_reality_residuals``, so each pair's
    residual, and every scale the report reads, are the kernel's, bit for bit.
    A NaN or infinite sum fails every pair of its dimension, as a NaN residual.
    A pair whose floor 0.01 max(||x||², ||y||²) is 0, such as two zero matrices,
    is consistent and is left out of the minimum ratio.
    """
    _check_sampling(dims, trials_per_dim, seed)
    records = []
    lowest_ratio = -np.inf  # minus the smallest ratio, so that a NaN ratio is kept
    violations = 0
    for dim in dims:
        matrices = hilbert.sample_hermitians(dim, trials_per_dim + 1, _stream(seed, _SWEEP, dim))
        residual, scale, solved = _sweep_norms(matrices, tol)
        # a pair is violated unless its residual or its scale rules that out, as a NaN cannot
        violated = ~((residual > tol) | (scale <= tol))
        violations += int(violated.sum())
        lowest_ratio = _worst_residual([
            -_ratio(r, s) for r, s in zip(residual[solved].tolist(), scale[solved].tolist())
        ], initial=lowest_ratio)
        records.append({
            "dim": dim,
            "trials": trials_per_dim,
            "seed": seed,
            "max_residual": _worst_residual(residual),
            "min_residual": float(np.min(residual, initial=np.inf)),
            "verdict": "violated" if violated.any() else "consistent",
        })
    return FormalRealitySweep(trials_per_dim, records, -lowest_ratio, violations)


def _sweep_norms(matrices: np.ndarray, tol: float):
    """Residual and scale of each pair (t, t + 1) of ``matrices``, and the mask of
    pairs whose scale is solved: those that can set a verdict or the least ratio.

    The scale is needed only where the residual is not above ``tol`` (the
    verdict) or the ratio r / (0.01 s²) can be the least.  Each matrix bounds
    its s² from above (:func:`_squared_power_bounds`), which bounds each pair's
    ratio from below.  Up to three times, the bounds of the matrices still in
    play are tightened by one more squaring, the pair with the least bound is
    solved, so that the least ratio is at most its ratio, and every pair whose
    bound is above the least ratio found drops out.  Then the matrices of the
    pairs left are solved; none is solved twice, and a pair not solved reads a
    NaN scale.  A NaN or infinite sum leaves every residual and scale NaN, and
    every pair solved.
    """
    power = matrices @ matrices  # x², then x^(2^k) of each matrix still in play
    sums = jordan._formal_reality_sums(power[:-1], power[1:])
    if not np.isfinite(sums).all():  # no spectral norm: NaN residuals at NaN scales
        residual = np.full(len(sums), np.nan)
        return residual, residual, np.ones(len(sums), dtype=bool)
    residual = jordan._hermitian_norm(sums)
    del sums  # the bound passes below take its place
    norms = np.full(len(matrices), np.nan)
    bounds = np.full(len(matrices), np.inf)
    members = np.ones(len(matrices), dtype=bool)
    least = np.inf  # the least ratio found
    for squarings in (1, 2, 3):
        power, tighter = _squared_power_bounds(power, squarings)
        bounds[members] = np.minimum(bounds[members], tighter)
        lower = residual / (0.01 * np.maximum(bounds[:-1], bounds[1:])) * (1 - 1e-10)
        first = int(lower.argmin())
        if lower[first] <= least:
            pair = np.zeros(len(matrices), dtype=bool)
            pair[first:first + 2] = True
            _fill_norms(norms, matrices, pair)
            least = min(least, _ratio(float(residual[first]), float(norms[first:first + 2].max())))
        solved = ~((lower > least) & (residual > tol))
        kept = _pair_members(solved)
        members, power = kept, power[kept[members]]
        if not np.isnan(norms[members]).any():
            break
    _fill_norms(norms, matrices, members)
    return residual, np.maximum(norms[:-1], norms[1:]), solved


def _ratio(residual: float, scale: float) -> float:
    """A pair's residual / (0.01 scale²) in Python floats, so that the floor equals the scalar
    0.01 * max(||x||**2, ||y||**2); infinite where the floor is 0, as for a pair of zero
    matrices, which is consistent and has no ratio."""
    floor = 0.01 * scale**2
    return residual / floor if floor else np.inf


def _pair_members(pairs: np.ndarray) -> np.ndarray:
    """Mask of the matrices t and t + 1 of every pair t in the mask ``pairs``."""
    members = np.zeros(len(pairs) + 1, dtype=bool)
    members[:-1] |= pairs
    members[1:] |= pairs
    return members


def _fill_norms(norms: np.ndarray, matrices: np.ndarray, members: np.ndarray) -> None:
    """Fill in the NaN ``norms`` of ``members`` with their spectral norms, in one stacked call."""
    todo = members & np.isnan(norms)
    if todo.any():
        norms[todo] = jordan._hermitian_norm(matrices[todo])


def _squared_power_bounds(power: np.ndarray, squarings: int):
    """Square each member x^(2^k) of ``power``, k = ``squarings``, and bound ‖x‖² from its square.

    ‖x^(2m)‖_F = (Σλᵢ^(4m))^½ ≥ ‖x‖^(2m) for Hermitian x, so with 2m = 2^(k+1)
    b = ‖x^(2m)‖_F^(1/m) (1 + 1e-10) bounds the computed ‖x‖²: at d <= 64 and
    k <= 3 both are within far less than 1e-10 relative of their exact values,
    as in ``hilbert._worst_norm``.  A member whose ‖x^(2m)‖_F overflows, is NaN
    or falls below 1e-140 (where that relative accuracy is lost) gets an
    infinite bound.  Returns the squared stack and the bounds.
    """
    with np.errstate(all="ignore"):
        power = power @ power
        frobenius = np.sqrt(np.einsum("nij,nij->n", power.real, power.real)
                            + np.einsum("nij,nij->n", power.imag, power.imag))
    usable = (frobenius >= 1e-140) & (frobenius < np.inf)
    return power, np.where(usable, frobenius ** 0.5**squarings * (1 + 1e-10), np.inf)


def jordan_suite(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    trials_per_dim: int = 100,
    seed: int = 42,
    tol: float = hilbert.DEFAULT_TOL,
    *,
    reality: FormalRealitySweep,
    questions: dict | None = None,
) -> list[CheckResult]:
    """Jordan-product checks on the sampled questions plus the formal-reality check.

    ``reality`` is the :func:`jordan_sweep_report` the last check reads, run
    by the caller with the same dims, seed and tol.  ``questions`` is as in
    :func:`hilbert_suite`.
    """
    _check_sampling(dims, trials_per_dim, seed)
    worst = _WorstByCheck()
    count = 0
    for dim in dims:
        a, b = _questions(dim, trials_per_dim, seed, questions)
        count += len(a)
        # the products stream of the dimension gives every x, then every y
        rng = _stream(seed, _PRODUCTS, dim)
        x = hilbert.sample_hermitians(dim, len(a), rng)
        y = hilbert.sample_hermitians(dim, len(a), rng)
        for block in hilbert._blocks(len(a), dim, _SUITE_BLOCK_ENTRIES):
            _product_checks(worst, a[block], b[block], x[block], y[block])
        del a, b, x, y  # before the next dimension draws its own

    detail = f"{count} samples over dims {dims}"
    results = [_residual(name, residual, tol, detail) for name, residual in worst.items()]
    results.append(_exact(
        "jordan.formal_reality",
        reality.violations == 0 and reality.min_ratio > 1.0,
        f"{reality.trials_per_dim} pairs per dim, min residual ratio {reality.min_ratio:.3f}",
    ))
    return results


def _product_checks(worst: _WorstByCheck, a, b, x, y) -> None:
    """Fold the Jordan-product checks on member blocks of sampled question stacks ``a``, ``b``
    and Hermitian stacks ``x``, ``y`` into ``worst``, dropping each product once it is read."""
    # the product jordan.jordan_product takes, unvalidated: the stacks are sampled valid
    product = hilbert._symmetrised
    xy = product(x, y)
    worst.add("jordan.product_commutativity", xy - product(y, x))
    worst.add("jordan.product_hermiticity", xy - xy.conj().transpose(0, 2, 1))
    del xy
    identity = np.eye(a.shape[-1])
    ab = product(a, b)
    worst.add("jordan.operator_marginality",
              ab + product(a, identity - b) - a, ab + product(identity - a, b) - b)
    del ab
    xx = product(x, x)
    worst.add("jordan.power_associativity", product(xx, x) - product(x, xx))
    del xx
    worst.add("jordan.idempotency_transfer", *jordan._idempotency_defects(a))
    worst.add("jordan.xor_operator_symmetry", *jordan._xor_symmetry_defects(a, b))


def run_all(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    trials_per_dim: int = 100,
    seed: int = 42,
    tol: float = hilbert.DEFAULT_TOL,
) -> list[CheckResult]:
    """Every invariant suite in one flat list; the questions are sampled once for both suites."""
    _check_sampling(dims, trials_per_dim, seed)
    questions = {dim: _sampled_questions(dim, trials_per_dim, seed) for dim in dims}
    results = logic_suite()
    results += hilbert_suite(dims, trials_per_dim, seed, tol, questions=questions)
    reality = jordan_sweep_report(dims, max(100, trials_per_dim), seed, tol)
    results += jordan_suite(dims, trials_per_dim, seed, tol, reality=reality, questions=questions)
    return results
