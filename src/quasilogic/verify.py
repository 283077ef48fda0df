"""Machine-checkable invariant suites for the logic, Hilbert and algebra layers.

Each suite returns a flat list of :class:`CheckResult`; a failed check with a
residual at the double-precision floor is a tolerance artefact, one above it
is an identity violation (a defect).  The suites are what the ``verify`` and
``jordan-verify`` CLI commands run, and what the acceptance tests pin down.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from . import hilbert, jordan, logic, survey
from .errors import BadDimensionError, BadSeedError, BadToleranceError, TooFewTrialsError

__all__ = [
    "CheckResult",
    "DOUBLE_PRECISION_FLOOR",
    "logic_suite",
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

_BOUNDED_SUM_DIMS = range(3, 17)
"""Dimensions at which the formal-reality sweep bounds its pair sums before it solves them:
at d = 2 a squaring costs half a solve, and above d = 16 few sums drop out before the third."""

_BOUNDED_SUM_ENTRIES = 1 << 12
"""Least entries of a dimension's pair sums for bounding them to save more than its calls cost."""

# Each suite draws its samples at dimension d from one stream, default_rng([seed, suite, d]).
_QUESTIONS, _STATES, _PRODUCTS, _SWEEP, _CLASSICAL, _ROUND_TRIP = range(6)


def _stream(seed: int, suite: int, dim: int) -> np.random.Generator:
    return np.random.default_rng([seed, suite, dim])


def _check_sampling(dims: tuple[int, ...], trials_per_dim: int, seed: int, tol: float) -> None:
    """Reject, before any sampling, a trial count that is not an ``int`` of at least 1,
    dimensions that are none, not ``int``, or outside [2, ``hilbert.MAX_DIM``], a seed
    that is not an ``int`` of at least 0 (the sweep's records echo it into JSON), and a
    ``tol`` that is not a positive and finite real number.

    A ``bool``, another type or an iterator for ``dims`` raises a ``TypeError`` that names
    the trial count, the dimension, ``dims``, the seed or ``tol``; a negative seed raises
    :class:`BadSeedError`, and a NaN, infinite or non-positive ``tol`` :class:`BadToleranceError`.
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
    if iter(dims) is dims:  # every suite reads dims more than once
        raise TypeError(f"dims must be a sequence, not a one-shot {type(dims).__name__}")
    for dim in dims:
        hilbert._check_dim(dim)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise TypeError(f"tol must be a real number, got {tol!r}")
    if not 0 < tol < math.inf:
        raise BadToleranceError(f"tol must be positive and finite, got {tol}")


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
        value = float(np.max(r, initial=worst)) if np.ndim(r) < 3 else hilbert._worst_norm(r)
        if value > worst or value != value:
            worst = value
    return worst


class _WorstByCheck(dict):
    """The worst residual so far of each check, by name."""

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

    The questions stream of the dimension gives the ranks of every A, then of every
    B, then the d × min(r, d - r) complex Gaussian of each A, then of each B, in trial
    order, real parts first (:func:`hilbert.sample_projectors`).
    """
    rng = _stream(seed, _QUESTIONS, dim)
    ranks = rng.integers(1, dim, size=(2, trials_per_dim))
    return tuple(hilbert.sample_projectors(dim, r, rng) for r in ranks)


def _sampled_states(dim: int, trials_per_dim: int, seed: int):
    """The read-only (n, d, d) state stack of one dimension: the state of trial t is
    pure for even t, else mixed, drawn from the states stream of the dimension."""
    purities = ["pure" if t % 2 == 0 else "mixed" for t in range(trials_per_dim)]
    return hilbert.sample_states(dim, purities, _stream(seed, _STATES, dim))


def _hilbert_results(worst: _WorstByCheck, min_table_cell: float, lowest_cells,
                     dims: tuple[int, ...], trials_per_dim: int, seed: int,
                     tol: float) -> list[CheckResult]:
    """Hilbert-semantics results: the checks on sampled triples folded into ``worst``, a
    worked example, baselines, the negativity floor of ``lowest_cells`` and a round trip."""
    detail = f"{len(dims) * trials_per_dim} triples over dims {dims}"
    details = {"quasi_prob_floor": f"{detail}, min cell {min_table_cell:.6f}"}
    names = ("joint_operational_vs_algebraic", "joint_equals_re_trace", "joint_order_symmetry",
             "xor_operational_vs_mapped", "xor_order_symmetry", "xor_operator_expansion",
             "table_marginality", "quasi_prob_floor", "repeated_question")
    results = [_residual(f"hilbert.{name}", worst[f"hilbert.{name}"], tol,
                         details.get(name, detail)) for name in names]

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
        # tol=np.inf: a marginality defect fails hilbert.table_marginality, not the command
        cells, _, _ = hilbert.quasi_prob_tables(*triples, "jordan", tol=np.inf)
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
    tables = survey.logical_tables_from_probs(
        *hilbert._sequential_tables(states, questions_a, questions_b))
    gaps = [np.abs(np.stack([table[cell] for cell in logic.CELLS], -1) - joints)
            for table in tables]
    results.append(_residual(
        "hilbert.survey_round_trip", _worst_residual(*gaps), tol, "20 seeded models at d=2"))

    return results


def _triple_checks(worst: _WorstByCheck, rho, a, b, min_table_cell: float) -> float:
    """Fold the checks on sampled triples, member blocks of stacks, and the Jordan XOR check into
    ``worst``; returns the least table cell among ``min_table_cell`` and the block's (or NaN)."""
    cells, pa, pb = hilbert.quasi_prob_tables(rho, a, b, "jordan", tol=np.inf)
    abar, bbar = hilbert._answers(a)[0], hilbert._answers(b)[0]
    # the seven distinct sequential branches, each formed once: ab is Tr(B A rho A)
    ab, abar_b, a_bbar, ba, bbar_a, b_abar, aa = (
        hilbert.sequential_probabilities(rho, first, second) for first, second in
        ((a, b), (abar, b), (a, bbar), (b, a), (bbar, a), (b, abar), (a, a)))
    operational = hilbert._operational_joint(ab, abar_b, pb)
    algebraic = cells[:, 3]
    kd_real = np.trace(rho @ a @ b, axis1=1, axis2=2).real
    worst.add("hilbert.joint_operational_vs_algebraic", np.abs(operational - algebraic))
    worst.add("hilbert.joint_equals_re_trace",
              np.abs(operational - kd_real), np.abs(algebraic - kd_real))
    worst.add("hilbert.joint_order_symmetry",
              np.abs(operational - hilbert._operational_joint(ba, bbar_a, pa)))
    xor_op = a_bbar + abar_b
    worst.add("hilbert.xor_operational_vs_mapped",
              np.abs(xor_op - hilbert._re_trace(rho @ _xor_symmetry(worst, a, b))))
    worst.add("hilbert.xor_order_symmetry", np.abs(xor_op - (b_abar + bbar_a)))
    # total, row a=1 and column b=1
    worst.add("hilbert.table_marginality",
              hilbert.table_marginality_residuals(cells, pa, pb)[:, [0, 1, 3]])
    # Jordan's two-subspace lemma: no cell of any table is below -1/8
    worst.add("hilbert.quasi_prob_floor", -1 / 8 - cells)
    worst.add("hilbert.repeated_question", np.abs(aa - pa))
    return float(np.min(cells, initial=min_table_cell))


def _marginal_products(worst: _WorstByCheck, a, b) -> list:
    """The four Jordan products A_i ∘ B_j of a block of questions (index 2i + j), folding
    ``jordan.operator_marginality``, A∘B + A∘B̄ − A and A∘B + Ā∘B − B, into ``worst``;
    ``run_all`` and ``jordan_suite`` both fold it here."""
    products = hilbert._cell_products(a, b)
    worst.add("jordan.operator_marginality",
              products[3] + products[2] - a, products[3] + products[1] - b)
    return products


def _xor_symmetry(worst: _WorstByCheck, a, b):
    """The mapped XOR A B̄ A + Ā B Ā of a block of questions, once its gap to B Ā B + B̄ A B̄ and
    the gaps of both to A + B − AB − BA are folded into ``worst``: all three for
    ``jordan.xor_operator_symmetry``, the first two for ``hilbert.xor_operator_expansion``.
    ``run_all`` and ``jordan_suite`` both fold them here."""
    forward = hilbert._mapped_xor(a, b)
    swap, forward_gap, backward_gap = map(_worst_residual, jordan._xor_symmetry_defects(
        forward, hilbert._mapped_xor(b, a), hilbert._xor_expansion(a, b)))
    worst.add("hilbert.xor_operator_expansion", forward_gap, swap)
    worst.add("jordan.xor_operator_symmetry", swap, forward_gap, backward_gap)
    return forward


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
    """Formal-reality probes over several dimensions, as far as the report reads them."""

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
    x of pair t + 1.  A sampled matrix, and a pair sum where the dimension's sums
    are bounded first, is solved only where it can set a reported value, given
    the least ratio of the dimensions before (:func:`_sweep_norms`).  The norms
    are those of ``jordan.formal_reality_residuals``, so the residuals and scales
    the report reads are the kernel's, bit for bit.  A NaN or infinite sum fails every pair
    of its dimension, as a NaN residual.  A pair whose floor 0.01 max(||x||², ||y||²)
    is 0, such as two zero matrices, is consistent and is left out of the minimum ratio.
    """
    _check_sampling(dims, trials_per_dim, seed, tol)
    records = []
    lowest_ratio = -np.inf  # minus the smallest ratio, so that a NaN ratio is kept
    violations = 0
    for dim in dims:
        matrices = hilbert.sample_hermitians(dim, trials_per_dim + 1, _stream(seed, _SWEEP, dim))
        residual, scale, solved = _sweep_norms(matrices, tol, -lowest_ratio)
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


@np.errstate(all="ignore")  # powers that overflow or underflow bound nothing
def _sweep_norms(matrices: np.ndarray, tol: float, least: float = np.inf):
    """Residual and scale of each pair (t, t + 1) of ``matrices``, and the mask of pairs
    whose ratio is exact: those that can set a verdict or a ratio not above ``least``, the
    least ratio found before (NaN: none is needed).

    Each ‖x‖² and residual lies between bounds (:func:`_power_bounds`) that meet
    once it is solved.  In ``_BOUNDED_SUM_DIMS``, where a dimension has at least
    ``_BOUNDED_SUM_ENTRIES`` sum entries, the sums start unsolved; elsewhere the
    sums of each block of pairs are solved in one call as soon as they are
    formed.  A block's sums hold half the sampled entries, or all of them where
    they are solved at once (2**14 if more), so that its x² and its unsolved
    sums, one stack, hold about U, and the sweep 3 U.  The stack is squared,
    m = 1, 2, 4, keeping what can still set a reported value (:func:`_in_play`);
    after each squaring the block's pair with the least lower bound on its ratio
    is solved, where that bound is not above the least ratio found.  What is
    left in play is solved at the end, each x² formed again from ``matrices``;
    nothing is solved twice.  An unsolved pair reads its lower bound as its
    residual, which sets no reported value, and a NaN scale.  A NaN or infinite
    sum leaves every residual and scale NaN, and every pair solved.
    """
    n, dim = len(matrices) - 1, matrices.shape[-1]
    bounded = dim in _BOUNDED_SUM_DIMS and n * dim * dim >= _BOUNDED_SUM_ENTRIES
    # the n + 1 values ‖x‖², then the n residuals, each between bounds that meet once solved
    lower, upper = np.zeros(2 * n + 1), np.full(2 * n + 1, np.inf)
    residual, norms = lower[n + 1:], np.full(n + 1, np.nan)

    def solve(todo: np.ndarray) -> None:
        """Solve the matrices and the sums of the mask ``todo`` of the 2n + 1 values in one
        call, forming each x² again as ``jordan.formal_reality_residuals`` forms it."""
        members, pairs = todo[:n + 1], todo[n + 1:]
        stack = matrices[members]
        count = len(stack)
        if pairs.any():
            x, y = matrices[:-1][pairs], matrices[1:][pairs]
            stack = np.concatenate((stack, jordan._formal_reality_sums(x @ x, y @ y)))
        values = jordan._hermitian_norm(stack)
        norms[members] = values[:count]
        values[:count] **= 2
        lower[todo] = upper[todo] = values

    unsolved = False
    for block in hilbert._blocks(n, dim, max(1 << 14, n * dim * dim // (1 + bounded))):
        start, stop = block.start, min(block.stop, n)
        k = stop - start  # the block's k + 1 squares x², then its k sums if unsolved, in one stack
        power = np.empty((2 * k + 1 if bounded else k + 1, dim, dim), dtype=complex)
        np.matmul(matrices[start:stop + 1], matrices[start:stop + 1], out=power[:k + 1])
        sums = jordan._formal_reality_sums(power[:k], power[1:k + 1])
        frobenius = np.full(2 * k + 1, np.inf)  # inf: no lower bound, nor a sum known finite
        index = np.arange(start, stop + 1)
        if bounded:
            power[k + 1:] = sums
            frobenius[k + 1:] = _frobenius(sums)
            index = np.append(index, np.arange(start, stop) + n + 1)
        if not np.isfinite(frobenius[k + 1:]).all() and not np.isfinite(sums).all():
            residual = np.full(n, np.nan)  # no spectral norm: NaN residuals at NaN scales
            return residual, residual, np.ones(n, dtype=bool)
        if not bounded:
            residual[block] = upper[n + 1 + start:n + 1 + stop] = jordan._hermitian_norm(sums)
        frobenius = frobenius[:len(power)]
        del sums
        for m in (1, 2, 4):
            power = power @ power
            gram = _frobenius(power)
            low, high = _power_bounds(gram, frobenius, m)
            lower[index] = np.maximum(lower[index], low)
            upper[index] = np.minimum(upper[index], high)
            ratio_low = _ratio_bounds(lower[n + 1:], upper[:n + 1])
            first = start + int(ratio_low[start:stop].argmin())
            if ratio_low[first] <= least:
                todo = np.zeros(2 * n + 1, dtype=bool)
                todo[first:first + 2] = todo[n + 1 + first] = True
                if (todo := todo & (lower < upper)).any():
                    solve(todo)
                    scale = float(norms[first:first + 2].max())
                    least = min(least, _ratio(float(residual[first]), scale))
            play, solved = _in_play(lower, upper, tol, least, ratio_low)
            kept = play[index]
            index, power, frobenius = index[kept], power[kept], gram[kept]
            if not len(index):
                break
        else:  # what is still in play is solved at the end
            unsolved = True
    if unsolved:
        ratio_low = _ratio_bounds(lower[n + 1:], upper[:n + 1])
        play, solved = _in_play(lower, upper, tol, least, ratio_low)
        if play.any():
            solve(play)
    return residual, np.maximum(norms[:-1], norms[1:]), solved


def _power_bounds(gram: np.ndarray, frobenius, m: int):
    """Lower and upper bounds on λ_max of each positive semidefinite P, x² or x² + y², from
    gram = ‖P²ᵐ‖_F and frobenius = ‖Pᵐ‖_F; 0 and inf where they give none.

    For the Hermitian H that ``eigvalsh`` reads of P, Σλ⁴ᵐ <= λ_max²ᵐ Σλ²ᵐ and
    λ_max⁴ᵐ <= Σλ⁴ᵐ give (‖H²ᵐ‖_F / ‖Hᵐ‖_F)^(1/m) <= λ_max <= ‖H²ᵐ‖_F^(1/2m).  P
    departs from H, and each computed norm from its exact value, by far less
    than 1e-10 relative to λ_max at d <= 64 and m <= 4 (r >= ‖x‖² by Weyl's
    inequality), so a 1e-10 relative margin widens both bounds, as in
    ``hilbert._worst_norm``.  A gram below 1e-140 (where that accuracy is lost)
    or NaN gives neither bound, and an infinite one no lower bound.  Call it where numpy's
    floating-point errors are ignored, as :func:`_sweep_norms` does.
    """
    usable = gram >= 1e-140
    lower = (gram / frobenius) ** (1 / m) * (1 - 1e-10)
    return (np.where(usable & (gram < np.inf), lower, 0.0),
            np.where(usable, gram ** (0.5 / m) * (1 + 1e-10), np.inf))


def _in_play(lower: np.ndarray, upper: np.ndarray, tol: float, least: float, ratio_low: np.ndarray):
    """The mask of the unsolved matrices and pairs that can still set a reported value,
    given the bounds of :func:`_sweep_norms` and lower bounds ``ratio_low`` on the ratios,
    and the mask of the pairs whose ratio can: a pair can have the largest or the least
    residual, a residual not above ``tol``, or a ratio not above ``least`` (none if NaN),
    and its matrices the last two.
    """
    n = len(ratio_low)
    low, high = lower[n + 1:], upper[n + 1:]
    ratios = (low <= tol) | (ratio_low <= least)
    play = np.zeros(2 * n + 1, dtype=bool)
    play[:n] = ratios  # the matrices t and t + 1 of each such pair t
    play[1:n + 1] |= ratios
    play[n + 1:] = ratios | (high >= low.max()) | (low <= high.min())
    return play & (lower < upper), ratios


def _ratio_bounds(residual: np.ndarray, norm_bounds: np.ndarray) -> np.ndarray:
    """Lower bounds on the ratio r / (0.01 s²) of each pair, from lower bounds on its residual r
    and upper bounds on ‖x‖² of each matrix, widened by 1e-10 relative for the rounding; as
    :func:`_power_bounds`, where floating-point errors are ignored."""
    return residual / (0.01 * np.maximum(norm_bounds[:-1], norm_bounds[1:])) * (1 - 1e-10)


def _ratio(residual: float, scale: float) -> float:
    """A pair's residual / (0.01 scale²) in Python floats, so that the floor equals the scalar
    0.01 * max(||x||**2, ||y||**2); infinite where the floor is 0, as for a pair of zero
    matrices, which is consistent and has no ratio."""
    floor = 0.01 * scale**2
    return residual / floor if floor else np.inf


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of an (n, d, d) stack."""
    flat = np.ascontiguousarray(m).reshape(len(m), -1).view(np.float64)
    return np.sqrt(np.einsum("ni,ni->n", flat, flat))


def jordan_suite(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    trials_per_dim: int = 100,
    seed: int = 42,
    tol: float = hilbert.DEFAULT_TOL,
    *,
    reality: FormalRealitySweep,
) -> list[CheckResult]:
    """Jordan-product checks on the sampled questions plus the formal-reality check.

    ``reality`` is the :func:`jordan_sweep_report` the last check reads, run
    by the caller with the same dims, seed and tol; anything else raises a
    ``TypeError`` before any sampling.
    """
    _check_sampling(dims, trials_per_dim, seed, tol)
    if not isinstance(reality, FormalRealitySweep):
        raise TypeError(f"reality must be a FormalRealitySweep, got {reality!r}")
    worst = _WorstByCheck()
    for dim in dims:
        a, b = _sampled_questions(dim, trials_per_dim, seed)
        for block in hilbert._blocks(len(a), dim, _SUITE_BLOCK_ENTRIES):
            _marginal_products(worst, a[block], b[block])
            _xor_symmetry(worst, a[block], b[block])
        _dimension_products(worst, seed, a)
    return _jordan_results(worst, dims, trials_per_dim, tol, reality)


def _dimension_products(worst: _WorstByCheck, seed: int, a) -> None:
    """Fold the Jordan-product checks on one dimension's question stack ``a`` and Hermitians
    into ``worst``, on member blocks of at most ``_SUITE_BLOCK_ENTRIES`` entries per stack."""
    dim = a.shape[-1]
    # the products stream of the dimension gives every x, then every y
    rng = _stream(seed, _PRODUCTS, dim)
    x = hilbert.sample_hermitians(dim, len(a), rng)
    y = hilbert.sample_hermitians(dim, len(a), rng)
    for block in hilbert._blocks(len(a), dim, _SUITE_BLOCK_ENTRIES):
        _product_checks(worst, a[block], x[block], y[block])


def _jordan_results(worst: _WorstByCheck, dims: tuple[int, ...], trials_per_dim: int,
                    tol: float, reality: FormalRealitySweep) -> list[CheckResult]:
    """The Jordan-product results folded into ``worst``, then ``jordan.formal_reality``."""
    detail = f"{len(dims) * trials_per_dim} samples over dims {dims}"
    names = ("product_commutativity", "product_hermiticity", "operator_marginality",
             "power_associativity", "idempotency_transfer", "xor_operator_symmetry")
    results = [_residual(f"jordan.{name}", worst[f"jordan.{name}"], tol, detail) for name in names]
    results.append(_exact(
        "jordan.formal_reality",
        reality.violations == 0 and reality.min_ratio > 1.0,
        f"{reality.trials_per_dim} pairs per dim, min residual ratio {reality.min_ratio:.3f}",
    ))
    return results


def _product_checks(worst: _WorstByCheck, a, x, y) -> None:
    """Fold the Jordan-product checks on member blocks of a sampled question stack ``a`` and
    Hermitian stacks ``x``, ``y`` into ``worst``, dropping each product once it is read."""
    # the product jordan.jordan_product takes, unvalidated: the stacks are sampled valid
    product = hilbert._symmetrised
    xy = product(x, y)
    worst.add("jordan.product_commutativity", xy - product(y, x))
    worst.add("jordan.product_hermiticity", xy - xy.conj().transpose(0, 2, 1))
    del xy
    xx = product(x, x)
    worst.add("jordan.power_associativity", product(xx, x) - product(x, xx))
    del xx
    worst.add("jordan.idempotency_transfer", *jordan._idempotency_defects(a))


def run_all(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    trials_per_dim: int = 100,
    seed: int = 42,
    tol: float = hilbert.DEFAULT_TOL,
) -> list[CheckResult]:
    """Every invariant suite in one flat list.

    Each dimension draws its questions once, for its checks on sampled triples and then
    its Jordan-product checks, and drops its stacks before the next dimension draws its
    own; the checks on fixed inputs and the formal-reality sweep follow.
    """
    _check_sampling(dims, trials_per_dim, seed, tol)
    worst = _WorstByCheck()
    min_table_cell = np.inf
    lowest_cells = []  # (dim, the least cell over all states of each question pair)
    for dim in dims:
        a, b = _sampled_questions(dim, trials_per_dim, seed)
        rho = _sampled_states(dim, trials_per_dim, seed)
        lowest = hilbert._blockwise(lambda *pair: hilbert._least_eigenvalues(
            np.stack(_marginal_products(worst, *pair), axis=-3)), a, b)
        lowest_cells.append((dim, np.concatenate(lowest)))
        for block in hilbert._blocks(trials_per_dim, dim, _SUITE_BLOCK_ENTRIES):
            min_table_cell = _triple_checks(worst, rho[block], a[block], b[block], min_table_cell)
        del rho, b  # before the products draw theirs
        _dimension_products(worst, seed, a)
        del a  # before the next dimension draws its own
    results = logic_suite()
    results += _hilbert_results(worst, min_table_cell, lowest_cells, dims, trials_per_dim,
                                seed, tol)
    reality = jordan_sweep_report(dims, max(100, trials_per_dim), seed, tol)
    return results + _jordan_results(worst, dims, trials_per_dim, tol, reality)
