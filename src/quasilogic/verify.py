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

# Each suite draws its samples at dimension d from one stream, default_rng([seed, suite, d]).
_QUESTIONS, _STATES, _PRODUCTS, _SWEEP, _CLASSICAL, _ROUND_TRIP = range(6)


def _stream(seed: int, suite: int, dim: int) -> np.random.Generator:
    return np.random.default_rng([seed, suite, dim])


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


def _largest(*residuals: float | np.ndarray) -> float:
    """Largest of residuals and residual stacks (0 when all are empty)."""
    return max(float(np.max(r, initial=0.0)) for r in residuals)


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
    so that a caller running :func:`jordan_suite` too samples them once.
    """
    results: list[CheckResult] = []

    max_method_gap = 0.0
    max_kd_gap = 0.0
    max_joint_swap = 0.0
    max_xor_method_gap = 0.0
    max_xor_swap = 0.0
    max_xor_operator = 0.0
    max_marginality = 0.0
    max_repeat = 0.0
    min_table_cell = np.inf
    question_pairs = []
    count = 0
    for dim, rho, a, b in _sampled_stacks(dims, trials_per_dim, seed, questions):
        count += len(rho)
        question_pairs.append((dim, a, b))
        operational = hilbert.logical_joints(rho, a, b, "operational")
        algebraic = hilbert.logical_joints(rho, a, b, "jordan")
        kd_real = np.trace(rho @ a @ b, axis1=1, axis2=2).real
        max_method_gap = _largest(max_method_gap, np.abs(operational - algebraic))
        max_kd_gap = _largest(
            max_kd_gap, np.abs(operational - kd_real), np.abs(algebraic - kd_real)
        )
        max_joint_swap = _largest(
            max_joint_swap, np.abs(operational - hilbert.logical_joints(rho, b, a, "operational"))
        )
        xor_op = hilbert.xor_expectations(rho, a, b, "operational")
        # the suite measures the operator residual itself (below); disable the
        # op-level contract check so impossible tolerances report, not crash
        xor_mapped = hilbert.xor_expectations(rho, a, b, "mapped_operator", tol=np.inf)
        max_xor_method_gap = _largest(max_xor_method_gap, np.abs(xor_op - xor_mapped))
        max_xor_swap = _largest(
            max_xor_swap, np.abs(xor_op - hilbert.xor_expectations(rho, b, a, "operational"))
        )
        swap, expansion_ab, _ = jordan._xor_symmetry_defects(a, b)
        max_xor_operator = max(max_xor_operator, _worst_norm(expansion_ab), _worst_norm(swap))
        cells, pa, pb = hilbert.quasi_prob_tables(rho, a, b, "jordan", tol=np.inf)
        marginality = hilbert.table_marginality_residuals(cells, pa, pb)
        # total, row a=1 and column b=1
        max_marginality = _largest(max_marginality, marginality[:, [0, 1, 3]])
        min_table_cell = min(min_table_cell, float(np.min(cells, initial=np.inf)))
        max_repeat = _largest(
            max_repeat, np.abs(hilbert.sequential_probabilities(rho, a, a) - pa)
        )

    detail = f"{count} triples over dims {dims}"
    results.append(_residual("hilbert.joint_operational_vs_algebraic", max_method_gap, tol, detail))
    results.append(_residual("hilbert.joint_equals_re_trace", max_kd_gap, tol, detail))
    results.append(_residual("hilbert.joint_order_symmetry", max_joint_swap, tol, detail))
    results.append(_residual("hilbert.xor_operational_vs_mapped", max_xor_method_gap, tol, detail))
    results.append(_residual("hilbert.xor_order_symmetry", max_xor_swap, tol, detail))
    results.append(_residual("hilbert.xor_operator_expansion", max_xor_operator, tol, detail))
    results.append(_residual("hilbert.table_marginality", max_marginality, tol, detail))
    # Jordan's two-subspace lemma: no cell of any table is below -1/8
    results.append(_residual(
        "hilbert.quasi_prob_floor", max(0.0, -1 / 8 - min_table_cell), tol,
        f"{detail}, min cell {min_table_cell:.6f}",
    ))
    results.append(_residual("hilbert.repeated_question", max_repeat, tol, detail))

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
    min_cell = np.inf
    for dim in range(2, 6):
        n = len(range(dim - 2, _CLASSICAL_TRIALS, 4))
        triples = hilbert.sample_commuting_triples(dim, n, _stream(seed, _CLASSICAL, dim))
        cells, _, _ = hilbert.quasi_prob_tables(*triples, "jordan")
        min_cell = min(min_cell, float(cells.min()))
    results.append(_residual(
        "hilbert.classical_triples_nonnegative",
        max(0.0, -float(min_cell)),
        1e-12,
        f"{_CLASSICAL_TRIALS} commuting triples, min cell {min_cell:.3e}",
    ))

    results.append(_negativity_floor(question_pairs, dims, tol))

    # survey round trip: model probabilities reconstruct the model's joints;
    # one stream gives the 20 states (pure for even t), then the A and the B questions
    rng = _stream(seed, _ROUND_TRIP, 2)
    states = hilbert.sample_states(2, ["pure" if t % 2 == 0 else "mixed" for t in range(20)], rng)
    questions_a = hilbert.sample_projectors(2, [1] * 20, rng)
    questions_b = hilbert.sample_projectors(2, [1] * 20, rng)
    joints, _, _ = hilbert.quasi_prob_tables(
        states, questions_a, questions_b, "operational", tol=np.inf
    )
    max_roundtrip = 0.0
    for rho_m, a_m, b_m, model in zip(states, questions_a, questions_b, joints.tolist()):
        p_ab, p_ba = hilbert.model_sequential_probabilities(
            hilbert.DensityState(rho_m), hilbert.Projector(a_m), hilbert.Projector(b_m)
        )
        logical_ab, logical_ba = survey.logical_tables_from_probs(p_ab, p_ba)
        for cell, value in zip(reversed(survey.CELLS), model):
            max_roundtrip = max(
                max_roundtrip,
                abs(logical_ab[cell] - value),
                abs(logical_ba[cell] - value),
            )
    results.append(_residual("hilbert.survey_round_trip", max_roundtrip, tol, "20 seeded models at d=2"))

    return results


def _negativity_floor(question_pairs, dims: tuple[int, ...], tol: float) -> CheckResult:
    """``hilbert.negativity_search_floor``: how far the exact minimum over all states of
    any pair's cells lies below -1/8, and that pair's dimension, index and cell."""
    floor, at, count = np.inf, "", 0
    for dim, a, b in question_pairs:
        count += len(a)
        lowest = hilbert.min_cells_over_states(a, b)
        pair, cell = divmod(int(lowest.argmin()), 4)
        if lowest[pair, cell] < floor:
            floor = float(lowest[pair, cell])
            at = f"d={dim}, pair {pair}, cell {hilbert._TABLE_CELLS[cell]}"
    return _residual(
        "hilbert.negativity_search_floor", max(0.0, -1 / 8 - floor), tol,
        f"{count} question pairs over dims {dims}, min cell over states {floor:.6f} at {at}",
    )


# ---------------------------------------------------------------------------
# jordan suite


@dataclass(frozen=True)
class FormalRealitySweep:
    """Formal-reality probes over several dimensions, from one stacked pass each."""

    trials_per_dim: int
    records: list[dict]  # one JSON record per dimension
    min_ratio: float     # smallest residual / (0.01 max(||x||², ||y||²)) over all pairs
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
    x of pair t + 1; the pairs are probed in one stacked call, norming each
    matrix once.
    """
    records = []
    min_ratio = np.inf
    violations = 0
    for dim in dims:
        matrices = hilbert.sample_hermitians(dim, trials_per_dim + 1, _stream(seed, _SWEEP, dim))
        norms = hilbert.operator_norm(matrices)
        residual, scale = jordan.formal_reality_residuals(
            matrices[:-1], matrices[1:], tol, norms=(norms[:-1], norms[1:]))
        violated = (residual <= tol) & (scale > tol)
        violations += int(violated.sum())
        # Python float powers, so each floor equals the scalar 0.01 * max(||x||**2, ||y||**2)
        min_ratio = min([min_ratio] + [
            r / (0.01 * s**2) for r, s in zip(residual.tolist(), scale.tolist())
        ])
        records.append({
            "dim": dim,
            "trials": trials_per_dim,
            "seed": seed,
            "max_residual": _largest(residual),
            "min_residual": float(np.min(residual, initial=np.inf)),
            "verdict": "violated" if violated.any() else "consistent",
        })
    return FormalRealitySweep(trials_per_dim, records, min_ratio, violations)


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
    results: list[CheckResult] = []

    max_commute = 0.0
    max_hermitian = 0.0
    max_marginality = 0.0
    max_power = 0.0
    max_idem = 0.0
    max_xor = 0.0
    count = 0
    for dim in dims:
        a, b = _questions(dim, trials_per_dim, seed, questions)
        count += len(a)
        # the products stream of the dimension gives every x, then every y
        rng = _stream(seed, _PRODUCTS, dim)
        x = hilbert.sample_hermitians(dim, len(a), rng)
        y = hilbert.sample_hermitians(dim, len(a), rng)
        xy = jordan.jordan_product(x, y)
        max_commute = max(max_commute, _worst_norm(xy - jordan.jordan_product(y, x)))
        max_hermitian = max(max_hermitian, _worst_norm(xy - xy.conj().transpose(0, 2, 1)))
        xx = jordan.jordan_product(x, x)
        max_power = max(max_power, _worst_norm(
            jordan.jordan_product(xx, x) - jordan.jordan_product(x, xx)))

        identity = np.eye(dim)
        ab = jordan.mapped_conjunction(a, b)
        max_marginality = max(
            max_marginality,
            _worst_norm(ab + jordan.mapped_conjunction(a, identity - b) - a),
            _worst_norm(ab + jordan.mapped_conjunction(identity - a, b) - b),
        )
        max_idem = max(max_idem, *map(_worst_norm, jordan._idempotency_defects(a, tol)))
        max_xor = max(max_xor, *map(_worst_norm, jordan._xor_symmetry_defects(a, b)))

    detail = f"{count} samples over dims {dims}"
    results.append(_residual("jordan.product_commutativity", max_commute, tol, detail))
    results.append(_residual("jordan.product_hermiticity", max_hermitian, tol, detail))
    results.append(_residual("jordan.operator_marginality", max_marginality, tol, detail))
    results.append(_residual("jordan.power_associativity", max_power, tol, detail))
    results.append(_residual("jordan.idempotency_transfer", max_idem, tol, detail))
    results.append(_residual("jordan.xor_operator_symmetry", max_xor, tol, detail))

    results.append(_exact(
        "jordan.formal_reality",
        reality.violations == 0 and reality.min_ratio > 1.0,
        f"{reality.trials_per_dim} pairs per dim, min residual ratio {reality.min_ratio:.3f}",
    ))
    return results


def run_all(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    trials_per_dim: int = 100,
    seed: int = 42,
    tol: float = hilbert.DEFAULT_TOL,
) -> list[CheckResult]:
    """Every invariant suite in one flat list; the questions are sampled once for both suites."""
    questions = {dim: _sampled_questions(dim, trials_per_dim, seed) for dim in dims}
    results = logic_suite()
    results += hilbert_suite(dims, trials_per_dim, seed, tol, questions=questions)
    reality = jordan_sweep_report(dims, max(100, trials_per_dim), seed, tol)
    results += jordan_suite(dims, trials_per_dim, seed, tol, reality=reality, questions=questions)
    return results
