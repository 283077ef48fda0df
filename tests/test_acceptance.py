"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances and runtime budgets are pinned here and nowhere
else; a red criterion is a defect, not a tuning knob.
"""

import itertools
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import sampled_triples, seeded_commuting_triple, seeded_projector, seeded_state
from quasilogic import hilbert, jordan, logic, survey, verify

SWEEP_DIMS = (2, 3, 4, 5, 6, 7, 8)
SWEEP_TRIALS_PER_DIM = 100
SWEEP_SEED = 42


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Shared seeded sweep over the (state, question, question) triples of ``verify``.

    Collects every residual that criteria 3 and 4 need, plus the elapsed
    wall time for the runtime budget.
    """
    start = time.perf_counter()
    gaps = {
        "method": 0.0,        # |operational - algebraic|
        "re_trace": 0.0,      # |joint - Re Tr(rho A B)|
        "joint_swap": 0.0,    # |joint(A,B) - joint(B,A)|
        "xor_swap": 0.0,      # |xor(A,B) - xor(B,A)|
        "xor_operator": 0.0,  # ||A B̄ A + Ā B Ā - (A + B - AB - BA)||
    }
    count = 0
    for _, rho, a, b in sampled_triples(SWEEP_DIMS, SWEEP_TRIALS_PER_DIM, SWEEP_SEED):
        operational = hilbert.logical_joint(rho, a, b, "operational")
        algebraic = hilbert.logical_joint(rho, a, b, "jordan")
        re_trace = float(np.trace(rho.matrix @ a.matrix @ b.matrix).real)
        gaps["method"] = max(gaps["method"], abs(operational - algebraic))
        gaps["re_trace"] = max(
            gaps["re_trace"], abs(operational - re_trace), abs(algebraic - re_trace)
        )
        gaps["joint_swap"] = max(
            gaps["joint_swap"],
            abs(operational - hilbert.logical_joint(rho, b, a, "operational")),
        )
        gaps["xor_swap"] = max(
            gaps["xor_swap"],
            abs(
                hilbert.xor_expectation(rho, a, b, "operational")
                - hilbert.xor_expectation(rho, b, a, "operational")
            ),
        )
        _, expansion_ab, expansion_ba = jordan.xor_symmetry_residuals(a, b)
        gaps["xor_operator"] = max(gaps["xor_operator"], expansion_ab, expansion_ba)
        count += 1
    elapsed = time.perf_counter() - start
    return gaps, count, elapsed


def test_criterion_01_value_tables_exact():
    start = time.perf_counter()
    conjunction = {
        (r.a, r.b_alone, r.b_after): v for r, v in logic.truth_table("conjunction")
    }
    disjunction = {
        (r.a, r.b_alone, r.b_after): v for r, v in logic.truth_table("inclusive_or")
    }
    exact = (
        conjunction == logic.CONJUNCTION_REFERENCE
        and disjunction == logic.INCLUSIVE_OR_REFERENCE
    )
    elapsed = time.perf_counter() - start
    verdict(
        1,
        exact and elapsed < 1.0,
        f"16 table entries exact-match the frozen reference in {elapsed:.3f}s",
    )


def test_criterion_02_value_identities_exact():
    start = time.perf_counter()
    failures = 0
    for r in logic.ALL_RECORDS:
        a, b = F(r.a), F(r.b_alone)
        conj = logic.conjunction_value(r)
        flipped = logic.CounterfactualRecord(r.a, 1 - r.b_alone, 1 - r.b_after)
        failures += conj + logic.conjunction_value(flipped) != a          # marginality
        failures += logic.xor_value(r) + 2 * conj != a + b                # balance
        failures += logic.or_value(r) != a + b - conj                     # disjunction def
        failures += logic.or_value(r) != logic.xor_value(r) + conj        # sum rule
    pair_failures = sum(
        not logic.identity_suite(r_ab, r_ba).order_swap_antisymmetry
        for r_ab, r_ba in itertools.product(logic.ALL_RECORDS, repeat=2)
    )
    elapsed = time.perf_counter() - start
    verdict(
        2,
        failures == 0 and pair_failures == 0 and elapsed < 1.0,
        f"8-record identities and 64-pair order-swap identity exact in {elapsed:.3f}s",
    )


def test_criterion_03_operational_algebraic_equivalence(sweep):
    gaps, count, elapsed = sweep
    ok = gaps["method"] <= 1e-10 and gaps["re_trace"] <= 1e-10 and elapsed < 10.0
    verdict(
        3,
        ok,
        f"{count} triples over dims {SWEEP_DIMS}: max method gap {gaps['method']:.2e}, "
        f"max Re-trace gap {gaps['re_trace']:.2e}, sweep {elapsed:.1f}s",
    )


def test_criterion_04_connective_commutativity(sweep):
    gaps, count, _ = sweep
    ok = (
        gaps["joint_swap"] <= 1e-10
        and gaps["xor_swap"] <= 1e-10
        and gaps["xor_operator"] <= 1e-10
    )
    verdict(
        4,
        ok,
        f"{count} triples: joint swap {gaps['joint_swap']:.2e}, xor swap "
        f"{gaps['xor_swap']:.2e}, operator expansion {gaps['xor_operator']:.2e}",
    )


def test_criterion_05_negativity_witness(tilted_example):
    rho, a, b = tilted_example
    joint = hilbert.logical_joint(rho, a, b, "operational")
    wv = hilbert.weak_value(rho, a, b)
    # the exact minimum over all states of verify's sampled question pairs at d = 2
    questions_a, questions_b = verify._sampled_questions(2, SWEEP_TRIALS_PER_DIM, SWEEP_SEED)
    floor = float(hilbert.min_cells_over_states(questions_a, questions_b).min())
    ok = (
        abs(joint - (-0.1)) <= 1e-12
        and abs(wv.real - (-0.5)) <= 1e-12
        and -1 / 8 - 1e-12 <= floor <= -0.09
    )
    verdict(
        5,
        ok,
        f"fixed example joint {joint:.12f}, weak value {wv.real:.12f}; lowest cell over "
        f"all states {floor:.4f} over {SWEEP_TRIALS_PER_DIM} question pairs at d=2",
    )


def test_criterion_06_classical_baseline():
    min_cell = np.inf
    for trial in range(1000):
        dim = 2 + trial % 4
        rho, a, b = seeded_commuting_triple(dim, SWEEP_SEED + 17 * trial)
        value, _ = hilbert.quasi_prob_table(rho, a, b, "jordan").min_cell()
        min_cell = min(min_cell, value)
    verdict(
        6,
        min_cell >= -1e-12,
        f"10^3 commuting triples: minimum cell {min_cell:.3e} >= -1e-12",
    )


def test_criterion_07_formal_reality():
    # the sweep of jordan-verify; test_jordan pins it to the per-pair probe loop
    reality = verify.jordan_sweep_report(SWEEP_DIMS, 1000, SWEEP_SEED)
    verdict(
        7,
        reality.violations == 0 and reality.min_ratio > 1.0,
        f"7x10^3 Hermitian pairs: zero violations, min residual/floor ratio "
        f"{reality.min_ratio:.2f}",
    )


def test_criterion_08_survey_synthetic_exact(data_dir):
    table = survey.load_counts(str(data_dir / "synthetic_n100.csv"))
    logical_ab, logical_ba = survey.reconstruct_logical_joint(table)
    xor_ab, xor_ba = survey.xor_estimates(table)
    p_ab, p_ba = survey.sequential_probs(table)
    marginal_sum = (p_ab[(1, 0)] + p_ab[(1, 1)]) + (p_ba[(1, 0)] + p_ba[(1, 1)])
    ok = (
        logical_ab[(1, 1)] == F(2, 5)
        and logical_ba[(1, 1)] == F(9, 20)
        and xor_ab == F(3, 10)
        and xor_ba == F(1, 5)
        and xor_ab + 2 * logical_ab[(1, 1)] == marginal_sum
        and xor_ba + 2 * logical_ba[(1, 1)] == marginal_sum
    )
    verdict(
        8,
        ok,
        "synthetic N=100: joints 2/5 and 9/20, xors 3/10 and 1/5, balance exact",
    )


def test_criterion_09_survey_clinton_gore(data_dir):
    start = time.perf_counter()
    table = survey.load_counts(str(data_dir / "clinton_gore_1997.csv"))
    report = survey.classicality_report(table, iterations=10_000, seed=SWEEP_SEED)
    elapsed = time.perf_counter() - start

    order_effect = report.order_p_value < 0.05
    gaps_small = all(
        report.order_invariance_gap[cell]
        <= report.bootstrap_intervals["order_difference"][cell][1]
        - report.bootstrap_intervals["order_difference"][cell][0]
        for cell in survey.CELLS
    )
    negative_cells = report.logical_ab[(1, 0)] < 0 and report.logical_ba[(1, 0)] < 0
    not_significant = (
        report.bootstrap_intervals["logical_ab"][(1, 0)][0] < 0
        < report.bootstrap_intervals["logical_ab"][(1, 0)][1]
        and report.bootstrap_intervals["logical_ba"][(1, 0)][0] < 0
        < report.bootstrap_intervals["logical_ba"][(1, 0)][1]
        and not any(report.classicality_flags_ab.values())
        and not any(report.classicality_flags_ba.values())
    )
    ok = order_effect and gaps_small and negative_cells and not_significant and elapsed < 30.0
    verdict(
        9,
        ok,
        f"order-effect p={report.order_p_value:.4f}, qq p={report.qq_p_value:.3f}, "
        f"(1,0) cells {report.logical_ab[(1, 0)]:.4f}/{report.logical_ba[(1, 0)]:.4f} "
        f"with CIs spanning 0, {elapsed:.1f}s at 10^4 iterations",
    )


def test_criterion_10_model_round_trip():
    max_gap = 0.0
    for trial in range(25):
        rho = seeded_state(2, "pure" if trial % 2 == 0 else "mixed", SWEEP_SEED + 101 * trial)
        a = seeded_projector(2, 1, SWEEP_SEED + 101 * trial + 1)
        b = seeded_projector(2, 1, SWEEP_SEED + 101 * trial + 2)
        p_ab, p_ba = hilbert.model_sequential_probabilities(rho, a, b)
        logical_ab, logical_ba = survey.logical_tables_from_probs(p_ab, p_ba)
        ops_a = {1: a, 0: hilbert.complement_projector(a)}
        ops_b = {1: b, 0: hilbert.complement_projector(b)}
        for cell in survey.CELLS:
            model = hilbert.logical_joint(rho, ops_a[cell[0]], ops_b[cell[1]])
            max_gap = max(
                max_gap, abs(logical_ab[cell] - model), abs(logical_ba[cell] - model)
            )
    verdict(
        10,
        max_gap <= 1e-10,
        f"25 seeded d=2 models through the survey pipeline: max gap {max_gap:.2e}",
    )
