"""NaN negative controls: every sampled verify check fails when the kernel output it reads is NaN.

Each control swaps one kernel for a NaN-returning copy in the namespace ``verify``
calls it through, so only that call sees NaN; the check must then fail as a
violation, and the command must exit 1 with nothing on stderr (no traceback).  A
Jordan-product check's control runs on both commands, since ``verify`` reads some of
its products off its Hilbert checks', through the fold helpers ``jordan-verify`` calls.
Perturbation controls make a kernel or the cell order slightly wrong and name the checks
that must fail; a command they do not reach must still pass.  The sampled suites' input
boundary, their working memory and the bits of their block cuts are checked at the end.
"""

import ast
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import traced_peak
from quasilogic import cli, hilbert, survey, verify
from quasilogic.errors import (BadDimensionError, BadSeedError, BadToleranceError, QuasilogicError,
                               TooFewTrialsError)

# checks on fixed inputs rather than samples; every other non-logic check needs a control
FIXED_INPUT_CHECKS = {
    "hilbert.example_negative_cell",
    "hilbert.example_weak_value",
    "hilbert.sequential_order_dependence",
    "hilbert.quasi_prob_floor_witness",
}

# check -> (layer verify calls, kernel, method argument the NaN is limited to, or None)
CONTROLS = {
    "hilbert.joint_operational_vs_algebraic": ("hilbert", "quasi_prob_tables", "jordan"),
    "hilbert.joint_equals_re_trace": ("hilbert", "quasi_prob_tables", "jordan"),
    "hilbert.joint_order_symmetry": ("hilbert", "_operational_joint", None),
    "hilbert.xor_operational_vs_mapped": ("hilbert", "_mapped_xor", None),
    "hilbert.xor_order_symmetry": ("hilbert", "sequential_probabilities", None),
    "hilbert.xor_operator_expansion": ("hilbert", "_mapped_xor", None),
    "hilbert.table_marginality": ("hilbert", "table_marginality_residuals", None),
    "hilbert.quasi_prob_floor": ("hilbert", "quasi_prob_tables", "jordan"),
    "hilbert.repeated_question": ("hilbert", "sequential_probabilities", None),
    "hilbert.classical_triples_nonnegative": ("hilbert", "quasi_prob_tables", "jordan"),
    "hilbert.negativity_search_floor": ("hilbert", "_least_eigenvalues", None),
    "hilbert.survey_round_trip": ("survey", "logical_tables_from_probs", None),
    "jordan.product_commutativity": ("hilbert", "_symmetrised", None),
    "jordan.product_hermiticity": ("hilbert", "_symmetrised", None),
    "jordan.operator_marginality": ("hilbert", "_cell_products", None),
    "jordan.power_associativity": ("hilbert", "_symmetrised", None),
    "jordan.idempotency_transfer": ("jordan", "_idempotency_defects", None),
    "jordan.xor_operator_symmetry": ("jordan", "_xor_symmetry_defects", None),
    "jordan.formal_reality": ("jordan", "_formal_reality_sums", None),
}


def nan_like(out):
    """``out`` as NaN: an array of NaN, a dict of NaN values, or a tuple whose first member is.
    A list of arrays, such as the four cell products, becomes one array of NaN."""
    if isinstance(out, tuple):
        return (nan_like(out[0]), *out[1:])
    if isinstance(out, dict):
        return {key: math.nan for key in out}
    return np.full_like(out, np.nan)


def patch_nan(monkeypatch, layer, kernel, method=None):
    """Make ``verify``'s calls of ``layer.kernel`` (with ``method`` among the arguments) NaN."""
    module = getattr(verify, layer)
    real = getattr(module, kernel)

    def nan_kernel(*args, **kwargs):
        # a NaN output fed back in, as x∘x is to (x∘x)∘x, reaches the real kernel as zeros
        out = real(*(np.nan_to_num(a) if isinstance(a, np.ndarray) else a for a in args), **kwargs)
        if method is None or any(isinstance(arg, str) and arg == method for arg in args):
            return nan_like(out)
        return out

    monkeypatch.setattr(verify, layer, SimpleNamespace(**{**vars(module), kernel: nan_kernel}))


def json_run(capsys, command, *options):
    code = cli.main([command, "--format", "json", *options])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def assert_nan_control_fails(monkeypatch, capsys, command, check, control):
    patch_nan(monkeypatch, *control)
    code, report, err = json_run(capsys, command, "--dim", "2,3", "--trials", "4")
    assert (code, err) == (1, "")
    result = {c["name"]: c for c in report["checks"]}[check]
    assert not result["passed"] and result["failure_kind"] == "violation"
    # an _exact check fails at inf; every toleranced one carries the NaN itself
    assert math.isnan(result["residual"]) or result["residual"] == math.inf


@pytest.mark.parametrize("check", CONTROLS)
def test_nan_kernel_output_fails_the_check_as_a_violation(monkeypatch, capsys, check):
    command = "verify" if check.startswith("hilbert.") else "jordan-verify"
    assert_nan_control_fails(monkeypatch, capsys, command, check, CONTROLS[check])


@pytest.mark.parametrize("check", [check for check in CONTROLS if check.startswith("jordan.")])
def test_nan_kernel_output_fails_the_jordan_check_on_verify_too(monkeypatch, capsys, check):
    """A product that verify shares between its Hilbert and Jordan checks hides no NaN."""
    assert_nan_control_fails(monkeypatch, capsys, "verify", check, CONTROLS[check])


@pytest.mark.parametrize("check", ["jordan.operator_marginality", "jordan.xor_operator_symmetry"])
def test_both_commands_fold_a_question_pair_check_in_one_helper(monkeypatch, capsys, check):
    """verify and jordan-verify fold each Jordan check on question pairs in the same function,
    so a defect in the products fails both: at 0.30.0 each command had its own fold, and
    jordan-verify passed two PERTURBATIONS rows that failed verify's marginality."""
    folds = {}
    add = verify._WorstByCheck.add

    def recording_add(self, name, *residuals):
        if name == check:
            folds.setdefault(command, set()).add(sys._getframe(1).f_code)
        add(self, name, *residuals)

    monkeypatch.setattr(verify._WorstByCheck, "add", recording_add)
    for command in ("verify", "jordan-verify"):
        code, _, err = json_run(capsys, command, "--dim", "2,3", "--trials", "4")
        assert (code, err) == (0, "")
    assert len(folds["verify"]) == 1 and folds["verify"] == folds["jordan-verify"]


def test_nan_sweep_residual_makes_its_dimension_violated(monkeypatch, capsys):
    patch_nan(monkeypatch, "jordan", "_formal_reality_sums")
    sweep = verify.jordan_sweep_report((2, 3), 10)
    assert [record["verdict"] for record in sweep.records] == ["violated", "violated"]
    assert all(math.isnan(record["max_residual"]) for record in sweep.records)
    assert sweep.violations == 20 and math.isnan(sweep.min_ratio)
    code, report, err = json_run(capsys, "jordan-verify", "--dim", "2,3", "--trials", "10")
    assert (code, err) == (1, "")
    assert {record["verdict"] for record in report["formal_reality_sweep"]} == {"violated"}
    assert report["checks"][-1]["name"] == "jordan.formal_reality"
    assert report["checks"][-1]["failure_kind"] == "violation"


def test_nan_sweep_residual_fails_bounded_dimensions_too(monkeypatch):
    """At d = 5 and 8 with 600 pairs the sweep bounds its sums before it solves any."""
    patch_nan(monkeypatch, "jordan", "_formal_reality_sums")
    sweep = verify.jordan_sweep_report((5, 8), 600)
    assert [record["verdict"] for record in sweep.records] == ["violated", "violated"]
    assert sweep.violations == 1200 and math.isnan(sweep.min_ratio)


def test_every_sampled_check_has_a_nan_control(capsys):
    """A sampled check added to either command fails here until CONTROLS covers it."""
    names = set()
    for command in ("verify", "jordan-verify"):
        code, report, _ = json_run(capsys, command)
        assert code == 0
        names |= {check["name"] for check in report["checks"]}
    assert FIXED_INPUT_CHECKS <= names
    assert {name for name in names if not name.startswith("logic.")} - FIXED_INPUT_CHECKS \
        == set(CONTROLS)


def product_without_unit(real):
    """x⋆y = x∘y + 10⁻³(D(x)∘y + x∘D(y)), with D(x) = i[K, x] and K = diag(0, 1, …, d − 1):
    bilinear, commutative and Hermitian, but I⋆y ≠ y."""
    def derivation(x):
        k = np.arange(x.shape[-1])
        return 1j * (k[:, None] * x - x * k)

    return lambda x, y: real(x, y) + 1e-3 * (real(derivation(x), y) + real(x, derivation(y)))


# Perturbation controls: name -> (patches, each a module, a name bound in it and its perturbed
# copy from the real one; and the checks of each command that must then fail).  A defect must
# exit 1 naming them, never 2 or 0; a command the row does not name must still exit 0.
PERTURBATIONS = {
    "product_scaled_by_1.001": (
        [(hilbert, "_symmetrised", lambda real: lambda a, b: 1.001 * real(a, b))], {
            "verify": {"hilbert.table_marginality"},
            "jordan-verify": {"jordan.operator_marginality"},
        }),
    "product_returns_nan": (
        [(hilbert, "_symmetrised", lambda real: lambda a, b: np.full_like(real(a, b), np.nan))], {
            "verify": {"hilbert.table_marginality", "jordan.product_commutativity"},
            "jordan-verify": {"jordan.product_commutativity"},
        }),
    "product_without_unit": ([(hilbert, "_symmetrised", product_without_unit)], {
        "verify": {"hilbert.joint_equals_re_trace", "hilbert.joint_operational_vs_algebraic",
                   "hilbert.negativity_search_floor", "hilbert.quasi_prob_floor_witness",
                   "hilbert.table_marginality", "jordan.operator_marginality"},
        "jordan-verify": {"jordan.operator_marginality"},
    }),
    "mapped_xor_returns_nan": (
        [(hilbert, "_mapped_xor", lambda real: lambda a, b: np.full_like(real(a, b), np.nan))], {
            "verify": {"hilbert.xor_operational_vs_mapped", "hilbert.xor_operator_expansion",
                       "jordan.xor_operator_symmetry"},
            "jordan-verify": {"jordan.xor_operator_symmetry"},
        }),
    "xor_expansion_with_one_sign_flipped": (
        [(hilbert, "_xor_expansion", lambda real: lambda a, b: a + b - a @ b + b @ a)], {
            "verify": {"hilbert.xor_operator_expansion", "jordan.xor_operator_symmetry"},
            "jordan-verify": {"jordan.xor_operator_symmetry"},
        }),
    "complement_scaled_by_1.001": (
        [(hilbert, "_answers", lambda real: lambda p: {1: p, 0: np.eye(p.shape[-1]) - 1.001 * p})], {
            "verify": {"hilbert.joint_operational_vs_algebraic", "hilbert.table_marginality",
                       "jordan.operator_marginality", "jordan.xor_operator_symmetry"},
            "jordan-verify": {"jordan.operator_marginality", "jordan.xor_operator_symmetry"},
        }),
    "other_branch_scaled_by_1.001": (
        [(hilbert, "_operational_joint",
          lambda real: lambda sequential, other, born: real(sequential, 1.001 * other, born))], {
            "verify": {"hilbert.joint_operational_vs_algebraic", "hilbert.joint_equals_re_trace",
                       "hilbert.joint_order_symmetry", "hilbert.example_negative_cell",
                       "hilbert.sequential_order_dependence", "hilbert.survey_round_trip"},
        }),
    "yes_answer_shifted_by_1e-6": (
        [(hilbert, "_answers", lambda real: lambda p: {
            1: p + 1e-6 * np.eye(p.shape[-1]), 0: np.eye(p.shape[-1]) - p})], {
            "verify": {"hilbert.table_marginality", "hilbert.survey_round_trip",
                       "jordan.operator_marginality"},
            "jordan-verify": {"jordan.operator_marginality"},
        }),
    # hilbert and survey bind logic.CELLS by name, so the row rebinds it in both
    "cells_in_column_order": (
        [(module, "CELLS", lambda real: ((0, 0), (1, 0), (0, 1), (1, 1)))
         for module in (hilbert, survey)], {
            "verify": {"hilbert.table_marginality", "hilbert.survey_round_trip",
                       "jordan.operator_marginality"},
            "jordan-verify": {"jordan.operator_marginality"},
        }),
}


@pytest.mark.parametrize("command", ["verify", "jordan-verify"])
@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_perturbed_kernel_fails_its_named_checks(monkeypatch, capsys, perturbation, command):
    patches, must_fail = PERTURBATIONS[perturbation]
    for module, name, perturbed in patches:
        monkeypatch.setattr(module, name, perturbed(getattr(module, name)))
    code, report, err = json_run(capsys, command)
    failed = {check["name"] for check in report["checks"] if not check["passed"]}
    if command not in must_fail:
        assert (code, err, failed) == (0, "", set())
    else:
        assert (code, err) == (1, "")
        assert must_fail[command] <= failed


def test_no_module_binds_a_private_hilbert_name():
    """Every module reads hilbert's private kernels through the module, so that a patched
    kernel, as in PERTURBATIONS, reaches every caller."""
    bound = []
    for path in sorted(Path(hilbert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) in ((1, "hilbert"), (0, "quasilogic.hilbert"))):
                bound += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert bound == []


SAMPLED_SUITES = {
    "jordan_sweep_report": verify.jordan_sweep_report,
    "jordan_suite": lambda *args: verify.jordan_suite(
        *args, reality=verify.FormalRealitySweep(1, [], 200.0, 0)),
    "run_all": verify.run_all,
}


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
@pytest.mark.parametrize("dims, trials, error", [
    ((2,), 0, TooFewTrialsError),
    ((2,), -3, TooFewTrialsError),
    ((2,), True, TypeError),
    ((2,), 2.5, TypeError),
    ((2,), "10", TypeError),
    ((2,), None, TypeError),
    ((1,), 5, BadDimensionError),
    ((2, 65), 5, BadDimensionError),
    ((), 5, BadDimensionError),
    ((2.5,), 5, TypeError),
    (("3",), 5, TypeError),
    ((True,), 5, TypeError),
])
def test_sampled_suites_reject_bad_trials_and_dims_before_sampling(
        monkeypatch, suite, dims, trials, error):
    streams = []
    monkeypatch.setattr(verify, "_stream", lambda *args: streams.append(args))
    with pytest.raises(error) as exc:
        SAMPLED_SUITES[suite](dims, trials)
    assert streams == []
    if error is TypeError:
        assert ("trials_per_dim" if dims == (2,) else "dimension") in str(exc.value)
    else:
        assert isinstance(exc.value, QuasilogicError)


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
@pytest.mark.parametrize("seed, error", [
    (-1, BadSeedError),
    (True, TypeError),
    (2.5, TypeError),
    ("42", TypeError),
    (None, TypeError),
    (np.int64(7), TypeError),  # the sweep's records echo the seed into JSON
])
def test_sampled_suites_reject_a_bad_seed_before_sampling(monkeypatch, suite, seed, error):
    streams = []
    monkeypatch.setattr(verify, "_stream", lambda *args: streams.append(args))
    with pytest.raises(error, match="seed") as exc:
        SAMPLED_SUITES[suite]((2,), 1, seed)
    assert streams == []
    assert error is TypeError or isinstance(exc.value, QuasilogicError)


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
@pytest.mark.parametrize("tol, error", [
    (0.0, BadToleranceError),
    (-1e-10, BadToleranceError),
    (math.nan, BadToleranceError),
    (math.inf, BadToleranceError),
    (True, TypeError),
    ("x", TypeError),
    (None, TypeError),
    (1e-10j, TypeError),
])
def test_sampled_suites_reject_a_bad_tol_before_sampling(monkeypatch, suite, tol, error):
    streams = []
    monkeypatch.setattr(verify, "_stream", lambda *args: streams.append(args))
    with pytest.raises(error, match="tol") as exc:
        SAMPLED_SUITES[suite]((2,), 1, 42, tol)
    assert streams == []
    assert error is TypeError or isinstance(exc.value, QuasilogicError)


@pytest.mark.parametrize("tol", [1, 1e-300, np.float64(1e-10)])
def test_sampled_suites_accept_a_positive_finite_tol(tol):
    assert verify.jordan_sweep_report((2,), 1, 42, tol).violations == 0


def test_jordan_suite_rejects_a_reality_that_is_not_a_sweep_before_sampling(monkeypatch):
    streams = []
    monkeypatch.setattr(verify, "_stream", lambda *args: streams.append(args))
    with pytest.raises(TypeError, match="reality"):
        verify.jordan_suite((2,), 3, 0, reality=None)
    assert streams == []


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
def test_sampled_suites_accept_one_trial(suite):
    assert SAMPLED_SUITES[suite]((2,), 1)


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
@pytest.mark.parametrize("one_shot", [iter, lambda dims: (d for d in dims), lambda dims: map(int, dims)],
                         ids=["iter", "generator", "map"])
def test_sampled_suites_reject_one_shot_dims_before_sampling(monkeypatch, suite, one_shot):
    """The argument check would spend a one-shot iterator, leaving the sweep empty (and
    ``jordan.formal_reality`` passed) or the suite a bare ``TypeError`` after its draws."""
    streams = []
    monkeypatch.setattr(verify, "_stream", lambda *args: streams.append(args))
    with pytest.raises(TypeError, match="dims must be a sequence, not a one-shot"):
        SAMPLED_SUITES[suite](one_shot((2, 3)), 5)
    assert streams == []


def test_sequence_dims_keep_their_detail_text():
    details = {r.name: r.detail for r in verify.run_all((2, 3), 5)}
    assert details["hilbert.joint_equals_re_trace"] == "10 triples over dims (2, 3)"
    assert details["jordan.product_commutativity"] == "10 samples over dims (2, 3)"
    assert verify.jordan_sweep_report([2, 3], 5) == verify.jordan_sweep_report((2, 3), 5)


@pytest.mark.parametrize("dims, trials, seed, tol", [
    ((2, 3, 4, 5, 6, 7, 8), 100, 42, hilbert.DEFAULT_TOL),
    ((2, 5, 9), 37, 7, 1e-10),
    ((3,), 1, 1, 1e-16),
])
def test_run_all_jordan_results_are_jordan_suites(dims, trials, seed, tol):
    """``run_all`` shares each dimension's questions with its Jordan-product checks, which
    read them as ``jordan_suite`` does, bit for bit."""
    reality = verify.jordan_sweep_report(dims, max(100, trials), seed, tol)
    alone = verify.jordan_suite(dims, trials, seed, tol, reality=reality)
    shared = [r for r in verify.run_all(dims, trials, seed, tol) if r.name.startswith("jordan.")]
    assert shared == alone


@pytest.mark.parametrize("dims", [(2, 3), (5, 2, 4)])
def test_run_all_checks_each_dimension_before_the_next_draws(monkeypatch, dims):
    """Each dimension's questions are drawn once, and its checks on sampled triples and
    then its Jordan-product checks read them, before the next dimension draws its own."""
    events = []
    questions = verify._sampled_questions
    monkeypatch.setattr(verify, "_sampled_questions", lambda dim, *args: (
        events.append(("draw", dim)) or questions(dim, *args)))
    for name in ("_triple_checks", "_product_checks"):
        checks = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda worst, *stacks, _name=name, _checks=checks: (
            events.append((_name, stacks[0].shape[-1])) or _checks(worst, *stacks)))
    verify.run_all(dims, 3)
    order = ("draw", "_triple_checks", "_product_checks")
    assert events == [(event, dim) for dim in dims for event in order]


FOLDED_DIMS = (2, 5, 3)


@pytest.fixture(scope="module")
def folded_runs():
    """``run_all`` over FOLDED_DIMS and over each of them alone, by check name."""
    def by_name(dims):
        return {r.name: r for r in verify.run_all(dims, 20, 3)}
    return by_name(FOLDED_DIMS), [by_name((dim,)) for dim in FOLDED_DIMS]


@pytest.mark.parametrize("check", sorted(CONTROLS.keys() | FIXED_INPUT_CHECKS))
def test_run_all_folds_each_check_over_its_dimensions(folded_runs, check):
    """Each dimension's draws depend on that dimension alone, so over several dimensions a
    check reads the worst residual of its runs at each one, and passes where all of them do."""
    together, alone = folded_runs
    assert together[check].residual == max(run[check].residual for run in alone)
    assert together[check].passed == all(run[check].passed for run in alone)


# ---------------------------------------------------------------------------
# working memory in units of U, the bytes of one sampled (n, d, d) complex stack;
# a tenth of U covers numpy's cast buffer, boolean masks and index lists


def stack_bytes(dim: int, members: int) -> int:
    return members * dim * dim * np.dtype(np.complex128).itemsize


def test_sampled_questions_peak_at_their_two_stacks_plus_one():
    """5 U at 0.17.0."""
    u = stack_bytes(32, 512)
    verify._sampled_questions(32, 2, 42)
    assert traced_peak(verify._sampled_questions, 32, 512, 42) <= 3.1 * u


def test_run_all_peaks_at_five_stacks():
    """One dimension's questions and x and y, half a stack more while y is drawn, and a
    block's temporaries: the states are dropped before x and y are drawn."""
    u = stack_bytes(32, 512)
    verify.run_all((32,), 2)
    assert traced_peak(verify.run_all, (32,), 512) <= 5.1 * u


def test_run_all_holds_one_dimension_at_a_time():
    """The stacks of d = 32 are dropped before those of d = 31 are drawn: 1.37 times the
    peak of d = 32 alone at 0.26.0, which drew every dimension's questions first."""
    verify.run_all((32,), 2)
    alone = traced_peak(verify.run_all, (32,), 512)
    assert traced_peak(verify.run_all, (32, 31), 512) <= 1.05 * alone


def test_jordan_suite_peaks_at_six_stacks():
    """Four sampled stacks (the questions, x and y), one more while y is drawn, and a block's
    temporaries; 13 U (208 MiB) at 0.17.0."""
    u = stack_bytes(32, 1024)
    reality = verify.FormalRealitySweep(1, [], 200.0, 0)
    verify.jordan_suite((32,), 2, reality=reality)
    assert traced_peak(lambda: verify.jordan_suite((32,), 1024, reality=reality)) <= 6.1 * u


def test_formal_reality_sweep_peaks_at_three_stacks():
    """The sampled matrices, their squares and the pair sums, as at 0.17.0."""
    u = stack_bytes(32, 513)  # trials + 1 sampled matrices
    verify.jordan_sweep_report((32,), 2)
    assert traced_peak(verify.jordan_sweep_report, (32,), 512) <= 3.1 * u


@pytest.mark.parametrize("seed", ["1", "42"])
@pytest.mark.parametrize("command", ["verify", "jordan-verify"])
def test_block_cuts_leave_the_output_unchanged(monkeypatch, capsys, command, seed):
    """Every check works memberwise, so cutting every sampled stack into blocks of a few
    members, in the suites and in hilbert's samplers and kernels, changes no bit."""
    whole = cli.main([command, "--format", "json", "--seed", seed]), capsys.readouterr()
    blocks = []
    for name in ("_triple_checks", "_product_checks"):
        checks = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda worst, *stacks, _checks=checks: (
            blocks.append(len(stacks[0])) or _checks(worst, *stacks)))
    monkeypatch.setattr(verify, "_SUITE_BLOCK_ENTRIES", 150)  # 37 members at d = 2, 2 at d = 8
    monkeypatch.setattr(hilbert, "_BLOCK_ENTRIES", 50)  # 12 members at d = 2, 1 at d = 8
    cut = cli.main([command, "--format", "json", "--seed", seed]), capsys.readouterr()
    assert cut == whole
    assert max(blocks) == 37 and blocks.count(2) >= 50
