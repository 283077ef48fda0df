"""NaN negative controls: every sampled verify check fails when the kernel output it reads is NaN.

Each control swaps one kernel for a NaN-returning copy in the namespace ``verify``
calls it through, so only that call sees NaN; the check must then fail as a
violation, and the command must exit 1 with nothing on stderr (no traceback).
Perturbation controls make a kernel slightly wrong and name the checks that must
fail.  The sampled suites' input boundary, their working memory and the bits of
their block cuts are checked at the end.
"""

import ast
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import traced_peak
from quasilogic import cli, hilbert, verify
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
    "hilbert.joint_operational_vs_algebraic": ("hilbert", "logical_joints", "jordan"),
    "hilbert.joint_equals_re_trace": ("hilbert", "logical_joints", "jordan"),
    "hilbert.joint_order_symmetry": ("hilbert", "logical_joints", "operational"),
    "hilbert.xor_operational_vs_mapped": ("hilbert", "xor_expectations", "mapped_operator"),
    "hilbert.xor_order_symmetry": ("hilbert", "xor_expectations", "operational"),
    "hilbert.xor_operator_expansion": ("jordan", "_xor_symmetry_defects", None),
    "hilbert.table_marginality": ("hilbert", "table_marginality_residuals", None),
    "hilbert.quasi_prob_floor": ("hilbert", "quasi_prob_tables", "jordan"),
    "hilbert.repeated_question": ("hilbert", "sequential_probabilities", None),
    "hilbert.classical_triples_nonnegative": ("hilbert", "quasi_prob_tables", "jordan"),
    "hilbert.negativity_search_floor": ("hilbert", "min_cells_over_states", None),
    "hilbert.survey_round_trip": ("survey", "logical_tables_from_probs", None),
    "jordan.product_commutativity": ("hilbert", "_symmetrised", None),
    "jordan.product_hermiticity": ("hilbert", "_symmetrised", None),
    "jordan.operator_marginality": ("hilbert", "_symmetrised", None),
    "jordan.power_associativity": ("hilbert", "_symmetrised", None),
    "jordan.idempotency_transfer": ("jordan", "_idempotency_defects", None),
    "jordan.xor_operator_symmetry": ("jordan", "_xor_symmetry_defects", None),
    "jordan.formal_reality": ("jordan", "_formal_reality_sums", None),
}


def nan_like(out):
    """``out`` as NaN: an array of NaN, a dict of NaN values, or a tuple whose first member is."""
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


@pytest.mark.parametrize("check", CONTROLS)
def test_nan_kernel_output_fails_the_check_as_a_violation(monkeypatch, capsys, check):
    patch_nan(monkeypatch, *CONTROLS[check])
    command = "verify" if check.startswith("hilbert.") else "jordan-verify"
    code, report, err = json_run(capsys, command, "--dim", "2,3", "--trials", "4")
    assert (code, err) == (1, "")
    result = {c["name"]: c for c in report["checks"]}[check]
    assert not result["passed"] and result["failure_kind"] == "violation"
    # an _exact check fails at inf; every toleranced one carries the NaN itself
    assert math.isnan(result["residual"]) or result["residual"] == math.inf


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


# Perturbation controls: name -> (hilbert kernel, its perturbed copy from the real one, and the
# checks of each command that must then fail).  A defect must exit 1 naming them, never 2 or 0.
PERTURBATIONS = {
    "product_scaled_by_1.001": ("_symmetrised", lambda real: lambda a, b: 1.001 * real(a, b), {
        "verify": {"hilbert.table_marginality"},
        "jordan-verify": {"jordan.operator_marginality"},
    }),
    "product_returns_nan": ("_symmetrised", lambda real: lambda a, b: np.full_like(real(a, b), np.nan), {
        "verify": {"hilbert.table_marginality", "jordan.product_commutativity"},
        "jordan-verify": {"jordan.product_commutativity"},
    }),
    "mapped_xor_returns_nan": ("_mapped_xor", lambda real: lambda a, b: np.full_like(real(a, b), np.nan), {
        "verify": {"hilbert.xor_operational_vs_mapped", "hilbert.xor_operator_expansion",
                   "jordan.xor_operator_symmetry"},
        "jordan-verify": {"jordan.xor_operator_symmetry"},
    }),
}


@pytest.mark.parametrize("command", ["verify", "jordan-verify"])
@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_perturbed_kernel_fails_its_named_checks(monkeypatch, capsys, perturbation, command):
    kernel, perturbed, must_fail = PERTURBATIONS[perturbation]
    monkeypatch.setattr(hilbert, kernel, perturbed(getattr(hilbert, kernel)))
    code, report, err = json_run(capsys, command)
    assert (code, err) == (1, "")
    assert must_fail[command] <= {check["name"] for check in report["checks"] if not check["passed"]}


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
    "hilbert_suite": verify.hilbert_suite,
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


@pytest.mark.parametrize("suite", ["hilbert_suite", "jordan_suite"])
def test_given_questions_must_hold_every_dimension(suite, monkeypatch):
    questions = {2: verify._sampled_questions(2, 3, 0)}
    reality = verify.FormalRealitySweep(1, [], 200.0, 0)
    kwargs = {"reality": reality} if suite == "jordan_suite" else {}
    streams = []
    monkeypatch.setattr(verify, "_stream", lambda *args: streams.append(args))
    with pytest.raises(BadDimensionError, match="dimension 2"):
        getattr(verify, suite)((2,), 3, 0, questions={}, **kwargs)
    assert streams == []
    monkeypatch.undo()
    with pytest.raises(BadDimensionError, match="dimension 3"):
        getattr(verify, suite)((2, 3), 3, 0, questions=questions, **kwargs)


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
def test_sampled_suites_accept_one_trial(suite):
    assert SAMPLED_SUITES[suite]((2,), 1)


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


def test_hilbert_suite_peaks_at_three_stacks_given_its_questions():
    """The states are one stack and each check's temporaries a block's; 7 U at 0.17.0."""
    u = stack_bytes(32, 512)
    questions = {32: verify._sampled_questions(32, 512, 42)}
    verify.hilbert_suite((32,), 2)
    assert traced_peak(lambda: verify.hilbert_suite((32,), 512, questions=questions)) <= 3.1 * u


def test_hilbert_suite_holds_one_dimension_at_a_time():
    """The stacks of d = 32 are dropped before those of d = 31 are drawn: 6.3 U at 0.18.0,
    against 3.8 U for d = 32 alone."""
    verify.hilbert_suite((32,), 2)
    alone = traced_peak(verify.hilbert_suite, (32,), 512)
    assert traced_peak(verify.hilbert_suite, (32, 31), 512) <= 1.05 * alone


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
