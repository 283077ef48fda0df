"""NaN negative controls: every sampled verify check fails when the kernel output it reads is NaN.

Each control swaps one kernel for a NaN-returning copy in the namespace ``verify``
calls it through, so only that call sees NaN; the check must then fail as a
violation, and the command must exit 1 with nothing on stderr (no traceback).
The sampled suites' input boundary is checked at the end.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from quasilogic import cli, verify
from quasilogic.errors import BadDimensionError, QuasilogicError, TooFewTrialsError

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
def test_sampled_suites_accept_one_trial(suite):
    assert SAMPLED_SUITES[suite]((2,), 1)
