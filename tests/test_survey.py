"""Survey reconstruction tests.

Point-estimate expectations for the synthetic 100-per-order table were
computed by hand from the defining arithmetic and frozen here as exact
rationals.  Statistical routes are cross-checked against scipy's independent
implementations.
"""

import json
import warnings
from fractions import Fraction as F
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import chi2, chi2_contingency, norm

from conftest import seeded_projector, seeded_state
from quasilogic import hilbert, logic, survey
from quasilogic.errors import (
    BadConfidenceError,
    DuplicateCellError,
    LowExpectedCountWarning,
    MissingCellError,
    NegativeCountError,
    SchemaError,
    TooFewIterationsError,
)
from quasilogic.survey import CELLS, SequentialCountTable


def make_table(ab, ba, **kwargs) -> SequentialCountTable:
    """Counts given in CELLS order: (0,0), (0,1), (1,0), (1,1)."""
    return SequentialCountTable(
        counts_ab=dict(zip(CELLS, ab)), counts_ba=dict(zip(CELLS, ba)), **kwargs
    )


def test_one_cell_order_shared_by_all_layers():
    assert survey.CELLS is hilbert.CELLS is logic.CELLS
    assert [2 * first + second for first, second in CELLS] == [0, 1, 2, 3]


@pytest.fixture
def synthetic() -> SequentialCountTable:
    return make_table((30, 20, 10, 40), (35, 5, 15, 45))


@pytest.fixture
def clinton_gore(data_dir) -> SequentialCountTable:
    return survey.load_counts(str(data_dir / "clinton_gore_1997.csv"))


count_arrays = st.lists(st.integers(min_value=0, max_value=500), min_size=4, max_size=4)

# lines built from the schema's own tokens, so documents get past the header;
# runs of digits reach the csv module's field-size limit (131072 characters)
csv_fields = st.one_of(
    st.sampled_from(["AB", "BA", "0", "1", "-1", "", '"', "\x00", "1e3", "# label_a = Q"]),
    st.integers(min_value=-(10**25), max_value=10**25).map(str),
    st.integers(min_value=1, max_value=200_000).map(lambda n: "7" * n),
    st.text(max_size=4),
)
csv_rows = st.lists(csv_fields, min_size=1, max_size=5).map(",".join)
csv_documents = st.lists(csv_rows, max_size=10).map(
    lambda rows: "\n".join(["order,first,second,count", *rows]))


class TestParsing:
    def test_well_formed(self, synthetic):
        text = synthetic.to_csv()
        parsed = survey.parse_counts(text)
        assert parsed.counts_ab == synthetic.counts_ab
        assert parsed.counts_ba == synthetic.counts_ba

    def test_bundled_fixture_parses_with_labels(self, clinton_gore):
        assert clinton_gore.label_a == "Clinton"
        assert clinton_gore.label_b == "Gore"
        assert clinton_gore.n_ab == 501 and clinton_gore.n_ba == 501

    def test_missing_cell(self, synthetic):
        lines = synthetic.to_csv().strip().splitlines()
        without = [l for l in lines if not l.startswith("BA,1,0")]
        with pytest.raises(MissingCellError):
            survey.parse_counts("\n".join(without))

    def test_negative_count(self, synthetic):
        text = synthetic.to_csv().replace("AB,1,1,40", "AB,1,1,-3")
        with pytest.raises(NegativeCountError):
            survey.parse_counts(text)

    def test_duplicate_cell(self, synthetic):
        text = synthetic.to_csv() + "AB,1,1,40\n"
        with pytest.raises(DuplicateCellError):
            survey.parse_counts(text)

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            survey.parse_counts("a,b,c,d\nAB,0,0,1\n")

    def test_bad_order_token(self, synthetic):
        text = synthetic.to_csv().replace("AB,0,0,30", "XY,0,0,30")
        with pytest.raises(SchemaError):
            survey.parse_counts(text)

    def test_non_integer_count(self, synthetic):
        text = synthetic.to_csv().replace("AB,1,1,40", "AB,1,1,forty")
        with pytest.raises(SchemaError) as err:
            survey.parse_counts(text)
        assert "line" in str(err.value)

    def test_multi_outcome_rejected(self, synthetic):
        text = synthetic.to_csv().replace("AB,1,1,40", "AB,2,1,40")
        with pytest.raises(SchemaError):
            survey.parse_counts(text)

    def test_empty_document(self):
        with pytest.raises(SchemaError):
            survey.parse_counts("\n\n")

    @given(st.one_of(st.text(), csv_documents))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_schema_errors(self, text):
        try:
            survey.parse_counts(text)
        except SchemaError:
            pass

    def test_group_total_limit(self, synthetic):
        limit = survey.MAX_GROUP_TOTAL
        assert limit == 2**63 - 1
        at_limit = make_table((limit - 3, 1, 1, 1), (1, 1, 1, 1))
        assert at_limit.n_ab == limit
        lo, hi = bootstrap_intervals(at_limit, 100, seed=0)["logical_ab"][(0, 0)]
        assert lo <= hi
        with pytest.raises(SchemaError, match="exceeds the limit 9223372036854775807"):
            make_table((limit - 2, 1, 1, 1), (1, 1, 1, 1))
        # int64 counts whose sum would wrap around are still rejected
        with pytest.raises(SchemaError, match="exceeds the limit"):
            make_table((np.int64(2**62),) * 4, (1, 1, 1, 1))
        with pytest.raises(SchemaError, match="counts_ba: group total"):
            survey.parse_counts(synthetic.to_csv().replace("BA,0,0,35", f"BA,0,0,{10**23}"))

    def test_bool_counts_are_not_integers(self):
        with pytest.raises(SchemaError, match=r"counts_ab\(0, 0\): count True is not an integer"):
            make_table((True,) * 4, (1, 1, 1, 1))
        with pytest.raises(SchemaError, match=r"counts_ba\(1, 1\): count False is not an integer"):
            make_table((1, 1, 1, 1), (1, 1, 1, False))

    def test_count_past_the_digit_limit_names_the_limit(self, synthetic):
        for digits in (400, 5000):
            text = synthetic.to_csv().replace("AB,1,1,40", "AB,1,1," + "7" * digits)
            with pytest.raises(SchemaError, match="exceeds the limit 9223372036854775807") as err:
                survey.parse_counts(text)
            assert len(str(err.value)) < 200
        padded = synthetic.to_csv().replace("AB,1,1,40", "AB,1,1," + "0" * 5000 + "40")
        assert survey.parse_counts(padded).counts_ab == synthetic.counts_ab

    def test_zero_total_group_rejected(self):
        with pytest.raises(SchemaError):
            make_table((0, 0, 0, 0), (1, 1, 1, 1))


class TestSequentialProbs:
    def test_division(self, synthetic):
        p_ab, p_ba = survey.sequential_probs(synthetic)
        assert p_ab[(1, 1)] == F(2, 5)
        assert p_ab[(1, 0)] == F(1, 10)
        assert p_ba[(1, 1)] == F(9, 20)

    @given(count_arrays, count_arrays)
    @settings(max_examples=50, deadline=None)
    def test_each_table_sums_to_one_exactly(self, ab, ba):
        if sum(ab) == 0 or sum(ba) == 0:
            return
        p_ab, p_ba = survey.sequential_probs(make_table(ab, ba))
        assert sum(p_ab.values()) == 1
        assert sum(p_ba.values()) == 1

    def test_uniform(self):
        p_ab, _ = survey.sequential_probs(make_table((25, 25, 25, 25), (25, 25, 25, 25)))
        assert all(v == F(1, 4) for v in p_ab.values())


class TestReconstruction:
    def test_synthetic_point_estimates(self, synthetic):
        logical_ab, logical_ba = survey.reconstruct_logical_joint(synthetic)
        assert logical_ab[(1, 1)] == F(2, 5)     # 0.40
        assert logical_ba[(1, 1)] == F(9, 20)    # 0.45
        assert sum(logical_ab.values()) == 1
        assert sum(logical_ba.values()) == 1

    def test_synthetic_xor_estimates(self, synthetic):
        xor_ab, xor_ba = survey.xor_estimates(synthetic)
        assert xor_ab == F(3, 10)
        assert xor_ba == F(1, 5)

    def test_balance_identity_on_estimates(self, synthetic):
        # xor + 2*conjunction equals the sum of the two first-question marginals
        p_ab, p_ba = survey.sequential_probs(synthetic)
        logical_ab, logical_ba = survey.reconstruct_logical_joint(synthetic)
        xor_ab, xor_ba = survey.xor_estimates(synthetic)
        rhs = (p_ab[(1, 0)] + p_ab[(1, 1)]) + (p_ba[(1, 0)] + p_ba[(1, 1)])
        assert xor_ab + 2 * logical_ab[(1, 1)] == rhs == F(11, 10)
        assert xor_ba + 2 * logical_ba[(1, 1)] == rhs

    @given(count_arrays, count_arrays)
    @settings(max_examples=50, deadline=None)
    def test_marginality_exact_for_any_counts(self, ab, ba):
        if sum(ab) == 0 or sum(ba) == 0:
            return
        table = make_table(ab, ba)
        p_ab, p_ba = survey.sequential_probs(table)
        logical_ab, logical_ba = survey.reconstruct_logical_joint(table)
        for a in (0, 1):
            row = logical_ab[(a, 0)] + logical_ab[(a, 1)]
            assert row == p_ab[(a, 0)] + p_ab[(a, 1)]
        for b in (0, 1):
            col = logical_ab[(0, b)] + logical_ab[(1, b)]
            assert col == p_ba[(b, 0)] + p_ba[(b, 1)]
        assert sum(logical_ab.values()) == 1
        assert sum(logical_ba.values()) == 1
        # the xor/conjunction balance holds for every table, both orders
        xor_ab, xor_ba = survey.xor_estimates(table)
        rhs = (p_ab[(1, 0)] + p_ab[(1, 1)]) + (p_ba[(1, 0)] + p_ba[(1, 1)])
        assert xor_ab + 2 * logical_ab[(1, 1)] == rhs
        assert xor_ba + 2 * logical_ba[(1, 1)] == rhs

    def test_boolean_reduction(self):
        # both orders drawn from one product-form joint: correction vanishes
        table = make_table((30, 30, 20, 20), (30, 20, 30, 20))
        p_ab, _ = survey.sequential_probs(table)
        logical_ab, logical_ba = survey.reconstruct_logical_joint(table)
        for cell in CELLS:
            assert logical_ab[cell] == p_ab[cell]

    def test_round_trip_from_model_probabilities(self, tilted_example):
        rho, a, b = tilted_example
        p_ab, p_ba = hilbert.model_sequential_probabilities(rho, a, b)
        logical_ab, logical_ba = survey.logical_tables_from_probs(p_ab, p_ba)
        ops_a = {1: a, 0: hilbert.complement_projector(a)}
        ops_b = {1: b, 0: hilbert.complement_projector(b)}
        for cell in CELLS:
            model = hilbert.logical_joint(rho, ops_a[cell[0]], ops_b[cell[1]])
            assert logical_ab[cell] == pytest.approx(model, abs=1e-10)
            assert logical_ba[cell] == pytest.approx(model, abs=1e-10)

    def test_round_trip_many_seeds(self):
        for seed in range(10):
            rho = seeded_state(2, "pure" if seed % 2 else "mixed", seed)
            a = seeded_projector(2, 1, seed + 100)
            b = seeded_projector(2, 1, seed + 200)
            p_ab, p_ba = hilbert.model_sequential_probabilities(rho, a, b)
            logical_ab, logical_ba = survey.logical_tables_from_probs(p_ab, p_ba)
            expected = hilbert.logical_joint(rho, a, b)
            assert logical_ab[(1, 1)] == pytest.approx(expected, abs=1e-10)
            assert logical_ba[(1, 1)] == pytest.approx(expected, abs=1e-10)


class TestQQEquality:
    def test_identical_distributions(self):
        table = make_table((30, 20, 10, 40), (30, 10, 20, 40))
        statistic, p_value = survey.qq_equality_stat(table)
        assert statistic == 0.0
        assert p_value == 1.0

    def test_synthetic_example(self, synthetic):
        statistic, p_value = survey.qq_equality_stat(synthetic)
        xor_ab, xor_ba = survey.xor_estimates(synthetic)
        assert float(xor_ab - xor_ba) == pytest.approx(0.10)
        logical_ab, logical_ba = survey.reconstruct_logical_joint(synthetic)
        assert logical_ab[(1, 1)] - logical_ba[(1, 1)] == F(-1, 20)
        assert statistic > 0
        assert 0 < p_value < 1

    def test_z_squared_matches_chi2_contingency(self, synthetic):
        statistic, _ = survey.qq_equality_stat(synthetic)
        x1 = synthetic.counts_ab[(1, 0)] + synthetic.counts_ab[(0, 1)]
        x2 = synthetic.counts_ba[(1, 0)] + synthetic.counts_ba[(0, 1)]
        contingency = [
            [x1, synthetic.n_ab - x1],
            [x2, synthetic.n_ba - x2],
        ]
        expected = chi2_contingency(contingency, correction=False).statistic
        assert statistic**2 == pytest.approx(expected, rel=1e-12)

    def test_degenerate_equal_tables(self):
        table = make_table((100, 0, 0, 0), (100, 0, 0, 0))
        statistic, p_value = survey.qq_equality_stat(table)
        assert (statistic, p_value) == (0.0, 1.0)

    def test_broken_balance_identity_raises(self, synthetic, monkeypatch):
        # an explicit raise, not an assert, so the defect check survives python -O
        xor_ab, xor_ba = survey.xor_estimates(synthetic)
        monkeypatch.setattr(survey, "xor_estimates", lambda table: (xor_ab + F(1, 100), xor_ba))
        with pytest.raises(ArithmeticError, match="balance"):
            survey.qq_equality_stat(synthetic)


class TestClosedFormPValues:
    """The scipy-free p-values against scipy.stats, kept here as the reference."""

    def test_normal_two_sided(self):
        z = np.linspace(-37.5, 37.5, 3001)
        ours = [survey._normal_two_sided_p(float(v)) for v in z]
        assert_allclose(ours, 2 * norm.sf(np.abs(z)), rtol=1e-12, atol=0)

    def test_chi2_three_degrees_of_freedom(self):
        x = np.concatenate([[0.0], np.geomspace(1e-6, 1400.0, 3000)])
        ours = [survey._chi2_df3_sf(float(v)) for v in x]
        assert_allclose(ours, chi2.sf(x, df=3), rtol=1e-12, atol=0)


class TestOrderEffect:
    def test_identical_distributions(self):
        table = make_table((30, 20, 10, 40), (30, 10, 20, 40))
        statistic, p_value = survey.order_effect_stat(table)
        assert statistic == pytest.approx(0.0, abs=1e-12)
        assert p_value == pytest.approx(1.0)

    def test_matches_scipy(self, synthetic):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowExpectedCountWarning)
            statistic, p_value = survey.order_effect_stat(synthetic)
        observed = [
            [synthetic.counts_ab[(a, b)] for a in (0, 1) for b in (0, 1)],
            [synthetic.counts_ba[(b, a)] for a in (0, 1) for b in (0, 1)],
        ]
        reference = chi2_contingency(observed, correction=False)
        assert statistic == pytest.approx(reference.statistic, rel=1e-12)
        assert p_value == pytest.approx(reference.pvalue, rel=1e-12)
        assert reference.dof == 3

    def test_low_expected_count_warns_but_computes(self):
        table = make_table((2, 1, 1, 96), (96, 1, 1, 2))
        with pytest.warns(LowExpectedCountWarning):
            statistic, _ = survey.order_effect_stat(table)
        assert statistic > 0


@pytest.fixture
def resample_calls(monkeypatch) -> list:
    """The arguments of every ``survey._resample`` call made during the test."""
    calls = []
    original = survey._resample

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(survey, "_resample", counting)
    return calls


def bootstrap_intervals(table, iterations, seed, confidence=0.95):
    """The report's percentile intervals, ``[which][cell]``."""
    return survey.classicality_report(table, iterations, seed, confidence).bootstrap_intervals


class TestBootstrap:
    def test_deterministic(self, synthetic):
        assert bootstrap_intervals(synthetic, 500, seed=9) == bootstrap_intervals(synthetic, 500, seed=9)

    def test_degenerate_table_zero_width(self):
        table = make_table((0, 0, 0, 50), (0, 0, 0, 50))
        lo, hi = bootstrap_intervals(table, 500, seed=1)["logical_ab"][(1, 1)]
        assert lo == hi == 1.0

    def test_interval_contains_point_estimate(self, synthetic):
        lo, hi = bootstrap_intervals(synthetic, 10_000, seed=2)["logical_ab"][(1, 1)]
        assert lo < 0.40 < hi

    def test_width_shrinks_with_sample_size(self, synthetic):
        scaled = make_table(
            tuple(4 * synthetic.counts_ab[c] for c in CELLS),
            tuple(4 * synthetic.counts_ba[c] for c in CELLS),
        )
        lo1, hi1 = bootstrap_intervals(synthetic, 10_000, seed=3)["logical_ab"][(1, 1)]
        lo4, hi4 = bootstrap_intervals(scaled, 10_000, seed=3)["logical_ab"][(1, 1)]
        ratio = (hi4 - lo4) / (hi1 - lo1)
        assert 0.35 < ratio < 0.65  # ~1/sqrt(4)

    def test_order_difference_target(self, synthetic):
        lo, hi = bootstrap_intervals(synthetic, 1000, seed=4)["order_difference"][(1, 1)]
        assert lo < -0.05 < hi  # point estimate 0.40 - 0.45

    def test_validation(self, synthetic):
        with pytest.raises(TooFewIterationsError):
            bootstrap_intervals(synthetic, 50, seed=0)
        with pytest.raises(BadConfidenceError):
            bootstrap_intervals(synthetic, 500, seed=0, confidence=1.5)


# Reference bootstrap: the per-target formulas of the per-cell implementation,
# which re-normalised both resamples for every interval.

def reference_resample(table, iterations, seed):
    rng = np.random.default_rng(seed)
    n_ab, n_ba = table.n_ab, table.n_ba
    ab = np.array([table.counts_ab[cell] for cell in CELLS], dtype=float)
    ba = np.array([table.counts_ba[cell] for cell in CELLS], dtype=float)
    samples_ab = rng.multinomial(n_ab, ab / n_ab, size=iterations)
    samples_ba = rng.multinomial(n_ba, ba / n_ba, size=iterations)
    return samples_ab.astype(float), samples_ba.astype(float)


def reference_cell_samples(samples_ab, samples_ba, which, cell):
    a, b = cell
    q_ab = samples_ab / samples_ab.sum(axis=1, keepdims=True)
    q_ba = samples_ba / samples_ba.sum(axis=1, keepdims=True)

    def idx(first, second):
        return 2 * first + second

    ba_first_b = q_ba[:, idx(b, 0)] + q_ba[:, idx(b, 1)]
    ab_second_b = q_ab[:, idx(0, b)] + q_ab[:, idx(1, b)]
    logical_ab = q_ab[:, idx(a, b)] + (ba_first_b - ab_second_b) / 2

    ab_first_a = q_ab[:, idx(a, 0)] + q_ab[:, idx(a, 1)]
    ba_second_a = q_ba[:, idx(0, a)] + q_ba[:, idx(1, a)]
    logical_ba = q_ba[:, idx(b, a)] + (ab_first_a - ba_second_a) / 2

    return {"logical_ab": logical_ab, "logical_ba": logical_ba,
            "order_difference": logical_ab - logical_ba}[which]


def reference_intervals(table, iterations, confidence, seed):
    samples_ab, samples_ba = reference_resample(table, iterations, seed)
    alpha = (1.0 - confidence) / 2.0
    intervals = {}
    for which in ("logical_ab", "logical_ba", "order_difference"):
        intervals[which] = {}
        for cell in CELLS:
            values = reference_cell_samples(samples_ab, samples_ba, which, cell)
            lower, upper = np.quantile(values, [alpha, 1.0 - alpha])
            intervals[which][cell] = (float(lower), float(upper))
    return intervals


@st.composite
def group_counts(draw):
    """Four counts whose total is anywhere in [1, 2**63 - 1], often above 2**53."""
    total = draw(st.one_of(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=2**53 + 1, max_value=survey.MAX_GROUP_TOTAL),
        st.integers(min_value=1, max_value=survey.MAX_GROUP_TOTAL),
    ))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=total), min_size=3, max_size=3)))
    bounds = [0, *cuts, total]
    return [high - low for low, high in zip(bounds, bounds[1:])]


class TestOnePassBootstrap:
    @given(group_counts(), group_counts(), st.integers(min_value=100, max_value=5000),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.integers(min_value=0, max_value=2**32 - 1))
    # row sums of float counts above 2**53 round differently from the group total
    @example([2**54 + 1, 3, 2**55, 7], [1, 2**60, 5, 2**53 + 3], 2345, 0.9, 0)
    @example([2**61 - 1] * 3 + [2**61 + 2], [2**62 - 1, 12345, 2**60, 2**62 - 12345 - 2**60], 2345, 0.9, 0)
    @settings(max_examples=40, deadline=None)
    def test_intervals_equal_the_per_cell_reference(self, ab, ba, iterations, confidence, seed):
        table = make_table(ab, ba)
        expected = reference_intervals(table, iterations, confidence, seed)
        report = survey.classicality_report(table, iterations, seed, confidence)
        assert report.bootstrap_intervals == expected

    def test_report_resamples_once(self, clinton_gore, resample_calls):
        survey.classicality_report(clinton_gore, iterations=500, seed=3)
        assert len(resample_calls) == 1

    # group totals 2**53 (divided by the total) and 2**53 + 1 (by float row sums)
    @pytest.mark.parametrize("counts", [
        [2**53 - 3, 1, 1, 1], [1, 1, 1, 2**53 - 3], [2**52, 2**51, 2**51 - 7, 7],
        [2**53 - 2, 1, 1, 1], [1, 1, 1, 2**53 - 2], [2**52, 2**51, 2**51 - 6, 7],
    ])
    def test_resample_at_the_exact_float_boundary(self, counts):
        table = make_table(counts, counts[::-1])
        draws = reference_resample(table, 500, seed=11)
        for q, expected in zip(survey._resample(table, 500, seed=11), draws):
            expected /= expected.sum(axis=1, keepdims=True)
            assert q.dtype == np.float64
            assert q.tobytes() == expected.tobytes()


@st.composite
def bootstrap_columns(draw):
    """Columns of 100 to 20,000 values: ties, sorted, reversed, constant, periodic."""
    n = draw(st.integers(min_value=100, max_value=20_000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e300, 2.0**-1060, 5e-324]))
    kind = draw(st.sampled_from(
        ["spread", "ties", "sorted", "reversed", "constant", "near_constant", "periodic"]))
    if kind == "ties":
        values = rng.integers(0, draw(st.integers(min_value=1, max_value=6)), n) * scale
    elif kind == "constant":
        values = np.full(n, 0.25 * scale)
    elif kind == "near_constant":
        values = np.full(n, 0.25)
        values[rng.integers(0, n, 3)] = np.nextafter(0.25, 1.0)
        values *= scale
    elif kind == "periodic":  # a period that divides the sample stride defeats the sample
        values = np.tile(rng.normal(size=draw(st.integers(min_value=1, max_value=64))), n)[:n]
        values *= scale
    else:
        values = rng.normal(size=n) * scale
        if kind != "spread":
            values.sort()
            if kind == "reversed":
                values = values[::-1].copy()
    return values


class TestPercentileInterval:
    @given(bootstrap_columns(),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(np.arange(100.0), 1 - 2**-53)
    @example(np.arange(30_000.0)[::-1].copy(), 1 - 2**-53)
    @example(np.arange(5000.0), 5e-324)
    @example(np.arange(5000.0), 0.95)
    @example(np.tile([3.0, 1.0, 2.0], 20_000)[:20_000].copy(), 0.95)
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_linear_quantile(self, values, confidence):
        alpha = (1.0 - confidence) / 2.0
        expected = tuple(float(v) for v in np.quantile(values, [alpha, 1.0 - alpha]))
        assert survey._percentile_interval(values.copy(), confidence) == expected


class TestClassicalityReport:
    def test_classical_product_data_has_no_flags(self):
        table = make_table((30, 30, 20, 20), (30, 20, 30, 20))
        report = survey.classicality_report(table, iterations=500, seed=0)
        assert not any(report.classicality_flags_ab.values())
        assert not any(report.classicality_flags_ba.values())

    def test_clinton_gore_reproduces_published_pattern(self, clinton_gore):
        report = survey.classicality_report(clinton_gore, iterations=4000, seed=42)
        # strong raw order effect
        assert report.order_p_value < 0.05
        # question-order equality holds
        assert report.qq_p_value > 0.05
        # reconstructed joints virtually identical across orders
        for cell in CELLS:
            width = (
                report.bootstrap_intervals["order_difference"][cell][1]
                - report.bootstrap_intervals["order_difference"][cell][0]
            )
            assert report.order_invariance_gap[cell] <= width
        # the yes-to-A, no-to-B cells dip below zero but not significantly
        assert report.logical_ab[(1, 0)] < 0
        assert report.logical_ba[(1, 0)] < 0
        lo_ab, hi_ab = report.bootstrap_intervals["logical_ab"][(1, 0)]
        lo_ba, hi_ba = report.bootstrap_intervals["logical_ba"][(1, 0)]
        assert lo_ab < 0 < hi_ab
        assert lo_ba < 0 < hi_ba
        assert not any(report.classicality_flags_ab.values())
        assert not any(report.classicality_flags_ba.values())

    def test_strongly_nonclassical_model_is_flagged(self, tilted_example):
        rho, a, b = tilted_example
        rng = np.random.default_rng(5)
        draws = []
        for probs in hilbert.model_sequential_probabilities(rho, a, b):
            p = np.clip([probs[cell] for cell in CELLS], 0.0, None)
            draws.append(rng.multinomial(100_000, p / p.sum()))  # one group per order
        table = make_table(*draws)
        report = survey.classicality_report(table, iterations=2000, seed=7)
        assert report.logical_ab[(1, 1)] == pytest.approx(-0.1, abs=0.01)
        assert report.classicality_flags_ab[(1, 1)]
        assert report.classicality_flags_ba[(1, 1)]

    def test_json_report_is_deterministic_and_complete(self, synthetic):
        r1 = survey.classicality_report(synthetic, iterations=200, seed=3).to_json()
        r2 = survey.classicality_report(synthetic, iterations=200, seed=3).to_json()
        assert r1 == r2
        data = json.loads(r1)
        assert data["logical_ab_exact"]["11"] == "2/5"
        assert data["config"]["seed"] == 3
        assert set(data["bootstrap"]) == {"logical_ab", "logical_ba", "order_difference"}

    def test_plot_rows_cover_all_series(self, synthetic):
        report = survey.classicality_report(synthetic, iterations=200, seed=3)
        rows = report.plot_rows()
        assert len(rows) == 16
        series = {s for s, _, _ in rows}
        assert series == {"sequential_ab", "sequential_ba", "logical_ab", "logical_ba"}
        text = report.plot_csv()
        assert text.splitlines()[0] == "series,cell,value"

    def test_svg_renders_all_series(self, synthetic):
        svg = survey.classicality_report(synthetic, iterations=200, seed=3).to_svg()
        assert svg.startswith("<svg")
        assert svg.count("<rect") >= 16
        for color in ("#1f5fa8", "#7fb2e5", "#b22222", "#f08080"):
            assert color in svg

    def test_svg_escapes_labels(self, data_dir):
        label_a = """<A & "x">"""
        label_b = "B's </text><script>alert(1)</script><text>"
        text = (data_dir / "synthetic_n100.csv").read_text(encoding="utf-8")
        table = survey.parse_counts(f"# label_a = {label_a}\n# label_b = {label_b}\n{text}")
        svg = survey.classicality_report(table, iterations=200, seed=3).to_svg()
        root = ElementTree.fromstring(svg)  # well-formed XML
        ns = "{http://www.w3.org/2000/svg}"
        texts = [node.text for node in root.iter(f"{ns}text")]
        assert texts[0] == f"Sequential vs logical joint probabilities: {label_a} / {label_b}"
        assert f"{label_a}=1, {label_b}=1" in texts
        assert root.find(f".//{ns}script") is None

    def test_validation(self, synthetic):
        with pytest.raises(TooFewIterationsError):
            survey.classicality_report(synthetic, iterations=10)
        with pytest.raises(BadConfidenceError):
            survey.classicality_report(synthetic, iterations=200, confidence=0.0)
