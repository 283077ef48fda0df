"""Survey reconstruction tests.

Point-estimate expectations for the synthetic 100-per-order table were
computed by hand from the defining arithmetic and frozen here as exact
rationals.  Statistical routes are cross-checked against scipy's independent
implementations, and the exact bootstrap against a rational enumeration of
both multinomials and against Monte Carlo resampling.
"""

import inspect
import itertools
import json
import math
import warnings
from fractions import Fraction as F
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import binom, chi2, chi2_contingency, norm

from conftest import seeded_projector, seeded_state, traced_peak
from quasilogic import hilbert, logic, survey
from quasilogic.errors import (
    BadConfidenceError,
    DuplicateCellError,
    IdentityCheckError,
    LowExpectedCountWarning,
    MissingCellError,
    NegativeCountError,
    SchemaError,
    TooFewIterationsError,
)
from quasilogic.logic import CELLS
from quasilogic.survey import SequentialCountTable


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


@st.composite
def group_counts(draw, most=survey.MAX_GROUP_TOTAL):
    """Four counts whose total is anywhere in [1, most], often at most 10**4."""
    total = draw(st.one_of(
        st.integers(min_value=1, max_value=min(most, 10**4)),
        st.integers(min_value=1, max_value=most),
    ))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=total), min_size=3, max_size=3)))
    bounds = [0, *cuts, total]
    return [high - low for low, high in zip(bounds, bounds[1:])]


@st.composite
def unanimous_tables(draw):
    """Tables in which the two answers agree for every respondent, or differ for every one."""
    cells = draw(st.sampled_from([((0, 0), (1, 1)), ((0, 1), (1, 0))]))
    groups = []
    for _ in range(2):
        n = draw(st.one_of(st.integers(min_value=1, max_value=100),
                           st.integers(min_value=1, max_value=survey.MAX_GROUP_TOTAL)))
        k = draw(st.integers(min_value=0, max_value=n))
        groups.append(dict.fromkeys(CELLS, 0) | dict(zip(cells, (k, n - k))))
    return SequentialCountTable(counts_ab=groups[0], counts_ba=groups[1])


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
    @pytest.mark.parametrize("text", [None, b"order,first,second,count", 3])
    def test_text_must_be_a_str(self, text):
        with pytest.raises(TypeError, match=r"^text must be a str, got "):
            survey.parse_counts(text)

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
        assert limit == 10**8
        at_limit = make_table((limit - 3, 1, 1, 1), (1, 1, 1, 1))
        assert at_limit.n_ab == limit
        lo, hi = bootstrap_intervals(at_limit, 100, seed=0)["logical_ab"][(0, 0)]
        assert lo <= hi
        # two balanced groups at the limit: the widest pmf windows the bootstrap builds
        balanced = make_table((limit // 4,) * 4, (limit // 4,) * 4)
        lo, hi = bootstrap_intervals(balanced, 100, seed=0)["logical_ab"][(1, 1)]
        assert lo < 0.25 < hi and hi - 0.25 == pytest.approx(0.25 - lo, abs=1e-15)
        with pytest.raises(SchemaError, match=r"exceeds the limit 100000000 \(10\*\*8\)"):
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

    @pytest.mark.parametrize("kind", [int, np.int64, np.uint8], ids=["int", "int64", "uint8"])
    def test_integral_counts_are_counts(self, kind):
        """A count is any ``numbers.Integral`` but a ``bool``, and numpy registers its integer
        types there.  Counts are kept as Python ints, so uint8 counts whose group total
        passes 255 do not wrap."""
        ab, ba = (200, 100, 15, 35), (35, 20, 5, 40)
        table, reference = make_table([kind(n) for n in ab], [kind(n) for n in ba]), make_table(ab, ba)
        assert table == reference and (table.n_ab, table.n_ba) == (350, 100)
        assert {type(n) for n in [*table.counts_ab.values(), *table.counts_ba.values()]} == {int}
        assert (survey.classicality_report(table).to_json()
                == survey.classicality_report(reference).to_json())

    @pytest.mark.parametrize("count", [2.0, np.float64(2.0), F(2), "2"],
                             ids=["2.0", "float64", "Fraction", "'2'"])
    def test_non_integral_counts_are_not_counts(self, count):
        """Rejected with the message a ``bool`` gets (test_bool_counts_are_not_integers)."""
        with pytest.raises(SchemaError) as caught:
            make_table((count, 1, 1, 1), (1, 1, 1, 1))
        assert str(caught.value) == f"counts_ab(0, 0): count {count!r} is not an integer"

    def test_count_past_the_digit_limit_names_the_limit(self, synthetic):
        for digits in (400, 5000):
            text = synthetic.to_csv().replace("AB,1,1,40", "AB,1,1," + "7" * digits)
            with pytest.raises(SchemaError, match=r"exceeds the limit 100000000 \(10\*\*8\)") as err:
                survey.parse_counts(text)
            assert len(str(err.value)) < 200
        padded = synthetic.to_csv().replace("AB,1,1,40", "AB,1,1," + "0" * 5000 + "40")
        assert survey.parse_counts(padded).counts_ab == synthetic.counts_ab

    def test_non_utf8_file_is_a_schema_error(self, tmp_path, data_dir):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# label_a = caf\xe9\n" + (data_dir / "synthetic_n100.csv").read_bytes())
        with pytest.raises(SchemaError) as caught:
            survey.load_counts(str(path))
        assert str(caught.value) == ("input is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"
                                     " in position 15: invalid continuation byte")

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


def logical_tables(table):
    """The exact logical tables of both orders, keyed (a, b), as the report takes them."""
    return survey.logical_tables_from_probs(*survey.sequential_probs(table))


def qq_equality(table):
    """The question-order equality test's (z statistic, two-sided p-value) in the report."""
    report = survey.classicality_report(table)
    return report.qq_statistic, report.qq_p_value


class TestReconstruction:
    def test_synthetic_point_estimates(self, synthetic):
        logical_ab, logical_ba = logical_tables(synthetic)
        assert logical_ab[(1, 1)] == F(2, 5)     # 0.40
        assert logical_ba[(1, 1)] == F(9, 20)    # 0.45
        assert sum(logical_ab.values()) == 1
        assert sum(logical_ba.values()) == 1

    def test_synthetic_xor_estimates(self, synthetic):
        xor_ab, xor_ba = survey._xor_from_probs(*survey.sequential_probs(synthetic))
        assert xor_ab == F(3, 10)
        assert xor_ba == F(1, 5)

    def test_balance_identity_on_estimates(self, synthetic):
        # xor + 2*conjunction equals the sum of the two first-question marginals
        p_ab, p_ba = survey.sequential_probs(synthetic)
        logical_ab, logical_ba = survey.logical_tables_from_probs(p_ab, p_ba)
        xor_ab, xor_ba = survey._xor_from_probs(p_ab, p_ba)
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
        logical_ab, logical_ba = survey.logical_tables_from_probs(p_ab, p_ba)
        for a in (0, 1):
            row = logical_ab[(a, 0)] + logical_ab[(a, 1)]
            assert row == p_ab[(a, 0)] + p_ab[(a, 1)]
        for b in (0, 1):
            col = logical_ab[(0, b)] + logical_ab[(1, b)]
            assert col == p_ba[(b, 0)] + p_ba[(b, 1)]
        assert sum(logical_ab.values()) == 1
        assert sum(logical_ba.values()) == 1
        # the xor/conjunction balance holds for every table, both orders
        xor_ab, xor_ba = survey._xor_from_probs(p_ab, p_ba)
        rhs = (p_ab[(1, 0)] + p_ab[(1, 1)]) + (p_ba[(1, 0)] + p_ba[(1, 1)])
        assert xor_ab + 2 * logical_ab[(1, 1)] == rhs
        assert xor_ba + 2 * logical_ba[(1, 1)] == rhs

    def test_boolean_reduction(self):
        # both orders drawn from one product-form joint: correction vanishes
        table = make_table((30, 30, 20, 20), (30, 20, 30, 20))
        p_ab, p_ba = survey.sequential_probs(table)
        logical_ab, _ = survey.logical_tables_from_probs(p_ab, p_ba)
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
        statistic, p_value = qq_equality(table)
        assert statistic == 0.0
        assert p_value == 1.0

    def test_synthetic_example(self, synthetic):
        statistic, p_value = qq_equality(synthetic)
        xor_ab, xor_ba = survey._xor_from_probs(*survey.sequential_probs(synthetic))
        assert float(xor_ab - xor_ba) == pytest.approx(0.10)
        logical_ab, logical_ba = logical_tables(synthetic)
        assert logical_ab[(1, 1)] - logical_ba[(1, 1)] == F(-1, 20)
        assert statistic > 0
        assert 0 < p_value < 1

    def test_z_squared_matches_chi2_contingency(self, synthetic):
        statistic, _ = qq_equality(synthetic)
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
        statistic, p_value = qq_equality(table)
        assert (statistic, p_value) == (0.0, 1.0)

    @given(unanimous_tables())
    @settings(max_examples=60, deadline=None)
    def test_zero_variance_tables_show_no_order_effect(self, table):
        assert qq_equality(table) == (0.0, 1.0)

    @given(group_counts(), group_counts())
    # the smallest nonzero pooled variance, about 1e-16
    @example([survey.MAX_GROUP_TOTAL - 1, 1, 0, 0], [survey.MAX_GROUP_TOTAL, 0, 0, 0])
    @settings(max_examples=60, deadline=None)
    def test_every_valid_table_has_a_statistic(self, ab, ba):
        statistic, p_value = qq_equality(make_table(ab, ba))
        assert math.isfinite(statistic) and 0.0 <= p_value <= 1.0

    def test_broken_balance_identity_raises(self, synthetic, monkeypatch):
        # an explicit raise, not an assert, so the defect check survives python -O
        xor_ab, xor_ba = survey._xor_from_probs(*survey.sequential_probs(synthetic))
        monkeypatch.setattr(survey, "_xor_from_probs", lambda *probs: (xor_ab + F(1, 100), xor_ba))
        with pytest.raises(ArithmeticError, match="balance") as exc:
            survey.classicality_report(synthetic)
        assert isinstance(exc.value, IdentityCheckError)  # a package error, which the CLI reports


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


def bootstrap_intervals(table, iterations, seed, confidence=0.95):
    """The report's bootstrap intervals, ``[which][cell]``."""
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


# Monte Carlo reference bootstrap: type-7 percentiles of multinomial resamples, through
# the per-target formulas of the 0.1.0 per-cell implementation.

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


def multinomial_outcomes(counts):
    """Every count vector of Multinomial(n, counts / n) with its probability, as a Fraction."""
    n = sum(counts)
    for head in itertools.product(range(n + 1), repeat=len(counts) - 1):
        if sum(head) <= n:
            outcome = (*head, n - sum(head))
            p = F(math.factorial(n))
            for x, k in zip(outcome, counts):
                p *= F(k, n) ** x / math.factorial(x)
            if p:
                yield outcome, p


def exact_bootstrap_distributions(table):
    """{(target, cell): {value: probability}} of every bootstrap target, in Fraction.

    Each group's outcomes go through the public formula, ``logical_tables_from_probs``,
    with the other group's table zero: the targets are linear in the two tables, so
    a target's value is the sum of its two groups' parts.
    """
    zero = dict.fromkeys(CELLS, 0)
    parts = []
    for counts, n, first in ((table.counts_ab, table.n_ab, True), (table.counts_ba, table.n_ba, False)):
        part = {}
        for outcome, p in multinomial_outcomes([counts[cell] for cell in CELLS]):
            probs = {cell: F(x, n) for cell, x in zip(CELLS, outcome)}
            logical_ab, logical_ba = survey.logical_tables_from_probs(
                *((probs, zero) if first else (zero, probs)))
            for cell in CELLS:
                values = {"logical_ab": logical_ab[cell], "logical_ba": logical_ba[cell],
                          "order_difference": logical_ab[cell] - logical_ba[cell]}
                for which, value in values.items():
                    target = part.setdefault((which, cell), {})
                    target[value] = target.get(value, 0) + p
        parts.append(part)
    distributions = {}
    for key, part_ab in parts[0].items():
        total = distributions[key] = {}
        for (u, p), (v, q) in itertools.product(part_ab.items(), parts[1][key].items()):
            total[u + v] = total.get(u + v, 0) + p * q
    return distributions


def inverse_cdf_ends(distribution, level, band=F(0)):
    """The floats of the atoms t with P(T <= t) >= level - band and P(T < t) < level + band:
    with band 0, the one end min{t : F(t) >= level}."""
    ends, below = set(), F(0)
    for value in sorted(distribution):
        upto = below + distribution[value]
        if upto >= level - band and below < level + band:
            ends.add(float(value))
        below = upto
    assert below == 1
    return ends


# how far from an exact CDF value a level must be for its end to be decided in double
# precision; an exact tie, such as confidence 0.5 on dyadic probabilities, is inside it
CDF_BAND = F(1, 10**12)


@st.composite
def small_group_counts(draw):
    """Four counts of a group of 1 to 8 respondents."""
    n = draw(st.integers(min_value=1, max_value=8))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n), min_size=3, max_size=3)))
    bounds = [0, *cuts, n]
    return [high - low for low, high in zip(bounds, bounds[1:])]


class TestExactBootstrap:
    @given(small_group_counts(), small_group_counts(),
           st.one_of(st.sampled_from([0.95, 0.9, 0.99, 0.5]),
                     st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)))
    @example([1, 1, 0, 0], [1, 1, 0, 0], 0.5)      # exact dyadic ties at alpha = 1/4
    @example([2, 0, 2, 0], [0, 4, 0, 4], 0.95)     # X00 - X10 takes every other value
    @example([8, 0, 0, 0], [0, 0, 0, 1], 0.95)     # both groups unanimous
    @example([3, 1, 2, 2], [1, 2, 4, 1], 1 - 2**-53)
    @example([3, 1, 2, 2], [1, 2, 4, 1], 5e-324)
    @settings(max_examples=80, deadline=None)
    def test_ends_equal_the_rational_enumeration(self, ab, ba, confidence):
        table = make_table(ab, ba)
        intervals = bootstrap_intervals(table, 100, seed=0, confidence=confidence)
        alpha = (1.0 - confidence) / 2.0
        for (which, cell), distribution in exact_bootstrap_distributions(table).items():
            for end, level in zip(intervals[which][cell], (alpha, 1.0 - alpha)):
                admissible = inverse_cdf_ends(distribution, F(level), CDF_BAND)
                # a single admissible atom, the exact end, unless a CDF value is within the band
                assert end in admissible, (which, cell, level, sorted(admissible))

    @given(small_group_counts(), small_group_counts(),
           st.one_of(st.sampled_from([0.95, 0.5]),
                     st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)))
    @settings(max_examples=40, deadline=None)
    def test_twin_order_differences_share_their_weights_and_intervals(self, ab, ba, confidence):
        """Each row and column of a resampled order-difference table sums to 0, so the
        differences at (1, 1) and (1, 0) equal those at (0, 0) and (0, 1), which the search
        uses to take ten searches for twelve intervals."""
        weights = {(cell, which): w for cell, which, w in survey._TARGET_WEIGHTS}
        table = make_table(ab, ba)
        intervals = bootstrap_intervals(table, 100, seed=0, confidence=confidence)
        distributions = exact_bootstrap_distributions(table)
        for cell, twin in (((1, 1), (0, 0)), ((1, 0), (0, 1))):
            assert weights[(cell, "order_difference")] == weights[(twin, "order_difference")]
            assert intervals["order_difference"][cell] == intervals["order_difference"][twin]
            assert (distributions[("order_difference", cell)]
                    == distributions[("order_difference", twin)])
        assert sorted(set(survey._SEARCHED_AS)) == [0, 1, 2, 3, 4, 5, 6, 7, 9, 10]

    @pytest.mark.parametrize("name", ["clinton_gore_1997.csv", "synthetic_n100.csv"])
    def test_million_draw_reference_lies_within_one_atom(self, data_dir, name):
        table = survey.load_counts(str(data_dir / name))
        exact = bootstrap_intervals(table, 100, seed=0)
        reference = reference_intervals(table, 10**6, 0.95, seed=42)
        atom = math.gcd(table.n_ab, table.n_ba) / (2 * table.n_ab * table.n_ba)
        for which in exact:
            for cell in CELLS:
                for end, drawn in zip(exact[which][cell], reference[which][cell]):
                    assert abs(end - drawn) <= atom, (which, cell, end, drawn)

    @pytest.mark.parametrize("cell", CELLS)
    def test_unanimous_groups_give_zero_width_intervals_at_the_estimate(self, cell):
        table = make_table(*[[50 * (c == cell) for c in CELLS]] * 2)
        report = survey.classicality_report(table, 100, seed=0)
        estimates = {"logical_ab": report.logical_ab, "logical_ba": report.logical_ba,
                     "order_difference": {c: report.logical_ab[c] - report.logical_ba[c]
                                          for c in CELLS}}
        for which, by_cell in report.bootstrap_intervals.items():
            for c, (lo, hi) in by_cell.items():
                assert lo == hi == estimates[which][c]
        assert report.diagnostics[-1].startswith("zero-width bootstrap intervals: logical_ab 00,")

    # X00 - X10 at q₊ = q₋ = ½ with no other answer, and at (¼, ½, ¼): φ(π) = 0 exactly,
    # which the tier-1 warnings-as-errors setting would report as a log(0)
    @pytest.mark.parametrize("ab, ba", [
        ((4, 0, 4, 0), (4, 4, 0, 0)), ((2, 4, 2, 0), (0, 0, 8, 8)),
        ((10**6, 0, 10**6, 0), (10**6, 10**6, 0, 0)), ((10**6, 2 * 10**6, 10**6, 0), (1, 1, 1, 1)),
    ])
    def test_symmetric_groups_where_phi_vanishes(self, ab, ba):
        table = make_table(ab, ba)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            intervals = bootstrap_intervals(table, 100, seed=0)
        lo, hi = intervals["logical_ab"][(0, 0)]
        estimate = survey.classicality_report(table, 100, seed=0).logical_ab[(0, 0)]
        atom = math.gcd(table.n_ab, table.n_ba) / (2 * table.n_ab * table.n_ba)
        assert lo < estimate < hi
        assert abs((hi - estimate) - (estimate - lo)) <= 2 * atom
        if table.n_ab <= 8:
            for (which, cell), distribution in exact_bootstrap_distributions(table).items():
                for end, level in zip(intervals[which][cell], (0.025, 0.975)):
                    assert end in inverse_cdf_ends(distribution, F(level), CDF_BAND)

    @pytest.mark.parametrize("n", [12, 10**4, 10**6])
    def test_group_pmfs_equal_the_binomial(self, n):
        for key, reference in (
            ((0, n // 2, n // 2), lambda s: binom.pmf(s, n, 0.5)),
            ((0, n - n // 3, n // 3), lambda s: binom.pmf(s, n, (n // 3) / n)),
            ((0, n - 3, 3), lambda s: binom.pmf(s, n, 3 / n)),
            # (z⁻¹/4 + 1/2 + z/4)ⁿ = z⁻ⁿ ((1 + z) / 2)²ⁿ
            ((n // 4, n // 2, n // 4), lambda s: binom.pmf(s + n, 2 * n, 0.5)),
        ):
            step, start, pmf = survey._sum_pmf(*key, {})
            expected = reference(start + step * np.arange(pmf.size))
            assert_allclose(pmf, expected, rtol=0, atol=1e-14)
            assert_allclose(np.cumsum(pmf), np.cumsum(expected), rtol=0, atol=1e-12)
            assert 1 - expected.sum() < 1e-12

    def test_draws_nothing_and_ignores_iterations_and_seed(self, clinton_gore, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the survey bootstrap drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        reports = [survey.classicality_report(clinton_gore, iterations, seed)
                   for iterations, seed in ((100, 0), (10**7, 2**32 - 1), (12_345, 42))]
        assert [(r.iterations, r.seed) for r in reports] == [(100, 0), (10**7, 2**32 - 1),
                                                            (12_345, 42)]
        assert all(r.bootstrap_intervals == reports[0].bootstrap_intervals for r in reports)
        assert "random" not in inspect.getsource(survey)


# The 0.11.0 bootstrap, kept as a reference: every target rebuilds its lattice ordering,
# every pmf its frequency grid, and every level search masks the fine atoms that have a
# coarse partner.  The one-pass bootstrap must equal it bit for bit.

def reference_target_weights(a, b):
    def weights(plus, minus=()):
        return [(cell in plus) - (cell in minus) for cell in CELLS]

    logical_ab = weights([(a, b)], [(1 - a, b)]), weights([(b, 0), (b, 1)])
    logical_ba = weights([(a, 0), (a, 1)]), weights([(b, a)], [(1 - b, a)])
    difference = tuple([x - y for x, y in zip(*pair)] for pair in zip(logical_ab, logical_ba))
    return dict(zip(("logical_ab", "logical_ba", "order_difference"),
                    (logical_ab, logical_ba, difference)))


def reference_sum_pmf(k_minus, k_zero, k_plus):
    n = k_minus + k_zero + k_plus
    if max(k_minus, k_zero, k_plus) == n:
        return 1, k_plus - k_minus, np.ones(1)
    if k_zero == 0:
        _, start, pmf = reference_sum_pmf(0, k_minus, k_plus)
        return 2, 2 * start - n, pmf
    p_minus, p_zero, p_plus = k_minus / n, k_zero / n, k_plus / n
    mean = k_plus - k_minus
    half = math.ceil(10 * math.sqrt(n * (p_minus + p_plus) - mean * mean / n) + 30)
    lo = max(mean - half, -n if k_minus else 0)
    size = min(mean + half, n if k_plus else 0) - lo + 1
    fft_size = 1 << (size - 1).bit_length()
    omega = 2 * np.pi / fft_size * np.arange(fft_size // 2 + 1)
    s = np.sin(omega / 2) ** 2
    gap = -4 * s * ((p_minus + p_plus) * p_zero + 4 * p_minus * p_plus * (1 - s))
    log_modulus = np.log1p(gap, out=np.full_like(gap, -np.inf), where=gap > -1)
    phase = n * np.arctan2((p_plus - p_minus) * np.sin(omega),
                           p_zero + (p_plus + p_minus) * np.cos(omega)) - lo * omega
    spectrum = np.exp(n / 2 * log_modulus) * np.exp(-1j * phase)
    return 1, lo, np.maximum(np.fft.irfft(spectrum, fft_size)[:size], 0.0)


def reference_group_pmf(key, pmfs):
    k_minus, k_zero, k_plus = key
    if k_minus > k_plus or k_minus == 0 and k_plus > k_zero:
        partner = (k_plus, k_zero, k_minus) if k_minus > k_plus else (0, k_plus, k_zero)
        step, start, pmf = reference_group_pmf(partner, pmfs)
        shift = 0 if k_minus > k_plus else sum(key)
        return step, shift - start - step * (pmf.size - 1), pmf[::-1]
    if key not in pmfs:
        pmfs[key] = reference_sum_pmf(*key)
    return pmfs[key]


def reference_inverse_cdf(pmf_ab, pmf_ba, n_ab, n_ba, levels):
    (step_ab, start_ab, p_ab), (step_ba, start_ba, p_ba) = pmf_ab, pmf_ba
    origin = start_ab * n_ba + start_ba * n_ab
    (u_c, p_c), (u_f, p_f) = sorted([(step_ab * n_ba, p_ab), (step_ba * n_ab, p_ba)],
                                    key=lambda group: -group[0])
    j_f = np.arange(p_f.size)
    k = -(-j_f * u_f // u_c)
    offset = k * u_c - j_f * u_f
    order = np.argsort(-offset, kind="stable")
    size = p_c.size + int(k[-1])
    fft_size = 1 << (size - 1).bit_length()
    steps = np.fft.irfft(np.fft.rfft(p_c, fft_size) * np.fft.rfft(np.bincount(k, p_f), fft_size),
                         fft_size)
    cdf = np.cumsum(np.maximum(steps[:size], 0.0))
    ends = []
    for level in levels:
        m = min(int(np.searchsorted(cdf, level)), size - 1)
        j_c = m - k[order]
        inside = (j_c >= 0) & (j_c < p_c.size)
        members = order[inside]
        cumulative = np.cumsum(p_f[members] * p_c[j_c[inside]]) + (cdf[m - 1] if m else 0.0)
        i = min(int(np.searchsorted(cumulative, level)), members.size - 1)
        ends.append((origin + m * u_c - int(offset[members[i]])) / (2 * n_ab * n_ba))
    return ends


def reference_bootstrap_intervals(table, confidence):
    alpha = (1.0 - confidence) / 2.0
    groups = (table.counts_ab, table.counts_ba)
    pmfs = {}
    intervals = {t: {} for t in ("logical_ab", "logical_ba", "order_difference")}
    for a, b in CELLS:
        for which, weights in reference_target_weights(a, b).items():
            pair = []
            for counts, group_weights in zip(groups, weights):
                key = tuple(sum(int(counts[cell]) for cell, w in zip(CELLS, group_weights) if w == sign)
                            for sign in (-1, 0, 1))
                pair.append(reference_group_pmf(key, pmfs))
            lo, hi = reference_inverse_cdf(*pair, table.n_ab, table.n_ba, (alpha, 1.0 - alpha))
            intervals[which][(a, b)] = (lo, hi)
    return intervals


@st.composite
def pmf_keys(draw):
    """(k₋, k₀, k₊) of one group of 1 to 10**8 respondents: any split, often at most 10**4;
    a unanimous group; no k₀; or k₀ and one sign far below n."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=10**4),
                       st.integers(min_value=1, max_value=survey.MAX_GROUP_TOTAL)))
    kind = draw(st.sampled_from(["any", "unanimous", "no zero", "few zeros", "few minus"]))
    if kind == "unanimous":
        answer = draw(st.integers(min_value=0, max_value=2))
        return tuple(n * (i == answer) for i in range(3))
    if kind == "any":
        low, high = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        return low, high - low, n - high
    rare = draw(st.integers(min_value=0, max_value=min(n, 40)))
    if kind == "no zero":
        return rare, 0, n - rare
    if kind == "few minus":
        k_zero = draw(st.integers(min_value=0, max_value=n - rare))
        return rare, k_zero, n - rare - k_zero
    k_minus = draw(st.integers(min_value=0, max_value=n - rare))
    return k_minus, rare, n - rare - k_minus


class TestOnePassBootstrap:
    @given(group_counts(10**6), group_counts(10**6),
           st.one_of(st.sampled_from([0.95, 0.5, 0.999999, 1 - 2**-53, 5e-324]),
                     st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)))
    @example([0, 0, 7, 0], [3, 0, 0, 0], 0.95)          # both groups unanimous
    @example([2, 0, 2, 0], [0, 4, 0, 4], 0.95)          # k_zero = 0: pmfs on every other value
    @example([3, 1, 2, 2], [1, 2, 4, 1], 0.5)
    @example([3, 1, 2, 2], [1, 2, 4, 1], 1 - 2**-53)
    @example([3, 1, 2, 2], [1, 2, 4, 1], 5e-324)
    @example([250_000] * 4, [250_000] * 4, 0.95)
    @example([20, 5, 0, 9], [10**6 - 3, 1, 1, 1], 0.95)  # a fine lattice far finer than the coarse
    # the level is unreached inside its step, where the search takes the step's last atom,
    # which in the second case is not the last atom of the ordering
    @example([0, 0, 1, 0], [1, 1, 0, 0], 0.5)
    @example([0, 1, 0, 1], [2, 0, 1, 0], 1 - 2**-53)
    @settings(max_examples=40, deadline=None)
    def test_intervals_equal_the_per_target_reference(self, ab, ba, confidence):
        table = make_table(ab, ba)
        intervals = survey._bootstrap_intervals(table, confidence)
        reference = reference_bootstrap_intervals(table, confidence)
        # the same values in the same (target, cell) order
        assert [(which, list(by_cell.items())) for which, by_cell in intervals.items()] == [
            (which, list(by_cell.items())) for which, by_cell in reference.items()]

    @given(pmf_keys())
    @example((0, 1, 0))                                  # unanimous groups
    @example((0, 0, 7))
    @example((2, 0, 5))                                  # k_zero = 0
    @example((3, 0, 10**8 - 3))
    @example((499_998, 4, 499_998))                      # |φ| climbs back near ω = π
    @example((10**8 // 4 - 1, 3, 3 * 10**8 // 4 - 2))
    @example((10**8 // 4, 10**8 // 2, 10**8 // 4))       # the widest window
    @example((1, 10**8 - 2, 1))
    @settings(max_examples=100, deadline=None)
    def test_pmfs_equal_the_reference_bit_for_bit(self, key):
        """Skipping the phase where |φ|ⁿ underflows must change no bit of any pmf, which
        the interval oracles cannot see when a changed pmf moves no interval end."""
        step, start, pmf = survey._sum_pmf(*key, {})
        reference_step, reference_start, reference = reference_sum_pmf(*key)
        assert (step, start) == (reference_step, reference_start)
        assert pmf.dtype == reference.dtype and pmf.tobytes() == reference.tobytes()

    def test_nonzero_bins_form_two_runs_when_phi_returns_near_pi(self, monkeypatch):
        """The (499998, 4, 499998) example above: |φ(π)| = 1 - 2 k₀ / n, so |φ|ⁿ is nonzero
        near ω = 0 and near ω = π and underflows to 0 between."""
        spectra = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: spectra.append(a) or irfft(a, n))
        survey._sum_pmf(499_998, 4, 499_998, {})
        (spectrum,) = spectra
        live = np.flatnonzero(spectrum)
        runs = np.split(live, np.flatnonzero(np.diff(live) > 1) + 1)
        assert len(runs) == 2 and runs[0][0] == 0 and runs[1][-1] == spectrum.size - 1
        assert live.size < spectrum.size / 10

    @pytest.mark.parametrize("n", [10**6, 10**8])
    def test_peak_memory_stays_near_the_per_target_reference(self, n):
        """Two balanced groups: one lattice at a time keeps the peak within 1.25 times the
        reference's (1.64 MB at 10**6 and 15.8 MB at 10**8 with numpy 2.4)."""
        table = make_table([n // 4] * 4, [n // 4] * 4)
        survey._bootstrap_intervals(make_table([1, 2, 3, 4], [4, 3, 2, 1]), 0.95)
        reference = traced_peak(reference_bootstrap_intervals, table, 0.95)
        assert traced_peak(survey._bootstrap_intervals, table, 0.95) <= 1.25 * reference


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

    def test_intervals_flags_and_diagnostics_run_the_bootstrap_once(self, clinton_gore,
                                                                    monkeypatch):
        """They are computed on their first read, not when the report is built, and kept."""
        calls, original = [], survey._bootstrap_intervals
        monkeypatch.setattr(survey, "_bootstrap_intervals",
                            lambda *args: calls.append(args) or original(*args))
        report = survey.classicality_report(clinton_gore, iterations=200, seed=3)
        report.plot_csv(), report.to_svg()
        assert calls == []
        names = ("bootstrap_intervals", "classicality_flags_ab", "classicality_flags_ba",
                 "diagnostics")
        first = [getattr(report, name) for name in names]
        assert all(getattr(report, name) is value for name, value in zip(names, first))
        assert calls == [(clinton_gore, 0.95)]
        assert first[0] == original(clinton_gore, 0.95)

    def test_the_order_effect_test_runs_once_per_report(self, monkeypatch):
        """The diagnostics read the warnings the report's own test recorded."""
        calls, original = [], survey.order_effect_stat
        monkeypatch.setattr(survey, "order_effect_stat",
                            lambda table: calls.append(table) or original(table))
        table = make_table((3, 0, 0, 0), (3, 0, 0, 0))
        report = survey.classicality_report(table, iterations=200, seed=3)
        assert report.diagnostics[0].startswith("order-effect test: LowExpectedCountWarning: ")
        report.to_json()
        assert calls == [table]

    def test_diagnostics_name_each_statistic_that_shows_nothing(self):
        table = make_table((3, 0, 0, 0), (3, 0, 0, 0))
        report = survey.classicality_report(table, iterations=200, seed=3)
        flat = ", ".join(f"{which} {a}{b}" for which in ("logical_ab", "logical_ba",
                                                         "order_difference") for a, b in CELLS)
        assert report.diagnostics == [
            "order-effect test: LowExpectedCountWarning: expected cell count below 5;"
            " chi-square approximation may be poor",
            "question-order equality test: zero pooled variance, z = 0 and p = 1 are set,"
            " not computed",
            f"zero-width bootstrap intervals: {flat}",
        ]

    @given(unanimous_tables())
    @example(make_table((survey.MAX_GROUP_TOTAL - 1, 1, 0, 0), (survey.MAX_GROUP_TOTAL, 0, 0, 0)))
    @example(make_table((0, survey.MAX_GROUP_TOTAL - 1, 0, 1), (0, survey.MAX_GROUP_TOTAL, 0, 0)))
    @settings(max_examples=40, deadline=None)
    def test_zero_pooled_variance_is_named_where_the_exact_estimates_show_it(self, table):
        """The report's float xor estimates are 0.0 or 1.0 exactly where the fractions are:
        a count k over a total n of at most 10**8, 0 < k < n, is a float inside (0, 1)."""
        report = survey.classicality_report(table)
        xor_ab, xor_ba = survey._xor_from_probs(*survey.sequential_probs(table))
        named = any(line.startswith("question-order equality test: zero pooled variance")
                    for line in report.diagnostics)
        assert named == (xor_ab == xor_ba and xor_ab in (0, 1))

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

    @pytest.mark.parametrize("iterations", [float("nan"), 100.5, True, "1000", None])
    def test_iterations_must_be_an_int(self, synthetic, iterations):
        with pytest.raises(TypeError, match=r"^iterations must be an int, got "):
            survey.classicality_report(synthetic, iterations=iterations)

    @pytest.mark.parametrize("table", ["x", None, {"AB": {}}])
    def test_table_must_be_a_count_table(self, table):
        with pytest.raises(TypeError, match=r"^table must be a SequentialCountTable, got "):
            survey.classicality_report(table)

    @pytest.mark.parametrize("seed", [float("nan"), 1.5, True, "0", None])
    def test_seed_must_be_an_int(self, synthetic, seed):
        with pytest.raises(TypeError, match=r"^seed must be an int, got "):
            survey.classicality_report(synthetic, iterations=200, seed=seed)

    @pytest.mark.parametrize("confidence, error", [
        (float("nan"), BadConfidenceError), (True, TypeError), ("0.95", TypeError),
        (None, TypeError),
    ])
    def test_confidence_must_be_a_float_in_the_open_unit_interval(self, synthetic, confidence,
                                                                  error):
        with pytest.raises(error, match="confidence"):
            survey.classicality_report(synthetic, iterations=200, confidence=confidence)
