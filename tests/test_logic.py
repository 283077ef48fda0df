"""Exact-arithmetic tests of the four-valued connectives.

The conjunction and inclusive-disjunction tables are checked against frozen
hand-transcribed values; the exclusive disjunction is checked against an
independent oracle that evaluates its two disjoint sequential branches
directly.  All comparisons are exact rational comparisons.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasilogic import logic
from quasilogic.errors import QuasilogicError, UnknownConnectiveError
from quasilogic.logic import (
    ALL_RECORDS,
    CONJUNCTION_REFERENCE,
    INCLUSIVE_OR_REFERENCE,
    CounterfactualRecord,
    conjunction_value,
    identity_suite,
    or_value,
    sequential_conjunction_value,
    truth_table,
    xor_value,
)

records = st.sampled_from(ALL_RECORDS)


def xor_oracle(r: CounterfactualRecord) -> Fraction:
    """Independent route: sum of the two disjoint sequential branches.

    'A then not-B' contributes a * (1 - b_after); 'not-A then B' contributes
    (1 - a) * b_after, because asking a question or its complement is the same
    physical operation and disturbs the second answer identically.
    """
    return Fraction(r.a * (1 - r.b_after) + (1 - r.a) * r.b_after)


class TestSequentialConjunction:
    @pytest.mark.parametrize(
        "a,b_after,expected", [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0)]
    )
    def test_product(self, a, b_after, expected):
        assert sequential_conjunction_value(a, b_after) == expected


class TestConjunction:
    def test_matches_reference_exhaustively(self):
        for record in ALL_RECORDS:
            key = (record.a, record.b_alone, record.b_after)
            assert conjunction_value(record) == CONJUNCTION_REFERENCE[key]

    @pytest.mark.parametrize(
        "triple,expected",
        [
            ((0, 0, 1), Fraction(-1, 2)),
            ((1, 1, 0), Fraction(1, 2)),
            ((1, 1, 1), Fraction(1)),
            ((0, 0, 0), Fraction(0)),
        ],
    )
    def test_spot_values(self, triple, expected):
        assert conjunction_value(CounterfactualRecord(*triple)) == expected

    def test_extreme_values(self):
        values = [conjunction_value(r) for r in ALL_RECORDS]
        assert min(values) == Fraction(-1, 2)
        assert max(values) == Fraction(1)

    @given(records)
    def test_boolean_when_undisturbed(self, r):
        if r.boolean:
            assert conjunction_value(r) == r.a * r.b_alone


class TestInclusiveOr:
    def test_matches_reference_exhaustively(self):
        for record in ALL_RECORDS:
            key = (record.a, record.b_alone, record.b_after)
            assert or_value(record) == INCLUSIVE_OR_REFERENCE[key]

    @pytest.mark.parametrize(
        "triple,expected",
        [
            ((1, 1, 0), Fraction(3, 2)),
            ((0, 0, 1), Fraction(1, 2)),
            ((1, 0, 0), Fraction(1)),
        ],
    )
    def test_spot_values(self, triple, expected):
        assert or_value(CounterfactualRecord(*triple)) == expected

    def test_extreme_values(self):
        values = [or_value(r) for r in ALL_RECORDS]
        assert max(values) == Fraction(3, 2)

    @given(records)
    def test_boolean_when_undisturbed(self, r):
        if r.boolean:
            assert or_value(r) == r.a + r.b_alone - r.a * r.b_alone


class TestXor:
    def test_matches_branch_oracle_exhaustively(self):
        for record in ALL_RECORDS:
            assert xor_value(record) == xor_oracle(record)

    @pytest.mark.parametrize(
        "triple,expected",
        [((1, 1, 1), 0), ((1, 0, 0), 1), ((0, 0, 1), 1)],
    )
    def test_spot_values(self, triple, expected):
        assert xor_value(CounterfactualRecord(*triple)) == expected

    def test_values_stay_in_admissible_set(self):
        admissible = {Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)}
        assert {xor_value(r) for r in ALL_RECORDS} <= admissible

    @given(records)
    def test_boolean_when_undisturbed(self, r):
        if r.boolean:
            assert xor_value(r) == (r.a + r.b_alone) % 2


class TestTruthTable:
    def test_row_order_is_lexicographic(self):
        rows = [(r.a, r.b_alone, r.b_after) for r, _ in truth_table("conjunction")]
        assert rows == sorted(rows)
        assert len(rows) == 8

    def test_xor_rows_derive_from_conjunction_rows(self):
        conj = dict(truth_table("conjunction"))
        for record, value in truth_table("xor"):
            assert value == record.a + record.b_alone - 2 * conj[record]

    def test_rejects_unknown_connective(self):
        with pytest.raises(ValueError):
            truth_table("nand")

    def test_unknown_connective_is_a_package_error(self):
        with pytest.raises(UnknownConnectiveError, match="unknown connective 'nand'") as exc:
            truth_table("nand")
        assert isinstance(exc.value, QuasilogicError) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("connective", [None, ["xor"], 1])
    def test_connective_must_be_a_str(self, connective):
        with pytest.raises(TypeError, match=r"^connective must be a str, got "):
            truth_table(connective)


class TestIdentitySuite:
    @given(records, records)
    def test_all_identities_hold(self, r_ab, r_ba):
        report = identity_suite(r_ab, r_ba)
        assert report.all_pass

    def test_all_64_ordered_pairs(self):
        for r_ab, r_ba in itertools.product(ALL_RECORDS, repeat=2):
            assert identity_suite(r_ab, r_ba).all_pass

    def test_order_swap_worked_example(self):
        # r_ab = (1,1,0), r_ba = (1,1,1): both sides of the swap identity equal 1
        r_ab = CounterfactualRecord(1, 1, 0)
        r_ba = CounterfactualRecord(1, 1, 1)
        lhs = xor_value(r_ab) - xor_value(r_ba)
        rhs = 2 * (conjunction_value(r_ba) - conjunction_value(r_ab))
        assert lhs == rhs == 1
        assert identity_suite(r_ab, r_ba).records_share_single_answers

    def test_zero_record(self):
        r = CounterfactualRecord(0, 0, 0)
        assert xor_value(r) + 2 * conjunction_value(r) == 0

    @given(records)
    def test_marginality_arithmetic(self, r):
        # complementing the second question flips both of its answers
        flipped = CounterfactualRecord(r.a, 1 - r.b_alone, 1 - r.b_after)
        assert conjunction_value(r) + conjunction_value(flipped) == r.a
        # complementing the first question keeps the shared disturbance
        swapped = CounterfactualRecord(1 - r.a, r.b_alone, r.b_after)
        assert conjunction_value(r) + conjunction_value(swapped) == r.b_alone

    def test_inconsistent_pair_is_reported_but_identity_still_holds(self):
        r_ab = CounterfactualRecord(0, 0, 0)
        r_ba = CounterfactualRecord(1, 1, 1)
        report = identity_suite(r_ab, r_ba)
        assert not report.records_share_single_answers
        assert report.order_swap_antisymmetry


class TestRecordValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CounterfactualRecord(2, 0, 0)
        with pytest.raises(ValueError):
            CounterfactualRecord(0, -1, 0)


class TestExport:
    def test_csv_shape_and_values(self):
        text = logic.truth_table_csv("conjunction")
        lines = text.strip().splitlines()
        assert lines[0] == "a,b_alone,b_after,value"
        assert len(lines) == 9
        assert "0,0,1,-1/2" in lines
        assert "1,1,1,1" in lines

    def test_csv_fraction_rendering(self):
        text = logic.truth_table_csv("inclusive_or")
        assert "1,1,0,3/2" in text

    def test_text_layout_groups_columns(self):
        text = logic.truth_table_text("conjunction")
        assert "B = 0" in text and "B = 1" in text
        assert "B_A = 0" in text and "B_A = 1" in text
        row_labels = [line.split()[0:3] for line in text.splitlines() if line.startswith("A =")]
        assert row_labels == [["A", "=", "0"], ["A", "=", "1"]]
        assert "-1/2" in text
