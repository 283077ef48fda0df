"""Exact four-valued connectives for ordered pairs of yes-no questions.

A single evaluation needs three binary answers: the answer ``a`` to the first
question, the answer ``b_alone`` the second question would give with nothing
asked before it, and the answer ``b_after`` it gives after the first question
has been asked nonselectively (asked, answer discarded).  No experiment yields
all three in one run; the triple is a counterfactual record, and the
connectives are functions of the three free bits.

Everything in this module is computed in exact rational arithmetic
(:class:`fractions.Fraction`); equality checks are exact, never toleranced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

from .errors import UnknownConnectiveError

__all__ = [
    "Answer",
    "CELLS",
    "CounterfactualRecord",
    "Connective",
    "IdentityReport",
    "ALL_RECORDS",
    "CONJUNCTION_REFERENCE",
    "INCLUSIVE_OR_REFERENCE",
    "sequential_conjunction_value",
    "conjunction_value",
    "xor_value",
    "or_value",
    "truth_table",
    "complement_first_record",
    "complement_second_record",
    "swapped_order_record",
    "identity_suite",
    "truth_table_csv",
    "truth_table_text",
]

Answer = int
Connective = Literal["conjunction", "xor", "inclusive_or"]

CONNECTIVES: tuple[Connective, ...] = ("conjunction", "xor", "inclusive_or")

CELLS: tuple[tuple[Answer, Answer], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
"""Answer pairs (first, second) in ascending order, so index = 2*first + second.

The one cell order of the package: survey's count vectors and bootstrap draws and
the Hilbert layer's tables follow it; the renderers list yes-yes first, for reading.
"""


def _check_answer(value: int, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return value


@dataclass(frozen=True)
class CounterfactualRecord:
    """One run's three binary answers for an ordered question pair.

    ``a``: answer to the first question.
    ``b_alone``: answer the second question gives with no preceding question.
    ``b_after``: answer the second question gives after a nonselective first
    question.  All eight triples are admissible; nothing links the fields.
    """

    a: Answer
    b_alone: Answer
    b_after: Answer

    def __post_init__(self) -> None:
        _check_answer(self.a, "a")
        _check_answer(self.b_alone, "b_alone")
        _check_answer(self.b_after, "b_after")

    @property
    def boolean(self) -> bool:
        """True when the second question is undisturbed (b_alone == b_after)."""
        return self.b_alone == self.b_after


ALL_RECORDS: tuple[CounterfactualRecord, ...] = tuple(
    CounterfactualRecord(a, b, ba) for a, b, ba in itertools.product((0, 1), repeat=3)
)
"""All eight records in lexicographic (a, b_alone, b_after) order."""


def sequential_conjunction_value(a: Answer, b_after: Answer) -> Fraction:
    """Value of 'first question, then second': the product of the two answers.

    The second answer is the one actually obtained after the first question
    was asked, i.e. the disturbed answer.
    """
    _check_answer(a, "a")
    _check_answer(b_after, "b_after")
    return Fraction(a * b_after)


def conjunction_value(record: CounterfactualRecord) -> Fraction:
    """Logical conjunction: sequential value plus half the disturbance.

        a * b_after + (b_alone - b_after) / 2

    Four-valued with range {-1/2, 0, 1/2, 1}; equals the Boolean conjunction
    a AND b_alone whenever the second question is undisturbed.
    """
    return sequential_conjunction_value(record.a, record.b_after) + Fraction(
        record.b_alone - record.b_after, 2
    )


def xor_value(record: CounterfactualRecord) -> Fraction:
    """Exclusive disjunction, derived from the conjunction by the balance rule

        (A xor B) = A + B - 2 (A and B).

    No independent value table exists for this connective; its values are a
    consequence of the rule above (and reduce to {0, 1}, the classical XOR of
    ``a`` with ``b_after``).
    """
    return Fraction(record.a + record.b_alone) - 2 * conjunction_value(record)


def or_value(record: CounterfactualRecord) -> Fraction:
    """Inclusive disjunction: A + B - (A and B).  Range {0, 1/2, 1, 3/2}."""
    return Fraction(record.a + record.b_alone) - conjunction_value(record)


_VALUE_FUNCTIONS = {
    "conjunction": conjunction_value,
    "xor": xor_value,
    "inclusive_or": or_value,
}


def truth_table(connective: Connective) -> list[tuple[CounterfactualRecord, Fraction]]:
    """All eight (record, value) rows in lexicographic (a, b_alone, b_after) order.

    A connective that is not a ``str`` raises a ``TypeError``; an unknown name
    :class:`UnknownConnectiveError`, which is also a ``ValueError``.
    """
    if not isinstance(connective, str):
        raise TypeError(f"connective must be a str, got {connective!r}")
    fn = _VALUE_FUNCTIONS.get(connective)
    if fn is None:
        raise UnknownConnectiveError(
            f"unknown connective {connective!r}; expected one of {CONNECTIVES}"
        )
    return [(record, fn(record)) for record in ALL_RECORDS]


# Frozen reference values, keyed (a, b_alone, b_after).  These are transcribed
# by hand, not computed, so that the formulas above are checked against an
# independent copy of the intended table.
CONJUNCTION_REFERENCE: dict[tuple[int, int, int], Fraction] = {
    (0, 0, 0): Fraction(0),
    (0, 0, 1): Fraction(-1, 2),
    (0, 1, 0): Fraction(1, 2),
    (0, 1, 1): Fraction(0),
    (1, 0, 0): Fraction(0),
    (1, 0, 1): Fraction(1, 2),
    (1, 1, 0): Fraction(1, 2),
    (1, 1, 1): Fraction(1),
}

INCLUSIVE_OR_REFERENCE: dict[tuple[int, int, int], Fraction] = {
    (0, 0, 0): Fraction(0),
    (0, 0, 1): Fraction(1, 2),
    (0, 1, 0): Fraction(1, 2),
    (0, 1, 1): Fraction(1),
    (1, 0, 0): Fraction(1),
    (1, 0, 1): Fraction(1, 2),
    (1, 1, 0): Fraction(3, 2),
    (1, 1, 1): Fraction(1),
}


def complement_second_record(record: CounterfactualRecord) -> CounterfactualRecord:
    """Record for the same run with the second question replaced by its complement."""
    return CounterfactualRecord(record.a, 1 - record.b_alone, 1 - record.b_after)


def complement_first_record(record: CounterfactualRecord) -> CounterfactualRecord:
    """Record for the same run with the first question replaced by its complement.

    A nonselective question and its nonselective complement are the same
    physical operation (the answer is discarded either way), so the disturbed
    second answer is shared with the original record.
    """
    return CounterfactualRecord(1 - record.a, record.b_alone, record.b_after)


def swapped_order_record(
    r_ab: CounterfactualRecord, r_ba: CounterfactualRecord
) -> CounterfactualRecord:
    """Reversed-order record consistent with ``r_ab``'s single-question answers.

    The answer a question gives when asked first is the same counterfactual
    answer whether the pair is run in one order or the other, so the
    reversed-order record inherits ``r_ab.b_alone`` as its first answer and
    ``r_ab.a`` as its undisturbed second answer.  Only the disturbed second
    answer is genuinely new information, and it is taken from ``r_ba``.
    """
    return CounterfactualRecord(r_ab.b_alone, r_ab.a, r_ba.b_after)


@dataclass(frozen=True)
class IdentityReport:
    """Pass/fail record for the value-level identity suite.

    Each flag is an exact rational check; a failure signals a code defect,
    not a tolerance problem.  ``records_share_single_answers`` reports whether
    the raw input pair already satisfied the shared-counterfactual convention
    (the order-swap identity is evaluated under the convention either way).
    """

    xor_conjunction_balance: bool
    disjunction_sum_rule: bool
    marginal_over_second: bool
    marginal_over_first: bool
    order_swap_antisymmetry: bool
    records_share_single_answers: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.xor_conjunction_balance
            and self.disjunction_sum_rule
            and self.marginal_over_second
            and self.marginal_over_first
            and self.order_swap_antisymmetry
        )


def identity_suite(
    r_ab: CounterfactualRecord, r_ba: CounterfactualRecord
) -> IdentityReport:
    """Check the value-level identities on a pair of ordered records.

    ``r_ab`` carries the answers for one question order; ``r_ba`` for the
    reversed order (roles of the two questions swapped).  Checked exactly:

    * balance:            (A xor B) + 2 (A and B) = A + B
    * disjunction sum:    (A or B) = (A xor B) + (A and B)
    * marginal over 2nd:  (A and B) + (A and not-B) = A
    * marginal over 1st:  (A and B) + (not-A and B) = B, using the shared
      nonselective disturbance for the complemented first question
    * order swap:         (A xor B) - (B xor A) = 2 [(B and A) - (A and B)],
      with the reversed record normalised to share the single-question
      answers of ``r_ab`` (see :func:`swapped_order_record`)
    """
    a = Fraction(r_ab.a)
    b = Fraction(r_ab.b_alone)
    conj = conjunction_value(r_ab)
    xor = xor_value(r_ab)
    disj = or_value(r_ab)

    balance = xor + 2 * conj == a + b
    sum_rule = disj == xor + conj
    marg_second = conj + conjunction_value(complement_second_record(r_ab)) == a
    marg_first = conj + conjunction_value(complement_first_record(r_ab)) == b

    r_ba_shared = swapped_order_record(r_ab, r_ba)
    swap = xor - xor_value(r_ba_shared) == 2 * (conjunction_value(r_ba_shared) - conj)

    consistent = r_ba.a == r_ab.b_alone and r_ba.b_alone == r_ab.a

    return IdentityReport(
        xor_conjunction_balance=balance,
        disjunction_sum_rule=sum_rule,
        marginal_over_second=marg_second,
        marginal_over_first=marg_first,
        order_swap_antisymmetry=swap,
        records_share_single_answers=consistent,
    )


# ---------------------------------------------------------------------------
# export


def truth_table_csv(connective: Connective) -> str:
    """CSV rendering of one connective's table (values as exact 'p/q' strings)."""
    lines = ["a,b_alone,b_after,value"]
    for record, value in truth_table(connective):
        lines.append(f"{record.a},{record.b_alone},{record.b_after},{value}")
    return "\n".join(lines) + "\n"


def _grouped_rows(connective: Connective) -> Iterator[tuple[int, list[Fraction]]]:
    values = {
        (r.a, r.b_alone, r.b_after): v for r, v in truth_table(connective)
    }
    for a in (0, 1):
        yield a, [values[(a, b, ba)] for b in (0, 1) for ba in (0, 1)]


_TITLES = {
    "conjunction": "Conjunction (A and B)",
    "xor": "Exclusive disjunction (A xor B)",
    "inclusive_or": "Inclusive disjunction (A or B)",
}


def truth_table_text(connective: Connective) -> str:
    """Aligned plain-text table, columns grouped by b_alone then b_after."""
    width = 9
    out = [_TITLES[connective]]
    out.append(" " * 6 + "B = 0".center(2 * width) + "B = 1".center(2 * width))
    sub = "".join(f"B_A = {ba}".center(width) for _ in (0, 1) for ba in (0, 1))
    out.append(" " * 6 + sub)
    for a, row in _grouped_rows(connective):
        cells = "".join(str(v).center(width) for v in row)
        out.append(f"A = {a} " + cells)
    return "\n".join(out) + "\n"
