"""Reconstruction of order-invariant logical joint probabilities from surveys.

A two-order survey asks the same pair of yes-no questions to two independent
respondent groups, one group per question order.  From the eight observed
counts the module reconstructs the logical joint probability of each answer
pair,

    joint(a, b) = p_first_order(a, b) + [p_other_first(b) - p_this_second(b)] / 2,

tests the question-order equality of the exclusive disjunction, quantifies the
raw order effect, attaches bootstrap confidence intervals, and flags cells
whose reconstructed probability is credibly negative (non-classical).

All point estimates and their exact identities are computed in rational
arithmetic on the raw counts; floats appear only in statistics, resampling and
reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    BadConfidenceError,
    DuplicateCellError,
    LowExpectedCountWarning,
    MissingCellError,
    NegativeCountError,
    SchemaError,
    TooFewIterationsError,
    ZeroVarianceError,
)
from .logic import CELLS

__all__ = [
    "CELLS",
    "MAX_GROUP_TOTAL",
    "SequentialCountTable",
    "parse_counts",
    "load_counts",
    "sequential_probs",
    "reconstruct_logical_joint",
    "logical_tables_from_probs",
    "xor_estimates",
    "qq_equality_stat",
    "order_effect_stat",
    "ReconstructionReport",
    "classicality_report",
]

Cell = tuple[int, int]

CSV_HEADER = ("order", "first", "second", "count")

MAX_GROUP_TOTAL = 2**63 - 1
"""Largest respondent count per order group: the multinomial resampler's int64 limit."""

_LABEL_DIRECTIVE = re.compile(r"#\s*label_([ab])\s*[=:]\s*(.+?)\s*$")

_SHOWN_CHARS = 32
"""Longest input field an error message repeats in full."""


def _shown(field: str, quote: bool = True) -> str:
    """An input field for an error message (its ``repr`` if quoted), cut to a prefix when long."""
    prefix = field[:_SHOWN_CHARS]
    shown = repr(prefix) if quote else prefix
    return shown if len(field) <= _SHOWN_CHARS else f"{shown}... ({len(field)} characters)"


@dataclass(frozen=True)
class SequentialCountTable:
    """Observed counts of a two-order yes/no survey.

    ``counts_ab[(first, second)]``: respondents who answered ``first`` to
    question A (asked first) and then ``second`` to question B.
    ``counts_ba[(first, second)]``: respondents who answered ``first`` to
    question B (asked first) and then ``second`` to question A.
    The two groups may have different sizes; every estimate divides by its own
    group total, which may not exceed :data:`MAX_GROUP_TOTAL`.
    """

    counts_ab: Mapping[Cell, int]
    counts_ba: Mapping[Cell, int]
    label_a: str = "A"
    label_b: str = "B"

    def __post_init__(self) -> None:
        for name, counts in (("counts_ab", self.counts_ab), ("counts_ba", self.counts_ba)):
            if set(counts) != set(CELLS):
                raise MissingCellError(f"{name}: expected exactly cells {CELLS}")
            for cell, value in counts.items():
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise SchemaError(f"{name}{cell}: count {value!r} is not an integer")
                if value < 0:
                    raise NegativeCountError(f"{name}{cell}: count {value} is negative")
            total = sum(int(value) for value in counts.values())
            if total <= 0:
                raise SchemaError(f"{name}: group total must be positive")
            if total > MAX_GROUP_TOTAL:
                raise SchemaError(
                    f"{name}: group total {_shown(str(total), quote=False)} exceeds the limit"
                    f" {MAX_GROUP_TOTAL} (2**63 - 1)"
                )
        object.__setattr__(self, "counts_ab", dict(self.counts_ab))
        object.__setattr__(self, "counts_ba", dict(self.counts_ba))

    @property
    def n_ab(self) -> int:
        return sum(self.counts_ab.values())

    @property
    def n_ba(self) -> int:
        return sum(self.counts_ba.values())

    def to_csv(self) -> str:
        lines = [",".join(CSV_HEADER)]
        for order, counts in (("AB", self.counts_ab), ("BA", self.counts_ba)):
            for first, second in CELLS:
                lines.append(f"{order},{first},{second},{counts[(first, second)]}")
        return "\n".join(lines) + "\n"


def parse_counts(text: str) -> SequentialCountTable:
    """Parse the canonical count CSV.

    Schema: header ``order,first,second,count``; ``order`` in {AB, BA};
    ``first``/``second`` in {0, 1}; exactly 8 data rows.  Blank lines and
    ``#`` comment lines are skipped; comments of the form ``# label_a = Name``
    set the question labels (else A and B).  Errors carry the offending line number.
    """
    label_a, label_b = "A", "B"
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            match = _LABEL_DIRECTIVE.match(stripped)
            if match:
                if match.group(1) == "a":
                    label_a = match.group(2)
                else:
                    label_b = match.group(2)
            continue
        try:
            rows.append((lineno, next(csv.reader(io.StringIO(stripped)))))
        except csv.Error as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None

    if not rows:
        raise SchemaError("empty document")
    header_line, header = rows[0]
    if [h.strip() for h in header] != list(CSV_HEADER):
        raise SchemaError(
            f"line {header_line}: expected header {','.join(CSV_HEADER)!r}, got {_shown(','.join(header))}"
        )

    tables: dict[str, dict[Cell, int]] = {"AB": {}, "BA": {}}
    for lineno, row in rows[1:]:
        if len(row) != 4:
            raise SchemaError(f"line {lineno}: expected 4 fields, got {len(row)}")
        order, first_s, second_s, count_s = (cell.strip() for cell in row)
        if order not in tables:
            raise SchemaError(f"line {lineno}: order must be AB or BA, got {_shown(order)}")
        if first_s not in ("0", "1") or second_s not in ("0", "1"):
            raise SchemaError(f"line {lineno}: answers must be 0 or 1")
        count = _parse_count(count_s, lineno)
        cell = (int(first_s), int(second_s))
        if cell in tables[order]:
            raise DuplicateCellError(f"line {lineno}: duplicate cell {order},{cell[0]},{cell[1]}")
        tables[order][cell] = count

    for order in ("AB", "BA"):
        missing = set(CELLS) - set(tables[order])
        if missing:
            cells = ", ".join(f"{order},{f},{s}" for f, s in sorted(missing))
            raise MissingCellError(f"missing cell rows: {cells}")

    return SequentialCountTable(
        counts_ab=tables["AB"], counts_ba=tables["BA"], label_a=label_a, label_b=label_b
    )


def _parse_count(text: str, lineno: int) -> int:
    """A non-negative integer count.

    ``int`` refuses a field of digits only when it is longer than Python's
    integer-string digit limit; without its leading zeros such a count is
    either short enough to read or far above :data:`MAX_GROUP_TOTAL`.
    """
    try:
        count = int(text)
    except ValueError:
        if not text.isdecimal():
            raise SchemaError(f"line {lineno}: count {_shown(text)} is not an integer") from None
        significant = text.lstrip("0")
        if len(significant) > len(str(MAX_GROUP_TOTAL)):
            raise SchemaError(
                f"line {lineno}: count {_shown(text)} exceeds the limit {MAX_GROUP_TOTAL} (2**63 - 1)"
            ) from None
        count = int(significant or "0")
    if count < 0:
        raise NegativeCountError(f"line {lineno}: count {_shown(str(count), quote=False)} is negative")
    return count


def load_counts(path: str) -> SequentialCountTable:
    """Read and parse a count CSV file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_counts(handle.read())


# ---------------------------------------------------------------------------
# point estimates (exact rational arithmetic)


def sequential_probs(
    table: SequentialCountTable,
) -> tuple[dict[Cell, Fraction], dict[Cell, Fraction]]:
    """Observed sequential outcome distributions, one per order, as exact fractions."""
    n_ab, n_ba = table.n_ab, table.n_ba
    p_ab = {cell: Fraction(table.counts_ab[cell], n_ab) for cell in CELLS}
    p_ba = {cell: Fraction(table.counts_ba[cell], n_ba) for cell in CELLS}
    return p_ab, p_ba


def _first_marginal(probs: Mapping[Cell, object]) -> dict:
    return {v: probs[(v, 0)] + probs[(v, 1)] for v in (0, 1)}


def _second_marginal(probs: Mapping[Cell, object]) -> dict:
    return {v: probs[(0, v)] + probs[(1, v)] for v in (0, 1)}


def logical_tables_from_probs(
    p_ab: Mapping[Cell, object], p_ba: Mapping[Cell, object]
) -> tuple[dict[Cell, object], dict[Cell, object]]:
    """Logical joint tables from sequential outcome distributions.

    ``p_ab[(first, second)]`` is the A-first distribution, ``p_ba`` the
    B-first one.  Both returned tables are keyed (a, b) = (answer to A,
    answer to B), so they are directly comparable cell by cell.  Works with
    any numeric type (exact fractions in, exact fractions out).

    The first question's marginal is the undisturbed estimate of its
    single-question probability; the second question's marginal in the *other*
    order estimates the nonselectively disturbed one.  Half their difference
    is the correction that turns a sequential probability into a logical
    joint probability.
    """
    ab_first = _first_marginal(p_ab)     # undisturbed A
    ab_second = _second_marginal(p_ab)   # B after nonselective A
    ba_first = _first_marginal(p_ba)     # undisturbed B
    ba_second = _second_marginal(p_ba)   # A after nonselective B

    logical_ab = {(a, b): p_ab[(a, b)] + (ba_first[b] - ab_second[b]) / 2 for a, b in CELLS}
    logical_ba = {(a, b): p_ba[(b, a)] + (ab_first[a] - ba_second[a]) / 2 for a, b in CELLS}
    return logical_ab, logical_ba


def reconstruct_logical_joint(
    table: SequentialCountTable,
) -> tuple[dict[Cell, Fraction], dict[Cell, Fraction]]:
    """Exact logical joint tables for both orders, keyed (a, b).

    Each table sums to exactly 1; row sums equal the A-first marginals of the
    A-first group and column sums equal the B-first marginals of the B-first
    group, exactly in rational arithmetic.
    """
    p_ab, p_ba = sequential_probs(table)
    return logical_tables_from_probs(p_ab, p_ba)


def xor_estimates(table: SequentialCountTable) -> tuple[Fraction, Fraction]:
    """Exact estimates of the exclusive-disjunction expectation, one per order."""
    p_ab, p_ba = sequential_probs(table)
    return (
        p_ab[(1, 0)] + p_ab[(0, 1)],
        p_ba[(1, 0)] + p_ba[(0, 1)],
    )


# ---------------------------------------------------------------------------
# hypothesis tests


def qq_equality_stat(table: SequentialCountTable) -> tuple[float, float]:
    """Two-proportion z-test of the question-order equality.

    Null hypothesis: the exclusive-disjunction probability (answers differ)
    is the same in both orders.  Equivalent to order invariance of the
    logical joint probability; the exact balance ``xor difference =
    -2 * conjunction difference`` is checked on the point estimates before
    testing.  Returns (z statistic, two-sided p-value).
    """
    xor_ab, xor_ba = xor_estimates(table)
    logical_ab, logical_ba = reconstruct_logical_joint(table)
    # exact bookkeeping identity on the estimates; failure is a defect
    imbalance = (xor_ab - xor_ba) + 2 * (logical_ab[(1, 1)] - logical_ba[(1, 1)])
    if imbalance != 0:
        raise ArithmeticError(f"xor/conjunction balance identity off by {imbalance}")

    n1, n2 = table.n_ab, table.n_ba
    x1 = table.counts_ab[(1, 0)] + table.counts_ab[(0, 1)]
    x2 = table.counts_ba[(1, 0)] + table.counts_ba[(0, 1)]
    pooled = Fraction(x1 + x2, n1 + n2)
    variance = float(pooled * (1 - pooled)) * (1 / n1 + 1 / n2)
    if variance == 0.0:
        if x1 * n2 == x2 * n1:
            return 0.0, 1.0
        raise ZeroVarianceError(
            "pooled variance is zero but the two estimates differ"
        )
    z = (float(xor_ab) - float(xor_ba)) / variance**0.5
    return z, _normal_two_sided_p(z)


def _normal_two_sided_p(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal Z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _chi2_df3_sf(x: float) -> float:
    """P(X >= x) for a chi-square X with 3 degrees of freedom (Abramowitz & Stegun, ch. 26)."""
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


def _relabeled_rows(table: SequentialCountTable) -> np.ndarray:
    """2x4 observed counts with both orders relabeled to common (a, b) cells."""
    row_ab = [table.counts_ab[(a, b)] for a, b in CELLS]
    row_ba = [table.counts_ba[(b, a)] for a, b in CELLS]
    return np.array([row_ab, row_ba], dtype=float)


def order_effect_stat(table: SequentialCountTable) -> tuple[float, float]:
    """Chi-square homogeneity test of the raw order effect (3 degrees of freedom).

    Compares the joint answer distribution, relabeled to common (a, b) cells,
    across the two order groups.  Emits :class:`LowExpectedCountWarning` when
    any expected cell is below 5 (the statistic is still computed).
    """
    observed = _relabeled_rows(table)
    row_totals = observed.sum(axis=1, keepdims=True)
    col_totals = observed.sum(axis=0, keepdims=True)
    expected = row_totals @ col_totals / observed.sum()
    positive = expected > 0
    if expected[positive].min() < 5:
        warnings.warn(
            "expected cell count below 5; chi-square approximation may be poor",
            LowExpectedCountWarning,
            stacklevel=2,
        )
    statistic = float((((observed - expected) ** 2)[positive] / expected[positive]).sum())
    return statistic, _chi2_df3_sf(statistic)


# ---------------------------------------------------------------------------
# bootstrap


def _cells_vector(counts: Mapping[Cell, float]) -> np.ndarray:
    return np.array([counts[cell] for cell in CELLS], dtype=float)


_BOOTSTRAP_TARGETS = ("logical_ab", "logical_ba", "order_difference")


def _resample(table: SequentialCountTable, iterations: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each order group's resampled frequencies, (iterations, 4) in :data:`CELLS` order.

    A group is normalised before the next is drawn.
    """
    rng = np.random.default_rng(seed)
    return tuple(
        _frequencies(rng.multinomial(n, _cells_vector(counts) / n, size=iterations), n)
        for counts, n in ((table.counts_ab, table.n_ab), (table.counts_ba, table.n_ba))
    )


def _frequencies(draws: np.ndarray, n: int) -> np.ndarray:
    """Multinomial ``draws`` of total ``n`` divided by their float row sums."""
    if n <= 2**53:
        # every count and partial sum up to 2**53 is an exact float, so each
        # float row sum is exactly n and one division gives the same bits
        return draws / n
    q = draws.astype(float)
    q /= q.sum(axis=1, keepdims=True)
    return q


def _marginal_shift(q_first: np.ndarray, q_second: np.ndarray, v: int) -> np.ndarray:
    """Per resample, half of (P(v) to the question ``q_first`` asks first - P(v) to it asked second)."""
    return (q_first[:, 2 * v] + q_first[:, 2 * v + 1] - (q_second[:, v] + q_second[:, 2 + v])) / 2


def _bootstrap_intervals(
    table: SequentialCountTable, iterations: int, confidence: float, seed: int
) -> dict[str, dict[Cell, tuple[float, float]]]:
    """Percentile intervals of each target at each cell: all from one resample and four shifts."""
    q_ab, q_ba = _resample(table, iterations, seed)
    shift_b = [_marginal_shift(q_ba, q_ab, b) for b in (0, 1)]
    shift_a = [_marginal_shift(q_ab, q_ba, a) for a in (0, 1)]
    columns = dict(zip(_BOOTSTRAP_TARGETS, np.empty((3, iterations))))
    intervals: dict[str, dict[Cell, tuple[float, float]]] = {which: {} for which in columns}
    logical_ab, logical_ba, difference = columns.values()
    for a, b in CELLS:
        np.add(q_ab[:, 2 * a + b], shift_b[b], out=logical_ab)
        np.add(q_ba[:, 2 * b + a], shift_a[a], out=logical_ba)
        np.subtract(logical_ab, logical_ba, out=difference)
        for which, column in columns.items():
            intervals[which][(a, b)] = _percentile_interval(column, confidence)
    return intervals


def _check_bootstrap(iterations: int, confidence: float) -> None:
    if iterations < 100:
        raise TooFewIterationsError(f"need >= 100 iterations, got {iterations}")
    if not 0.0 < confidence < 1.0:
        raise BadConfidenceError(f"confidence must be in (0, 1), got {confidence}")


def _percentile_interval(values: np.ndarray, confidence: float) -> tuple[float, float]:
    """Central ``confidence`` interval of the bootstrap values, which it may reorder.

    Bit for bit ``np.quantile(values, [alpha, 1 - alpha])`` with alpha =
    (1 - confidence) / 2: numpy's ``"linear"`` method (Hyndman & Fan type 7),
    with numpy's virtual index, top-end clamp and two-sided interpolation.
    """
    n = values.size
    alpha = (1.0 - confidence) / 2.0
    ends = []
    for q in (alpha, 1.0 - alpha):
        virtual = (n - 1) * q
        if virtual >= n - 1:
            # numpy takes the last value through index -1, and gamma = virtual - (-1)
            ends.append((n - 1, n - 1, virtual + 1))
        else:
            previous = math.floor(virtual)
            ends.append((previous, previous + 1, virtual - previous))
    order = _order_statistics(values, [ends[0][:2], ends[1][:2]])
    interval = []
    for previous, following, gamma in ends:
        a, b = order[previous], order[following]
        interval.append(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)
    return interval[0], interval[1]


_TAIL_SAMPLE = 1024
"""Least size of the strided sample whose order statistics set the tail thresholds."""


def _order_statistics(values: np.ndarray, tails: list[tuple[int, int]]) -> dict[int, float]:
    """``{rank: value}`` of ascending sorted ``values`` at a lower and an upper pair of ranks.

    Each pair is selected among the values at or beyond a threshold read from a
    sorted strided sample (Floyd & Rivest, CACM 18(3), 1975), four standard
    deviations past the pair's rank.  Those values are the first (last) values
    of the sorted column, ties included, so a rank inside them is exact.  When
    the column is short or a candidate set cannot hold its ranks, the whole
    column is partitioned in place instead.  No randomness is drawn.
    """
    n = values.size
    step = n // _TAIL_SAMPLE
    if step > 1:
        sample = np.sort(values[::step])
        m = sample.size
        found: dict[int, float] = {}
        for ranks, upper in zip(tails, (False, True)):
            # how many values the candidates must hold, and its sample position:
            # a tail holds at most about half the column, so r < m for m >= 1024
            depth = n - min(ranks) if upper else max(ranks) + 1
            share = depth / n
            r = math.ceil(share * m + 4 * math.sqrt(m * share * (1 - share))) + 1
            if upper:
                candidates = values[values >= sample[m - 1 - r]]
                offset = n - candidates.size
            else:
                candidates = values[values <= sample[r]]
                offset = 0
            if candidates.size < depth:
                break
            kth = [rank - offset for rank in ranks]
            candidates.partition(kth)
            found.update(zip(ranks, candidates[kth].tolist()))
        else:
            return found
    ranks = [rank for pair in tails for rank in pair]
    values.partition(ranks)
    return dict(zip(ranks, values[ranks].tolist()))


# ---------------------------------------------------------------------------
# report assembly


def _cell_key(cell: Cell) -> str:
    return f"{cell[0]}{cell[1]}"


@dataclass(frozen=True)
class ReconstructionReport:
    """Everything the survey pipeline produces for one count table.

    Sequential tables are keyed (first, second) in their own order's reading;
    logical tables are keyed (a, b) = (answer to A, answer to B) and are
    directly comparable across orders.  A cell is flagged non-classical only
    when its point estimate is negative and its bootstrap interval excludes 0.
    """

    label_a: str
    label_b: str
    n_ab: int
    n_ba: int
    seq_probs_ab: dict[Cell, float]
    seq_probs_ba: dict[Cell, float]
    logical_ab: dict[Cell, float]
    logical_ba: dict[Cell, float]
    logical_ab_exact: dict[Cell, Fraction]
    logical_ba_exact: dict[Cell, Fraction]
    xor_ab: float
    xor_ba: float
    qq_statistic: float
    qq_p_value: float
    order_statistic: float
    order_p_value: float
    order_df: int
    bootstrap_intervals: dict[str, dict[Cell, tuple[float, float]]]
    classicality_flags_ab: dict[Cell, bool]
    classicality_flags_ba: dict[Cell, bool]
    order_invariance_gap: dict[Cell, float]
    iterations: int
    confidence: float
    seed: int
    version: str

    def to_json_dict(self) -> dict:
        def cells(values: Mapping[Cell, object]) -> dict[str, object]:
            return {_cell_key(cell): values[cell] for cell in sorted(values)}

        return {
            "labels": {"a": self.label_a, "b": self.label_b},
            "totals": {"ab": self.n_ab, "ba": self.n_ba},
            "sequential_ab": cells(self.seq_probs_ab),
            "sequential_ba": cells(self.seq_probs_ba),
            "logical_ab": cells(self.logical_ab),
            "logical_ba": cells(self.logical_ba),
            "logical_ab_exact": {k: str(v) for k, v in cells(self.logical_ab_exact).items()},
            "logical_ba_exact": {k: str(v) for k, v in cells(self.logical_ba_exact).items()},
            "xor": {"ab": self.xor_ab, "ba": self.xor_ba},
            "qq_test": {"statistic": self.qq_statistic, "p_value": self.qq_p_value},
            "order_effect_test": {
                "statistic": self.order_statistic,
                "p_value": self.order_p_value,
                "df": self.order_df,
            },
            "bootstrap": {
                which: {_cell_key(c): list(iv) for c, iv in sorted(table.items())}
                for which, table in sorted(self.bootstrap_intervals.items())
            },
            "classicality_flags": {
                "logical_ab": cells(self.classicality_flags_ab),
                "logical_ba": cells(self.classicality_flags_ba),
            },
            "order_invariance_gap": cells(self.order_invariance_gap),
            "config": {
                "iterations": self.iterations,
                "confidence": self.confidence,
                "seed": self.seed,
                "version": self.version,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def plot_rows(self) -> list[tuple[str, str, float]]:
        """Grouped-bar data: (series, cell, value), cells keyed (a, b).

        Sequential series are relabeled to common (a, b) cells so the four
        series line up; ``sequential_ba`` cell (a, b) reads 'answered b to B
        first, then a to A'.
        """
        rows = [("sequential_ab", f"{a}{b}", self.seq_probs_ab[(a, b)]) for a, b in CELLS]
        rows += [("sequential_ba", f"{a}{b}", self.seq_probs_ba[(b, a)]) for a, b in CELLS]
        rows += [("logical_ab", f"{a}{b}", self.logical_ab[(a, b)]) for a, b in CELLS]
        rows += [("logical_ba", f"{a}{b}", self.logical_ba[(a, b)]) for a, b in CELLS]
        return rows

    def plot_csv(self) -> str:
        lines = ["series,cell,value"]
        for series, cell, value in self.plot_rows():
            lines.append(f"{series},{cell},{value!r}")
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        return _render_svg(self)


_SERIES_STYLE = (
    ("sequential_ab", "#1f5fa8"),   # dark blue
    ("sequential_ba", "#7fb2e5"),   # light blue
    ("logical_ab", "#b22222"),      # dark red
    ("logical_ba", "#f08080"),      # light red
)


def _render_svg(report: ReconstructionReport) -> str:
    """Self-contained grouped bar chart: sequential probabilities in blue hues,
    reconstructed logical joint probabilities in red hues, one group per
    answer pair.  The labels from the count file are escaped as XML text."""
    # imported here: it pulls in urllib.request, which only SVG output needs
    from xml.sax.saxutils import escape

    label_a, label_b = escape(report.label_a), escape(report.label_b)
    width, height = 720, 420
    margin_left, margin_right, margin_top, margin_bottom = 60, 20, 48, 56
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    values = {series: dict() for series, _ in _SERIES_STYLE}
    for series, cell, value in report.plot_rows():
        values[series][cell] = value
    cell_order = [_cell_key(cell) for cell in reversed(CELLS)]

    lo = min(0.0, min(min(v.values()) for v in values.values()))
    hi = max(max(v.values()) for v in values.values())
    span = (hi - lo) or 1.0
    lo -= 0.08 * span
    hi += 0.08 * span

    def y(value: float) -> float:
        return margin_top + (hi - value) / (hi - lo) * plot_h

    group_w = plot_w / len(cell_order)
    bar_w = group_w / (len(_SERIES_STYLE) + 1.5)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">'
        f"Sequential vs logical joint probabilities: {label_a} / {label_b}</text>",
    ]

    for tick in _axis_ticks(lo, hi):
        ty = y(tick)
        parts.append(
            f'<line x1="{margin_left}" y1="{ty:.1f}" x2="{width - margin_right}" y2="{ty:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{ty + 4:.1f}" text-anchor="end">{tick:g}</text>'
        )
    zero_y = y(0.0)
    parts.append(
        f'<line x1="{margin_left}" y1="{zero_y:.1f}" x2="{width - margin_right}" y2="{zero_y:.1f}" '
        f'stroke="#333333" stroke-width="1.2"/>'
    )

    for gi, cell in enumerate(cell_order):
        gx = margin_left + gi * group_w
        for si, (series, color) in enumerate(_SERIES_STYLE):
            value = values[series][cell]
            x = gx + (si + 0.75) * bar_w
            top = min(y(value), zero_y)
            bar_h = abs(y(value) - zero_y)
            parts.append(
                f'<rect x="{x:.1f}" y="{top:.1f}" width="{bar_w * 0.9:.1f}" '
                f'height="{bar_h:.1f}" fill="{color}"/>'
            )
        label = f"{label_a}={cell[0]}, {label_b}={cell[1]}"
        parts.append(
            f'<text x="{gx + group_w / 2:.1f}" y="{height - margin_bottom + 18}" '
            f'text-anchor="middle">{label}</text>'
        )

    legend_x = margin_left
    legend_y = height - 18
    offset = 0.0
    for series, color in _SERIES_STYLE:
        parts.append(
            f'<rect x="{legend_x + offset:.1f}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + offset + 16:.1f}" y="{legend_y}">{series}</text>'
        )
        offset += 165
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _axis_ticks(lo: float, hi: float) -> list[float]:
    raw_step = (hi - lo) / 6
    step = 10 ** np.floor(np.log10(raw_step))
    for mult in (1, 2, 5, 10):
        if raw_step <= mult * step:
            step = mult * step
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + step / 2, step)
    return [float(round(t, 10)) for t in ticks]


def classicality_report(
    table: SequentialCountTable,
    iterations: int = 10_000,
    seed: int = 0,
    confidence: float = 0.95,
) -> ReconstructionReport:
    """Run the full pipeline and assemble a :class:`ReconstructionReport`.

    The bootstrap resamples and normalises each order group once; all twelve
    intervals (three targets, four cells) come from four shared marginal shifts.
    """
    from . import __version__

    _check_bootstrap(iterations, confidence)

    p_ab, p_ba = sequential_probs(table)
    logical_ab, logical_ba = reconstruct_logical_joint(table)
    xor_ab, xor_ba = xor_estimates(table)
    qq_statistic, qq_p = qq_equality_stat(table)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowExpectedCountWarning)
        order_statistic, order_p = order_effect_stat(table)

    intervals = _bootstrap_intervals(table, iterations, confidence, seed)

    def flags(estimates: Mapping[Cell, Fraction], which: str) -> dict[Cell, bool]:
        return {
            cell: estimates[cell] < 0 and intervals[which][cell][1] < 0
            for cell in estimates
        }

    return ReconstructionReport(
        label_a=table.label_a,
        label_b=table.label_b,
        n_ab=table.n_ab,
        n_ba=table.n_ba,
        seq_probs_ab={cell: float(p_ab[cell]) for cell in CELLS},
        seq_probs_ba={cell: float(p_ba[cell]) for cell in CELLS},
        logical_ab={cell: float(v) for cell, v in logical_ab.items()},
        logical_ba={cell: float(v) for cell, v in logical_ba.items()},
        logical_ab_exact=dict(logical_ab),
        logical_ba_exact=dict(logical_ba),
        xor_ab=float(xor_ab),
        xor_ba=float(xor_ba),
        qq_statistic=qq_statistic,
        qq_p_value=qq_p,
        order_statistic=order_statistic,
        order_p_value=order_p,
        order_df=3,
        bootstrap_intervals=intervals,
        classicality_flags_ab=flags(logical_ab, "logical_ab"),
        classicality_flags_ba=flags(logical_ba, "logical_ba"),
        order_invariance_gap={
            cell: abs(float(logical_ab[cell]) - float(logical_ba[cell]))
            for cell in logical_ab
        },
        iterations=iterations,
        confidence=confidence,
        seed=seed,
        version=__version__,
    )
