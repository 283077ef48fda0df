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
arithmetic on the raw counts; floats appear only in statistics, the bootstrap
distributions and reports.  The bootstrap draws nothing: its intervals are
quantiles of the exact distribution of each resampled target, computed in one
pass per table that shares each frequency grid and lattice ordering among the
targets.  It skips the work whose result is known: twelve intervals take ten
searches, since two order differences always equal two others, and each pmf's
spectrum is evaluated only where it has not underflowed to zero.
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
    IdentityCheckError,
    LowExpectedCountWarning,
    MissingCellError,
    NegativeCountError,
    SchemaError,
    TooFewIterationsError,
)
from .logic import CELLS

__all__ = [
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

MAX_GROUP_TOTAL = 10**8
"""Largest respondent count per order group.  The exact bootstrap's cost grows as the
square root of the group sizes, so the limit bounds the cost of one table; its lattice
arithmetic stays inside int64 up to about 2 * 10**9."""

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
                    f" {MAX_GROUP_TOTAL} (10**8)"
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
    set the question labels (else A and B).  Errors carry the offending line number;
    ``text`` that is not a ``str`` raises a ``TypeError``.
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, got {_shown(repr(text), quote=False)}")
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
                f"line {lineno}: count {_shown(text)} exceeds the limit {MAX_GROUP_TOTAL} (10**8)"
            ) from None
        count = int(significant or "0")
    if count < 0:
        raise NegativeCountError(f"line {lineno}: count {_shown(str(count), quote=False)} is negative")
    return count


def load_counts(path: str) -> SequentialCountTable:
    """Read and parse a count CSV file, which must be UTF-8 text."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"input is not UTF-8 text: {exc}") from None
    return parse_counts(text)


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
    return _xor_from_probs(*sequential_probs(table))


def _xor_from_probs(p_ab: Mapping[Cell, Fraction], p_ba: Mapping[Cell, Fraction]) -> tuple:
    return p_ab[(1, 0)] + p_ab[(0, 1)], p_ba[(1, 0)] + p_ba[(0, 1)]


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
    return _qq_equality(table, xor_estimates(table), reconstruct_logical_joint(table))


def _qq_equality(table: SequentialCountTable, xors: tuple, logical: tuple) -> tuple[float, float]:
    """:func:`qq_equality_stat` from the table's exact xor estimates and logical tables."""
    (xor_ab, xor_ba), (logical_ab, logical_ba) = xors, logical
    # exact bookkeeping identity on the estimates; failure is a defect
    imbalance = (xor_ab - xor_ba) + 2 * (logical_ab[(1, 1)] - logical_ba[(1, 1)])
    if imbalance != 0:
        raise IdentityCheckError(f"xor/conjunction balance identity off by {imbalance}")

    n1, n2 = table.n_ab, table.n_ba
    x1 = table.counts_ab[(1, 0)] + table.counts_ab[(0, 1)]
    x2 = table.counts_ba[(1, 0)] + table.counts_ba[(0, 1)]
    pooled = Fraction(x1 + x2, n1 + n2)
    variance = float(pooled * (1 - pooled)) * (1 / n1 + 1 / n2)
    # zero only when pooled is 0 or 1, where x1/n1 = x2/n2; any other pooled value
    # keeps the variance above about 1e-38
    if variance == 0.0:
        return 0.0, 1.0
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
# bootstrap: the exact distribution of the resampled targets


_BOOTSTRAP_TARGETS = ("logical_ab", "logical_ba", "order_difference")


def _target_weights(a: int, b: int) -> dict[str, tuple[list[int], list[int]]]:
    """Per target at cell (a, b), the {-1, 0, 1} weights of the A-first and of the B-first
    counts, in :data:`CELLS` order, whose weighted sums S_ab and S_ba make the target
    S_ab / (2 n_ab) + S_ba / (2 n_ba)."""
    def weights(plus, minus=()):
        return [(cell in plus) - (cell in minus) for cell in CELLS]

    # logical_ab = q_ab(a, b) + [B first (b) - B second (b)] / 2, and likewise logical_ba
    logical_ab = weights([(a, b)], [(1 - a, b)]), weights([(b, 0), (b, 1)])
    logical_ba = weights([(a, 0), (a, 1)]), weights([(b, a)], [(1 - b, a)])
    difference = tuple([x - y for x, y in zip(*pair)] for pair in zip(logical_ab, logical_ba))
    return dict(zip(_BOOTSTRAP_TARGETS, (logical_ab, logical_ba, difference)))


_TARGET_WEIGHTS = tuple(((a, b), which, weights) for a, b in CELLS
                       for which, weights in _target_weights(a, b).items())
"""(cell, target, weights) of every bootstrap target, in the report's order."""


_SEARCHED_AS = tuple(next(index for index, (_, _, first) in enumerate(_TARGET_WEIGHTS)
                         if first == weights) for _, _, weights in _TARGET_WEIGHTS)
"""Per bootstrap target, the target whose search gives its interval.  Every row and column
of a resampled order-difference table sums to zero, so the order differences at (1, 1) and
(1, 0) have the weights of those at (0, 0) and (0, 1): ten searches give twelve intervals."""


def _frequency_grid(fft_size: int) -> tuple[np.ndarray, np.ndarray]:
    """ω = 2πj / fft_size at each rfft bin j, with sin²(ω/2)."""
    omega = 2 * np.pi / fft_size * np.arange(fft_size // 2 + 1)
    return omega, np.sin(omega / 2) ** 2


def _sum_pmf(k_minus: int, k_zero: int, k_plus: int, grids: dict) -> tuple[int, int, np.ndarray]:
    """``(step, start, pmf)``, P(S = start + step * j) = pmf[j], of S = X₊ - X₋ for one
    group resampled as X ~ Multinomial(n, k / n).

    The window holds the support within 10σ + 30 atoms of the mean k₊ - k₋ and leaves
    out less than 1e-20 of the mass.  It is one inverse FFT of φ(ω)ⁿ, with |φ|² - 1
    summed from squares so that |φ|ⁿ keeps its relative precision at n = 10**8; an
    exact zero of φ is never passed to ``log``.  The phase of φⁿ is evaluated only at
    the bins where |φ|ⁿ has not underflowed to 0, usually a small fraction of them; the
    others stay exact zeros of the spectrum.  ``grids`` holds the table's
    :func:`_frequency_grid` per FFT size.
    """
    n = k_minus + k_zero + k_plus
    if max(k_minus, k_zero, k_plus) == n:
        return 1, k_plus - k_minus, np.ones(1)
    if k_zero == 0:  # S = 2X₊ - n takes every other value
        _, start, pmf = _sum_pmf(0, k_minus, k_plus, grids)
        return 2, 2 * start - n, pmf
    p_minus, p_zero, p_plus = k_minus / n, k_zero / n, k_plus / n
    mean = k_plus - k_minus
    half = math.ceil(10 * math.sqrt(n * (p_minus + p_plus) - mean * mean / n) + 30)
    lo = max(mean - half, -n if k_minus else 0)
    size = min(mean + half, n if k_plus else 0) - lo + 1
    fft_size = 1 << (size - 1).bit_length()
    if fft_size not in grids:
        grids[fft_size] = _frequency_grid(fft_size)
    omega, s = grids[fft_size]
    gap = -4 * s * ((p_minus + p_plus) * p_zero + 4 * p_minus * p_plus * (1 - s))
    log_modulus = np.log1p(gap, out=np.full_like(gap, -np.inf), where=gap > -1)
    modulus = np.exp(n / 2 * log_modulus)
    live = np.flatnonzero(modulus)
    omega = omega[live]
    phase = n * np.arctan2((p_plus - p_minus) * np.sin(omega),
                           p_zero + (p_plus + p_minus) * np.cos(omega)) - lo * omega
    spectrum = np.zeros(modulus.size, dtype=complex)
    spectrum[live] = modulus[live] * np.exp(-1j * phase)
    return 1, lo, np.maximum(np.fft.irfft(spectrum, fft_size)[:size], 0.0)


def _group_pmf(key: tuple[int, int, int], pmfs: dict, grids: dict) -> tuple[int, int, np.ndarray]:
    """:func:`_sum_pmf` of ``key`` from ``pmfs``: a negated sum, or the complement
    n - X₊ of a one-signed sum, reuses its partner's pmf reversed."""
    k_minus, k_zero, k_plus = key
    if k_minus > k_plus or k_minus == 0 and k_plus > k_zero:
        partner = (k_plus, k_zero, k_minus) if k_minus > k_plus else (0, k_plus, k_zero)
        step, start, pmf = _group_pmf(partner, pmfs, grids)
        shift = 0 if k_minus > k_plus else sum(key)
        return step, shift - start - step * (pmf.size - 1), pmf[::-1]
    if key not in pmfs:
        pmfs[key] = _sum_pmf(*key, grids)
    return pmfs[key]


def _fine_lattice(u_f: int, u_c: int, fine_pmfs: list[np.ndarray]) -> tuple:
    """What every target on one fine lattice shares: ``(k, offsets, pieces)``.

    Fine atom j lies in coarse step k = ceil(j u_f / u_c), offset k u_c - j u_f below
    that step's top.  ``k`` and ``offsets`` list the atoms by decreasing offset (a stable
    sort), and ``pieces`` holds, per pmf in ``fine_pmfs``, its ceil-rebinned pmf and its
    atoms in that order.
    """
    j_f = np.arange(fine_pmfs[0].size)
    k = -(-j_f * u_f // u_c)
    offset = k * u_c - j_f * u_f
    del j_f
    order = np.argsort(-offset, kind="stable")
    offset = offset[order]
    return k[order], offset, [(np.bincount(k, p_f), p_f[order]) for p_f in fine_pmfs]


def _inverse_cdf(p_c: np.ndarray, fine: tuple, lattice: tuple, levels) -> list[int]:
    """min{t : F(t) >= level} for each level, F the CDF of T - origin in lattice units.

    T = S_ab n_ba + S_ba n_ab = origin + j_c u_c + j_f u_f.  The finer group (smaller
    step u_f, pieces ``fine`` from :func:`_fine_lattice`) is ceil-rebinned onto the
    coarse steps, and one convolution gives the CDF at each step's top.  Inside the step
    m that first reaches a level, each fine atom has exactly one coarse partner m - k, and
    their order is that of the fine atom's offset below the top, the same at every step:
    a cumulative sum from the step's base gives the exact end.  The coarse pmf is read
    with K = k[-1] zeros on each side, so an atom whose partner lies outside it adds an
    exact +0.0, and the sum at every real partner is the sum over partners alone.
    """
    binned, p_sorted = fine
    u_c, k_sorted, offsets = lattice
    reach = binned.size - 1
    size = p_c.size + reach
    fft_size = 1 << (size - 1).bit_length()
    steps = np.fft.irfft(np.fft.rfft(p_c, fft_size) * np.fft.rfft(binned, fft_size), fft_size)
    cdf = np.cumsum(np.maximum(steps[:size], 0.0))
    padded = np.zeros(size + reach)
    padded[reach:size] = p_c
    ends = []
    for level in levels:
        m = min(int(np.searchsorted(cdf, level)), size - 1)
        partner = (m + reach) - k_sorted
        cumulative = padded[partner]
        cumulative *= p_sorted
        np.cumsum(cumulative, out=cumulative)
        cumulative += cdf[m - 1] if m else 0.0
        i = int(np.searchsorted(cumulative, level))
        if i == cumulative.size:  # rounding left the level unreached: the step's last atom
            i = np.flatnonzero((partner >= reach) & (partner < size))[-1]
        ends.append(m * u_c - int(offsets[i]))
    return ends


def _bootstrap_intervals(
    table: SequentialCountTable, confidence: float
) -> dict[str, dict[Cell, tuple[float, float]]]:
    """Each target's inverse-CDF interval at each cell, in one pass over the table.

    The pass builds at most four pmfs per group on one frequency grid per FFT size,
    then takes the targets lattice by lattice: one ordering per fine lattice, one
    rebinned and one reordered copy per fine pmf on it, released before the next.
    A target whose weights repeat an earlier target's (:data:`_SEARCHED_AS`) is not
    searched again but shares that target's interval.
    """
    alpha = (1.0 - confidence) / 2.0
    n_ab, n_ba = table.n_ab, table.n_ba
    pmfs: dict[tuple[int, int, int], tuple[int, int, np.ndarray]] = {}
    grids: dict[int, tuple] = {}
    # (fine size, u_f, u_c) -> fine key -> (fine pmf, [(target index, origin, coarse pmf)])
    lattices: dict[tuple[int, int, int], dict] = {}
    for index, (_, _, weights) in enumerate(_TARGET_WEIGHTS):
        if _SEARCHED_AS[index] != index:
            continue
        groups = []
        for counts, group_weights, n_other in zip((table.counts_ab, table.counts_ba), weights,
                                                  (n_ba, n_ab)):
            key = tuple(sum(int(counts[cell]) for cell, w in zip(CELLS, group_weights) if w == sign)
                        for sign in (-1, 0, 1))
            step, start, pmf = _group_pmf(key, pmfs, grids)
            groups.append((step * n_other, start * n_other, key, pmf))
        (u_c, origin_c, _, p_c), (u_f, origin_f, key_f, p_f) = sorted(groups, key=lambda g: -g[0])
        targets = lattices.setdefault((p_f.size, u_f, u_c), {}).setdefault(key_f, (p_f, []))[1]
        targets.append((index, origin_c + origin_f, p_c))
    del grids
    scale = 2 * n_ab * n_ba
    ends: list[tuple[float, float]] = [None] * len(_TARGET_WEIGHTS)
    for (_, u_f, u_c), by_fine in lattices.items():
        k_sorted, offsets, pieces = _fine_lattice(u_f, u_c, [p_f for p_f, _ in by_fine.values()])
        for fine, (_, targets) in zip(pieces, by_fine.values()):
            for index, origin, p_c in targets:
                lo, hi = _inverse_cdf(p_c, fine, (u_c, k_sorted, offsets), (alpha, 1.0 - alpha))
                ends[index] = ((origin + lo) / scale, (origin + hi) / scale)
        del k_sorted, offsets, pieces, fine
    intervals: dict[str, dict[Cell, tuple[float, float]]] = {t: {} for t in _BOOTSTRAP_TARGETS}
    for (cell, which, _), searched in zip(_TARGET_WEIGHTS, _SEARCHED_AS):
        intervals[which][cell] = ends[searched]
    return intervals


def _check_bootstrap(iterations: int, seed: int, confidence: float) -> None:
    """An ``int`` of at least 100 iterations, an ``int`` seed and a ``float`` or ``int``
    confidence in (0, 1), the types a JSON report echoes; another type, a ``bool`` among
    them, raises a ``TypeError`` that names the parameter, and a NaN confidence fails the
    range check."""
    if isinstance(iterations, bool) or not isinstance(iterations, int):
        raise TypeError(f"iterations must be an int, got {_shown(repr(iterations), quote=False)}")
    if not iterations >= 100:
        raise TooFewIterationsError(f"need >= 100 iterations, got {iterations}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {_shown(repr(seed), quote=False)}")
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        raise TypeError(f"confidence must be a float, got {_shown(repr(confidence), quote=False)}")
    if not 0.0 < confidence < 1.0:
        raise BadConfidenceError(f"confidence must be in (0, 1), got {confidence}")


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
    ``diagnostics`` names what a statistic could not show: a low expected count,
    a question-order test with zero pooled variance, zero-width intervals.
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
    diagnostics: list[str]
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
            "diagnostics": self.diagnostics,
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

    Each bootstrap interval holds the ``alpha`` and ``1 - alpha`` quantiles,
    alpha = (1 - confidence) / 2, of the exact distribution of its target under
    multinomial resampling of both order groups; nothing is drawn.  ``iterations``
    (an ``int`` of at least 100) and ``seed`` (an ``int``) are echoed in the report
    only; ``iterations``, ``seed`` and ``confidence`` of another type raise a ``TypeError``,
    as does a ``table`` that is not a :class:`SequentialCountTable`.
    """
    from . import __version__

    if not isinstance(table, SequentialCountTable):
        raise TypeError(
            f"table must be a SequentialCountTable, got {_shown(repr(table), quote=False)}")
    _check_bootstrap(iterations, seed, confidence)

    p_ab, p_ba = sequential_probs(table)
    logical_ab, logical_ba = logical_tables_from_probs(p_ab, p_ba)
    xor_ab, xor_ba = _xor_from_probs(p_ab, p_ba)
    qq_statistic, qq_p = _qq_equality(table, (xor_ab, xor_ba), (logical_ab, logical_ba))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LowExpectedCountWarning)
        order_statistic, order_p = order_effect_stat(table)

    intervals = _bootstrap_intervals(table, confidence)

    diagnostics = [f"order-effect test: {w.category.__name__}: {w.message}" for w in caught]
    if xor_ab == xor_ba and xor_ab in (0, 1):
        diagnostics.append("question-order equality test: zero pooled variance, z = 0 and p = 1"
                           " are set, not computed")
    flat = [f"{which} {_cell_key(cell)}" for which, by_cell in intervals.items()
            for cell, (lo, hi) in sorted(by_cell.items()) if lo == hi]
    if flat:
        diagnostics.append("zero-width bootstrap intervals: " + ", ".join(flat))

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
        diagnostics=diagnostics,
        iterations=iterations,
        confidence=confidence,
        seed=seed,
        version=__version__,
    )
