"""Reconstructing order-invariant logical joints from a real opinion poll.

A 1997 Gallup poll asked whether Bill Clinton and Al Gore are honest and
trustworthy, with the question order flipped between half-samples.  The raw
sequential probabilities shift strongly with the order; the reconstructed
logical joint probabilities barely move.  One answer combination even dips
(insignificantly) below zero -- a quantity no classical joint distribution
could produce.
"""

from pathlib import Path

import quasilogic
from quasilogic import survey

data = Path(quasilogic.__file__).parent / "data"

table = survey.load_counts(str(data / "clinton_gore_1997.csv"))
report = survey.classicality_report(table, iterations=10_000, seed=42)

la, lb = report.label_a, report.label_b
print(f"{la}-first group: n={report.n_ab};  {lb}-first group: n={report.n_ba}")
print()
print(f"{'cell':<22s} {'seq (C first)':>14s} {'seq (G first)':>14s} {'logical':>9s} {'logical*':>9s}")
for a in (1, 0):
    for b in (1, 0):
        print(
            f"  {f'{la}={a}, {lb}={b}':<20s} "
            f"{report.seq_probs_ab[(a, b)]:>14.4f} "
            f"{report.seq_probs_ba[(b, a)]:>14.4f} "
            f"{report.logical_ab[(a, b)]:>+9.4f} "
            f"{report.logical_ba[(a, b)]:>+9.4f}"
        )
print("  (logical* = reconstructed from the reversed order)")

print()
print(f"raw order effect: chi2(3) = {report.order_statistic:.2f}, p = {report.order_p_value:.4f}")
print(f"question-order equality: z = {report.qq_statistic:+.3f}, p = {report.qq_p_value:.3f}")
print(f"largest cross-order gap in the logical tables: "
      f"{max(report.order_invariance_gap.values()):.4f}")

cell = (1, 0)
lo, hi = report.bootstrap_intervals["logical_ab"][cell]
print()
print(f"the {la}=1, {lb}=0 cell: point estimate {report.logical_ab[cell]:+.4f}, "
      f"95% CI [{lo:+.4f}, {hi:+.4f}]")
flagged = any(report.classicality_flags_ab.values()) or any(
    report.classicality_flags_ba.values()
)
print(f"credibly negative cells: {'yes' if flagged else 'none'} "
      "(negative point estimate, but the interval spans zero)")

print()
print("For a chart, run:")
print("  quasilogic survey <counts.csv> --svg chart.svg")
