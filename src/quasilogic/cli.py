"""Command-line front end.

Subcommands: ``truth-table``, ``verify``, ``demo``, ``survey``, ``kd``,
``jordan-verify``.  Output is deterministic for a fixed (input, seed,
version); every report embeds the generating configuration.

Exit codes: 0 success, 1 property/golden failure, 2 input error (including
an input file that cannot be read or is not UTF-8 text, and an output path
that cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, hilbert, logic, survey, verify
from .errors import QuasilogicError

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2

# Input limits.  At trials x d² = 2**22 (--dim 64 --trials 1024) one sampled stack is
# U = 64 MiB: verify peaks at about 5 U (325 MiB traced by tracemalloc, 366 MB RSS) and
# jordan-verify at its sweep's 3 U (197 MiB traced, 235 MB RSS).  survey's --trials keeps
# the range it had when the bootstrap drew that many resamples; since 0.11.0 it is only
# echoed.
MAX_BOOTSTRAP_TRIALS = 10**7
MAX_SAMPLED_ENTRIES = 2**22  # trials x d² of verify and jordan-verify at their largest d


def _parse_dims(spec: str) -> tuple[int, ...]:
    """Parse a dimension spec: '3', '2-8', or '2,4,6', distinct dimensions in [2, MAX_DIM].

    A range's ends are checked before the range is expanded.
    """
    dims: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        ends = part.split("-", 1) if "-" in part[1:] else [part, part]
        try:
            lo, hi = (int(end) for end in ends)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a dimension, a range or a list such as 2, 2-8 or 2,4,6, got {spec!r}"
            ) from None
        for d in (lo, hi):
            if not 2 <= d <= hilbert.MAX_DIM:
                raise argparse.ArgumentTypeError(
                    f"dimension {d} outside supported range [2, {hilbert.MAX_DIM}]"
                )
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty dimension range {part!r}")
        for d in range(lo, hi + 1):
            if d in dims:
                raise argparse.ArgumentTypeError(f"dimension {d} repeated in {spec!r}")
            dims.append(d)
    return tuple(dims)


def _number(kind: type, name: str, accept=lambda value: 0 < value < math.inf,
            requirement: str = "positive and finite", at_most=math.inf):
    """argparse type: a ``kind`` value that ``accept`` admits and at most ``at_most``."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"{name} must be {expected}, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{name} must be {requirement}, got {value}")
        if value > at_most:
            raise argparse.ArgumentTypeError(f"{name} must be at most {at_most}, got {value}")
        return value

    return convert


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, ended by a newline, to stdout or, the same bytes, to the file ``out``."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _config_dict(args: argparse.Namespace, **extra) -> dict:
    data = {"version": __version__}
    for key in ("dims", "seed", "trials", "tol"):
        if hasattr(args, key):
            value = getattr(args, key)
            data[key] = list(value) if isinstance(value, tuple) else value
    data.update(extra)
    return data


# ---------------------------------------------------------------------------
# truth-table


def _cmd_truth_table(args: argparse.Namespace) -> int:
    computed = {
        name: {
            (r.a, r.b_alone, r.b_after): v for r, v in logic.truth_table(name)
        }
        for name in logic.CONNECTIVES
    }
    golden_ok = (
        computed["conjunction"] == logic.CONJUNCTION_REFERENCE
        and computed["inclusive_or"] == logic.INCLUSIVE_OR_REFERENCE
    )

    if args.format == "csv":
        if args.out is not None:
            directory = Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
            for name in logic.CONNECTIVES:
                (directory / f"truth_table_{name}.csv").write_text(
                    logic.truth_table_csv(name), encoding="utf-8"
                )
        else:
            for name in logic.CONNECTIVES:
                sys.stdout.write(f"# {name}\n{logic.truth_table_csv(name)}")
    elif args.format == "json":
        payload = {
            "config": _config_dict(args),
            "tables": {
                name: [
                    {"a": k[0], "b_alone": k[1], "b_after": k[2], "value": str(v)}
                    for k, v in sorted(computed[name].items())
                ]
                for name in logic.CONNECTIVES
            },
            "reference_match": golden_ok,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        blocks = [logic.truth_table_text(name) for name in logic.CONNECTIVES]
        status = "reference tables matched" if golden_ok else "REFERENCE MISMATCH"
        _emit("\n".join(blocks) + f"\n{status}\n", args.out)

    return EXIT_OK if golden_ok else EXIT_PROPERTY_FAILURE


# ---------------------------------------------------------------------------
# verify / jordan-verify


def _render_checks(results: list[verify.CheckResult], args: argparse.Namespace,
                   **extra) -> int:
    """Print the checks in ``args.format``; ``extra`` keys follow them in JSON."""
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "config": _config_dict(args),
            "all_passed": all_passed,
            "checks": [r.as_dict() for r in results],
            **extra,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else f"FAIL({r.failure_kind})"
            lines.append(
                f"{status:16s} {r.name:42s} residual={r.residual:.3e} tol={r.tol:.3e}"
                + (f"  [{r.detail}]" if r.detail else "")
            )
        lines.append("all checks passed" if all_passed else "FAILURES PRESENT")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE


def _too_many_samples(args: argparse.Namespace) -> bool:
    """Whether trials x d² at the largest d exceeds MAX_SAMPLED_ENTRIES; if so, says so."""
    dim = max(args.dims)
    entries = args.trials * dim * dim
    if entries <= MAX_SAMPLED_ENTRIES:
        return False
    sys.stderr.write(
        f"error: --trials {args.trials} at dimension {dim} makes {entries} matrix entries"
        f" per stack; trials * dim**2 may be at most {MAX_SAMPLED_ENTRIES}\n"
    )
    return True


def _cmd_verify(args: argparse.Namespace) -> int:
    if _too_many_samples(args):
        return EXIT_INPUT_ERROR
    results = verify.run_all(
        dims=args.dims, trials_per_dim=args.trials, seed=args.seed, tol=args.tol
    )
    return _render_checks(results, args)


def _cmd_jordan_verify(args: argparse.Namespace) -> int:
    if _too_many_samples(args):
        return EXIT_INPUT_ERROR
    sweep = verify.jordan_sweep_report(
        dims=args.dims, trials_per_dim=args.trials, seed=args.seed, tol=args.tol
    )
    results = verify.jordan_suite(
        dims=args.dims, trials_per_dim=min(args.trials, 200), seed=args.seed,
        tol=args.tol, reality=sweep,
    )
    return _render_checks(results, args, formal_reality_sweep=sweep.records)


# ---------------------------------------------------------------------------
# demo


def _cmd_demo(args: argparse.Namespace) -> int:
    rho, a, b = hilbert.worked_example()

    p_a = hilbert.born_probability(rho, a)
    p_b = hilbert.born_probability(rho, b)
    disturbed = hilbert.nonselective_state(rho, a)
    p_b_after = hilbert.born_probability(disturbed, b)
    seq_ab = hilbert.sequential_probability(rho, a, b)
    seq_ba = hilbert.sequential_probability(rho, b, a)
    joint_op = hilbert.logical_joint(rho, a, b, "operational")
    joint_alg = hilbert.logical_joint(rho, a, b, "jordan")
    xor = hilbert.xor_expectation(rho, a, b, "operational")
    table = hilbert.quasi_prob_table(rho, a, b)
    wv = hilbert.weak_value(rho, a, b)

    if args.format == "json":
        payload = {
            "config": _config_dict(args),
            "state": hilbert.matrix_to_json(rho),
            "question_a": hilbert.matrix_to_json(a),
            "question_b": hilbert.matrix_to_json(b),
            "p_a": p_a,
            "p_b": p_b,
            "p_b_after_nonselective_a": p_b_after,
            "sequential_ab": seq_ab,
            "sequential_ba": seq_ba,
            "logical_joint_operational": joint_op,
            "logical_joint_algebraic": joint_alg,
            "xor_expectation": xor,
            "quasi_prob_cells": {f"{k[0]}{k[1]}": v for k, v in sorted(table.cells.items())},
            "weak_value": {"re": wv.real, "im": wv.imag},
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return EXIT_OK

    clamp = hilbert.clamp_probability
    lines = [
        "Worked example on a two-level system",
        "state: pure (|0> - 3|1>)/sqrt(10);  A = |0><0|;  B = |+><+|",
        "",
        f"P(A=1)                      = {clamp(p_a):.6f}",
        f"P(B=1)                      = {clamp(p_b):.6f}",
        f"P(B=1 | nonselective A)     = {clamp(p_b_after):.6f}",
        f"P(A=1 then B=1)             = {clamp(seq_ab):.6f}",
        f"P(B=1 then A=1)             = {clamp(seq_ba):.6f}   (order matters)",
        "",
        f"logical joint (operational) = {joint_op:.6f}",
        f"logical joint (algebraic)   = {joint_alg:.6f}",
        f"xor expectation             = {xor:.6f}",
        f"weak value of A given B     = {wv.real:.6f} {wv.imag:+.6f}i  (outside [0, 1])",
        "",
        "quasi-probability table (raw values, negativity preserved):",
    ]
    for cell in reversed(logic.CELLS):
        lines.append(f"  P(A={cell[0]}, B={cell[1]}) = {table.cells[cell]:+.6f}")
    lines.append("")
    lines.append(f"cells sum to {table.total():.12f}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# kd


# one cell of the kd JSON array as json.dumps(indent=2) lays it out
_KD_CELL_JSON = '    {\n      "i": %d,\n      "j": %d,\n      "re": %r,\n      "im": %r\n    }'


def _cmd_kd(args: argparse.Namespace) -> int:
    if len(args.dims) != 1:
        sys.stderr.write(f"error: kd takes a single dimension, got {list(args.dims)}\n")
        return EXIT_INPUT_ERROR
    dim = args.dims[0]
    rho = hilbert.sample_states(dim, ["mixed"], np.random.default_rng(args.seed))[0]
    basis_a, basis_b = (hilbert.sample_orthonormal_bases(dim, 1, np.random.default_rng(seed))[0]
                        for seed in (args.seed + 1, args.seed + 2))
    table = hilbert.kd_distribution(rho, basis_a, basis_b, tol=args.tol)

    # cell (i, j) is compared with the logical joint of |a_i><a_i| and |b_j><b_j|;
    # each basis's d questions are built once from its checked vectors, and a NaN gap is kept
    joints = hilbert.logical_joint_table(
        rho, hilbert.rank_one_projectors(basis_a), hilbert.rank_one_projectors(basis_b))
    max_gap = float(np.abs(table.real - joints).max())

    total = complex(table.sum())
    min_real = float(table.real.min())
    # the cells in row order as Python floats, read once for every format
    cells = [
        (i, j, re, im)
        for (i, j), re, im in zip(
            itertools.product(range(dim), repeat=2),
            table.real.ravel().tolist(),
            table.imag.ravel().tolist(),
        )
    ]
    if args.format == "json":
        payload = {
            "config": _config_dict(args),
            "cells": [],
            "sum": {"re": total.real, "im": total.imag},
            "min_real_part": min_real,
            "max_gap_to_logical_joint": max_gap,
        }
        # json.dumps(indent=2) of the per-cell dicts {"i", "j", "re", "im"}, written
        # without its pure-Python encoder; the cells are finite, so json prints
        # them with float.__repr__, as %r does
        array = ",\n".join(_KD_CELL_JSON % cell for cell in cells)
        text = json.dumps(payload, indent=2).replace('"cells": []', f'"cells": [\n{array}\n  ]', 1)
        _emit(text, args.out)
    elif args.format == "csv":
        lines = ["i,j,re,im"] + ["%d,%d,%r,%r" % cell for cell in cells]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [
            f"Kirkwood-Dirac distribution, dim={dim}, seed={args.seed}",
            f"cells sum to {total.real:.12f} {total.imag:+.3e}i",
            f"minimum real part: {min_real:.6f}",
            f"max |Re cell - logical joint|: {max_gap:.3e}",
            "",
        ]
        for start in range(0, dim * dim, dim):
            row = "  ".join(f"{re:+.4f}{im:+.4f}i" for _, _, re, im in cells[start:start + dim])
            lines.append(f"  {row}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# survey


def _cmd_survey(args: argparse.Namespace) -> int:
    try:
        table = survey.load_counts(args.input)
    except FileNotFoundError:
        sys.stderr.write(f"error: input file not found: {args.input}\n")
        return EXIT_INPUT_ERROR

    report = survey.classicality_report(
        table, iterations=args.trials, seed=args.seed, confidence=args.confidence
    )

    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = report.plot_csv()
    else:
        text = _survey_text(report)

    # the chart goes first and the report last, so an unwritable path leaves
    # neither a report on stdout nor one file of the pair
    if args.svg is None:
        _emit(text, args.out)
        return EXIT_OK
    svg = Path(args.svg)
    svg.write_text(report.to_svg(), encoding="utf-8")
    try:
        _emit(text, args.out)
    except OSError:
        svg.unlink(missing_ok=True)
        raise
    return EXIT_OK


def _survey_text(report: survey.ReconstructionReport) -> str:
    la, lb = report.label_a, report.label_b
    lines = [
        f"Two-order survey reconstruction: {la} / {lb}",
        f"group sizes: {la}-first n={report.n_ab}, {lb}-first n={report.n_ba}",
        "",
        f"{'cell':>10s} {'seq ' + la + '-first':>14s} {'seq ' + lb + '-first':>14s}"
        f" {'logical (AB)':>13s} {'logical (BA)':>13s} {'gap':>8s} {'flag':>5s}",
    ]
    for a, b in reversed(logic.CELLS):
        seq_ab = report.seq_probs_ab[(a, b)]
        seq_ba = report.seq_probs_ba[(b, a)]
        flag = report.classicality_flags_ab[(a, b)] or report.classicality_flags_ba[(a, b)]
        lines.append(
            f"  {la}={a},{lb}={b} {seq_ab:14.4f} {seq_ba:14.4f}"
            f" {report.logical_ab[(a, b)]:13.4f} {report.logical_ba[(a, b)]:13.4f}"
            f" {report.order_invariance_gap[(a, b)]:8.4f} {str(flag):>5s}"
        )
    lines += [
        "",
        f"xor expectation: {la}-first {report.xor_ab:.4f}, {lb}-first {report.xor_ba:.4f}",
        f"question-order equality: z = {report.qq_statistic:+.4f}, p = {report.qq_p_value:.4f}",
        f"raw order effect: chi2({report.order_df}) = {report.order_statistic:.4f},"
        f" p = {report.order_p_value:.4g}",
        "",
        f"bootstrap: {report.iterations} iterations, {report.confidence:.0%} intervals,"
        f" seed {report.seed} (exact quantiles; iterations and seed are echoed only)",
    ]
    for which in ("logical_ab", "logical_ba"):
        for a, b in reversed(logic.CELLS):
            lo, hi = report.bootstrap_intervals[which][(a, b)]
            lines.append(f"  {which} ({la}={a},{lb}={b}): [{lo:+.4f}, {hi:+.4f}]")
    flagged = [
        f"{which} ({a},{b})"
        for which, flags in (("logical_ab", report.classicality_flags_ab),
                             ("logical_ba", report.classicality_flags_ba))
        for (a, b), on in sorted(flags.items())
        if on
    ]
    lines.append("")
    lines.append(
        "non-classical cells: " + (", ".join(flagged) if flagged else "none")
    )
    lines.append("diagnostics: " + ("; ".join(report.diagnostics) or "none"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilogic",
        description="Sequential yes-no question logic: exact truth tables, "
        "Hilbert-space quasi-probabilities, and survey reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = _number(int, "seed", lambda value: 0 <= value < math.inf, "non-negative and finite")

    def common(p: argparse.ArgumentParser, *, dims: str = "2", trials: int | None = 1000) -> None:
        """--dim, --seed and --tol, and --trials unless ``trials`` is None."""
        p.add_argument("--dim", dest="dims", type=_parse_dims, default=_parse_dims(dims),
                       help=f"dimension or range, e.g. 2, 2-8, 2,4,6 (default {dims})")
        p.add_argument("--seed", type=seed, default=42, help="random seed (default 42)")
        if trials is not None:
            p.add_argument("--trials", type=_number(int, "trials"), default=trials,
                           help=f"samples per dimension; trials * dim**2 at the largest"
                           f" dimension at most {MAX_SAMPLED_ENTRIES} (default {trials})")
        p.add_argument("--tol", type=_number(float, "tol"), default=1e-10,
                       help="numerical tolerance (default 1e-10)")

    tt = sub.add_parser("truth-table", help="print the connective value tables")
    tt.add_argument("--format", choices=("json", "csv", "text"), default="text")
    tt.add_argument("--out", default=None,
                    help="output file (csv format: output directory)")
    tt.set_defaults(func=_cmd_truth_table)

    ver = sub.add_parser("verify", help="run every invariant suite")
    common(ver, dims="2-8", trials=100)
    ver.add_argument("--format", choices=("json", "text"), default="text")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    demo = sub.add_parser("demo", help="worked example with a negative joint probability")
    demo.add_argument("--format", choices=("json", "text"), default="text")
    demo.add_argument("--out", default=None)
    demo.set_defaults(func=_cmd_demo)

    kd = sub.add_parser("kd", help="Kirkwood-Dirac distribution on random bases")
    common(kd, dims="2", trials=None)
    kd.add_argument("--format", choices=("json", "csv", "text"), default="text")
    kd.add_argument("--out", default=None)
    kd.set_defaults(func=_cmd_kd)

    sv = sub.add_parser("survey", help="reconstruct logical joints from a count file")
    sv.add_argument("input", help="count CSV (header: order,first,second,count)")
    sv.add_argument("--seed", type=seed, default=42)
    sv.add_argument("--trials", default=10_000,
                    type=_number(int, "trials", lambda value: value >= 100, "at least 100",
                                 at_most=MAX_BOOTSTRAP_TRIALS),
                    help=f"bootstrap iterations, 100 to {MAX_BOOTSTRAP_TRIALS} (default 10000);"
                    " checked and echoed only, the intervals are exact")
    sv.add_argument("--confidence", default=0.95,
                    type=_number(float, "confidence", lambda value: 0 < value < 1, "in (0, 1)"),
                    help="bootstrap interval level, in (0, 1) (default 0.95)")
    sv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sv.add_argument("--out", default=None)
    sv.add_argument("--svg", default=None, help="also write a grouped bar chart SVG")
    sv.set_defaults(func=_cmd_survey)

    jv = sub.add_parser("jordan-verify", help="symmetrised-product property sweep")
    common(jv, dims="2-8", trials=1000)
    jv.add_argument("--format", choices=("json", "text"), default="json")
    jv.add_argument("--out", default=None)
    jv.set_defaults(func=_cmd_jordan_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuasilogicError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
    return EXIT_INPUT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
