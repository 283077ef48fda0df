"""Workload inputs and the benchmark's own checks of every command's output.

Each workload turns the workload seed into a fixed batch of ``quasilogic``
command lines (plus input files for ``survey``).  Every command carries a
check that judges its result from the generated inputs alone, with plain
numpy, ``fractions`` and ``math``, never by calling the package.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-10
VERIFY_DIMS = list(range(2, 9))

LOGIC_CHECKS = [
    "logic.conjunction_matches_reference",
    "logic.inclusive_or_matches_reference",
    "logic.xor_from_balance_rule",
    "logic.value_ranges",
    "logic.boolean_corners",
    "logic.balance_and_sum_rules",
    "logic.marginality_relations",
    "logic.order_swap_all_64_pairs",
]
HILBERT_CHECKS = [
    "hilbert.joint_operational_vs_algebraic",
    "hilbert.joint_equals_re_trace",
    "hilbert.joint_order_symmetry",
    "hilbert.xor_operational_vs_mapped",
    "hilbert.xor_order_symmetry",
    "hilbert.xor_operator_expansion",
    "hilbert.table_marginality",
    "hilbert.repeated_question",
    "hilbert.example_negative_cell",
    "hilbert.example_weak_value",
    "hilbert.sequential_order_dependence",
    "hilbert.classical_triples_nonnegative",
    "hilbert.negativity_search_floor",
    "hilbert.survey_round_trip",
]
JORDAN_CHECKS = [
    "jordan.product_commutativity",
    "jordan.product_hermiticity",
    "jordan.operator_marginality",
    "jordan.power_associativity",
    "jordan.idempotency_transfer",
    "jordan.xor_operator_symmetry",
    "jordan.formal_reality",
]


@dataclass
class Outcome:
    """What one in-process ``quasilogic.cli.main`` call produced."""

    code: int | None            # None when the call raised
    stdout: str
    stderr: str
    error: BaseException | None
    files: dict[str, bytes | None]   # output files named by the command


@dataclass
class Command:
    argv: list[str]
    check: Callable[[Outcome], str | None]   # None when correct, else the reason
    outputs: list[Path] = field(default_factory=list)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _clean_exit(out: Outcome) -> str | None:
    if out.error is not None:
        return f"raised {type(out.error).__name__}: {out.error}"
    if out.code != 0:
        return f"exit code {out.code}, stderr {out.stderr.strip()[:200]!r}"
    if out.stderr:
        return f"unexpected stderr {out.stderr.strip()[:200]!r}"
    return None


def _check_config(config: dict, expected: dict) -> str | None:
    for key, value in expected.items():
        if config.get(key) != value:
            return f"config {key}={config.get(key)!r}, expected {value!r}"
    return None


def _check_results(checks: list[dict], expected_names: list[str]) -> str | None:
    """Every expected check reported once, passed, and within its tolerance."""
    names = [c["name"] for c in checks]
    if len(set(names)) != len(names):
        return "duplicate check names"
    missing = [n for n in expected_names if n not in names]
    if missing:
        return f"missing checks {missing}"
    for c in checks:
        if c["passed"] is not True or c["failure_kind"] != "":
            return f"check {c['name']} failed: {c}"
        if not c["tol"] <= TOL:
            return f"check {c['name']} has tol {c['tol']} above {TOL}"
        if not 0.0 <= c["residual"] <= c["tol"]:
            return f"check {c['name']} residual {c['residual']} exceeds tol {c['tol']}"
    return None


# ---------------------------------------------------------------------------
# verify / jordan-verify


def verify_batch(seed: int, workdir: Path) -> list[Command]:
    cli_seed = seed

    def check(out: Outcome) -> str | None:
        problem = _clean_exit(out)
        if problem:
            return problem
        payload = json.loads(out.stdout)
        if payload["all_passed"] is not True:
            return "all_passed is not true"
        return _check_config(payload["config"], {
            "dims": VERIFY_DIMS, "seed": cli_seed, "trials": 100, "tol": TOL,
        }) or _check_results(payload["checks"], LOGIC_CHECKS + HILBERT_CHECKS + JORDAN_CHECKS)

    return [Command(["verify", "--format", "json", "--seed", str(cli_seed)], check)]


def jordan_verify_batch(seed: int, workdir: Path) -> list[Command]:
    cli_seed = seed

    def check(out: Outcome) -> str | None:
        problem = _clean_exit(out)
        if problem:
            return problem
        payload = json.loads(out.stdout)
        if payload["all_passed"] is not True:
            return "all_passed is not true"
        problem = _check_config(payload["config"], {
            "dims": VERIFY_DIMS, "seed": cli_seed, "trials": 1000, "tol": TOL,
        }) or _check_results(payload["checks"], JORDAN_CHECKS)
        if problem:
            return problem
        sweep = payload["formal_reality_sweep"]
        if [r["dim"] for r in sweep] != VERIFY_DIMS:
            return f"sweep dims {[r['dim'] for r in sweep]}, expected one record per dim"
        for r in sweep:
            if r["trials"] != 1000 or r["seed"] != cli_seed or r["verdict"] != "consistent":
                return f"sweep record {r}"
            # ||x∘x + y∘y|| >= ||x||^2 > 0 for nonzero Hermitian x, so no residual vanishes
            if not (math.isfinite(r["max_residual"]) and 0.0 < r["min_residual"] <= r["max_residual"]):
                return f"sweep residuals out of order in {r}"
        return None

    return [Command(["jordan-verify", "--format", "json", "--seed", str(cli_seed)], check)]


# ---------------------------------------------------------------------------
# kd-large

# The middle dimension runs with three seeds, so that the median command of a
# batch is sampled three times rather than once.
KD_DIMS = (24, 30, 36, 36, 36, 42, 48)
KD_RECOMPUTED_CELLS = 64


def _haar_rows(dim: int, seed: int) -> np.ndarray:
    """Haar basis as row vectors: QR of a complex Gaussian with the phase fix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T


def _mixed_state(dim: int, seed: int) -> np.ndarray:
    """Hilbert-Schmidt random density matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return (rho + rho.conj().T) / 2


def kd_batch(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for dim, cli_seed in zip(KD_DIMS, _seeds(seed, len(KD_DIMS))):
        def check(out: Outcome, dim=dim, cli_seed=cli_seed) -> str | None:
            problem = _clean_exit(out)
            if problem:
                return problem
            payload = json.loads(out.stdout)
            problem = _check_config(payload["config"], {"dims": [dim], "seed": cli_seed})
            if problem:
                return problem
            cells = payload["cells"]
            if [(c["i"], c["j"]) for c in cells] != [(i, j) for i in range(dim) for j in range(dim)]:
                return "cells do not cover the d x d grid in row order"
            q = np.array([c["re"] + 1j * c["im"] for c in cells]).reshape(dim, dim)
            total = q.sum()
            if abs(total - 1.0) > 1e-9:
                return f"cells sum to {total}"
            if abs(payload["sum"]["re"] - total.real) > 1e-12 or abs(payload["sum"]["im"] - total.imag) > 1e-12:
                return "reported sum differs from the sum of the cells"
            if payload["min_real_part"] != q.real.min():
                return "reported minimum real part differs from the cells"
            if not 0.0 <= payload["max_gap_to_logical_joint"] <= TOL:
                return f"max_gap_to_logical_joint {payload['max_gap_to_logical_joint']}"
            # marginals are Born probabilities in each basis: real, in [0, 1]
            for marginal in (q.sum(axis=1), q.sum(axis=0)):
                if np.abs(marginal.imag).max() > 1e-9 or marginal.real.min() < -1e-9 or marginal.real.max() > 1 + 1e-9:
                    return "a marginal of the distribution is not a probability"
            rho = _mixed_state(dim, cli_seed)
            a = _haar_rows(dim, cli_seed + 1)
            b = _haar_rows(dim, cli_seed + 2)
            rng = np.random.default_rng(cli_seed)
            for i, j in rng.integers(0, dim, size=(KD_RECOMPUTED_CELLS, 2)):
                expected = np.vdot(b[j], a[i]) * np.vdot(a[i], rho @ b[j])
                if abs(q[i, j] - expected) > 1e-12:
                    return f"cell ({i},{j}) is {q[i, j]}, recomputed {expected}"
            return None

        commands.append(Command(
            ["kd", "--dim", str(dim), "--seed", str(cli_seed), "--format", "json"], check))
    return commands


# ---------------------------------------------------------------------------
# survey-bootstrap

SURVEY_FILES = 200
SURVEY_LARGE_ITERATIONS = (100_000, 250_000, 500_000, 1_000_000)
MALFORMED_CLASSES = {
    # class: (expected words in the one-line message)
    "bad_header": "expected header",
    "negative_count": "is negative",
    "duplicate_cell": "duplicate cell",
    "missing_cell": "missing cell",
    "non_integer_count": "is not an integer",
}
MALFORMED_PER_CLASS = 4
# Inputs that should exit 2 but crash in quasilogic 0.1.0 (ROADMAP.md, exit-code breaks).
KNOWN_CRASH_CLASSES = ("non_utf8_bytes", "count_1e23")

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))      # (first, second) in the order asked
CSV_HEADER = "order,first,second,count"


def _model_probs(rng: np.random.Generator, classical: bool):
    """Sequential distributions p_ab[(a, b)] and p_ba[(b, a)] of one respondent model."""
    if classical:
        joint = dict(zip(CELLS, rng.dirichlet(np.ones(4))))
        return joint, {(b, a): joint[(a, b)] for a, b in CELLS}
    # two-level model: pure state, rank-one questions, Lüders updates
    def unit(v):
        return v / np.linalg.norm(v)

    psi = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    proj = {}
    for name in ("A", "B"):
        v = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        yes = np.outer(v, v.conj())
        proj[name] = {1: yes, 0: np.eye(2) - yes}

    def seq(first, second, x, y):
        return float(np.linalg.norm(proj[second][y] @ proj[first][x] @ psi) ** 2)

    p_ab = {(x, y): seq("A", "B", x, y) for x, y in CELLS}
    p_ba = {(x, y): seq("B", "A", x, y) for x, y in CELLS}
    return p_ab, p_ba


def _draw_counts(rng: np.random.Generator, probs: dict, n: int) -> dict:
    p = np.clip([probs[c] for c in CELLS], 0.0, None)
    drawn = rng.multinomial(n, p / p.sum())
    return {cell: int(k) for cell, k in zip(CELLS, drawn)}


def _count_lines(counts_ab: dict, counts_ba: dict) -> list[str]:
    rows = [f"AB,{f},{s},{counts_ab[(f, s)]}" for f, s in CELLS]
    rows += [f"BA,{f},{s},{counts_ba[(f, s)]}" for f, s in CELLS]
    return rows


def _corrupt(kind: str, rows: list[str], rng: np.random.Generator) -> tuple[str, list[str]]:
    """(header, data rows) of a count file of one malformed class."""
    header, rows = CSV_HEADER, list(rows)
    k = int(rng.integers(0, len(rows)))
    head, count = rows[k].rsplit(",", 1)
    if kind == "bad_header":
        header = ("order,first,second,n", "order;first;second;count",
                  "first,second,count")[int(rng.integers(0, 3))]
    elif kind == "negative_count":
        rows[k] = f"{head},-{int(count) + 1}"
    elif kind == "duplicate_cell":
        rows.insert(int(rng.integers(k + 1, len(rows) + 1)), rows[k])
    elif kind == "missing_cell":
        del rows[k]
    elif kind == "non_integer_count":
        rows[k] = f"{head},{('12.5', 'many', '1e3', '')[int(rng.integers(0, 4))]}"
    elif kind == "count_1e23":
        rows[k] = f"{head},{10**23}"
    return header, rows


def _expected_report(counts_ab: dict, counts_ba: dict) -> dict:
    """Exact point estimates, recomputed here in rational arithmetic."""
    n_ab, n_ba = sum(counts_ab.values()), sum(counts_ba.values())
    p_ab = {c: Fraction(counts_ab[c], n_ab) for c in CELLS}
    p_ba = {c: Fraction(counts_ba[c], n_ba) for c in CELLS}
    a_first = {v: p_ab[(v, 0)] + p_ab[(v, 1)] for v in (0, 1)}      # A undisturbed
    b_after = {v: p_ab[(0, v)] + p_ab[(1, v)] for v in (0, 1)}      # B after A
    b_first = {v: p_ba[(v, 0)] + p_ba[(v, 1)] for v in (0, 1)}      # B undisturbed
    a_after = {v: p_ba[(0, v)] + p_ba[(1, v)] for v in (0, 1)}      # A after B
    logical_ab = {(a, b): p_ab[(a, b)] + (b_first[b] - b_after[b]) / 2 for a, b in CELLS}
    logical_ba = {(a, b): p_ba[(b, a)] + (a_first[a] - a_after[a]) / 2 for a, b in CELLS}

    x1 = counts_ab[(0, 1)] + counts_ab[(1, 0)]
    x2 = counts_ba[(0, 1)] + counts_ba[(1, 0)]
    pooled = (x1 + x2) / (n_ab + n_ba)
    variance = pooled * (1 - pooled) * (1 / n_ab + 1 / n_ba)
    if variance == 0.0:
        z, p_qq = 0.0, 1.0
    else:
        z = (x1 / n_ab - x2 / n_ba) / math.sqrt(variance)
        p_qq = math.erfc(abs(z) / math.sqrt(2))

    observed = np.array([[counts_ab[(a, b)] for a, b in CELLS],
                         [counts_ba[(b, a)] for a, b in CELLS]], dtype=float)
    expected = observed.sum(axis=1, keepdims=True) @ observed.sum(axis=0, keepdims=True) / observed.sum()
    positive = expected > 0
    chi2 = float((((observed - expected) ** 2)[positive] / expected[positive]).sum())
    # chi-square survival function with 3 degrees of freedom, closed form
    p_order = math.erfc(math.sqrt(chi2 / 2)) + math.sqrt(2 * chi2 / math.pi) * math.exp(-chi2 / 2)
    return {
        "n_ab": n_ab, "n_ba": n_ba, "p_ab": p_ab, "p_ba": p_ba,
        "logical_ab": logical_ab, "logical_ba": logical_ba,
        "z": z, "p_qq": p_qq, "chi2": chi2, "p_order": p_order,
    }


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)


def _check_survey_json(text: str, exp: dict, iterations: int, cli_seed: int) -> str | None:
    r = json.loads(text)
    if r["totals"] != {"ab": exp["n_ab"], "ba": exp["n_ba"]}:
        return f"totals {r['totals']}"
    for which in ("logical_ab", "logical_ba"):
        for (a, b), value in exp[which].items():
            if r[f"{which}_exact"][f"{a}{b}"] != str(value):
                return f"{which}_exact {a}{b} = {r[f'{which}_exact'][f'{a}{b}']}, expected {value}"
            if r[which][f"{a}{b}"] != float(value):
                return f"{which} {a}{b} = {r[which][f'{a}{b}']}, expected {float(value)}"
            lo, hi = r["bootstrap"][which][f"{a}{b}"]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                return f"bootstrap interval {which} {a}{b} = [{lo}, {hi}]"
            if r["classicality_flags"][which][f"{a}{b}"] != (value < 0 and hi < 0):
                return f"classicality flag {which} {a}{b}"
    for (f, s) in CELLS:
        if r["sequential_ab"][f"{f}{s}"] != float(exp["p_ab"][(f, s)]):
            return f"sequential_ab {f}{s}"
        if r["sequential_ba"][f"{f}{s}"] != float(exp["p_ba"][(f, s)]):
            return f"sequential_ba {f}{s}"
        gap = abs(float(exp["logical_ab"][(f, s)]) - float(exp["logical_ba"][(f, s)]))
        if r["order_invariance_gap"][f"{f}{s}"] != gap:
            return f"order_invariance_gap {f}{s}"
    qq, order = r["qq_test"], r["order_effect_test"]
    if not (_close(qq["statistic"], exp["z"]) and math.isclose(qq["p_value"], exp["p_qq"], rel_tol=1e-9, abs_tol=1e-300)):
        return f"qq test {qq}, recomputed z={exp['z']} p={exp['p_qq']}"
    if not (_close(order["statistic"], exp["chi2"]) and order["df"] == 3
            and math.isclose(order["p_value"], exp["p_order"], rel_tol=1e-9, abs_tol=1e-300)):
        return f"order-effect test {order}, recomputed chi2={exp['chi2']} p={exp['p_order']}"
    if r["config"]["iterations"] != iterations or r["config"]["seed"] != cli_seed:
        return f"config {r['config']}"
    return None


def _check_survey_csv(text: str, exp: dict) -> str | None:
    lines = text.splitlines()
    if lines[0] != "series,cell,value":
        return "csv header"
    rows = {}
    for line in lines[1:]:
        series, cell, value = line.split(",")
        rows[(series, cell)] = float(value)
    expected = {}
    for a, b in CELLS:
        expected[("sequential_ab", f"{a}{b}")] = exp["p_ab"][(a, b)]
        expected[("sequential_ba", f"{a}{b}")] = exp["p_ba"][(b, a)]
        expected[("logical_ab", f"{a}{b}")] = exp["logical_ab"][(a, b)]
        expected[("logical_ba", f"{a}{b}")] = exp["logical_ba"][(a, b)]
    if len(lines) != 17 or set(rows) != set(expected):
        return "csv rows"
    for key, value in expected.items():
        if rows[key] != float(value):
            return f"csv {key} = {rows[key]}, expected {float(value)}"
    return None


_TEXT_CELL = re.compile(r"^\s+A=(\d),B=(\d)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s")


def _check_survey_text(text: str, exp: dict, iterations: int) -> str | None:
    if f"A-first n={exp['n_ab']}, B-first n={exp['n_ba']}" not in text:
        return "group sizes line"
    if f"bootstrap: {iterations} iterations" not in text:
        return "bootstrap line"
    seen = 0
    for line in text.splitlines():
        m = _TEXT_CELL.match(line)
        if not m:
            continue
        a, b = int(m.group(1)), int(m.group(2))
        want = (exp["p_ab"][(a, b)], exp["p_ba"][(b, a)],
                exp["logical_ab"][(a, b)], exp["logical_ba"][(a, b)])
        for got, value in zip(m.group(3, 4, 5, 6), want):
            if abs(float(got) - float(value)) > 0.5e-4 + 1e-12:
                return f"text cell A={a},B={b}: {got} vs {float(value)}"
        seen += 1
    return None if seen == 4 else f"{seen} text cell rows, expected 4"


def _check_svg(data: bytes | None) -> str | None:
    if data is None:
        return "svg not written"
    root = ET.fromstring(data)
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    # background, 4 groups x 4 series, 4 legend swatches
    return None if len(rects) == 21 else f"svg has {len(rects)} rects, expected 21"


def _survey_check(fmt: str, exp: dict, iterations: int, cli_seed: int, svg: Path | None):
    def check(out: Outcome) -> str | None:
        problem = _clean_exit(out)
        if problem:
            return problem
        if fmt == "json":
            problem = _check_survey_json(out.stdout, exp, iterations, cli_seed)
        elif fmt == "csv":
            problem = _check_survey_csv(out.stdout, exp)
        else:
            problem = _check_survey_text(out.stdout, exp, iterations)
        if problem is None and svg is not None:
            problem = _check_svg(out.files[str(svg)])
        return problem

    return check


def _input_error_check(expect_words: str, outputs: list[Path]):
    """Exit 2, one-line message naming the defect, nothing written."""
    def check(out: Outcome) -> str | None:
        if out.error is not None:
            return f"raised {type(out.error).__name__}: {out.error}"
        if out.code != 2:
            return f"exit code {out.code}, expected 2"
        if out.stdout:
            return "wrote to stdout on an input error"
        lines = out.stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: ") or expect_words not in lines[0]:
            return f"stderr {out.stderr!r}, expected one line naming {expect_words!r}"
        if any(out.files[str(p)] is not None for p in outputs):
            return "wrote an output file on an input error"
        return None

    return check


def survey_batch(seed: int, workdir: Path) -> tuple[list[Command], list[Command]]:
    """The measured batch and, separately, the known-crash probe commands."""
    rng = np.random.default_rng(seed)
    n_malformed = MALFORMED_PER_CLASS * len(MALFORMED_CLASSES)
    n_valid = SURVEY_FILES - n_malformed
    iterations = list(SURVEY_LARGE_ITERATIONS) + [10_000] * (n_valid - len(SURVEY_LARGE_ITERATIONS))
    formats = ["json", "csv", "text"] * (n_valid // 3) + ["json"] * (n_valid % 3)
    svg_flags = [i % 6 == 0 for i in range(n_valid)]
    rng.shuffle(iterations)
    rng.shuffle(formats)
    rng.shuffle(svg_flags)

    def write(index: int, rows: list[str], header: str = CSV_HEADER, prefix: bytes = b"") -> Path:
        path = workdir / f"counts_{index:03d}.csv"
        text = "\n".join([f"# generated survey {index}", header, *rows]) + "\n"
        path.write_bytes(prefix + text.encode("utf-8"))
        return path

    def random_table():
        classical = bool(rng.integers(0, 2))
        p_ab, p_ba = _model_probs(rng, classical)
        n_ab, n_ba = (int(round(10 ** x)) for x in rng.uniform(np.log10(20), 6, size=2))
        return _draw_counts(rng, p_ab, n_ab), _draw_counts(rng, p_ba, n_ba)

    commands: list[Command] = []
    for i in range(n_valid):
        counts_ab, counts_ba = random_table()
        path = write(i, _count_lines(counts_ab, counts_ba))
        cli_seed = int(rng.integers(0, 2**31 - 1))
        argv = ["survey", str(path), "--format", formats[i], "--seed", str(cli_seed)]
        if iterations[i] != 10_000:
            argv += ["--trials", str(iterations[i])]
        svg = workdir / f"chart_{i:03d}.svg" if svg_flags[i] else None
        if svg is not None:
            argv += ["--svg", str(svg)]
        commands.append(Command(
            argv, _survey_check(formats[i], _expected_report(counts_ab, counts_ba),
                                iterations[i], cli_seed, svg),
            [svg] if svg is not None else []))

    def malformed(index: int, kind: str, words: str) -> Command:
        header, rows = _corrupt(kind, _count_lines(*random_table()), rng)
        # a Latin-1 label line: the file is no longer valid UTF-8
        prefix = b"# label_a = caf\xe9 au lait\n" if kind == "non_utf8_bytes" else b""
        path = write(index, rows, header, prefix)
        svg = workdir / f"chart_{index:03d}.svg"
        fmt = ("json", "csv", "text")[int(rng.integers(0, 3))]
        argv = ["survey", str(path), "--format", fmt, "--svg", str(svg)]
        return Command(argv, _input_error_check(words, [svg]), [svg])

    index = n_valid
    for kind, words in MALFORMED_CLASSES.items():
        for _ in range(MALFORMED_PER_CLASS):
            commands.append(malformed(index, kind, words))
            index += 1
    order = rng.permutation(len(commands))
    commands = [commands[k] for k in order]

    probes = []
    for kind in KNOWN_CRASH_CLASSES:
        probes.append(malformed(index, kind, ""))
        index += 1
    return commands, probes


def build(name: str, seed: int, workdir: Path) -> tuple[list[Command], list[Command]]:
    """(measured batch, known-crash probes) for one workload."""
    if name == "survey-bootstrap":
        return survey_batch(seed, workdir)
    batch = {"verify": verify_batch, "jordan-verify": jordan_verify_batch,
             "kd-large": kd_batch}[name]
    return batch(seed, workdir), []


WORKLOADS = ("verify", "jordan-verify", "kd-large", "survey-bootstrap")
