"""Benchmark of the ``quasilogic`` command-line tool.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

One process runs one workload.  A single closed-loop client calls
``quasilogic.cli.main(argv)`` in process, each command only after the previous
one has finished, and repeats the workload's fixed batch of commands until
``--seconds`` have passed.  The benchmark checks every command's output with
its own code (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics, with timings rescaled to a
reference machine speed measured between commands (see ``calibrate.py``).
``--trace 1`` runs the batch untraced, then runs each command untraced and
traced back to back, with every public function of the six layers wrapped
(see ``tracing.py``); every run must print byte-identical output.  It reports
per-layer counts and busy times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  Human-readable notes go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads
from workloads import Outcome

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
STRETCH_S = 1.5

# Call counts of one command at seed 42, taken with cProfile; the traced
# counts must not be lower, or the wrapping missed a namespace.
PROFILE_REFERENCE = {
    "verify": {"hilbert.operator_norm": 44_437, "hilbert.validate_density": 3_913,
               "hilbert.validate_projector": 4_862, "hilbert.logical_joint": 8_982},
    "jordan-verify": {"jordan.formal_reality_probe": 14_000, "hilbert.operator_norm": 187_600,
                      "jordan.jordan_product": 40_600, "hilbert.sample_hermitian": 30_800},
}

END_TO_END_UNITS = {"wall_s": "s", "cmd_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def env_stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "client": "closed loop, 1 client, in process",
    }


# ---------------------------------------------------------------------------
# set-up


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def setup_seconds(args, workdir: Path) -> float:
    """What every CLI call pays: a fresh interpreter's import, plus making the inputs."""
    start = time.perf_counter()
    fresh_python("-c", "import quasilogic.cli")
    workloads.build(args.workload, args.seed, workdir)
    return time.perf_counter() - start


def import_breakdown() -> dict[str, float]:
    """Import cost of ``quasilogic.cli`` in a fresh interpreter, from ``-X importtime``."""
    lines = fresh_python("-X", "importtime", "-c", "import quasilogic.cli").stderr.splitlines()
    total_us = numpy_us = scipy_us = 0
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_field, cumulative_field, name_field = line[len("import time:"):].split("|")
        if not self_field.strip().isdigit():
            continue                                    # the column header
        name = name_field.strip()
        top_level = len(name_field) - len(name_field.lstrip(" ")) == 1
        if top_level and name.split(".")[0] == "quasilogic":
            total_us += int(cumulative_field)
        if name.split(".")[0] == "numpy":
            numpy_us += int(self_field)
        if name.split(".")[0] == "scipy":
            scipy_us += int(self_field)
    return {"setup.import_s": total_us / 1e6, "setup.import_numpy_s": numpy_us / 1e6,
            "setup.import_scipy_s": scipy_us / 1e6}


# ---------------------------------------------------------------------------
# running commands


def execute(cli, command):
    """Run one command in process; return (outcome, seconds spent in ``main``)."""
    for path in command.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(command.argv)
        except SystemExit as exc:                       # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:                        # a crash: counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
    files = {str(p): p.read_bytes() if p.exists() else None for p in command.outputs}
    return Outcome(code, out.getvalue(), err.getvalue(), error, files), elapsed


def digest(outcome) -> str:
    h = hashlib.sha256()
    h.update(repr((outcome.code, type(outcome.error).__name__ if outcome.error else None,
                   outcome.stdout, outcome.stderr)).encode())
    for name in sorted(outcome.files):
        h.update(name.encode())
        h.update(outcome.files[name] or b"<absent>")
    return h.hexdigest()


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, argv: list[str], problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(argv)}: {problem}")


def run_checked(cli, command, tally: Tally, expected: str | None = None) -> tuple[str, float]:
    """Run, check and record one command; return (output digest, seconds in ``main``).

    With ``expected``, the output must also be byte-identical to an earlier run's.
    """
    outcome, elapsed = execute(cli, command)
    output = digest(outcome)
    try:
        problem = command.check(outcome)
    except Exception as exc:                            # malformed output
        problem = f"output could not be checked: {type(exc).__name__}: {exc}"
    if problem is None and expected is not None and output != expected:
        problem = "output differs from the first run of the same command"
    tally.record(command.argv, problem)
    return output, elapsed


def run_batch(cli, batch, tally: Tally, command_seconds: list[float] | None = None,
              expected: list[str] | None = None, calibrated: bool = False):
    """Run and check every command once; return (seconds, output digests).

    With ``calibrated``, a speed reading (``calibrate.py``) follows every
    stretch of about ``STRETCH_S`` of commands, and the returned seconds and
    the ``command_seconds`` appended are rescaled to reference speed.  The
    readings themselves are not counted.
    """
    digests = []
    total = 0.0
    before = calibrate.reading() if calibrated else None
    stretch: list[tuple[float, float]] = []     # (run and check, main alone) per command
    for i, command in enumerate(batch):
        start = time.perf_counter()
        output, elapsed = run_checked(cli, command, tally, expected and expected[i])
        stretch.append((time.perf_counter() - start, elapsed))
        digests.append(output)
        if i + 1 < len(batch) and sum(span for span, _ in stretch) < STRETCH_S:
            continue
        factor = 1.0
        if calibrated:
            after = calibrate.reading()
            factor = calibrate.scale(before, after)
            before = after
        total += factor * sum(span for span, _ in stretch)
        if command_seconds is not None:
            command_seconds.extend(factor * main for _, main in stretch)
        stretch = []
    return total, digests


def run_probes(cli, probes) -> None:
    """Inputs that should exit 2 but are known to crash; reported, not counted."""
    for command in probes:
        outcome, _ = execute(cli, command)
        problem = command.check(outcome)
        note(f"known-crash probe {Path(command.argv[1]).name}: "
             f"{'exits 2 as required' if problem is None else problem}")


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(args, cli, batch, probes, workdir: Path, tally: Tally) -> dict:
    setup_samples = []
    before = calibrate.reading()
    for _ in range(SETUP_SAMPLES):
        seconds = setup_seconds(args, workdir)
        after = calibrate.reading()
        setup_samples.append(seconds * calibrate.scale(before, after))
        before = after
    batch_seconds: list[float] = []
    command_seconds: list[float] = []
    reference = None
    batches = 1
    while len(batch_seconds) < batches:
        start = time.perf_counter()
        elapsed, digests = run_batch(cli, batch, tally, command_seconds, reference,
                                     calibrated=True)
        if not batch_seconds:
            # as many whole batches as fill --seconds of wall time
            batches = max(1, round(args.seconds / (time.perf_counter() - start)))
        batch_seconds.append(elapsed)
        reference = reference or digests
    run_probes(cli, probes)

    note("batch seconds: " + " ".join(f"{t:.4f}" for t in batch_seconds))
    note(f"{len(batch_seconds)} batches of {len(batch)} commands, "
         f"{len(command_seconds)} command samples")
    if len(command_seconds) >= 200:
        p95 = sorted(command_seconds)[int(0.95 * len(command_seconds))]
        note(f"cmd_p95_ms {p95 * 1e3:.4f} ms over {len(command_seconds)} commands")
    return {
        "wall_s": statistics.median(batch_seconds),
        "cmd_p50_ms": statistics.median(command_seconds) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def traced(args, cli, batch, probes, tally: Tally) -> dict:
    from quasilogic.errors import SchemaError

    _, reference = run_batch(cli, batch, tally)         # lets lazy set-up finish
    tracer = tracing.Tracer(dict(sys.modules))
    seconds = {False: 0.0, True: 0.0}
    # each command untraced and then traced, back to back, so that a change in
    # machine speed between the two hardly enters the overhead ratio
    for command, expected in zip(batch, reference):
        for traced_run in (False, True):
            if traced_run:
                tracer.install()
            try:
                _, elapsed = run_checked(cli, command, tally, expected)
            finally:
                tracer.uninstall()
            seconds[traced_run] += elapsed
    batch_spans = len(tracer.spans)
    tracer.install()
    try:
        run_probes(cli, probes)
    finally:
        tracer.uninstall()

    metrics = tracing.layer_metrics(tracer.spans, SchemaError)
    metrics["trace.overhead_ratio"] = seconds[True] / seconds[False]
    metrics.update(import_breakdown())

    if args.seed == 42:
        counts = tracing.call_counts(tracer.spans[:batch_spans])
        for name, floor in PROFILE_REFERENCE.get(args.workload, {}).items():
            traced_count = counts.get(name, 0)
            note(f"wrapping cross-check {name}: traced {traced_count}, cProfile {floor}: "
                 f"{'ok' if traced_count >= floor else 'LOWER, a namespace escaped the trace'}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if not (SRC / "quasilogic" / "cli.py").is_file():
        note(f"error: no quasilogic sources under {SRC}; run from the repository root")
        return 2

    env = env_stamp()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        sys.path.insert(0, str(SRC))
        import quasilogic.cli as cli

        if Path(cli.__file__).resolve().parent != (SRC / "quasilogic").resolve():
            note(f"error: imported quasilogic from {cli.__file__}, not from {SRC}")
            return 2

        batch, probes = workloads.build(args.workload, args.seed, workdir)
        tally = Tally()
        if args.trace:
            metrics = traced(args, cli, batch, probes, tally)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = end_to_end(args, cli, batch, probes, workdir, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for reason in tally.reasons:
        note(f"FAILED {reason}")
    for name, value in metrics.items():
        note(f"{name:36s} {value:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
