"""Span tracing around the public functions of the quasilogic layers.

Every public function and public method of the six layer modules is wrapped,
and the wrapper is installed in every namespace that binds the original: the
defining module, modules that imported it by name, the package re-exports,
and module-level dicts, lists and tuples that hold it (dispatch tables).
A span records name, layer, start, end, parent span and root span (the
``cli.main`` call that caused it).  Spans stay in memory; :func:`layer_metrics`
aggregates them when the traced batch ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("logic", "hilbert", "jordan", "survey", "verify", "cli")
NAMESPACES = ("quasilogic",) + tuple(f"quasilogic.{m}" for m in LAYERS)

# span tuple fields
NAME, LAYER, START, END, PARENT, ROOT, SELF, ERROR, EXTRA = range(9)


def _probe_key(arguments, result):
    digest = hashlib.blake2b(digest_size=16)
    for name in ("x", "y"):
        matrix = np.asarray(getattr(arguments[name], "matrix", arguments[name]))
        digest.update(repr(matrix.shape).encode())
        digest.update(matrix.tobytes())
    return digest.digest()


def _check_counts(arguments, result):
    return len(result), sum(1 for r in result if not r.passed)


# per-function extras, computed from the bound arguments and the return value
EXTRAS = {
    "jordan.formal_reality_probe": _probe_key,
    "survey.classicality_report": lambda arguments, result: arguments["iterations"],
    "survey.bootstrap_ci": lambda arguments, result: arguments["iterations"],
    "verify.logic_suite": _check_counts,
    "verify.hilbert_suite": _check_counts,
    "verify.jordan_suite": _check_counts,
    "cli.main": lambda arguments, result: result,
}


def _public_callables(module):
    """(qualified name, owner, attribute, original) for a layer's public API."""
    layer = module.__name__.rsplit(".", 1)[1]
    found = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((f"{layer}.{name}", module, name, value))
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    found.append((f"{layer}.{name}.{attr}", value, attr, member))
    return layer, found


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._patches: list[tuple] = []   # (container, key, original)

    def _wrap(self, qualname: str, layer: str, fn):
        spans, stack, child_time = self.spans, self._stack, self._child_time
        extra_fn = EXTRAS.get(qualname)
        signature = inspect.signature(fn) if extra_fn is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else index
            stack.append(index)
            child_time.append(0.0)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                children = child_time.pop()
                duration = end - start
                extra = None
                if extra_fn is not None and error is None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = extra_fn(bound.arguments, result)
                if child_time:
                    child_time[-1] += perf_counter() - start
                spans[index] = (qualname, layer, start, end, parent, root,
                                duration - children, error, extra)

        return wrapper

    def install(self) -> None:
        originals: dict[int, object] = {}
        for short in LAYERS:
            layer, found = _public_callables(self.modules[f"quasilogic.{short}"])
            for qualname, owner, attr, member in found:
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(self._wrap(qualname, layer, member.__func__))
                else:
                    wrapped = self._wrap(qualname, layer, member)
                originals[id(member)] = (member, wrapped)
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, member))
                    setattr(owner, attr, wrapped)
        # rebind every module-level reference to a wrapped function
        for module_name in NAMESPACES:
            module = self.modules[module_name]
            for name, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = originals.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append((value, key, item))
                            value[key] = hit[1]
                elif isinstance(value, (list, tuple)) and any(
                    id(item) in originals for item in value
                ):
                    self._patches.append((module, name, value))
                    setattr(module, name, type(value)(
                        originals[id(item)][1] if id(item) in originals else item
                        for item in value
                    ))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[tuple], schema_error: type) -> dict[str, float]:
    """Per-layer counts and busy times from one traced batch."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name_calls = defaultdict(int)
    by_name_self = defaultdict(float)
    for span in spans:
        calls[span[LAYER]] += 1
        self_s[span[LAYER]] += span[SELF]
        by_name_calls[span[NAME]] += 1
        by_name_self[span[NAME]] += span[SELF]

    def inclusive(prefixes: tuple[str, ...]) -> float:
        """Wall time inside the named functions, not counting nested repeats."""
        total = 0.0
        for span in spans:
            if span[NAME].startswith(prefixes):
                parent = span[PARENT]
                if parent >= 0 and spans[parent][NAME].startswith(prefixes):
                    continue
                total += span[END] - span[START]
        return total

    def self_of(*names: str) -> float:
        return sum(by_name_self[n] for n in names)

    def boundary_errors(layer: str, kind: type = BaseException) -> int:
        """Spans that raised ``kind`` out of ``layer`` into another layer or the caller."""
        count = 0
        for span in spans:
            if span[LAYER] != layer or span[ERROR] is None or not issubclass(span[ERROR], kind):
                continue
            parent = span[PARENT]
            if parent < 0 or spans[parent][LAYER] != layer:
                count += 1
        return count

    validations = [s for s in spans if s[NAME] in ("hilbert.validate_density",
                                                   "hilbert.validate_projector")]
    nested = sum(1 for s in validations
                 if s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "hilbert")

    probes = [s for s in spans if s[NAME] == "jordan.formal_reality_probe" and s[EXTRA]]
    seen: set[tuple[int, bytes]] = set()
    repeats = 0
    for span in probes:
        key = (span[ROOT], span[EXTRA])
        repeats += key in seen
        seen.add(key)

    mains = [s for s in spans if s[NAME] == "cli.main"]
    suites = [s[EXTRA] for s in spans
              if s[NAME] in ("verify.logic_suite", "verify.hilbert_suite",
                             "verify.jordan_suite") and s[EXTRA]]

    return {
        "cli.self_s": self_s["cli"],
        "cli.commands": len(mains),
        "cli.nonzero_exits": sum(1 for s in mains if s[ERROR] is None and s[EXTRA] != 0),
        "cli.crashes": sum(1 for s in mains if s[ERROR] is not None),
        "logic.calls": calls["logic"],
        "logic.self_s": self_s["logic"],
        "hilbert.calls": calls["hilbert"],
        "hilbert.self_s": self_s["hilbert"],
        "hilbert.operator_norm_calls": by_name_calls["hilbert.operator_norm"],
        "hilbert.validate_calls": len(validations),
        "hilbert.validate_nested_ratio": _ratio(nested, len(validations)),
        "hilbert.sample_calls": sum(n for k, n in by_name_calls.items()
                                    if k.startswith("hilbert.sample_")),
        "hilbert.sample_s": inclusive(("hilbert.sample_",)),
        "hilbert.logical_joint_calls": by_name_calls["hilbert.logical_joint"],
        "hilbert.logical_joint_s": inclusive(("hilbert.logical_joint",)),
        "hilbert.negativity_random_search_s": inclusive(("hilbert.negativity_random_search",)),
        "hilbert.kd_s": inclusive(("hilbert.kd_distribution",)),
        "hilbert.rank_one_projector_calls": by_name_calls["hilbert.rank_one_projector"],
        "hilbert.errors": boundary_errors("hilbert"),
        "jordan.calls": calls["jordan"],
        "jordan.self_s": self_s["jordan"],
        "jordan.product_calls": by_name_calls["jordan.jordan_product"],
        "jordan.formal_reality_probe_calls": by_name_calls["jordan.formal_reality_probe"],
        "jordan.probe_repeat_ratio": _ratio(repeats, len(probes)),
        "verify.self_s": self_s["verify"],
        "verify.logic_suite_s": inclusive(("verify.logic_suite",)),
        "verify.hilbert_suite_s": inclusive(("verify.hilbert_suite",)),
        "verify.jordan_suite_s": inclusive(("verify.jordan_suite",)),
        "verify.jordan_sweep_s": inclusive(("verify.jordan_sweep_report",)),
        "verify.checks": sum(n for n, _ in suites),
        "verify.checks_failed": sum(f for _, f in suites),
        "survey.self_s": self_s["survey"],
        "survey.parse_s": self_of("survey.parse_counts", "survey.load_counts"),
        "survey.reconstruct_s": self_of(
            "survey.sequential_probs", "survey.reconstruct_logical_joint",
            "survey.logical_tables_from_probs", "survey.xor_estimates"),
        "survey.tests_s": self_of("survey.qq_equality_stat", "survey.order_effect_stat"),
        "survey.bootstrap_s": self_of("survey.classicality_report", "survey.bootstrap_ci"),
        "survey.render_s": self_of(
            "survey.ReconstructionReport.to_json_dict", "survey.ReconstructionReport.to_json",
            "survey.ReconstructionReport.plot_rows", "survey.ReconstructionReport.plot_csv",
            "survey.ReconstructionReport.to_svg"),
        "survey.bootstrap_draws": sum(s[EXTRA] for s in spans
                                      if s[NAME] in ("survey.classicality_report",
                                                     "survey.bootstrap_ci")
                                      and s[EXTRA] is not None),
        "survey.schema_errors": boundary_errors("survey", schema_error),
        "trace.spans": len(spans),
    }


def call_counts(spans: list[tuple]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[NAME]] += 1
    return dict(counts)
