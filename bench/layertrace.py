"""Outside-in layer tracing for the in-process benchmark pass.

``install`` replaces every public function of the package's layer modules
with a wrapper that records a span, and patches every module attribute that
names the same function (``analysis`` imports ``eig_sym`` and
``success_curve`` by name).  Nothing under the package changes on disk.

A span keeps four clock readings: ``outer_start`` on entering the wrapper,
``start``/``end`` around the wrapped call, ``outer_end`` on leaving.  A span's
self time is ``end - start`` minus the outer durations of its children, and
its tracing overhead is the two outer slices, so the self times and the
overhead of all spans under a root add up to the root's outer duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple, Optional

LAYERS = ("johnson", "reduced", "linalg", "analysis", "output")
#: eig_sym calls up to this dimension are the reduced model's; larger ones
#: come from the dense brute-force graph.
SMALL_EIG_MAX_DIM = 64


class Span(NamedTuple):
    name: str
    parent: Optional[int]  # index of the calling span in the span list
    outer_start: float
    start: float
    end: float
    outer_end: float
    attrs: Optional[dict]


class Tracer:
    """Collects spans in memory; ``wrap`` makes a function record them."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             annotate: Optional[Callable[[tuple, dict, Any], dict]] = None
             ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = clock()
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate else None
                spans[index] = Span(name, parent, outer_start, start, end,
                                    clock(), attrs)
            return result

        return traced


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


#: Per-function facts recorded on a span.  ``r`` is None when the call raised.
ANNOTATE: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "linalg.eig_sym": lambda a, kw, r: {"dim": len(a[0])},
    "linalg.success_curve": lambda a, kw, r: {"points": _arg(a, kw, 4, "steps")},
    "analysis.overlap_balance": lambda a, kw, r: {"k": _arg(a, kw, 1, "k")},
    "analysis.gamma_c_numeric": lambda a, kw, r: {
        "n": _arg(a, kw, 0, "n"), "k": _arg(a, kw, 1, "k"),
        "residual": r and r.residual},
    "analysis.run_verification": lambda a, kw, r: {
        "n": _arg(a, kw, 0, "n"), "k": _arg(a, kw, 1, "k"),
        "max_deviation": r and r.max_deviation},
    "johnson.full_adjacency": lambda a, kw, r: {
        "bytes": r.adjacency.nbytes if r else 0},
    "output.write_csv": lambda a, kw, r: {"path": _arg(a, kw, 0, "path")},
    "output.render_svg": lambda a, kw, r: {"path": _arg(a, kw, 0, "path")},
}


def install(package: str, tracer: Tracer) -> Callable[[], None]:
    """Trace every public function of the layer modules; returns an undo."""
    wrappers: dict[int, Callable] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                label = f"{layer}.{name}"
                wrappers[id(obj)] = tracer.wrap(label, obj, ANNOTATE.get(label))
    patched = []
    modules = [m for n, m in sys.modules.items()
               if n == package or n.startswith(package + ".")]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
                patched.append((module, name, obj))

    def restore() -> None:
        for module, name, obj in patched:
            setattr(module, name, obj)

    return restore


def self_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per-span self time and tracing overhead, in span order."""
    child_outer = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_outer[span.parent] += span.outer_end - span.outer_start
    selfs = [span.end - span.start - child_outer[i]
             for i, span in enumerate(spans)]
    overheads = [(span.start - span.outer_start) + (span.outer_end - span.end)
                 for span in spans]
    return selfs, overheads


def net_times(spans: list[Span], selfs: list[float]) -> list[float]:
    """Per-span time spent in its own subtree, tracing overhead excluded.

    A child always comes after its parent in the span list.
    """
    net = list(selfs)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i].parent
        if parent is not None:
            net[parent] += net[i]
    return net


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one run's spans, per pass over the op list."""
    selfs, overheads = self_times(spans)
    net = net_times(spans, selfs)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def total_self(name: str, keep: Callable[[Span], bool] = lambda s: True) -> float:
        return sum(selfs[i] for i in by_name[name] if keep(spans[i]))

    def count(name: str, keep: Callable[[Span], bool] = lambda s: True) -> int:
        return sum(1 for i in by_name[name] if keep(spans[i]))

    def attr_max(name: str, key: str) -> float:
        return max((abs(spans[i].attrs[key]) for i in by_name[name]
                    if spans[i].attrs[key] is not None), default=0.0)

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i].attrs[key] for i in by_name[name])

    def mean_net(name: str, keep: Callable[[Span], bool]) -> float:
        picked = [net[i] for i in by_name[name] if keep(spans[i])]
        return sum(picked) / len(picked) if picked else 0.0

    def small(span: Span) -> bool:
        return span.attrs["dim"] <= SMALL_EIG_MAX_DIM

    def dense(span: Span) -> bool:
        return not small(span)

    searches = count("analysis.gamma_c_numeric")
    p = float(passes)
    metrics = {
        "linalg.eig_sym.small.calls": (count("linalg.eig_sym", small) / p, "count"),
        "linalg.eig_sym.small.self_s": (total_self("linalg.eig_sym", small) / p, "s"),
        "linalg.eig_sym.dense.calls": (count("linalg.eig_sym", dense) / p, "count"),
        "linalg.eig_sym.dense.self_s": (total_self("linalg.eig_sym", dense) / p, "s"),
        "linalg.eig_sym.dense.max_dim": (
            max((spans[i].attrs["dim"] for i in by_name["linalg.eig_sym"]
                 if dense(spans[i])), default=0), "dim"),
        "analysis.overlap_balance.calls_per_search": (
            count("analysis.overlap_balance") / searches if searches else 0.0,
            "calls/search"),
        "analysis.gamma_c_numeric.self_s": (
            total_self("analysis.gamma_c_numeric") / p, "s"),
        "analysis.gamma_c_numeric.abs_residual_max": (
            attr_max("analysis.gamma_c_numeric", "residual"), "balance"),
        "johnson.full_adjacency.self_s": (
            total_self("johnson.full_adjacency") / p, "s"),
        "johnson.full_adjacency.bytes_computed": (
            attr_sum("johnson.full_adjacency", "bytes") / p, "B"),
        "reduced.search_hamiltonian.self_s": (
            total_self("reduced.search_hamiltonian") / p, "s"),
        "reduced.initial_state.self_s": (
            total_self("reduced.initial_state") / p, "s"),
        "linalg.success_curve.self_s": (total_self("linalg.success_curve") / p, "s"),
        "linalg.success_curve.points": (
            attr_sum("linalg.success_curve", "points") / p, "count"),
        "linalg.overlap_spectrum.self_s": (
            total_self("linalg.overlap_spectrum") / p, "s"),
        "output.write_csv.self_s": (total_self("output.write_csv") / p, "s"),
        "output.render_svg.self_s": (total_self("output.render_svg") / p, "s"),
        "analysis.run_verification.self_s": (
            total_self("analysis.run_verification") / p, "s"),
        "analysis.run_verification.max_deviation": (
            attr_max("analysis.run_verification", "max_deviation"), "prob"),
        "analysis.perturbation_report.self_s": (
            total_self("analysis.perturbation_report") / p, "s"),
        "cli.main.self_s": (total_self("cli.main") / p, "s"),
        "trace.overhead_s": (sum(overheads) / p, "s"),
        # Rows that line up with the hand-measured baseline table in
        # ROADMAP.md: mean time per call, tracing overhead excluded.
        "baseline.eig_sym_4x4_s": (
            mean_net("linalg.eig_sym", lambda s: s.attrs["dim"] == 4), "s"),
        "baseline.overlap_balance_k3_s": (
            mean_net("analysis.overlap_balance", lambda s: s.attrs["k"] == 3), "s"),
        "baseline.gamma_c_numeric_k3_1e2_s": (
            mean_net("analysis.gamma_c_numeric",
                     lambda s: s.attrs["k"] == 3 and s.attrs["n"] < 1000), "s"),
        "baseline.gamma_c_numeric_2000_20_s": (
            mean_net("analysis.gamma_c_numeric",
                     lambda s: (s.attrs["n"], s.attrs["k"]) == (2000, 20)), "s"),
        "baseline.run_verification_10_3_s": (
            mean_net("analysis.run_verification",
                     lambda s: (s.attrs["n"], s.attrs["k"]) == (10, 3)), "s"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            sum(selfs[i] for i, span in enumerate(spans)
                if span.name.startswith(layer + ".")) / p, "s")
    return metrics
