"""Benchmark the johnsonwalk CLI: closed-loop workloads, output checks, traces.

Run from the repository root:

    python3 bench/run.py                       # every workload, summary table
    python3 bench/run.py --workload rate-oracle --seed 3 --seconds 24 --trace 0

With ``--trace 0`` each op runs as its own ``python -m johnsonwalk.cli``
subprocess, one at a time (a closed loop with one client), and the run
reports the end-to-end metrics.  With ``--trace 1`` the same op list runs
in-process through ``cli.main(argv)`` with every layer function wrapped
(see layertrace.py), and the run reports the per-layer metrics.  Either
way every op's output is checked after its timer stops, and the last
stdout line is one JSON object: correct, attempted, failed, metrics.
``failed`` counts ops that fail their check in a way no entry of
``checks.KNOWN_DEFECTS`` explains.

The program is taken from ``src/`` of the current directory; the script
exits 2 without a result when it is not there.  Only the standard library
is used here.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path
from typing import Callable, Optional

import checks
import layertrace
from workloads import WORKLOADS, Op, make_ops, passes_for

ROOT = Path.cwd()
PACKAGE = "johnsonwalk"
#: Set-up samples are taken at the start of every pass, so they spread over
#: the run like the ops do.
SETUP_PER_PASS = 3
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
NUMPY_INFO = (
    "import json, numpy, johnsonwalk\n"
    "try:\n"
    "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "    blas = f\"{blas['name']} {blas['version']}\"\n"
    "except Exception:\n"
    "    blas = 'unknown'\n"
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas}))\n"
)


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond).  With ``beyond`` samples or
    fewer no percentile qualifies, and the minimum is returned with the
    number of samples above it.
    """
    ordered = sorted(values)
    index = max(0, len(ordered) - 1 - beyond)
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - 1 - index)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path,
          env: dict[str, str]) -> tuple[float, int, int]:
    """Run one child to completion: (seconds, exit code, its own peak RSS KiB).

    ``os.wait4`` reports the child's own resource usage, unlike the
    cumulative ``RUSAGE_CHILDREN``.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(numpy_info: dict, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **numpy_info,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }


class Workspace:
    """Scratch files for op streams and outputs, under the checkout."""

    def __init__(self) -> None:
        self.dir = ROOT / ".bench_work"
        self.dir.mkdir(exist_ok=True)
        self.stdout = self.dir / "stdout"
        self.stderr = self.dir / "stderr"

    def output_path(self, op: Op) -> Optional[Path]:
        if op.output is None:
            return None
        path = self.dir / f"{op.slot}.{op.output}"
        path.unlink(missing_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _read(path: Optional[Path]) -> Optional[str]:
    if path is None or not path.exists():
        return None
    return path.read_text(encoding="utf-8", errors="replace")


class Tally:
    """Check results for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0       # not explained by a known defect
        self.known: list[tuple[str, str, str]] = []   # (slot, defect id, reason)
        self.unexpected: list[tuple[str, str]] = []   # (slot, reason)

    def record(self, op: Op, outcome: checks.Outcome) -> None:
        self.attempted += 1
        reason = checks.check(op, outcome)
        if reason is None:
            return
        defect = checks.known_defect(op, reason)
        if defect is None:
            self.failed += 1
            self.unexpected.append((op.slot, reason))
        else:
            self.known.append((op.slot, defect.id, reason))

    @property
    def failed_ratio(self) -> float:
        """Ops that failed their check, known defects included, per op."""
        return (len(self.known) + self.failed) / self.attempted

    def report(self) -> list[str]:
        lines = [f"failed_ratio = {self.failed_ratio:.6g} ratio  "
                 f"({len(self.known) + self.failed} of {self.attempted} ops "
                 f"failed their check, {len(self.known)} as known defects)"]
        known = collections.Counter(self.known)
        unexpected = collections.Counter(self.unexpected)
        lines += [f"  known defect {d} on {s} (x{n}): {r}"
                  for (s, d, r), n in sorted(known.items())]
        lines += [f"  UNEXPECTED failure on {s} (x{n}): {r}"
                  for (s, r), n in sorted(unexpected.items())]
        return lines


def run_subprocess(ops: list[Op], passes: int, rng: random.Random,
                   space: Workspace, env: dict[str, str]) -> tuple[dict, Tally, list[str]]:
    """Closed loop over the op list in child processes; end-to-end metrics.

    ``wall_s`` is the op list's wall time, averaged over the passes.  The
    per-op median and tail are printed but not returned as metrics: on a
    machine whose speed drifts they are one or two slots' latencies and
    spread more from run to run than any bound the benchmark may set.
    """
    tally, setup, latencies, peak_kib = Tally(), [], {}, 0
    for _ in range(passes):
        for _ in range(SETUP_PER_PASS):
            elapsed, code, _ = spawn([sys.executable, "-c", f"import {PACKAGE}"],
                                     space.stdout, space.stderr, env)
            if code != 0:
                raise RuntimeError(f"import {PACKAGE} failed: {_read(space.stderr)}")
            setup.append(elapsed)
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            output = space.output_path(op)
            argv = [sys.executable, "-m", f"{PACKAGE}.cli", *op.argv]
            if output is not None:
                argv += ["--output", str(output)]
            elapsed, code, rss_kib = spawn(argv, space.stdout, space.stderr, env)
            latencies.setdefault(op.slot, []).append(elapsed)
            peak_kib = max(peak_kib, rss_kib)
            tally.record(op, checks.Outcome(code, _read(space.stdout),
                                            _read(space.stderr), _read(output)))
    every = [t for ts in latencies.values() for t in ts]
    tail_s, tail_pct, tail_n = tail(every)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(every) / passes, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    lines = [
        f"setup_s = {metrics['setup_s'][0]:.6g} s  (median of {len(setup)} spawns)",
        f"wall_s = {metrics['wall_s'][0]:.6g} s  (mean of {passes} passes)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MiB  "
        f"(max over {len(every)} children)",
        f"op_p50_s = {statistics.median(every):.6g} s  (median of {len(every)} ops)",
        f"op_tail_s = {tail_s:.6g} s  (p{tail_pct:.1f}, {tail_n} of "
        f"{len(every)} ops beyond)",
        "CLI median per slot:",
    ]
    lines += [f"  {slot:28s} {statistics.median(ts):.4f} s  (n={len(ts)})"
              for slot, ts in sorted(latencies.items())]
    return metrics, tally, lines


def run_traced(ops: list[Op], passes: int, rng: random.Random,
               space: Workspace) -> tuple[dict, Tally, list[str]]:
    """The same op list in-process, every layer traced; per-layer metrics."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    importlib.import_module(PACKAGE)
    import_s = time.perf_counter() - start
    cli = importlib.import_module(f"{PACKAGE}.cli")
    linalg = importlib.import_module(f"{PACKAGE}.linalg")
    # A fresh process starts with an empty decomposition cache; so does each op.
    cache = getattr(linalg, "_cached_decomposition", None)
    cache = cache if hasattr(cache, "cache_info") else None

    tracer = layertrace.Tracer()
    restore = layertrace.install(PACKAGE, tracer)
    main = tracer.wrap("cli.main", cli.main)
    tally, in_process_s = Tally(), 0.0
    hits = lookups = csv_rows = csv_bytes = svg_bytes = 0
    try:
        for _ in range(passes):
            order = list(ops)
            rng.shuffle(order)
            for op in order:
                output = space.output_path(op)
                argv = list(op.argv) + (["--output", str(output)] if output else [])
                if cache is not None:
                    cache.cache_clear()
                first_span = len(tracer.spans)
                code, stdout, stderr, elapsed = _call(main, argv)
                in_process_s += elapsed
                if cache is not None:
                    info = cache.cache_info()
                    hits, lookups = hits + info.hits, lookups + info.hits + info.misses
                written = _read(output)
                tally.record(op, checks.Outcome(code, stdout, stderr, written))
                for span in tracer.spans[first_span:]:
                    if span.name in ("output.write_csv", "output.render_svg"):
                        text = stdout if span.attrs["path"] is None else written or ""
                        size = len(text.encode("utf-8"))
                        if span.name == "output.write_csv":
                            csv_bytes += size
                            csv_rows += max(0, text.count("\n") - 1)
                        else:
                            svg_bytes += size
    finally:
        restore()
    metrics = layertrace.layer_metrics(tracer.spans, passes)
    accounted = sum(value for name, (value, _) in metrics.items()
                    if name.startswith("layer.") or name in ("cli.main.self_s",
                                                             "trace.overhead_s"))
    metrics.update({
        "linalg.decomposition_cache.hit_ratio": (hits / lookups if lookups else 0.0,
                                                 "ratio"),
        "output.write_csv.rows": (csv_rows / passes, "count"),
        "output.write_csv.bytes": (csv_bytes / passes, "B"),
        "output.render_svg.bytes": (svg_bytes / passes, "B"),
        "import.johnsonwalk_s": (import_s, "s"),
        "trace.in_process_s": (in_process_s / passes, "s"),
        "trace.unaccounted_s": (in_process_s / passes - accounted, "s"),
        "check.failed_ratio": (tally.failed_ratio, "ratio"),
        "check.known_defects": (len(tally.known) / passes, "count"),
    })
    lines = [f"{name} = {value:.6g} {unit}"
             for name, (value, unit) in sorted(metrics.items())]
    lines.append(f"({passes} traced passes, {len(tracer.spans)} spans; "
                 "values are per pass)")
    return metrics, tally, lines


def _call(main: Callable, argv: list[str]) -> tuple[int, str, str, float]:
    """cli.main(argv) as a fresh process would run it: streams and exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        start = time.perf_counter()
        try:
            code = main(argv)
            end = time.perf_counter()
        except SystemExit as exc:
            end = time.perf_counter()
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            # An uncaught exception ends a real process with a traceback and 1.
            end = time.perf_counter()
            traceback.print_exc()
            code = 1
    return code, stdout.getvalue(), stderr.getvalue(), end - start


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[float, dict]:
    """Run one workload; returns its failed_ratio and its result object."""
    env = child_env()
    ops = make_ops(workload, seed)
    passes = passes_for(workload, seconds)
    rng = random.Random(seed)
    space = Workspace()
    try:
        # Also the warm-up: the first import compiles the package's bytecode.
        _, code, _ = spawn([sys.executable, "-c", NUMPY_INFO],
                           space.stdout, space.stderr, env)
        if code != 0:
            raise RuntimeError(f"cannot import {PACKAGE}: {_read(space.stderr)}")
        numpy_info = json.loads(_read(space.stdout))
        if trace:
            metrics, tally, lines = run_traced(ops, passes, rng, space)
        else:
            metrics, tally, lines = run_subprocess(ops, passes, rng, space, env)
    finally:
        space.close()
    print(f"workload {workload}: {len(ops)} ops x {passes} passes, "
          f"trace {int(trace)}")
    print("machine: " + json.dumps(machine(numpy_info, seed)))
    for line in lines + tally.report():
        print(line)
    return tally.failed_ratio, {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace and not args.workload:
        # The traced pass imports and patches the package in this process,
        # which only the first workload would see fresh.
        parser.error("--trace 1 needs --workload")
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no src/{PACKAGE} under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        _, result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results, summary = {}, []
    for workload in WORKLOADS:
        failed_ratio, results[workload] = run_workload(workload, args.seed,
                                                       seconds, False)
        print()
        cells = [f"failed_ratio={failed_ratio:.4g} ratio"]
        cells += [f"{name}={m['value']:.4g} {m['unit']}"
                  for name, m in results[workload]["metrics"].items()]
        summary.append(f"  {workload:14s} " + "  ".join(cells))
    print("summary:", *summary, sep="\n")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
