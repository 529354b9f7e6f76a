"""kfpq benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload galerkin_power --seed 0 --seconds 55 --trace 0

Each run is a fresh process with BLAS limited to min(2, nproc) threads.  It
times ``--setup-runs`` fresh interpreters that import kfpq and make the
workload's first call (``setup_s``), then runs passes of the workload's
calls, one caller in a closed loop, until the next pass would end after
``--seconds`` (at least one pass).  Every result is checked by the gate in
``workloads.py``.  With ``--trace 1`` the untraced passes get half of
``--seconds`` and the same passes run again for the other half with spans
recorded around the public kfpq functions; the per-layer metrics are
printed instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it are a readable report and the
environment block; the full report, and in a traced run the spans, are
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("galerkin_expm", "galerkin_power", "closed_forms",
                  "cli_defaults")
CHILD_TIMEOUT_S = 150

# (name, unit, better) of every end-to-end metric; the bounds are in
# BENCHMARK.json
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
# per-operation latency percentiles, printed where a run has this many
# operations (closed_forms); elsewhere a p99 would be the slowest operation
LATENCY = (("op_p50_ms", "ms", "lower"), ("op_p99_ms", "ms", "lower"))
MIN_LATENCY_SAMPLES = 1000


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the self-test")
    ap.add_argument("--blas-threads", type=int, default=0,
                    help="BLAS threads (default min(2, nproc))")
    ap.add_argument("--setup-runs", type=int, default=5,
                    help="fresh interpreters timed for setup_s (0 skips)")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment block


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        if kind != "Instruction":
            out["L%s" % level] = _read(str(index / "size"))
    return out


def _blas_threads_runtime():
    """Thread counts reported by each loaded OpenBLAS, by library file."""
    found = {}
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1] if line.split() else ""
        if "openblas" in path.lower() and path not in found:
            found[path] = None
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    found[path] = fn()
                    break
    return {Path(p).name: n for p, n in found.items()}


def environment(threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_configured": threads,
        "blas_threads_runtime": _blas_threads_runtime(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# set-up time, in fresh interpreters


def _setup_child(workload: str) -> int:
    start = time.perf_counter()
    import workloads  # imports kfpq, numpy and scipy
    workloads.WORKLOADS[workload].warm()
    print(repr(time.perf_counter() - start))
    return 0


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload: str, runs: int, threads: int) -> list:
    """Seconds to import kfpq and make the first call, once per interpreter."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-child", "--blas-threads", str(threads)],
            capture_output=True, text=True, env=_child_env(threads),
            timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def blas1_wall(workload: str, seed: int, tiny: bool) -> float:
    """wall_s of one untraced pass in a fresh process with one BLAS thread."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0",
           "--blas-threads", "1", "--setup-runs", "0"]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=_child_env(1), timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"][
        "wall_s"]["value"]


# ---------------------------------------------------------------------------
# timed passes and the gate


class Section:
    """Passes of one workload, timed, with every result checked."""

    def __init__(self):
        self.pass_times = []
        self.latencies_ms = []     # one entry per sample
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.unconverged = 0
        self.reasons = []
        self.first_results = None  # pickled results of the first pass
        self.first_verdicts = None
        self.cli_stdout = {}       # op key -> sha256 of its stdout

    def run(self, make_ops, seconds: float, tracer=None) -> None:
        import workloads
        start = time.perf_counter()
        while True:
            ops = make_ops()
            if tracer is not None:
                tracer.pass_index = len(self.pass_times)
            outcomes = []
            results = {}
            pass_start = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                try:
                    outcome = op.call(results)
                except Exception as exc:  # a failed op is counted, not fatal
                    outcome = exc
                latency = time.perf_counter() - t0
                if not isinstance(outcome, Exception):
                    results[op.key] = outcome
                outcomes.append(outcome)
                self.latencies_ms.extend([1e3 * latency / op.samples]
                                         * op.samples)
            self.pass_times.append(time.perf_counter() - pass_start)
            self._gate(ops, outcomes, results, workloads)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.pass_times) > seconds:
                break

    def _gate(self, ops, outcomes, results, workloads) -> None:
        """Check every result of one pass.

        A result that repeats the first pass bit for bit repeats its
        verdict; any other result gets the full check.
        """
        first = self.first_results is None
        if first:
            self.first_results = [_pickle(o) for o in outcomes]
            self.first_verdicts = [None] * len(ops)
        for i, (op, outcome) in enumerate(zip(ops, outcomes)):
            self.attempted += op.samples
            self.unconverged += workloads.unconverged(outcome)
            if not first and _pickle(outcome) == self.first_results[i]:
                bad, known, reason = self.first_verdicts[i]
            else:
                bad, known, reason = workloads.check_op(op, outcome, results)
            if first:
                self.first_verdicts[i] = (bad, known, reason)
            if isinstance(outcome, workloads.CliResult):
                bad, reason = self._stdout_check(op, outcome, bad, reason)
            self.failed += bad
            self.known += known
            if reason and len(self.reasons) < 20 and reason not in self.reasons:
                self.reasons.append(reason)

    def _stdout_check(self, op, res, bad, reason):
        """Byte-identical stdout for one command across passes."""
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        seen = self.cli_stdout.setdefault(op.key, digest)
        if seen != digest and not bad:
            return op.samples, "%s: stdout differs between passes" % op.label
        return bad, reason


def _pickle(obj) -> bytes:
    """Bytes that identify a result; a command's stderr holds timings."""
    if isinstance(obj, BaseException):
        return b""
    if hasattr(obj, "exit_code"):
        obj = (obj.exit_code, obj.stdout)
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def end_to_end_metrics(section: Section, setup_times: list) -> dict:
    # The fastest pass, not the mean or the median: every pass does the same
    # work, and the shared machine only ever adds time to a pass, in bursts
    # of a second or more that stay out of some passes and not others.
    fastest = min(section.pass_times)
    out = {
        "wall_s": fastest,
        "ops_per_s": section.attempted / len(section.pass_times) / fastest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if len(section.latencies_ms) >= MIN_LATENCY_SAMPLES:
        out["op_p50_ms"] = statistics.median(section.latencies_ms)
        out["op_p99_ms"] = _percentile(section.latencies_ms, 99)
    if setup_times:
        out["setup_s"] = statistics.median(setup_times)
    return out


# ---------------------------------------------------------------------------
# digests of command output, kept across the runs made in one checkout


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kfpq").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_stdout_history(section: Section, threads: int) -> list:
    """Compare each command's stdout digest with earlier runs of this code.

    The store is keyed by a digest of ``src/kfpq`` and the BLAS thread
    count, so only runs of the same program are compared.
    """
    path = OUT / "cli_stdout_digests.json"
    try:
        store = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        store = {}
    key = "%s/blas%d" % (_source_digest(), threads)
    seen = store.setdefault(key, {})
    mismatches = []
    for op_key, digest in section.cli_stdout.items():
        name = " ".join(op_key)
        if seen.setdefault(name, digest) != digest:
            mismatches.append(name)
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return mismatches


# ---------------------------------------------------------------------------
# entry point


def _metric_block(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spec if name in values}


def main(argv=None) -> int:
    args = _parse(argv)
    threads = args.blas_threads or min(2, _nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    if not (SRC / "kfpq" / "__init__.py").is_file():
        # measure the checkout's program, never an installed copy
        print("no kfpq sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return _setup_child(args.workload)

    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    wl.warm()
    setup_times = measure_setup(args.workload, args.setup_runs, threads)

    # a traced run splits its time between the untraced and traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = Section()
    untraced.run(lambda: wl.ops(args.seed, args.tiny), seconds)
    sections = [untraced]
    e2e = end_to_end_metrics(untraced, setup_times)

    layer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = Section()

        def traced_ops():
            ops = wl.ops(args.seed, args.tiny)
            for op in ops:
                if op.label.startswith("cli."):
                    op.call = tracer.wrap(op.label, op.call,
                                          failed=lambda r: r.exit_code != 0)
            return ops
        traced.run(traced_ops, seconds, tracer)
        sections.append(traced)
        layer = tracing.per_layer_metrics(tracer, traced.pass_times)
        layer["trace.overhead_s"] = (min(traced.pass_times)
                                     - e2e["wall_s"])
        layer["galerkin.blas1_wall_s"] = (
            blas1_wall(args.workload, args.seed, args.tiny)
            if args.workload.startswith("galerkin_") else 0.0)
        _write_spans(args, tracer)
        # tracing must not change a single result
        for i, (a, b) in enumerate(zip(untraced.first_results,
                                       traced.first_results)):
            if a != b:
                traced.failed += 1
                traced.reasons.append("traced result %d differs" % i)

    mismatches = []
    if args.workload == "cli_defaults" and not args.tiny:
        for section in sections:
            mismatches += check_stdout_history(section, threads)

    attempted = sum(s.attempted for s in sections)
    failed = sum(s.failed for s in sections) + len(mismatches)
    known = sum(s.known for s in sections)
    env = environment(threads)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "passes": len(untraced.pass_times),
        "pass_times_s": untraced.pass_times,
        "samples": len(untraced.latencies_ms),
        "setup_times_s": setup_times,
        "failed_share": (failed + known) / attempted,
        "known_defect_samples": known,
        "unconverged_samples": untraced.unconverged,
        "stdout_mismatches": mismatches,
        "reasons": list(dict.fromkeys(r for s in sections for r in s.reasons)),
        "end_to_end": e2e,
        "per_layer": layer,
    }
    _print_report(report)
    _write_report(args, report)
    metrics = (_metric_block(layer, tracing.PER_LAYER) if args.trace
               else _metric_block(e2e, END_TO_END))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_report(report: dict) -> None:
    e2e = report["end_to_end"]
    print("workload %s seed %d" % (report["workload"], report["seed"]))
    print("  env %s" % json.dumps(report["environment"], sort_keys=True))
    print("  passes %d, samples %d (ops %d per pass)"
          % (report["passes"], report["samples"],
             report["samples"] // max(1, report["passes"])))
    for name, unit, _ in END_TO_END + LATENCY:
        if name in e2e:
            print("  %-12s %14.6g %s" % (name, e2e[name], unit))
    print("  %-12s %14.6g ratio (%d known-defect samples)"
          % ("failed_share", report["failed_share"],
             report["known_defect_samples"]))
    print("  %-12s %14d count" % ("unconverged_samples",
                                   report["unconverged_samples"]))
    for reason in report["reasons"]:
        print("  gate: %s" % reason)
    if report["per_layer"]:
        for name, value in sorted(report["per_layer"].items()):
            if value:
                print("  layer %-48s %.6g" % (name, value))


def _write_report(args, report: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                              args.trace))
    path.write_text(json.dumps(report, indent=1, default=float),
                    encoding="utf-8")


def _write_spans(args, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-spans.jsonl" % (args.workload, args.seed))
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, failed, p in spans:
        if parent >= 0:
            child[parent] += end - start
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent, failed, p) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                 "end": end, "parent": parent, "pass": p,
                                 "self": end - start - child[idx],
                                 "failed": failed}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
