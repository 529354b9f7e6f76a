"""Self-test of the kfpq benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the metrics the code emits, that every
workload prints each end-to-end metric (trace 0) and each per-layer metric
(trace 1) with its unit, that the gate turns a perturbed oracle value into
a failure, and that the benchmark exits non-zero without printing a result
in a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_benchmark_json() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    # galerkin_expm and closed_forms run by hand only; see README.md
    assert [w["name"] for w in spec["workloads"]] == [
        "galerkin_power", "cli_defaults"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    return spec


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_emitted(spec: dict) -> None:
    """Every metric with its unit; at tiny sizes some tolerances may miss."""
    for workload in run.WORKLOAD_NAMES:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", "3", "--seconds", "0", "--trace",
                   str(trace), "--tiny", "--setup-runs", "2"]
            result = _result(subprocess.run(cmd, capture_output=True,
                                            text=True, cwd=ROOT, timeout=170))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in names}
            assert got == want, (workload, trace,
                                 sorted(set(got) ^ set(want)))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)) and \
                    math.isfinite(metric["value"]), (workload, name)
            print("ok  %-15s trace %d: %d metrics, attempted %d, failed %d"
                  % (workload, trace, len(got), result["attempted"],
                     result["failed"]))


def _first_outcomes(ops):
    results, outcomes = {}, []
    for op in ops:
        outcome = op.call(results)
        results[op.key] = outcome
        outcomes.append(outcome)
    return results, outcomes


def _perturb_curve(curve, **changes):
    first = dataclasses.replace(curve.samples[0], **changes)
    return dataclasses.replace(curve, samples=(first,) + curve.samples[1:])


def check_gate() -> None:
    # galerkin_expm: an oracle 10% off the closed form fails criterion 5
    op, = workloads.galerkin_expm_ops(3, tiny=True)
    results, (curve,) = _first_outcomes([op])
    assert workloads.check_op(op, curve, results)[0] == 0
    s0 = curve.samples[0]
    bad = _perturb_curve(curve, oracle=1.1 * s0.oracle)
    assert workloads.check_op(op, bad, results)[0] == 1
    bad = _perturb_curve(curve, converged=False)
    assert workloads.check_op(op, bad, results)[0] == 1

    # galerkin_power: an oracle above the bound fails criterion 10
    ops = workloads.galerkin_power_ops(3, tiny=True)
    fiber_op = next(o for o in ops if o.key == ("fiber", 0.0))
    curve = fiber_op.call({})
    assert workloads.check_op(fiber_op, curve, {})[0] == 0
    s0 = curve.samples[0]
    bad = _perturb_curve(curve, oracle=s0.bound * (1.0 + 1e-6))
    assert workloads.check_op(fiber_op, bad, {})[0] == 1

    # closed_forms: each family's check catches a perturbed value
    ops = workloads.closed_forms_ops(3, tiny=True)
    results, outcomes = _first_outcomes(ops)
    for op, outcome in zip(ops, outcomes):
        assert workloads.check_op(op, outcome, results)[0] == 0, op.label
    perturbed = {
        "symbols.kappa": lambda m: dataclasses.replace(
            m, matrix=m.matrix * (1.0 + 1e-8)),
        "exactnorms.semigroup_norm": lambda r: dataclasses.replace(
            r, norm=r.norm * (1.0 + 1e-9)),
        "exactnorms.resolvent_bound": lambda r: r._replace(c_ratio=2.6),
        "bargmann.gram_eigenvalues": lambda p: p._replace(
            lambda_minus=p.lambda_minus * (1.0 + 1e-10)),
        "degenerate.decay_bound_degenerate": lambda v: 0.5 * v,
        "biquat.Biquaternion.exp": lambda e: e * (1.0 + 1e-9),
        "positivity.delta0": lambda v: -v,
    }
    for label, change in perturbed.items():
        op, outcome = next((o, r) for o, r in zip(ops, outcomes)
                           if o.label == label)
        assert workloads.check_op(op, change(outcome), results)[0] == 1, label

    # cli_defaults: a non-zero exit or a row outside tolerance fails;
    # delta0's known defect is recognised, any other exit code is not
    ops = workloads.cli_defaults_ops(3, tiny=True)
    norms = next(o for o in ops if o.label == "cli.norms")
    res = norms.call({})
    assert workloads.check_op(norms, res, {})[0] == 0
    flipped = res.stdout.replace(",true\n", ",false\n", 1)
    assert workloads.check_op(norms, dataclasses.replace(res, stdout=flipped),
                              {})[0] == 1
    assert workloads.check_op(norms, dataclasses.replace(res, exit_code=3),
                              {})[0] == 1
    delta = next(o for o in ops if o.label == "cli.delta0")
    res = delta.call({})
    assert workloads.check_op(delta, res, {})[:2] == (0, 1), res
    assert workloads.check_op(delta, dataclasses.replace(res, exit_code=2),
                              {})[0] == 1

    # a command whose stdout changes between passes fails
    section = run.Section()
    section.cli_stdout[norms.key] = "0" * 64
    assert section._stdout_check(norms, norms.call({}), 0, None)[0] == 1
    print("ok  gate flags perturbed oracle values")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark fails without a result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "galerkin_power",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    print("ok  bare directory exits %d without a result" % proc.returncode)


def main() -> int:
    spec = check_benchmark_json()
    print("ok  BENCHMARK.json matches the emitted metrics")
    check_gate()
    check_bare_directory()
    check_emitted(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
