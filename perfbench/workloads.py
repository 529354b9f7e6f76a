"""The kfpq benchmark workloads: seeded inputs, one pass of calls, the gate.

A workload is a fixed list of operations (``Op``) built from the seed.  The
runner calls them in order, once per pass, and times each call.  Every
operation carries its own check, which applies the tolerance of the
acceptance criterion the call belongs to (never a looser one), so the gate
and the timing see the same calls.

The seed only draws inputs; the program under test sees plain arguments.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from kfpq import (bargmann, biquat, cli, degenerate, exactnorms, galerkin,
                  positivity, symbols)
from kfpq.symbols import ModelParams

__all__ = ["Op", "CliResult", "KNOWN_DEFECTS", "WORKLOADS", "check_op",
           "unconverged"]

# Failures the benchmark reproduces on purpose and reports on every run.
# Each maps an operation label to (exit code, text on stderr, reason).  A
# call that matches is counted as a known defect, not as a new failure; a
# call that stops failing is counted as passed.
KNOWN_DEFECTS = {
    "cli.delta0": (3, "NonRealDelta0",
                   "at its defaults the determinant-root oracle finds no "
                   "sign change at nu=100, alpha=0, t~2.511"),
}


@dataclass
class Op:
    """One timed call and the check of its result.

    ``call`` receives the results of the earlier operations of the same pass,
    keyed by ``key``, so a check or a dependent call can use them.
    ``check`` returns the number of failed samples, and a reason for the
    first failure, or (0, None).
    """

    label: str
    key: object
    call: Callable[[dict], object]
    check: Callable[[object, dict], tuple]
    samples: int = 1


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str


def _ok():
    return 0, None


def _finite(*values) -> bool:
    return all(np.isfinite(complex(v)) for v in values)


def jitter_t0(seed: int) -> float:
    """t0 within +-2% of 0.5, so the squaring chain t0, 2 t0, 4 t0 still runs."""
    u = np.random.RandomState(seed).uniform()
    return 0.5 * (1.0 + 0.02 * (2.0 * u - 1.0))


# ---------------------------------------------------------------------------
# galerkin_expm: criterion 5's oracle, dense expm dominated


def _check_evolution_curve(curve, results):
    """Criterion 5: |oracle/analytic - 1| <= 0.05 and every sample converged."""
    bad = 0
    reason = None
    for s in curve.samples:
        if not (_finite(s.oracle, s.analytic) and s.converged
                and abs(s.oracle / s.analytic - 1.0) <= 0.05):
            bad += 1
            reason = reason or ("t=%.4g oracle %.6g analytic %.6g converged %s"
                                % (s.t, s.oracle, s.analytic, s.converged))
    return bad, reason


def galerkin_expm_ops(seed: int, tiny: bool) -> list:
    t0 = jitter_t0(seed)
    params = ModelParams(nu=1.0, alpha=0.0)
    dims = 12 if tiny else 48

    def call(results):
        return galerkin.decay_curve("evolution_norm", params,
                                    (t0, 2 * t0, 4 * t0), dims=dims,
                                    strict=False)
    return [Op("galerkin.decay_curve", "evolution", call,
               _check_evolution_curve, samples=3)]


def _warm_galerkin():
    galerkin.decay_curve("evolution_norm", ModelParams(nu=1.0, alpha=0.0),
                         (0.5, 1.0), dims=8, strict=False)


# ---------------------------------------------------------------------------
# galerkin_power: criterion 10's traffic at reduced truncation


def _curve_bound_check(required_converged: Callable[[float], bool]):
    """Criterion 10: oracle <= bound (1 + 1e-9), converged where required."""
    def check(curve, results):
        bad = 0
        reason = None
        for s in curve.samples:
            ok = (_finite(s.oracle, s.bound)
                  and s.oracle <= s.bound * (1.0 + 1e-9)
                  and (s.converged or not required_converged(s.t)))
            if not ok:
                bad += 1
                reason = reason or ("%s t=%.4g oracle %.6g bound %.6g "
                                    "converged %s" % (curve.quantity_label,
                                                      s.t, s.oracle, s.bound,
                                                      s.converged))
        return bad, reason
    return check


def _pencil_check(pair_key):
    """Criterion 10: both pencil constants positive, drift 16 -> 24 <= 0.30."""
    def check(value, results):
        if not (_finite(value) and value > 0.0):
            return 1, "pencil constant %r is not positive" % (value,)
        if pair_key is None:
            return _ok()
        c16 = results.get(pair_key)
        if c16 is None or abs(value / c16 - 1.0) > 0.30:
            return 1, "pencil drift %r -> %r above 0.30" % (c16, value)
        return _ok()
    return check


def galerkin_power_ops(seed: int, tiny: bool) -> list:
    t0 = jitter_t0(seed)
    ts = (t0, 2 * t0, 4 * t0)
    dims = 12 if tiny else 48
    attracting = ModelParams(nu=1.0, alpha=np.pi / 2)
    # criterion 10 requires convergence at t = 1 and 2 on this curve
    required = (ts[1], ts[2])

    def derivative(results):
        return galerkin.decay_curve("derivative_weight", attracting, ts,
                                    dims=dims, strict=False)
    ops = [Op("galerkin.decay_curve", "derivative", derivative,
              _curve_bound_check(lambda t: t in required), samples=3)]
    for lam in (0.0, 1.0):
        fiber = ModelParams(nu=0.0, alpha=0.0, lambda1=lam)
        ops.append(Op("galerkin.decay_curve", ("fiber", lam),
                      functools.partial(
                          lambda p, results: galerkin.decay_curve(
                              "degenerate_fiber", p, (0.5, 1.0, 2.0),
                              strict=False), fiber),
                      _curve_bound_check(lambda t: True), samples=3))
    small, large = (8, 10) if tiny else (16, 24)
    for alpha in (np.pi / 2, 0.0):
        params = ModelParams(nu=1.0, alpha=alpha)
        for d in (small, large):
            pair = ("pencil", alpha, small) if d == large else None
            ops.append(Op("galerkin.subelliptic_constant", ("pencil", alpha, d),
                          functools.partial(
                              lambda p, n, results: galerkin.subelliptic_constant(
                                  p, dims=n), params, d),
                          _pencil_check(pair)))
    return ops


def _warm_power():
    _warm_galerkin()
    galerkin.subelliptic_constant(ModelParams(nu=1.0, alpha=0.0), dims=8)


# ---------------------------------------------------------------------------
# closed_forms: per-call overhead of the closed-form modules


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _flow_check(oracle_of):
    """Criterion 3: relative flow residual against a 4x4 expm <= 1e-9."""
    def check(cmap, results):
        oracle = oracle_of()
        diff = np.max(np.abs(cmap.matrix - oracle))
        rel = float(diff / max(1.0, np.max(np.abs(oracle))))
        if not rel <= 1e-9:
            return 1, "flow residual %.3g above 1e-9" % rel
        return _ok()
    return check


def _delta0_check(value, results):
    if not (_finite(value) and value > 0.0):
        return 1, "delta0 returned %r" % (value,)
    return _ok()


def _det_check(rep, results):
    """Criterion 4: scaled determinant residual at delta0 <= 1e-8."""
    scale = 1.0 + float(np.max(np.abs(rep.coeffs))) ** 2
    res = abs(rep.det_value) / scale
    if not res <= 1e-8:
        return 1, "det residual %.3g above 1e-8 at t=%.4g" % (res, rep.t)
    return _ok()


def _interior_check(rep, results):
    """Criterion 4: the form difference is positive inside the window."""
    if not rep.min_eigenvalue > 0.0:
        return 1, "interior min eigenvalue %.3g at t=%.4g" % (
            rep.min_eigenvalue, rep.t)
    return _ok()


def _cubic_check(nu, t_small):
    """Criterion 4: delta0 / (nu t^3 / 12) within 0.02 of 1 at small t."""
    def check(value, results):
        ratio = value / (nu * t_small ** 3 / 12.0)
        if not abs(ratio - 1.0) <= 0.02:
            return 1, "cubic ratio %.6g at nu=%.4g" % (ratio, nu)
        return _ok()
    return check


def _norm_check(res, results):
    """Criterion 5 (mu-route): |(mu1/mu2)^(1/4) - norm| <= 1e-10."""
    err = abs((res.mu1 / res.mu2) ** 0.25 - res.norm)
    if not (_finite(res.norm) and err <= 1e-10):
        return 1, "mu-route residual %.3g at t=%.4g" % (err, res.t)
    return _ok()


def _resolvent_check(nu):
    """Criterion 6: integral bound holds and c_ratio stays in [0.3, 2.5]."""
    def check(res, results):
        n1 = np.sqrt(1.0 + 4.0 * nu)
        bound = 2.0 * (np.log(nu) / n1 + 1.0 / nu)
        if not (res.integral <= bound and 0.3 <= res.c_ratio <= 2.5):
            return 1, "resolvent nu=%.4g integral %.6g c_ratio %.4g" % (
                nu, res.integral, res.c_ratio)
        return _ok()
    return check


def _gram_check(t, params):
    """Criterion 8: eigenvalue forms agree to 1e-11, lambda_minus > 1."""
    def check(pair, results):
        alt = bargmann.lambda_minus_log_form(t, params)
        rel = abs(pair.lambda_minus - alt) / alt
        if not (rel <= 1e-11 and pair.lambda_minus > 1.0):
            return 1, "gram forms differ by %.3g, lambda_minus %.6g" % (
                rel, pair.lambda_minus)
        return _ok()
    return check


def _quotient_check(gram_key):
    """Criterion 8: the quotient's lambda_minus is the Gram one, sup = 2 c0 / Q."""
    def check(q, results):
        pair = results.get(gram_key)
        lam = pair.lambda_minus if pair is not None else np.nan
        composed = 2.0 * np.exp(-1.0) / q.Q_t_eq
        if not (q.Q_t_eq > 0.0
                and abs(q.lambda_minus - lam) <= 1e-11 * lam
                and abs(q.sup_value - composed) <= 1e-15 * max(1.0, composed)):
            return 1, "quotient inconsistent at t=%.4g" % q.t
        return _ok()
    return check


def _sup_check(t, lam):
    """Criterion 9: t^3 sup <= F(t)(1 + 1e-12) on (0, 1] at lambda1 = 0."""
    def check(value, results):
        if not (_finite(value) and value > 0.0):
            return 1, "sup_weighted returned %r" % (value,)
        if lam == 0.0 and t <= 1.0 and \
                not t ** 3 * value <= degenerate.F(t) * (1.0 + 1e-12):
            return 1, "supremum inequality fails at t=%.4g" % t
        return _ok()
    return check


def _decay_bound_check(t, sup_key):
    """Criterion 9: t^3 bound <= 40, and the bound dominates the supremum."""
    def check(value, results):
        sup = results.get(sup_key, np.inf)
        if not (_finite(value) and value * t ** 3 <= 40.0
                and value >= sup * (1.0 - 1e-12)):
            return 1, "degenerate bound %.6g at t=%.4g" % (value, t)
        return _ok()
    return check


def _series_exp(m: np.ndarray) -> np.ndarray:
    """The 2x2 exponential series criterion 1 compares against."""
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 80):
        term = term @ m / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


def _biquat_exp_check(w):
    """Criterion 1: closed exponential against the series, <= 1e-10."""
    def check(e, results):
        err = float(np.max(np.abs(e.to_matrix() - _series_exp(w.to_matrix()))))
        if not err <= 1e-10:
            return 1, "biquaternion exp residual %.3g" % err
        return _ok()
    return check


def _biquat_inv_check(w):
    """w * w^-1 is the identity to 1e-12, the tolerance of the algebra tests."""
    def check(inv, results):
        err = float(np.max(np.abs((w * inv).to_matrix() - np.eye(2))))
        if not err <= 1e-12:
            return 1, "biquaternion inverse residual %.3g" % err
        return _ok()
    return check


def _closed_form_draw(rng, i: int) -> list:
    """The sixteen closed-form calls of one draw.

    Ranges are those of the acceptance criteria: criterion 3 for the flows,
    4 for the threshold, 5 for the norm, 6 for the resolvent, 8 for the
    Gram analysis, 9 for the degenerate fibers and 1 for the algebra.
    """
    ops = []
    alphas = (0.0, np.pi / 2)

    # criterion 3: nu in [0.1, 10], t in [0.25, 3], delta in [0, 1]
    flow = ModelParams(nu=_log_uniform(rng, 0.1, 10.0),
                       alpha=alphas[rng.randint(2)])
    t = float(rng.uniform(0.25, 3.0))
    d = float(rng.uniform(0.0, 1.0))
    ops.append(Op("symbols.kappa", ("kappa", i),
                  lambda r: symbols.kappa(t, flow),
                  _flow_check(lambda: scipy.linalg.expm(
                      -1j * t * symbols.hamilton_map(
                          symbols.generator_hessian(flow))))))
    ops.append(Op("symbols.kappa0", ("kappa0", i),
                  lambda r: symbols.kappa0(d, flow),
                  _flow_check(lambda: scipy.linalg.expm(
                      1j * d * symbols.hamilton_map(
                          symbols.rotated_oscillator_hessian(0.0))))))

    # criterion 4: nu in [0.5, 25], t in [0.05, 3]
    pos = ModelParams(nu=_log_uniform(rng, 0.5, 25.0),
                      alpha=alphas[rng.randint(2)])
    tp = _log_uniform(rng, 0.05, 3.0)
    d0_key = ("delta0", i)
    ops.append(Op("positivity.delta0", d0_key,
                  lambda r: positivity.delta0(tp, pos), _delta0_check))
    for sign in (1, -1):
        ops.append(Op("positivity.positivity_report", ("at_root", i, sign),
                      functools.partial(
                          lambda s, r: positivity.positivity_report(
                              tp, r[d0_key], pos, s), sign),
                      _det_check))
        ops.append(Op("positivity.positivity_report", ("inner", i, sign),
                      functools.partial(
                          lambda s, r: positivity.positivity_report(
                              tp, 0.5 * r[d0_key], pos, s), sign),
                      _interior_check))
    t_small = 1e-2 / (1.0 + np.sqrt(pos.nu))
    ops.append(Op("positivity.delta0", ("cubic", i),
                  lambda r: positivity.delta0(t_small, pos),
                  _cubic_check(pos.nu, t_small)))

    # criterion 5: nu in [0.5, 1e4], t in [1e-3, 20]
    nu_n = _log_uniform(rng, 0.5, 1e4)
    tn = _log_uniform(rng, 1e-3, 20.0)
    ops.append(Op("exactnorms.semigroup_norm", ("norm", i),
                  lambda r: exactnorms.semigroup_norm(tn, nu_n), _norm_check))

    # criterion 6: nu in [1e2, 1e8]
    nu_r = _log_uniform(rng, 1e2, 1e8)
    ops.append(Op("exactnorms.resolvent_bound", ("resolvent", i),
                  lambda r: exactnorms.resolvent_bound(nu_r),
                  _resolvent_check(nu_r)))

    # criterion 8: nu in [0.3, 100], t in [0.05, 5], alpha = pi/2
    osc = ModelParams(nu=_log_uniform(rng, 0.3, 100.0), alpha=np.pi / 2)
    tg = _log_uniform(rng, 0.05, 5.0)
    gram_key = ("gram", i)
    ops.append(Op("bargmann.gram_eigenvalues", gram_key,
                  lambda r: bargmann.gram_eigenvalues(tg, osc),
                  _gram_check(tg, osc)))
    ops.append(Op("bargmann.quotient", ("quotient", i),
                  lambda r: bargmann.quotient(tg, osc),
                  _quotient_check(gram_key)))

    # criterion 9: t in [0.05, 5], lambda1 in {0, 1, 10}
    td = float(rng.uniform(0.05, 5.0))
    lam = (0.0, 1.0, 10.0)[rng.randint(3)]
    sup_key = ("sup", i)
    ops.append(Op("degenerate.sup_weighted", sup_key,
                  lambda r: degenerate.sup_weighted(td, lam),
                  _sup_check(td, lam)))
    ops.append(Op("degenerate.decay_bound_degenerate", ("decay", i),
                  lambda r: degenerate.decay_bound_degenerate(td, lam),
                  _decay_bound_check(td, sup_key)))

    # criterion 1: coefficients 0.8 (x + i y), x, y standard normal
    coeffs = 0.8 * (rng.randn(4) + 1j * rng.randn(4))
    w = biquat.Biquaternion(*coeffs)
    ops.append(Op("biquat.Biquaternion.exp", ("exp", i),
                  lambda r: w.exp(), _biquat_exp_check(w)))
    ops.append(Op("biquat.Biquaternion.inv", ("inv", i),
                  lambda r: w.inv(), _biquat_inv_check(w)))
    return ops


def closed_forms_ops(seed: int, tiny: bool) -> list:
    rng = np.random.RandomState(seed)
    ops = []
    for i in range(2 if tiny else 480):
        ops.extend(_closed_form_draw(rng, i))
    return ops


def _warm_closed_forms():
    # one call per family, at fixed arguments, outside any timing
    results = {}
    for op in _closed_form_draw(np.random.RandomState(12345), -1):
        results[op.key] = op.call(results)


# ---------------------------------------------------------------------------
# cli_defaults: the user-facing commands at their default options


def run_cli(argv) -> CliResult:
    """In-process ``kfpq.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_check(command: str):
    """Exit code 0 and, for compute commands, every row within tolerance.

    The last column of a compute command's table is the command's own
    tolerance verdict; verify-all exits 1 when a criterion fails.
    """
    def check(res, results):
        if res.exit_code != 0:
            return 1, "exit %d: %s" % (res.exit_code, res.stderr.strip()[-200:])
        if command == "verify-all":
            return _ok()
        rows = [line for line in res.stdout.splitlines()[2:] if line]
        bad = [row for row in rows if row.rsplit(",", 1)[-1] != "true"]
        if not rows or bad:
            return 1, "%d of %d rows outside tolerance" % (len(bad), len(rows))
        return _ok()
    return check


# At their defaults bargmann (8 points) and verify-all's criterion 8 run
# about 10 s of Nelder-Mead each, next to optimality's 11 s witness grid; a
# pass of 25-35 s fits once in a run, and one pass per run was too noisy on a
# shared machine.  bargmann keeps its default nu list on the t = 1 column,
# and verify-all leaves out criterion 8, whose Nelder-Mead oracle is the one
# bargmann runs.  A pass then takes about 13 s and fits four times.
CLI_CRITERIA = "1,2,3,4,6,9"
BARGMANN_T = "1:1:1:lin"


def cli_argvs(tiny: bool) -> list:
    """The nine commands: the eight compute commands plus verify-all.

    All run at their defaults except ``bargmann --t`` and ``verify-all
    --criteria`` (see ``CLI_CRITERIA``).  ``bargmann`` keeps its default
    seed 0.  Its Nelder-Mead starts come from that seed, and over seeds
    300-309 the number of function evaluations of the default grid ranged
    from 278k to 595k.  A per-run seed would make the work itself differ by
    a factor of two between runs.
    """
    if tiny:
        return [["norms", "--t", "0.1:5:4:log"],
                ["delta0"],
                ["positivity", "--t", "0.1:3:3:log"],
                ["bargmann", "--nu", "1", "--t", "1:1:1:lin"],
                ["resolvent", "--nu", "100"],
                ["degenerate", "--t", "0.25:5:3:log"],
                ["subelliptic", "--dims", "8"],
                ["verify-all", "--criteria", "1,2,9"]]
    return [["norms"], ["delta0"], ["positivity"],
            ["bargmann", "--t", BARGMANN_T], ["resolvent"], ["optimality"],
            ["degenerate"], ["subelliptic"],
            ["verify-all", "--criteria", CLI_CRITERIA]]


def cli_defaults_ops(seed: int, tiny: bool) -> list:
    """The same commands for every seed; see ``cli_argvs``."""
    ops = []
    for argv in cli_argvs(tiny):
        ops.append(Op("cli." + argv[0], tuple(argv),
                      functools.partial(lambda a, r: run_cli(a), argv),
                      _cli_check(argv[0])))
    return ops


def _warm_cli():
    run_cli(["norms", "--t", "1:1:1:lin"])


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, bool], list]   # (seed, tiny) -> one pass of Ops
    warm: Callable[[], None]           # the first call, outside any timing


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("galerkin_expm", galerkin_expm_ops, _warm_galerkin),
    Workload("galerkin_power", galerkin_power_ops, _warm_power),
    Workload("closed_forms", closed_forms_ops, _warm_closed_forms),
    Workload("cli_defaults", cli_defaults_ops, _warm_cli),
)}


def check_op(op: Op, outcome, results: dict) -> tuple:
    """(failed samples, known-defect samples, reason) for one call.

    ``outcome`` is the result, or the exception the call raised.
    """
    if isinstance(outcome, BaseException):
        return op.samples, 0, "%s raised %s: %s" % (
            op.label, type(outcome).__name__, outcome)
    known = KNOWN_DEFECTS.get(op.label)
    if known is not None and isinstance(outcome, CliResult) \
            and outcome.exit_code == known[0] and known[1] in outcome.stderr:
        return 0, op.samples, "known defect: %s %s" % (op.label, known[2])
    try:
        bad, reason = op.check(outcome, results)
    except (ArithmeticError, ValueError, TypeError, KeyError) as exc:
        return op.samples, 0, "%s check raised %s: %s" % (
            op.label, type(exc).__name__, exc)
    return bad, 0, (None if not bad else "%s: %s" % (op.label, reason))


def unconverged(outcome) -> int:
    """Oracle samples whose truncation drift exceeds the curve's drift_tol."""
    samples = getattr(outcome, "samples", ())
    return sum(1 for s in samples if not s.converged)
