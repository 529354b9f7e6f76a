"""Oracle sweeps and the acceptance criteria built on them.

A sweep runs a closed form against its independent oracle over explicit
grids and returns the table ``kfpq <command>`` prints: column names and rows
ending in RESULT_COLUMNS.  The last column is the verdict under the
tolerance of the criterion that covers the sweep, written only in the sweep;
criteria 4, 5, 6, 7, 8 and 10 reduce over sweep rows and read that verdict.
Each criterion takes no arguments and returns a CriterionResult whose details
string is the same on every run, so two runs emit byte-identical reports; wall
time is compared against the criterion's budget but kept out of the details.
``_delta0_root``, ``_degenerate_sup_numeric`` and ``criterion_9`` import
``scipy.optimize`` when called, not at load, so that the commands and criteria
that never root-find or maximize start without it (as in ``exactnorms``).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bargmann import (quotient, quotient_regime_constants, remainder_bound,
                       gram_eigenvalues, lambda_minus_log_form,
                       sup_direct_optimization)
from .biquat import Biquaternion
from .degenerate import (F, decay_bound_degenerate, fiber_exponent,
                         fiber_norm, optimal_weight, sup_weighted)
from .exactnorms import (boosted_state_norm_quadrature, optimality_witness,
                         oscillator_norm_closed, oscillator_norm_quadrature,
                         overlap_closed, overlap_quadrature, resolvent_bound,
                         semigroup_norm, witness_rayleigh_numeric)
from .galerkin import decay_curve, subelliptic_constant
from .positivity import (NonRealDelta0, _checked_determinant,
                         _form_difference, _report, delta0)
from .symbols import (ModelParams, generator_hessian, hamilton_basis,
                      hamilton_map, kappa, kappa0, rotated_oscillator_hessian)

__all__ = ["CriterionResult", "CRITERIA", "run_criteria",
           "RESULT_COLUMNS", "sweep_norms", "sweep_delta0",
           "sweep_positivity", "sweep_bargmann", "sweep_resolvent",
           "sweep_optimality", "sweep_degenerate", "sweep_subelliptic"]

_ALPHAS = (0.0, np.pi / 2)
# terms of the 2x2 exponential series criterion 1 compares against
_SERIES_TERMS = 80

RESULT_COLUMNS = ("t", "analytic", "bound", "oracle", "rel_discrepancy",
                  "converged_flag")


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float
    budget: float


def _fmt(x: float) -> str:
    return "%.3g" % x


def _signed_params(nu: float) -> ModelParams:
    """Attracting potential at nu > 0, repelling at |nu| for nu < 0."""
    return ModelParams(nu=abs(nu), alpha=np.pi / 2 if nu > 0 else 0.0)


def _columns(table) -> dict:
    """Column name -> tuple of the values of a sweep's rows."""
    columns, rows = table
    return dict(zip(columns, zip(*rows)))


# ---------------------------------------------------------------------------
# oracle sweeps


def sweep_norms(nus, ts):
    """Exact semigroup norm against the eigenvalue route (criterion 5).

    The route is (mu1/mu2)^{1/4}, taken from the log form of the quotient
    where mu1 / mu2 leaves the double range.  rel_discrepancy is 0 when
    both values underflow to 0, and inf when only the closed form does; the
    verdict is on the absolute discrepancy.
    """
    rows = []
    for nu in nus:
        for t in ts:
            res = semigroup_norm(t, nu)
            quotient = res.mu1 / res.mu2
            if 0.0 < quotient < np.inf:
                oracle = float(quotient ** 0.25)
            else:
                oracle = float(np.exp(0.25 * res.log_quotient))
            if res.norm != 0.0:
                rel = abs(oracle - res.norm) / res.norm
            else:
                rel = 0.0 if oracle == 0.0 else np.inf
            rows.append([nu, t, res.norm, 1.0, oracle, rel,
                         abs(oracle - res.norm) <= 1e-10])
    return ("nu",) + RESULT_COLUMNS, rows


def _delta0_root(t: float, params: ModelParams) -> float:
    """Root of the flow-form determinant, bracketed around the closed form."""
    import scipy.optimize

    difference = _form_difference(t, params, 1)

    def det_real(d):
        d = float(d)
        return _checked_determinant(difference(d), t, d)[0].real

    d0 = delta0(t, params)
    lo, hi = 0.5 * d0, 1.5 * d0
    f_lo, f_hi = det_real(lo), det_real(hi)
    tries = 0
    while f_lo * f_hi > 0 and tries < 6:
        lo *= 0.5
        hi *= 1.8
        f_lo, f_hi = det_real(lo), det_real(hi)
        tries += 1
    if f_lo * f_hi > 0:
        raise NonRealDelta0("determinant does not change sign near the "
                            "closed-form threshold at t=%g" % t)
    return float(scipy.optimize.brentq(det_real, lo, hi, xtol=1e-15,
                                       rtol=8.9e-16))


def sweep_delta0(nus, alphas, ts):
    """Closed-form positivity threshold against a determinant root."""
    rows = []
    for nu in nus:
        for alpha in alphas:
            params = ModelParams(nu=nu, alpha=alpha)
            for t in ts:
                analytic = delta0(t, params)
                oracle = _delta0_root(t, params)
                cubic = nu * t ** 3 / 12.0
                rel = abs(oracle - analytic) / analytic
                rows.append([nu, alpha, t, analytic, cubic, oracle, rel,
                             rel <= 1e-9])
    return ("nu", "alpha") + RESULT_COLUMNS, rows


def _positivity_rows(nus, alphas, ts):
    """Each row of ``sweep_positivity``, with the form difference map of its
    (nu, alpha, sign, t)."""
    for nu in nus:
        for alpha in alphas:
            params = ModelParams(nu=nu, alpha=alpha)
            for sign in (1, -1):
                for t in ts:
                    d0 = delta0(t, params)
                    difference = _form_difference(t, params, sign)
                    det_res = _report(t, d0, difference(d0)).det_residual
                    inner = _report(t, 0.5 * d0, difference(0.5 * d0))
                    row = [nu, alpha, sign, t, det_res, 0.0,
                           inner.min_eigenvalue, det_res,
                           det_res <= 1e-8 and bool(inner.is_positive)]
                    yield row, difference


_POSITIVITY_COLUMNS = ("nu", "alpha", "sign") + RESULT_COLUMNS


def sweep_positivity(nus, alphas, ts):
    """Flow-form determinant at delta0 and interior eigenvalue at delta0/2.

    The analytic and rel_discrepancy columns hold the determinant residual,
    the oracle column the smallest interior eigenvalue (criterion 4).
    """
    return _POSITIVITY_COLUMNS, [row for row, _ in
                                 _positivity_rows(nus, alphas, ts)]


def sweep_bargmann(nus, ts):
    """Closed quotient supremum against the 2x2 eigenproblem (criterion 8).

    The oracle is ``sup_direct_optimization``: the homogeneity reduction of
    the sup over C^2 to the largest generalized eigenvalue of
    (e_q e_q^*, G_t - Id).  Rows pass at relative deviation 1e-10.
    """
    rows = []
    for nu in nus:
        params = ModelParams(nu=nu, alpha=np.pi / 2)
        for t in ts:
            analytic = quotient(t, params).sup_value
            oracle = sup_direct_optimization(t, params)
            bound = remainder_bound(t, params) if nu > 1 else None
            rel = abs(oracle / analytic - 1.0)
            rows.append([nu, t, analytic, bound, oracle, rel, rel <= 1e-10])
    return ("nu",) + RESULT_COLUMNS, rows


def sweep_resolvent(nus):
    """Resolvent integral against its logarithmic bound (criterion 6)."""
    rows = []
    for nu in nus:
        res = resolvent_bound(nu)
        n1 = float(np.sqrt(1.0 + 4.0 * nu))
        analytic = float(np.log(nu) / np.sqrt(nu))
        bound = 2.0 * (np.log(nu) / n1 + 1.0 / nu)
        rows.append([nu, None, analytic, bound, res.integral,
                     res.c_ratio - 1.0, bool(res.integral <= bound)])
    return ("nu",) + RESULT_COLUMNS, rows


def sweep_optimality(nus):
    """Grid witness against its closed forms (criterion 7).

    Rows pass with ||X0 u||^2 within 20% of its closed value, ||u||^2 at
    least its lower bound, and ||O_p u||^2 and the quotient at most 1.2
    times their bounds.
    """
    rows = []
    for nu in nus:
        wit = optimality_witness(nu)
        numeric = witness_rayleigh_numeric(nu)
        rel = numeric.quotient / wit.rayleigh_bound - 1.0
        consistent = (abs(numeric.x0_norm_sq / wit.x0_norm_sq - 1.0) <= 0.2
                      and numeric.u_norm_sq >= wit.u_norm_sq_lower
                      and numeric.op_norm_sq <= 1.2 * wit.op_bound_sq
                      and numeric.quotient <= 1.2 * wit.rayleigh_bound)
        rows.append([nu, None, wit.rayleigh_bound, 1.2 * wit.rayleigh_bound,
                     numeric.quotient, rel, bool(consistent)])
    return ("nu",) + RESULT_COLUMNS, rows


def _degenerate_sup_numeric(t: float, lam: float) -> float:
    """Grid plus polish maximization of the weighted fiber norm in b."""
    import scipy.optimize

    u = fiber_exponent(t)
    width = float(np.sqrt(-1.0 / u))
    hi = max(2.0 * lam, lam + 4.0 * width) + 1.0
    grid = np.linspace(lam, hi, 1601)
    values = grid * grid * np.exp(u * grid * grid)
    k = int(np.argmax(values))
    lo_b = grid[max(k - 1, 0)]
    hi_b = grid[min(k + 1, len(grid) - 1)]
    if hi_b <= lo_b:
        return float(values[k])
    res = scipy.optimize.minimize_scalar(
        lambda b: -fiber_norm(t, float(b)), bounds=(float(lo_b), float(hi_b)),
        method="bounded", options={"xatol": 1e-12})
    return float(max(values[k], -res.fun))


def sweep_degenerate(lambdas, ts):
    """Linear-potential fiber supremum against grid maximization."""
    rows = []
    for lam in lambdas:
        for t in ts:
            analytic = sup_weighted(t, lam)
            bound = decay_bound_degenerate(t, lam)
            oracle = _degenerate_sup_numeric(t, lam)
            rel = abs(oracle / analytic - 1.0)
            rows.append([lam, t, analytic, bound, oracle, rel, rel <= 1e-10])
    return ("lambda1",) + RESULT_COLUMNS, rows


def sweep_subelliptic(nus, dims):
    """Subelliptic pencil constant, signed nu selecting the potential (C10)."""
    rows = []
    for nu in nus:
        params = _signed_params(nu)
        value = subelliptic_constant(params, dims=dims)
        rows.append([nu, params.alpha, dims, None, None, None,
                     value, None, bool(value > 0)])
    return ("nu", "alpha", "dims") + RESULT_COLUMNS, rows


# ---------------------------------------------------------------------------
# acceptance criteria


def _matrix_exp_series(stack: np.ndarray) -> np.ndarray:
    """e^m of each matrix m of a stack (k, n, n) from its power series.

    A matrix stops after the first term whose entries are all below 1e-20
    in modulus, or after _SERIES_TERMS terms; later terms of the others
    leave it as it is.
    """
    out = np.broadcast_to(np.eye(stack.shape[1], dtype=complex),
                          stack.shape).copy()
    term = out.copy()
    live = np.arange(len(stack))
    for k in range(1, _SERIES_TERMS):
        term = np.matmul(term, stack[live]) / k
        out[live] = out[live] + term
        going = np.max(np.abs(term), axis=(1, 2)) >= 1e-20
        live, term = live[going], term[going]
        if not live.size:
            break
    return out


CRITERIA = {}


def _criterion(number: int, name: str, budget: float):
    """Register a check as criterion ``number`` with a wall-clock budget.

    The check returns (passed, details); the criterion passes only when the
    check passes and it ran within ``budget`` seconds.
    """
    def register(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            passed, details = check()
            elapsed = time.perf_counter() - start
            return CriterionResult(number, name,
                                   bool(passed) and elapsed < budget,
                                   details, elapsed, budget)
        CRITERIA[number] = criterion
        return criterion
    return register


@_criterion(1, "biquaternion algebra", 1.0)
def criterion_1():
    """Biquaternion exponential and multiplicative norm against 2x2 series."""
    rng = np.random.RandomState(0)
    draws = [Biquaternion(*(0.8 * (rng.randn(4) + 1j * rng.randn(4))))
             for _ in range(200)]
    matrices = np.stack([w.to_matrix() for w in draws])
    series = _matrix_exp_series(matrices)
    dets = np.linalg.det(matrices)
    worst_exp = 0.0
    worst_det = 0.0
    for w, det, reference in zip(draws, dets, series):
        closed = w.exp().to_matrix()
        worst_exp = max(worst_exp, float(np.max(np.abs(closed - reference))))
        det = complex(det)
        worst_det = max(worst_det,
                        abs(w.norm() - det) / max(1.0, abs(det)))
    passed = worst_exp <= 1e-10 and worst_det <= 1e-12
    details = ("exp residual %s (tol 1e-10), norm-det residual %s (tol 1e-12)"
               % (_fmt(worst_exp), _fmt(worst_det)))
    return passed, details


@_criterion(2, "hamilton basis identities", 1.0)
def criterion_2():
    """Hamilton-side quaternion basis identities at both angles."""
    worst = 0.0
    id4 = np.eye(4)
    for alpha in _ALPHAS:
        basis = hamilton_basis(alpha)
        e, i, j, k = basis.E, basis.I, basis.J, basis.K
        phase = np.exp(2j * alpha)
        residuals = [
            e @ e + id4, i @ i + id4, j @ j + id4, k @ k + id4,
            i @ j - k,
            np.conj(e) - e,
            np.conj(i) - i,
            np.conj(j) + phase * j,
            np.conj(k) + phase * k,
            basis.sigma - (np.sin(alpha) * e + np.cos(alpha) * i),
            basis.T_plus.conj().T @ basis.T_plus - np.eye(2),
            basis.T_minus.conj().T @ basis.T_minus - np.eye(2),
        ]
        worst = max(worst, max(float(np.max(np.abs(r))) for r in residuals))
    passed = worst <= 1e-13
    details = "worst identity residual %s (tol 1e-13)" % _fmt(worst)
    return passed, details


@_criterion(3, "flow closed forms", 5.0)
def criterion_3():
    """Closed flow factorizations against 4x4 matrix exponentials, all
    taken in one ``expm`` call on the stack of their generators."""
    ts = np.linspace(0.25, 3.0, 12)
    deltas = np.linspace(0.0, 1.0, 6)
    osc = hamilton_map(rotated_oscillator_hessian(0.0))
    closed, generators = [], []
    for nu in (0.1, 1.0, 10.0):
        for alpha in _ALPHAS:
            params = ModelParams(nu=nu, alpha=alpha)
            gen = hamilton_map(generator_hessian(params))
            for t in ts:
                closed.append(kappa(float(t), params).matrix)
                generators.append(-1j * t * gen)
            for d in deltas:
                closed.append(kappa0(float(d), params).matrix)
                generators.append(1j * d * osc)
    worst = 0.0
    for matrix, oracle in zip(closed,
                              scipy.linalg.expm(np.stack(generators))):
        diff = np.max(np.abs(matrix - oracle))
        worst = max(worst, float(diff / max(1.0, np.max(np.abs(oracle)))))
    passed = worst <= 1e-9
    details = "worst relative flow residual %s (tol 1e-9)" % _fmt(worst)
    return passed, details


@_criterion(4, "positivity threshold", 10.0)
def criterion_4():
    """Positivity threshold: vanishing determinant, cubic window, interior."""
    nus = (0.5, 1.0, 4.0, 25.0)
    ts = np.logspace(np.log10(0.05), np.log10(3.0), 10).tolist()
    rows = []
    min_at_zero = np.inf
    # the interior at delta = 0 is read off the maps the sweep formed
    for row, difference in _positivity_rows(nus, _ALPHAS, ts):
        rows.append(row)
        t = row[3]
        min_at_zero = min(min_at_zero,
                          _report(t, 0.0, difference(0.0)).min_eigenvalue)
    swept = _columns((_POSITIVITY_COLUMNS, rows))
    worst_ratio = 0.0
    for nu in nus:
        for alpha in _ALPHAS:
            params = ModelParams(nu=nu, alpha=alpha)
            t_small = 1e-2 / (1.0 + np.sqrt(nu))
            ratio = delta0(t_small, params) / (nu * t_small ** 3 / 12.0)
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
    passed = (all(swept["converged_flag"]) and worst_ratio <= 0.02
              and min_at_zero > 0.0)
    details = ("det residual %s (tol 1e-8), cubic ratio off by %s (tol 0.02), "
               "interior min eigenvalue %s (must be > 0)"
               % (_fmt(max(swept["rel_discrepancy"])), _fmt(worst_ratio),
                  _fmt(min(min_at_zero, *swept["oracle"]))))
    return passed, details


@_criterion(5, "exact semigroup norm", 10.0)
def criterion_5():
    """Exact semigroup norm: eigenvalue route and Galerkin oracle."""
    swept = _columns(sweep_norms((0.5, 1.0, 4.0, 100.0, 1e4),
                                 np.logspace(-3, np.log10(20.0), 25).tolist()))
    worst_mu = max(abs(oracle - analytic) for oracle, analytic
                   in zip(swept["oracle"], swept["analytic"]))
    curve = decay_curve("evolution_norm", ModelParams(nu=1.0, alpha=0.0),
                        (0.5, 1.0, 2.0), dims=64, strict=False)
    worst_rel = 0.0
    all_green = True
    for s in curve.samples:
        worst_rel = max(worst_rel, abs(s.oracle / s.analytic - 1.0))
        all_green = all_green and s.converged
    passed = all(swept["converged_flag"]) and worst_rel <= 0.05 and all_green
    details = ("mu-route residual %s (tol 1e-10), Galerkin deviation %s "
               "(tol 0.05), convergence flags %s"
               % (_fmt(worst_mu), _fmt(worst_rel),
                  "green" if all_green else "RED"))
    return passed, details


@_criterion(6, "resolvent log bound", 10.0)
def criterion_6():
    """Resolvent integral bound and its logarithmic scaling ratio."""
    nus = sorted({1e2, 1e4, 1e6, *np.logspace(2, 8, 9).tolist()})
    swept = _columns(sweep_resolvent(nus))
    bound_ok = all(swept["converged_flag"])
    ratios = np.divide(swept["oracle"], swept["analytic"])
    lo, hi = min(ratios), max(ratios)
    passed = bound_ok and lo >= 0.3 and hi <= 2.5
    details = ("integral bound %s, c_ratio range [%s, %s] (window [0.3, 2.5])"
               % ("holds" if bound_ok else "FAILS", _fmt(lo), _fmt(hi)))
    return passed, details


@_criterion(7, "optimality witness", 10.0)
def criterion_7():
    """Optimality witness: quadrature identities, scaling, grid evaluation."""
    worst_quad = 0.0
    for big_l in (0.5, 1.0, 2.25):
        closed = overlap_closed(big_l)
        worst_quad = max(worst_quad, abs(overlap_quadrature(big_l) - closed))
    for s in (0.5, 1.0, 2.0):
        closed = oscillator_norm_closed(s)
        err = abs(oscillator_norm_quadrature(s) - closed) / max(1.0, closed)
        worst_quad = max(worst_quad, err,
                         abs(boosted_state_norm_quadrature(s) - 1.0))
    scaled = []
    for log_nu in (9.0, 12.0, 16.0):
        nu = float(np.exp(log_nu))
        wit = optimality_witness(nu)
        scaled.append(wit.rayleigh_bound * log_nu / nu)
    witness_ok = all(_columns(sweep_optimality(
        (float(np.exp(9.0)),)))["converged_flag"])
    passed = worst_quad <= 1e-8 and max(scaled) <= 9.5 and witness_ok
    details = ("quadrature residual %s (tol 1e-8), scaled rayleigh bound max "
               "%s (cap 9.5), grid witness %s"
               % (_fmt(worst_quad), _fmt(max(scaled)),
                  "consistent" if witness_ok else "INCONSISTENT"))
    return passed, details


@_criterion(8, "holomorphic quotient", 5.0)
def criterion_8():
    """Gram eigenvalues, analytic supremum, and quotient regime constants."""
    worst_forms = 0.0
    min_lam = np.inf
    for nu in (0.3, 0.5, 1.0, 4.0, 25.0, 100.0):
        params = ModelParams(nu=nu, alpha=np.pi / 2)
        for t in np.logspace(np.log10(0.05), np.log10(5.0), 15):
            pair = gram_eigenvalues(float(t), params)
            alt = lambda_minus_log_form(float(t), params)
            worst_forms = max(worst_forms,
                              abs(pair.lambda_minus - alt) / alt)
            min_lam = min(min_lam, pair.lambda_minus)
    swept = _columns(sweep_bargmann((1.0, 4.0), (0.5, 1.0, 2.0)))
    c_small, c_large = quotient_regime_constants()
    regimes_ok = 5.4 <= c_small <= 6.5 and c_large <= 6.5
    passed = (worst_forms <= 1e-11 and min_lam > 1.0
              and all(swept["converged_flag"]) and regimes_ok)
    details = ("eigenvalue forms differ by %s (tol 1e-11), min lambda_minus "
               "%s (must exceed 1), sup deviation %s (tol 1e-10), regime "
               "constants (%s, %s)"
               % (_fmt(worst_forms), _fmt(min_lam),
                  _fmt(max(swept["rel_discrepancy"])),
                  _fmt(c_small), _fmt(c_large)))
    return passed, details


@_criterion(9, "degenerate fibers", 10.0)
def criterion_9():
    """Degenerate profile: limit at zero, supremum inequality, cubic bound."""
    import scipy.optimize

    f1, f2, f3 = F(1e-2), F(5e-3), F(2.5e-3)
    r1a = (4.0 * f2 - f1) / 3.0
    r1b = (4.0 * f3 - f2) / 3.0
    r2 = (8.0 * r1b - r1a) / 7.0
    limit_err = abs(r2 - 24.0)
    sup_ok = True
    worst_max = 0.0
    for t in (0.1, 0.5, 1.0):
        sup_val = t ** 3 * sup_weighted(t, 0.0)
        sup_ok = sup_ok and sup_val <= F(t) * (1.0 + 1e-12)
        res = scipy.optimize.minimize_scalar(
            lambda b: -fiber_norm(t, b), bounds=(0.0, 3.0 / np.sqrt(-fiber_exponent(t))),
            method="bounded", options={"xatol": 1e-9})
        b_sq = res.x ** 2
        worst_max = max(worst_max, abs(b_sq / optimal_weight(t) - 1.0))
    cubic = max(decay_bound_degenerate(float(t), lam) * float(t) ** 3
                for t in np.linspace(0.05, 5.0, 100)
                for lam in (0.0, 1.0, 10.0))
    passed = (limit_err <= 1e-6 and sup_ok and worst_max <= 1e-8
              and cubic <= 40.0)
    details = ("limit error %s (tol 1e-6), supremum inequality %s, maximizer "
               "deviation %s (tol 1e-8), cubic bound max %s (cap 40)"
               % (_fmt(limit_err), "holds" if sup_ok else "FAILS",
                  _fmt(worst_max), _fmt(cubic)))
    return passed, details


@_criterion(10, "discretization probes", 30.0)
def criterion_10():
    """Galerkin decay curves and the subelliptic pencil."""
    curves_ok = True
    flags_ok = True
    for signed_nu in (1.0, -1.0, 4.0):
        curve = decay_curve("derivative_weight", _signed_params(signed_nu),
                            (0.5, 1.0, 2.0), dims=96, strict=False)
        for s in curve.samples:
            curves_ok = curves_ok and s.oracle <= s.bound * (1.0 + 1e-9)
            flags_ok = flags_ok and s.converged
    for lam in (0.0, 1.0):
        params = ModelParams(nu=0.0, alpha=0.0, lambda1=lam)
        curve = decay_curve("degenerate_fiber", params, (0.5, 1.0, 2.0),
                            strict=False)
        for s in curve.samples:
            curves_ok = curves_ok and s.oracle <= s.bound * (1.0 + 1e-9)
            flags_ok = flags_ok and s.converged
    small, large = (_columns(sweep_subelliptic((1.0, -1.0), dims))
                    for dims in (16, 24))
    pencil_ok = all(small["converged_flag"] + large["converged_flag"])
    worst_drift = max(abs(c24 / c16 - 1.0)
                      for c16, c24 in zip(small["oracle"], large["oracle"]))
    passed = curves_ok and flags_ok and pencil_ok and worst_drift <= 0.30
    details = ("curve inequalities %s, required convergence flags %s, pencil "
               "positive %s with drift %s (tol 0.30)"
               % ("hold" if curves_ok else "FAIL",
                  "green" if flags_ok else "RED",
                  "yes" if pencil_ok else "NO", _fmt(worst_drift)))
    return passed, details


def run_criteria(numbers=None):
    """Run the requested criteria in ascending order."""
    if numbers is None:
        numbers = sorted(CRITERIA)
    results = []
    for k in numbers:
        if k not in CRITERIA:
            raise KeyError("no acceptance criterion %r" % (k,))
        results.append(CRITERIA[k]())
    return results
