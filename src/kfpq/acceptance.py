"""Acceptance checks shared by the test suite and `kfpq verify-all`.

Each criterion function runs one self-contained verification block and
returns a CriterionResult whose details string is deterministic for a fixed
seed, so two runs of the full suite emit byte-identical reports.  Wall time
is recorded and compared against each criterion's budget, but it is kept out
of the details string.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .bargmann import (quotient, quotient_regime_constants, remainder_bound,
                       gram_eigenvalues, lambda_minus_log_form,
                       sup_direct_optimization)
from .biquat import Biquaternion
from .degenerate import (F, decay_bound_degenerate, fiber_exponent,
                         fiber_norm, optimal_weight, sup_weighted)
from .exactnorms import (optimality_witness, oscillator_norm_closed,
                         oscillator_norm_quadrature, overlap_closed,
                         overlap_quadrature, resolvent_bound, semigroup_norm,
                         witness_rayleigh_numeric)
from .galerkin import decay_curve, subelliptic_constant
from .positivity import delta0, positivity_report
from .symbols import (ModelParams, generator_hessian, hamilton_basis,
                      hamilton_map, kappa, kappa0, rotated_oscillator_hessian)

__all__ = ["CriterionResult", "CRITERIA", "FAST_CRITERIA", "run_criteria"]

_ALPHAS = (0.0, np.pi / 2)


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


def _matrix_exp_series(m: np.ndarray, terms: int = 80) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


def criterion_1(seed: int = 0) -> CriterionResult:
    """Biquaternion exponential and multiplicative norm against 2x2 series."""
    start = time.perf_counter()
    rng = np.random.RandomState(seed)
    worst_exp = 0.0
    worst_det = 0.0
    for _ in range(200):
        coeffs = 0.8 * (rng.randn(4) + 1j * rng.randn(4))
        w = Biquaternion(*coeffs)
        closed = w.exp().to_matrix()
        series = _matrix_exp_series(w.to_matrix())
        worst_exp = max(worst_exp, float(np.max(np.abs(closed - series))))
        det = complex(np.linalg.det(w.to_matrix()))
        worst_det = max(worst_det,
                        abs(w.norm() - det) / max(1.0, abs(det)))
    elapsed = time.perf_counter() - start
    passed = worst_exp <= 1e-10 and worst_det <= 1e-12 and elapsed < 1.0
    details = ("exp residual %s (tol 1e-10), norm-det residual %s (tol 1e-12)"
               % (_fmt(worst_exp), _fmt(worst_det)))
    return CriterionResult(1, "biquaternion algebra", passed, details,
                           elapsed, 1.0)


def criterion_2(seed: int = 0) -> CriterionResult:
    """Hamilton-side quaternion basis identities at both angles."""
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-13 and elapsed < 1.0
    details = "worst identity residual %s (tol 1e-13)" % _fmt(worst)
    return CriterionResult(2, "hamilton basis identities", passed, details,
                           elapsed, 1.0)


def criterion_3(seed: int = 0) -> CriterionResult:
    """Closed flow factorizations against 4x4 matrix exponentials."""
    start = time.perf_counter()
    worst = 0.0
    ts = np.linspace(0.25, 3.0, 12)
    deltas = np.linspace(0.0, 1.0, 6)
    osc = hamilton_map(rotated_oscillator_hessian(0.0))
    for nu in (0.1, 1.0, 10.0):
        for alpha in _ALPHAS:
            params = ModelParams(nu=nu, alpha=alpha)
            gen = hamilton_map(generator_hessian(params))
            for t in ts:
                oracle = scipy.linalg.expm(-1j * t * gen)
                diff = np.max(np.abs(kappa(float(t), params).matrix - oracle))
                worst = max(worst, float(diff / max(1.0, np.max(np.abs(oracle)))))
            for d in deltas:
                oracle = scipy.linalg.expm(1j * d * osc)
                diff = np.max(np.abs(kappa0(float(d), params).matrix - oracle))
                worst = max(worst, float(diff / max(1.0, np.max(np.abs(oracle)))))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 5.0
    details = "worst relative flow residual %s (tol 1e-9)" % _fmt(worst)
    return CriterionResult(3, "flow closed forms", passed, details,
                           elapsed, 5.0)


def criterion_4(seed: int = 0) -> CriterionResult:
    """Positivity threshold: vanishing determinant, cubic window, interior."""
    start = time.perf_counter()
    worst_det = 0.0
    worst_ratio = 0.0
    min_interior = np.inf
    for nu in (0.5, 1.0, 4.0, 25.0):
        for alpha in _ALPHAS:
            params = ModelParams(nu=nu, alpha=alpha)
            for t in np.logspace(np.log10(0.05), np.log10(3.0), 10):
                d0 = delta0(float(t), params)
                for sign in (1, -1):
                    rep = positivity_report(float(t), d0, params, sign)
                    worst_det = max(worst_det, rep.det_residual)
                    for frac in (0.0, 0.5):
                        inner = positivity_report(float(t), frac * d0,
                                                  params, sign)
                        min_interior = min(min_interior, inner.min_eigenvalue)
            t_small = 1e-2 / (1.0 + np.sqrt(nu))
            ratio = delta0(t_small, params) / (nu * t_small ** 3 / 12.0)
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
    elapsed = time.perf_counter() - start
    passed = (worst_det <= 1e-8 and worst_ratio <= 0.02
              and min_interior > 0.0 and elapsed < 10.0)
    details = ("det residual %s (tol 1e-8), cubic ratio off by %s (tol 0.02), "
               "interior min eigenvalue %s (must be > 0)"
               % (_fmt(worst_det), _fmt(worst_ratio), _fmt(min_interior)))
    return CriterionResult(4, "positivity threshold", passed, details,
                           elapsed, 10.0)


def criterion_5(seed: int = 0) -> CriterionResult:
    """Exact semigroup norm: eigenvalue route and Galerkin oracle."""
    start = time.perf_counter()
    worst_mu = 0.0
    for nu in (0.5, 1.0, 4.0, 100.0, 1e4):
        for t in np.logspace(-3, np.log10(20.0), 25):
            res = semigroup_norm(float(t), nu)
            worst_mu = max(worst_mu,
                           abs((res.mu1 / res.mu2) ** 0.25 - res.norm))
    curve = decay_curve("evolution_norm", ModelParams(nu=1.0, alpha=0.0),
                        (0.5, 1.0, 2.0), dims=64, strict=False)
    worst_rel = 0.0
    all_green = True
    for s in curve.samples:
        worst_rel = max(worst_rel, abs(s.oracle / s.analytic - 1.0))
        all_green = all_green and s.converged
    elapsed = time.perf_counter() - start
    passed = (worst_mu <= 1e-10 and worst_rel <= 0.05 and all_green
              and elapsed < 180.0)
    details = ("mu-route residual %s (tol 1e-10), Galerkin deviation %s "
               "(tol 0.05), convergence flags %s"
               % (_fmt(worst_mu), _fmt(worst_rel),
                  "green" if all_green else "RED"))
    return CriterionResult(5, "exact semigroup norm", passed, details,
                           elapsed, 180.0)


def criterion_6(seed: int = 0) -> CriterionResult:
    """Resolvent integral bound and its logarithmic scaling ratio."""
    start = time.perf_counter()
    bound_ok = True
    for nu in (1e2, 1e4, 1e6):
        res = resolvent_bound(nu)
        n1 = np.sqrt(1.0 + 4.0 * nu)
        bound_ok = bound_ok and (res.integral
                                 <= 2.0 * (np.log(nu) / n1 + 1.0 / nu))
    ratios = [resolvent_bound(float(nu)).c_ratio
              for nu in np.logspace(2, 8, 9)]
    lo, hi = min(ratios), max(ratios)
    elapsed = time.perf_counter() - start
    passed = bound_ok and lo >= 0.3 and hi <= 2.5 and elapsed < 10.0
    details = ("integral bound %s, c_ratio range [%s, %s] (window [0.3, 2.5])"
               % ("holds" if bound_ok else "FAILS", _fmt(lo), _fmt(hi)))
    return CriterionResult(6, "resolvent log bound", passed, details,
                           elapsed, 10.0)


def criterion_7(seed: int = 0) -> CriterionResult:
    """Optimality witness: quadrature identities, scaling, grid evaluation."""
    start = time.perf_counter()
    worst_quad = 0.0
    for big_l in (0.5, 1.0, 2.25):
        closed = overlap_closed(big_l)
        worst_quad = max(worst_quad, abs(overlap_quadrature(big_l) - closed))
    for s in (0.5, 1.0, 2.0):
        closed = oscillator_norm_closed(s)
        err = abs(oscillator_norm_quadrature(s) - closed) / max(1.0, closed)
        worst_quad = max(worst_quad, err)
    scaled = []
    for log_nu in (9.0, 12.0, 16.0):
        nu = float(np.exp(log_nu))
        wit = optimality_witness(nu)
        scaled.append(wit.rayleigh_bound * log_nu / nu)
    nu9 = float(np.exp(9.0))
    closed9 = optimality_witness(nu9)
    numeric = witness_rayleigh_numeric(nu9)
    x0_dev = abs(numeric.x0_norm_sq / closed9.x0_norm_sq - 1.0)
    witness_ok = (x0_dev <= 0.2
                  and numeric.u_norm_sq >= closed9.u_norm_sq_lower
                  and numeric.op_norm_sq <= 1.2 * closed9.op_bound_sq
                  and numeric.quotient <= 1.2 * closed9.rayleigh_bound)
    elapsed = time.perf_counter() - start
    passed = (worst_quad <= 1e-8 and max(scaled) <= 9.5 and witness_ok
              and elapsed < 120.0)
    details = ("quadrature residual %s (tol 1e-8), scaled rayleigh bound max "
               "%s (cap 9.5), grid witness %s"
               % (_fmt(worst_quad), _fmt(max(scaled)),
                  "consistent" if witness_ok else "INCONSISTENT"))
    return CriterionResult(7, "optimality witness", passed, details,
                           elapsed, 120.0)


def criterion_8(seed: int = 0) -> CriterionResult:
    """Gram eigenvalues, analytic supremum, and quotient regime constants."""
    start = time.perf_counter()
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
    worst_sup = 0.0
    for nu in (1.0, 4.0):
        params = ModelParams(nu=nu, alpha=np.pi / 2)
        for t in (0.5, 1.0, 2.0):
            analytic = quotient(t, params).sup_value
            direct = sup_direct_optimization(t, params, seed=seed)
            worst_sup = max(worst_sup, abs(direct / analytic - 1.0))
    c_small, c_large = quotient_regime_constants((1.0, 1e2, 1e4))
    regimes_ok = 5.4 <= c_small <= 6.5 and c_large <= 6.5
    elapsed = time.perf_counter() - start
    passed = (worst_forms <= 1e-11 and min_lam > 1.0 and worst_sup <= 1e-6
              and regimes_ok and elapsed < 30.0)
    details = ("eigenvalue forms differ by %s (tol 1e-11), min lambda_minus "
               "%s (must exceed 1), sup deviation %s (tol 1e-6), regime "
               "constants (%s, %s)"
               % (_fmt(worst_forms), _fmt(min_lam), _fmt(worst_sup),
                  _fmt(c_small), _fmt(c_large)))
    return CriterionResult(8, "holomorphic quotient", passed, details,
                           elapsed, 30.0)


def criterion_9(seed: int = 0) -> CriterionResult:
    """Degenerate profile: limit at zero, supremum inequality, cubic bound."""
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    passed = (limit_err <= 1e-6 and sup_ok and worst_max <= 1e-8
              and cubic <= 40.0 and elapsed < 10.0)
    details = ("limit error %s (tol 1e-6), supremum inequality %s, maximizer "
               "deviation %s (tol 1e-8), cubic bound max %s (cap 40)"
               % (_fmt(limit_err), "holds" if sup_ok else "FAILS",
                  _fmt(worst_max), _fmt(cubic)))
    return CriterionResult(9, "degenerate fibers", passed, details,
                           elapsed, 10.0)


def criterion_10(seed: int = 0) -> CriterionResult:
    """Galerkin decay curves and the subelliptic pencil."""
    start = time.perf_counter()
    required_converged = {1.0: (1.0, 2.0), -1.0: (1.0, 2.0),
                          4.0: (0.5, 1.0, 2.0)}
    curves_ok = True
    flags_ok = True
    for signed_nu, required in required_converged.items():
        if signed_nu > 0:
            params = ModelParams(nu=signed_nu, alpha=np.pi / 2)
        else:
            params = ModelParams(nu=-signed_nu, alpha=0.0)
        curve = decay_curve("derivative_weight", params, (0.5, 1.0, 2.0),
                            dims=64, strict=False)
        for s in curve.samples:
            curves_ok = curves_ok and s.oracle <= s.bound * (1.0 + 1e-9)
            if s.t in required:
                flags_ok = flags_ok and s.converged
    for lam in (0.0, 1.0):
        params = ModelParams(nu=0.0, alpha=0.0, lambda1=lam)
        curve = decay_curve("degenerate_fiber", params, (0.5, 1.0, 2.0),
                            strict=False)
        for s in curve.samples:
            curves_ok = curves_ok and s.oracle <= s.bound * (1.0 + 1e-9)
            flags_ok = flags_ok and s.converged
    pencil_ok = True
    worst_drift = 0.0
    for alpha in (np.pi / 2, 0.0):
        params = ModelParams(nu=1.0, alpha=alpha)
        c16 = subelliptic_constant(params, dims=16)
        c24 = subelliptic_constant(params, dims=24)
        pencil_ok = pencil_ok and c16 > 0.0 and c24 > 0.0
        worst_drift = max(worst_drift, abs(c24 / c16 - 1.0))
    elapsed = time.perf_counter() - start
    passed = (curves_ok and flags_ok and pencil_ok and worst_drift <= 0.30
              and elapsed < 600.0)
    details = ("curve inequalities %s, required convergence flags %s, pencil "
               "positive %s with drift %s (tol 0.30)"
               % ("hold" if curves_ok else "FAIL",
                  "green" if flags_ok else "RED",
                  "yes" if pencil_ok else "NO", _fmt(worst_drift)))
    return CriterionResult(10, "discretization probes", passed, details,
                           elapsed, 600.0)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}

# cheap, fully deterministic subset used for the byte-reproducibility check
FAST_CRITERIA = (1, 2, 3, 4, 6, 8, 9)


def run_criteria(numbers=None, seed: int = 0):
    """Run the requested criteria in ascending order."""
    if numbers is None:
        numbers = sorted(CRITERIA)
    results = []
    for k in numbers:
        if k not in CRITERIA:
            raise KeyError("no acceptance criterion %r" % (k,))
        results.append(CRITERIA[k](seed=seed))
    return results
