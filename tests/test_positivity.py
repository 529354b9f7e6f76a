"""Flow-form positivity, the threshold delta0, and the decay envelope."""

import math

import mpmath
import numpy as np
import pytest
import scipy.optimize

from kfpq import acceptance, positivity
from kfpq.biquat import Biquaternion
from kfpq.positivity import (NonFiniteDeterminant, NonRealDelta0, _bracket,
                             _checked_determinant, _form_difference, _report,
                             delta0, evolved_flow_form, hermitian_difference,
                             position_flow_form, position_weight_decay_bound,
                             positivity_report)
from kfpq.symbols import (ModelParams, _flow_factors, hamilton_basis, kappa,
                          kappa0)

ALPHAS = (0.0, np.pi / 2)


def delta0_root_oracle(t, params):
    """Independent root of the determinant via bracketed bisection."""
    def det_real(d):
        return positivity_report(t, float(d), params, 1).det_value.real

    d0 = delta0(t, params)
    return scipy.optimize.brentq(det_real, 0.5 * d0, 1.5 * d0,
                                 xtol=1e-16, rtol=8.9e-16)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", [0.5, 1.0, 25.0])
def test_threshold_matches_determinant_root(nu, alpha):
    params = ModelParams(nu=nu, alpha=alpha)
    for t in (0.1, 0.7, 2.0):
        closed = delta0(t, params)
        root = delta0_root_oracle(t, params)
        # the root itself is limited by determinant conditioning at large
        # curvature and time, so the crosscheck tolerance is looser than
        # the closed form's own accuracy
        assert abs(closed - root) <= 1e-7 * root


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("sign", [1, -1])
def test_determinant_vanishes_at_threshold(alpha, sign):
    for nu in (0.5, 4.0):
        params = ModelParams(nu=nu, alpha=alpha)
        for t in (0.05, 0.5, 3.0):
            d0 = delta0(t, params)
            rep = positivity_report(t, d0, params, sign)
            scale = 1.0 + float(np.max(np.abs(rep.coeffs))) ** 2
            assert abs(rep.det_value) / scale < 1e-12
            assert rep.det_residual == abs(rep.det_value) / scale


def test_report_overflow_names_t_and_delta():
    # at nu = 5000, t = 3 the coefficients are near 1e182, so their squares
    # and the determinant overflow
    params = ModelParams(nu=5000.0, alpha=0.0)
    d0 = delta0(3.0, params)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteDeterminant, match="t=3, delta="):
            positivity_report(3.0, d0, params, 1)


def test_root_find_overflow_names_t_and_delta():
    # the root-find checks each determinant as positivity_report does
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteDeterminant, match="t=3, delta="):
            acceptance._delta0_root(3.0, ModelParams(nu=5000.0, alpha=0.0))


@pytest.mark.parametrize("a", [
    # |a|^2 = 1.8e308 overflows while a^2 = 1.08e308 + 1.44e308 i does not
    complex(1.2e154, 0.6e154),
    # abs(a) itself overflows, which Python's abs raises on
    complex(1.5e308, 1.5e308),
])
def test_scale_overflow_raises(a):
    with pytest.raises(NonFiniteDeterminant, match="scale inf at t=1, delta=2"):
        _checked_determinant(Biquaternion(a), 1.0, 2.0)


def _per_call_reference(t, delta, params, sign):
    """The report's numbers built as before the t side was hoisted.

    A fresh evolved form on every call and the numpy array scale.
    """
    w = (position_flow_form(delta, params, sign)
         - evolved_flow_form(t, params, sign)) * np.exp(sign * t)
    coeffs = np.array([w.a, w.b, w.c, w.d])
    det = w.norm()
    with np.errstate(over="ignore"):
        scale = 1.0 + np.max(np.abs(coeffs)) ** 2
    min_eig = w.a.real - math.hypot(w.b.imag, w.c.imag, w.d.imag)
    return coeffs, det, float(abs(det) / scale), min_eig


# the CLI's 0.05:3:24:log grid
HOIST_TS = tuple(float(t) for t in np.geomspace(0.05, 3.0, 24))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", [0.5, 1.0, 4.0, 25.0, 100.0])
def test_hoisted_t_side_is_bit_identical(nu, alpha):
    params = ModelParams(nu=nu, alpha=alpha)
    for sign in (1, -1):
        for t in HOIST_TS:
            d0 = delta0(t, params)
            difference = _form_difference(t, params, sign)
            for delta in (0.0, 0.5 * d0, d0, 1.5 * d0):
                coeffs, det, residual, min_eig = _per_call_reference(
                    t, delta, params, sign)
                for rep in (_report(t, delta, difference(delta)),
                            positivity_report(t, delta, params, sign)):
                    assert np.array_equal(rep.coeffs, coeffs)
                    assert rep.det_value == det
                    assert rep.det_residual == residual
                    assert rep.min_eigenvalue == min_eig


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", [0.5, 4.0, 25.0])
def test_root_find_reads_the_report_determinant(nu, alpha, monkeypatch):
    # every determinant brentq sees is positivity_report's, bit for bit
    seen = []
    brentq = scipy.optimize.brentq

    def recording(f, *args, **kwargs):
        def g(d):
            value = f(d)
            seen.append((float(d), value))
            return value
        return brentq(g, *args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "brentq", recording)
    params = ModelParams(nu=nu, alpha=alpha)
    for t in (0.05, 0.7, 3.0):
        seen.clear()
        acceptance._delta0_root(t, params)
        assert len(seen) > 2
        for d, value in seen:
            assert value == positivity_report(t, d, params, 1).det_value.real


def test_non_finite_threshold_raises():
    # at nu = 1, alpha = pi/2, t = 800 sinh t and sinh^2(t/2) overflow, so
    # a = -inf, x = inf and 2a / (x - a) is nan
    with np.errstate(all="ignore"):
        with pytest.raises(NonRealDelta0, match="t=800"):
            delta0(800.0, ModelParams(nu=1.0, alpha=np.pi / 2))


def test_flow_factors_evaluated_once_per_threshold(monkeypatch):
    calls = []

    def counting(t, n1sq):
        calls.append(t)
        return _flow_factors(t, n1sq)

    monkeypatch.setattr(positivity, "_flow_factors", counting)
    for nu in (1.0, 100.0):
        for alpha in ALPHAS:
            params = ModelParams(nu=nu, alpha=alpha)
            # the series and the closed branch of _bracket
            for t in (0.01, 0.05, 1.0, 3.0):
                calls.clear()
                delta0(t, params)
                assert calls == [t]
    # past the overflow switch the scaled ratio needs no flow factors
    calls.clear()
    delta0(4.0, ModelParams(nu=1e4, alpha=0.0))
    assert calls == []


@pytest.mark.parametrize("sign", [1, -1])
def test_interior_is_positive(sign):
    for nu in (1.0, 25.0):
        for alpha in ALPHAS:
            params = ModelParams(nu=nu, alpha=alpha)
            for t in (0.2, 1.0):
                d0 = delta0(t, params)
                for delta in (0.0, 0.5 * d0):
                    rep = positivity_report(t, delta, params, sign)
                    assert rep.min_eigenvalue > 0.0
                    assert rep.is_positive


def test_difference_form_is_hermitian():
    params = ModelParams(nu=2.0, alpha=0.0)
    for t, delta in ((0.3, 0.001), (1.5, 0.05)):
        h = hermitian_difference(t, delta, params, 1)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("sign", [1, -1])
def test_difference_form_is_the_flowed_sigma_form(alpha, sign):
    # both forms are i sigma pulled back by a 4x4 flow, the weight side by
    # kappa0(delta) and the evolved side by kappa(t)^{-1}, then compressed
    # to the sign's invariant plane
    params = ModelParams(nu=1.3, alpha=alpha)
    basis = hamilton_basis(alpha)
    frame = basis.T_plus if sign == 1 else basis.T_minus
    for t, delta in ((0.3, 0.001), (1.5, 0.05)):
        weight = kappa0(delta, params).matrix
        model = np.linalg.inv(kappa(t, params).matrix)
        form = 1j * (weight.conj().T @ basis.sigma @ weight
                     - model.conj().T @ basis.sigma @ model)
        expected = frame.conj().T @ form @ frame
        got = hermitian_difference(t, delta, params, sign)
        assert np.max(np.abs(got - expected)) < 1e-12 * max(
            1.0, float(np.max(np.abs(expected))))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("t", [0.05, 0.8, 3.0])
@pytest.mark.parametrize("frac", [0.0, 0.5])
def test_report_eigenvalue_matches_difference_form(alpha, sign, t, frac):
    # the report reads its eigenvalue and determinant off the coefficients;
    # the 2x2 matrix, rescaled by e^{st}, is the independent route
    params = ModelParams(nu=1.0, alpha=alpha)
    delta = frac * delta0(t, params)
    rep = positivity_report(t, delta, params, sign)
    scaled = np.exp(sign * t) * hermitian_difference(t, delta, params, sign)
    herm = (scaled + scaled.conj().T) / 2
    eigs = np.linalg.eigvalsh(herm)
    assert abs(rep.min_eigenvalue - eigs[0]) < 1e-12
    scale = 1.0 + float(np.max(np.abs(scaled))) ** 2
    assert abs(rep.det_value - np.linalg.det(scaled)) < 1e-13 * scale


@pytest.mark.parametrize("nu", [0.5, 1.0, 4.0, 25.0, 1e4])
def test_small_time_cubic_window(nu):
    # the threshold must behave like nu t^3 / 12 deep in the cubic regime,
    # including at large curvature where the series bracket carries it
    params = ModelParams(nu=nu, alpha=0.0)
    t = 1e-2 / (1.0 + np.sqrt(nu))
    ratio = delta0(t, params) / (nu * t ** 3 / 12.0)
    assert 0.98 <= ratio <= 1.02


def test_threshold_positive_and_increasing_in_t():
    params = ModelParams(nu=1.0, alpha=0.0)
    ts = np.linspace(0.05, 3.0, 30)
    values = [delta0(float(t), params) for t in ts]
    assert all(v > 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        delta0(0.0, ModelParams(nu=1.0))


def _bracket_mpmath(t, n1sq):
    """2 S^2 - (cosh t - 1) at 50 digits, S = sinh(t n1 / 2) / n1."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        n1 = mpmath.sqrt(mpmath.mpc(n1sq))
        s = mpmath.sinh(t * n1 / 2) / n1
        return mpmath.re(2 * s * s - (mpmath.cosh(t) - 1))


# |t| sqrt|n1sq| on both sides of the series switch at 1/2
@pytest.mark.parametrize("scaled_t", [0.499, 0.501, 0.52, 0.55, 0.7, 1.0])
@pytest.mark.parametrize("n1sq", [4.0, 400.0, 4e4, 4e6, -3.0, -300.0])
def test_bracket_against_mpmath_across_switch(n1sq, scaled_t):
    t = scaled_t / np.sqrt(abs(n1sq))
    exact = _bracket_mpmath(t, n1sq)
    got = _bracket(t, n1sq).real
    assert float(abs((got - exact) / exact)) < 1e-13


def _delta0_mpmath(t, nu, alpha):
    """The closed threshold of ``delta0`` at 60 digits."""
    with mpmath.workdps(60):
        t, nu, alpha = mpmath.mpf(t), mpmath.mpf(nu), mpmath.mpf(alpha)
        n1sq = 1 + 4 * nu * mpmath.cos(2 * alpha)
        if n1sq == 0:
            c, s = mpmath.mpf(1), t / 2
        else:
            n1 = mpmath.sqrt(mpmath.mpc(n1sq))
            c, s = mpmath.cosh(t * n1 / 2), mpmath.sinh(t * n1 / 2) / n1
        a = 2 * s * s - (mpmath.cosh(t) - 1)
        x = 2 * c * s + mpmath.sinh(t)
        return mpmath.re(mpmath.exp(-2j * alpha) / 2
                         * mpmath.log1p(2 * a / (x - a)))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", [1e-3, 0.5, 4.0, 1e4])
def test_threshold_against_mpmath_down_to_small_t(nu, alpha):
    # the cubic regime nu t^3 / 12 down to t = 1e-8, where numpy's complex
    # log1p, which forms 1 + z, kept about eps / |z| of relative accuracy
    # and returned 0 at t = 1e-6
    params = ModelParams(nu=nu, alpha=alpha)
    for t in np.geomspace(1e-8, 3.0, 40):
        exact = _delta0_mpmath(float(t), nu, alpha)
        got = delta0(float(t), params)
        assert float(abs(got - exact) / exact) <= 5e-12


@pytest.mark.parametrize("nu, t", [(1e4, 3.49), (1e4, 3.55), (1e4, 3.6),
                                   (1e4, 4.0), (1e4, 10.0), (1e6, 3.0)])
def test_threshold_against_mpmath_past_the_overflow(nu, t):
    # unscaled, x = 2 c s + sinh t overflows near t n1 = 715.8 at nu = 1e4
    # while a stays finite, which read 0.0 at t = 3.6, and at t = 4 and at
    # nu = 1e6, t = 3 both overflow to nan; t n1 = 698 and 710 at the first
    # two points, either side of the scaled ratio's switch at 700
    exact = _delta0_mpmath(t, nu, 0.0)
    got = delta0(t, ModelParams(nu=nu, alpha=0.0))
    assert float(abs(got - exact) / exact) <= 1.4e-12


def test_threshold_continuous_across_the_scaled_switch():
    nu = 1e4
    params = ModelParams(nu=nu, alpha=0.0)
    n1 = math.sqrt(params.n1sq)
    seam = positivity._SCALED_SWITCH / n1
    below = float(np.nextafter(seam, 0.0))
    above = float(np.nextafter(seam, np.inf))
    for t in (below, seam, above):
        exact = _delta0_mpmath(t, nu, 0.0)
        assert float(abs(delta0(t, params) - exact) / exact) <= 1.4e-12
    # the limit of the threshold as t grows: log((n1 + 1) / (n1 - 1)) / 2
    with mpmath.workdps(50):
        n1_mp = mpmath.sqrt(1 + 4 * mpmath.mpf(nu))
        limit = mpmath.log((n1_mp + 1) / (n1_mp - 1)) / 2
    for t in (1e3, 1e300, math.inf):
        assert float(abs(delta0(t, params) / limit - 1)) <= 1.4e-12


def _float_ratio(t, nu):
    """The ratio 2 A / (X - A) as ``delta0`` forms it, attracting side."""
    n1sq = ModelParams(nu=nu, alpha=np.pi / 2).n1sq
    c, s = _flow_factors(t, n1sq)
    a = _bracket(t, n1sq, s)
    x = 2 * c * s + np.sinh(t)
    return positivity._cdiv(2 * a, x - a)


@pytest.mark.parametrize("nu", [0.5, 1.0, 100.0])
def test_attracting_threshold_at_large_t_against_mpmath(nu):
    # there 2 A / (X - A) = -1 + O(e^{-t}); log1p of it was 7.0e-10 off at
    # nu = 1, t = 10 and raised NonRealDelta0 from t = 19.5 on
    params = ModelParams(nu=nu, alpha=np.pi / 2)
    for t in (5.0, 8.0, 10.0, 15.0, 19.5, 30.0):
        exact = _delta0_mpmath(t, nu, np.pi / 2)
        assert float(abs(delta0(t, params) - exact) / exact) <= 1e-14
    if nu == 1.0:
        assert abs(delta0(30.0, params) - 14.67) < 5e-3


@pytest.mark.parametrize("nu", [0.5, 1.0, 100.0])
def test_attracting_threshold_either_side_of_the_ratio_switch(nu):
    # the double t where the ratio's real part crosses the switch, found by
    # bisection on the ratio delta0 forms, and its neighbours
    lo, hi = 0.05, 5.0
    assert (_float_ratio(lo, nu).real >= positivity._RATIO_SWITCH
            > _float_ratio(hi, nu).real)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _float_ratio(mid, nu).real >= positivity._RATIO_SWITCH:
            lo = mid
        else:
            hi = mid
    params = ModelParams(nu=nu, alpha=np.pi / 2)
    for t in (float(np.nextafter(lo, 0.0)), lo, hi,
              float(np.nextafter(hi, np.inf))):
        exact = _delta0_mpmath(t, nu, np.pi / 2)
        assert float(abs(delta0(t, params) - exact) / exact) <= 1e-14


def test_decay_envelope_at_small_t():
    # the threshold no longer comes out 0 here, which made the envelope
    # divide by zero
    params = ModelParams(nu=0.5, alpha=np.pi / 2)
    d = delta0(1e-6, params)
    assert abs(d / (0.5 * 1e-18 / 12.0) - 1.0) < 1e-5
    bound = position_weight_decay_bound(1e-6, params)
    expected = (math.sqrt(0.5 / (d / 2.0)) * math.sqrt(0.5) * math.exp(-0.5)
                * math.exp(-1e-6 * math.sqrt(0.5)))
    assert abs(bound / expected - 1.0) < 1e-14


# min delta0 / (nu t^3) over 60 log-spaced times in [t0 / 1000, t0],
# t0 = 0.5 / (1 + sqrt(nu)), frozen from the implementation at build time.
# The exact small-time limit is 1/12 = 0.08333...; the attracting minimum
# lies above it (by 6e-9 to 5e-8 in 60-digit arithmetic), the repelling one
# below.
FROZEN_C_FIT = {
    (1.0, 0.0): 0.081790,
    (10.0, 0.0): 0.080833,
    (100.0, 0.0): 0.079911,
    (1e4, 0.0): 0.079301,
    (1.0, np.pi / 2): 0.083333,
    (10.0, np.pi / 2): 0.083333,
    (100.0, np.pi / 2): 0.083333,
    (1e4, np.pi / 2): 0.083333,
}


@pytest.mark.parametrize("key", sorted(FROZEN_C_FIT, key=lambda k: (k[0], k[1])))
def test_lower_bound_constant_frozen(key):
    nu, alpha = key
    params = ModelParams(nu=nu, alpha=alpha)
    t0 = 0.5 / (1.0 + np.sqrt(nu))
    ts = np.logspace(np.log10(t0) - 3.0, np.log10(t0), 60)
    c_fit = min(delta0(float(t), params) / (nu * t ** 3) for t in ts)
    exact = min(_delta0_mpmath(float(t), nu, alpha) / (nu * float(t) ** 3)
                for t in ts)
    assert float(abs(c_fit / exact - 1.0)) <= 1e-11
    if alpha == 0.0:
        assert 0.05 < c_fit < 1.0 / 12.0
    else:
        assert 1.0 / 12.0 < c_fit <= 1.0 / 12.0 * (1.0 + 1e-7)
    assert abs(c_fit - FROZEN_C_FIT[key]) < 1e-6


class TestDecayEnvelope:
    def test_branches_meet_at_seam(self):
        for nu in (1.0, 100.0):
            for alpha in ALPHAS:
                params = ModelParams(nu=nu, alpha=alpha)
                t0 = 0.5 / (1.0 + np.sqrt(nu))
                lo = position_weight_decay_bound(t0 * (1 - 1e-9), params)
                hi = position_weight_decay_bound(t0 * (1 + 1e-9), params)
                assert abs(hi / lo - 1.0) < 1e-6

    def test_uniform_three_halves_envelope(self):
        # max_t t^{3/2} bound(t) decreases in nu; 5.34 at nu = 1/4 is the
        # largest value seen over the admissible range (frozen cap 5.5)
        for nu in (0.25, 1.0, 100.0):
            for alpha in ALPHAS:
                params = ModelParams(nu=nu, alpha=alpha)
                ts = np.logspace(-3, np.log10(30.0), 200)
                peak = max(position_weight_decay_bound(float(t), params)
                           * float(t) ** 1.5 for t in ts)
                assert peak <= 5.5
                assert peak >= 2.0

    def test_positive_and_eventually_decaying(self):
        params = ModelParams(nu=4.0, alpha=np.pi / 2)
        values = [position_weight_decay_bound(t, params)
                  for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(v > 0 for v in values)
        assert values[-1] < values[0]

    def test_input_guards(self):
        params = ModelParams(nu=1.0)
        with pytest.raises(ValueError):
            position_weight_decay_bound(0.0, params)
