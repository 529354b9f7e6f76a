"""Flow-form positivity, the threshold delta0, and the decay envelope."""

import numpy as np
import pytest
import scipy.optimize

from kfpq.positivity import (NonFiniteDeterminant, NonRealDelta0, delta0,
                             hermitian_difference, position_weight_decay_bound,
                             positivity_report)
from kfpq.symbols import ModelParams, hamilton_basis, kappa, kappa0

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


def test_non_finite_threshold_raises():
    # at nu = 1e6, t = 3 the closed form's x - a is inf - inf
    with np.errstate(all="ignore"):
        with pytest.raises(NonRealDelta0, match="t=3"):
            delta0(3.0, ModelParams(nu=1e6, alpha=0.0))


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


# min delta0 / (nu t^3) over 60 log-spaced times in [t0 / 1000, t0],
# t0 = 0.5 / (1 + sqrt(nu)), frozen from the implementation at build time
# (exact small-time limit is 1/12 = 0.08333...)
FROZEN_C_FIT = {
    (1.0, 0.0): 0.081790,
    (10.0, 0.0): 0.080833,
    (100.0, 0.0): 0.079911,
    (1e4, 0.0): 0.079301,
    (1.0, np.pi / 2): 0.083332,
    (10.0, np.pi / 2): 0.083333,
    (100.0, np.pi / 2): 0.083331,
    (1e4, np.pi / 2): 0.083319,
}


@pytest.mark.parametrize("key", sorted(FROZEN_C_FIT, key=lambda k: (k[0], k[1])))
def test_lower_bound_constant_frozen(key):
    nu, alpha = key
    params = ModelParams(nu=nu, alpha=alpha)
    t0 = 0.5 / (1.0 + np.sqrt(nu))
    ts = np.logspace(np.log10(t0) - 3.0, np.log10(t0), 60)
    c_fit = min(delta0(float(t), params) / (nu * t ** 3) for t in ts)
    assert 0.05 < c_fit <= 1.0 / 12.0 * (1.0 + 1e-9)
    assert abs(c_fit - FROZEN_C_FIT[key]) < 1e-4


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
        with pytest.raises(ValueError):
            position_weight_decay_bound(1.0, params, epsilon0=0.0)
