"""Fiberwise analysis of the linear-potential (degenerate) model."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from kfpq import degenerate
from kfpq.degenerate import (F, decay_bound_degenerate, fiber_exponent,
                             fiber_norm, optimal_weight, sup_weighted)


def _exponent_reference(t: float):
    """tanh(t/2) - t/2 at 50 digits, from the exact value of the double t."""
    with mpmath.workdps(50):
        x = mpmath.mpf(t)
        return mpmath.tanh(x / 2) - x / 2


def _exponent_error(t: float) -> float:
    ref = _exponent_reference(t)
    with mpmath.workdps(50):
        return float(abs((fiber_exponent(t) - ref) / ref))


class TestFiberExponent:
    def test_matches_tanh_formula(self):
        for t in np.linspace(0.05, 20.0, 80):
            direct = np.tanh(t / 2.0) - t / 2.0
            assert abs(fiber_exponent(float(t)) - direct) < 1e-13

    def test_series_branch_against_longdouble(self):
        # below the cutoff the direct formula cancels; longdouble keeps
        # enough digits to validate the series there
        for t in (1e-3, 5e-3, 0.02, 0.049):
            ld = np.longdouble(t)
            direct = float(np.tanh(ld / 2) - ld / 2)
            got = fiber_exponent(t)
            assert abs(got - direct) <= 1e-8 * abs(direct)

    def test_series_seam(self):
        # the last double below the switch takes the series, the switch
        # itself the direct difference; |u'/u| is about 6 there, so the
        # two neighbours differ by a few ulp
        switch = degenerate._U_SWITCH
        below = float(np.nextafter(switch, 0.0))
        assert abs(fiber_exponent(switch) / fiber_exponent(below) - 1.0) \
            < 1e-14
        for t in (below, switch, float(np.nextafter(switch, 1.0))):
            assert _exponent_error(t) <= 1e-14

    def test_series_coefficients_from_bernoulli_numbers(self):
        for n, coefficient in enumerate(degenerate._U_SERIES, start=2):
            exact = (2 * (2 ** (2 * n) - 1) * mpmath.bernoulli(2 * n)
                     / math.factorial(2 * n))
            assert coefficient == pytest.approx(float(exact), rel=1e-15)

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(min_value=math.log(1e-6), max_value=math.log(1e3)))
    def test_relative_error_against_mpmath(self, log_t):
        # log-uniform t over [1e-6, 1e3], both branches
        assert _exponent_error(math.exp(log_t)) <= 1e-14

    def test_cubic_window(self):
        for t in np.linspace(0.01, 0.5, 25):
            assert abs(fiber_exponent(float(t)) + t ** 3 / 24.0) <= 0.05 * t ** 4

    def test_negative_beyond_zero(self):
        for t in (0.01, 1.0, 10.0):
            assert fiber_exponent(t) < 0.0


class TestFiberNorms:
    def test_semigroup_norm_against_matrix_exponential(self):
        # 1D fiber generator diag(n) + i b x in 64 Hermite modes
        dim = 64
        a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
        x1 = (a + a.T) / np.sqrt(2.0)
        number = np.diag(np.arange(dim, dtype=float))
        for t in (0.5, 1.0):
            u = fiber_exponent(t)
            for b in (0.5, 1.0, 2.0, 4.0):
                m = scipy.linalg.expm(-t * (number + 1j * b * x1))
                oracle = float(np.linalg.norm(m, 2))
                assert abs(oracle - np.exp(u * b * b)) < 1e-12

    def test_weighted_norm_composition(self):
        t, b = 0.7, 1.3
        assert abs(fiber_norm(t, b)
                   - b * b * np.exp(fiber_exponent(t) * b * b)) < 1e-15

    def test_zero_frequency(self):
        assert fiber_norm(1.0, 0.0) == 0.0


class TestProfile:
    def test_domain_guards(self):
        with pytest.raises(ValueError):
            F(0.0)
        with pytest.raises(ValueError):
            F(1.0 + 1e-12)

    def test_limit_at_zero_by_richardson(self):
        f1, f2, f3 = F(1e-2), F(5e-3), F(2.5e-3)
        r1a = (4.0 * f2 - f1) / 3.0
        r1b = (4.0 * f3 - f2) / 3.0
        r2 = (8.0 * r1b - r1a) / 7.0
        assert abs(r2 - 24.0) < 1e-6

    def test_bounded_on_domain(self):
        for t in np.linspace(1e-3, 1.0, 50):
            assert 0.0 < F(float(t)) <= 26.0

    def test_dominates_weighted_supremum(self):
        for t in (0.1, 0.5, 1.0):
            assert t ** 3 * sup_weighted(t, 0.0) <= F(t) * (1.0 + 1e-12)


class TestWeightedSupremum:
    def test_maximizer(self):
        for t in (0.1, 0.5, 1.0, 3.0):
            b_sq = optimal_weight(t)
            assert abs(b_sq + 1.0 / fiber_exponent(t)) < 1e-12 * b_sq
            # the weighted norm peaks there
            peak = fiber_norm(t, np.sqrt(b_sq))
            for shift in (0.9, 1.1):
                assert fiber_norm(t, np.sqrt(b_sq) * shift) <= peak

    def test_unconstrained_branch(self):
        t = 0.5
        value = sup_weighted(t, 0.0)
        u = fiber_exponent(t)
        assert abs(value - np.exp(-1.0) * (-1.0 / u)) < 1e-12 * value

    def test_constrained_branch(self):
        # large slope pins the supremum to b = lambda1
        t, lam = 3.0, 10.0
        u = fiber_exponent(t)
        assert lam * lam > -1.0 / u
        value = sup_weighted(t, lam)
        assert abs(value - lam * lam * np.exp(u * lam * lam)) < 1e-12 * value

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    def test_nonincreasing_in_time(self, lam):
        ts = np.linspace(0.05, 6.0, 60)
        values = [sup_weighted(float(t), lam) for t in ts]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


class TestDecayBound:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    def test_dominates_exact_supremum(self, lam):
        for t in np.linspace(0.05, 5.0, 40):
            assert decay_bound_degenerate(float(t), lam) \
                >= sup_weighted(float(t), lam) * (1.0 - 1e-12)

    def test_equals_supremum_before_branch_point(self):
        for t in (0.2, 0.7, 1.0):
            assert decay_bound_degenerate(t, 1.0) == sup_weighted(t, 1.0)

    def test_cubic_envelope(self):
        worst = max(decay_bound_degenerate(float(t), lam) * float(t) ** 3
                    for t in np.linspace(0.05, 5.0, 80)
                    for lam in (0.0, 1.0, 10.0))
        assert worst <= 40.0

