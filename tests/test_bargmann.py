"""Holomorphic-side Gram analysis for the attracting oscillatory regime."""

import numpy as np
import pytest
import scipy.linalg

from kfpq.bargmann import (gram_eigenvalues, gram_matrix,
                           lambda_minus_log_form, quotient,
                           quotient_regime_constants, reduce, remainder_bound,
                           sup_direct_optimization)
from kfpq.symbols import ModelParams


def params_for(nu):
    return ModelParams(nu=nu, alpha=np.pi / 2)


class TestReduction:
    def test_reduced_generator_entries(self):
        red = reduce(params_for(4.0))
        expected = np.array([[0.0, -2.0], [2.0, 1.0]])
        assert np.max(np.abs(red.M - expected)) < 1e-10

    def test_invariant_plane_parametrizations(self):
        red = reduce(params_for(1.0))
        assert np.max(np.abs(red.A_plus - 1j * np.eye(2))) < 1e-10
        assert np.max(np.abs(red.A_minus + 1j * np.eye(2))) < 1e-10

    def test_needs_oscillatory_curvature(self):
        with pytest.raises(ValueError):
            reduce(params_for(0.25))
        with pytest.raises(ValueError):
            reduce(ModelParams(nu=1.0, alpha=0.0))


def test_gram_matrix_is_gram_of_the_reduced_flow():
    for nu in (0.3, 1.0, 9.0):
        params = params_for(nu)
        m = reduce(params).M
        for t in (0.2, 1.3, 4.0):
            flow = scipy.linalg.expm(t * m)
            oracle = flow.conj().T @ flow
            scale = max(1.0, float(np.max(np.abs(oracle))))
            diff = np.max(np.abs(gram_matrix(t, params) - oracle))
            assert diff < 1e-12 * scale


def test_gram_eigenvalues_match_eigvalsh():
    for nu in (0.3, 1.0, 25.0):
        params = params_for(nu)
        for t in (0.1, 1.0, 3.0):
            pair = gram_eigenvalues(t, params)
            eigs = np.linalg.eigvalsh(gram_matrix(t, params))
            assert abs(pair.lambda_minus - eigs[0]) < 1e-9 * eigs[1]
            assert abs(pair.lambda_plus - eigs[1]) < 1e-9 * eigs[1]


def test_gram_determinant_identity():
    # lambda_plus lambda_minus = e^{2t} exactly (the flow is unimodular up
    # to the trace factor)
    params = params_for(4.0)
    for t in (0.3, 1.0, 2.5):
        pair = gram_eigenvalues(t, params)
        assert abs(pair.lambda_plus * pair.lambda_minus / np.exp(2 * t) - 1.0) < 1e-12


@pytest.mark.parametrize("nu", [0.3, 1.0, 100.0])
def test_log_form_agrees_with_eigenvalue(nu):
    params = params_for(nu)
    for t in np.logspace(-1.5, 0.7, 9):
        pair = gram_eigenvalues(float(t), params)
        alt = lambda_minus_log_form(float(t), params)
        assert abs(pair.lambda_minus - alt) <= 1e-11 * alt


def test_small_eigenvalue_exceeds_one():
    for nu in (0.3, 1.0, 25.0):
        params = params_for(nu)
        for t in np.logspace(-2, 1, 12):
            assert gram_eigenvalues(float(t), params).lambda_minus > 1.0


def test_small_eigenvalue_limit_at_zero_time():
    pair = gram_eigenvalues(1e-8, params_for(1.0))
    assert pair.lambda_minus - 1.0 < 1e-7


class TestQuotient:
    def test_sup_value_composition(self):
        q = quotient(0.9, params_for(4.0))
        assert q.Q_t_eq > 0
        assert abs(q.sup_value - 2.0 * np.exp(-1.0) / q.Q_t_eq) < 1e-15

    @pytest.mark.parametrize("nu", [0.3, 1.0, 4.0, 25.0, 100.0, 1e4])
    def test_direct_optimization_agrees(self, nu):
        params = params_for(nu)
        for t in np.logspace(np.log10(0.05), 1, 12):
            analytic = quotient(float(t), params).sup_value
            direct = sup_direct_optimization(float(t), params)
            assert abs(direct / analytic - 1.0) <= 1e-10, t

    def test_regime_constants_frozen(self):
        c_small, c_large = quotient_regime_constants((1.0, 1e2, 1e4))
        assert abs(c_small - 6.0) < 1e-3
        assert abs(c_large - 2.04) < 1e-2


class TestRemainderBound:
    def test_needs_large_curvature(self):
        with pytest.raises(ValueError):
            remainder_bound(1.0, params_for(1.0))
        with pytest.raises(ValueError):
            remainder_bound(0.0, params_for(4.0))

    def test_three_halves_envelope(self):
        # frozen peak 2.1005 over nu in [2, 1e4], t in [1e-3, 10]
        worst = 0.0
        for nu in (2.0, 4.0, 100.0, 1e4):
            params = params_for(nu)
            for t in np.logspace(-3, 1, 120):
                worst = max(worst,
                            remainder_bound(float(t), params) * float(t) ** 1.5)
        assert worst <= 2.2
        assert worst >= 1.9

    def test_large_time_decay_wins(self):
        params = params_for(100.0)
        assert remainder_bound(5.0, params) < remainder_bound(0.5, params)
