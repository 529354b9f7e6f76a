"""Model parameters, Hamilton maps, and the closed flow factorizations."""

import numpy as np
import pytest
import scipy.linalg

from kfpq.symbols import (ModelParams, NonSymmetricInput, PotentialSpec,
                          constants, generator_hessian, hamilton_basis,
                          hamilton_map, kappa, kappa0, oscillator_p_hessian,
                          rotated_oscillator_hessian, transport_hessian)

ALPHAS = (0.0, np.pi / 2)


class TestModelParams:
    def test_rejects_negative_curvature(self):
        with pytest.raises(ValueError):
            ModelParams(nu=-1.0)

    def test_rejects_other_angles(self):
        with pytest.raises(ValueError):
            ModelParams(nu=1.0, alpha=0.3)

    def test_rejects_negative_slope(self):
        with pytest.raises(ValueError):
            ModelParams(nu=1.0, lambda1=-2.0)

    def test_curvature_coefficient(self):
        p = ModelParams(nu=4.0, alpha=np.pi / 2)
        assert abs(p.z - 2j) < 1e-15
        assert abs(p.n1sq - (1.0 - 16.0)) < 1e-12
        assert abs(p.r1 - np.sqrt(15.0)) < 1e-14

    def test_r1_needs_oscillatory_curvature(self):
        with pytest.raises(ValueError):
            _ = ModelParams(nu=0.25, alpha=np.pi / 2).r1


class TestConstants:
    def test_no_curvatures_gives_unit_constant(self):
        c = constants(PotentialSpec(kind="quadratic", nus=()))
        assert c.a == 1.0

    def test_attracting_quadratic(self):
        c = constants(PotentialSpec(kind="quadratic", nus=(3.0,)))
        assert abs(c.a - (1.0 + 3.0) ** (2.0 / 3.0)) < 1e-14

    def test_repelling_quadratic(self):
        c = constants(PotentialSpec(kind="quadratic", nus=(-3.0,)))
        assert abs(c.a - (1.0 + 3.0)) < 1e-14

    def test_linear_slope_enters_b(self):
        c = constants(PotentialSpec(kind="linear", lambda1=2.0))
        assert c.b >= 2.0 ** (4.0 / 3.0) - 1e-14

    def test_linear_kind_rejects_curvatures(self):
        with pytest.raises(ValueError):
            PotentialSpec(kind="linear", nus=(1.0,), lambda1=1.0)


def test_hamilton_map_rejects_nonsymmetric():
    h = np.zeros((4, 4))
    h[0, 1] = 1.0
    with pytest.raises(NonSymmetricInput):
        hamilton_map(h)


def test_hamilton_map_is_j_skew():
    # J F must be symmetric whenever F comes from a symmetric Hessian
    rng = np.random.RandomState(2)
    j_mat = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-np.eye(2), np.zeros((2, 2))]])
    for _ in range(20):
        h = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        h = h + h.T
        f = hamilton_map(h)
        sym = j_mat @ f
        assert np.max(np.abs(sym - sym.T)) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_basis_squares_and_products(alpha):
    basis = hamilton_basis(alpha)
    id4 = np.eye(4)
    for mat in (basis.E, basis.I, basis.J, basis.K):
        assert np.max(np.abs(mat @ mat + id4)) < 1e-13
    assert np.max(np.abs(basis.I @ basis.J - basis.K)) < 1e-13
    assert np.max(np.abs(basis.J @ basis.K - basis.I)) < 1e-13
    assert np.max(np.abs(basis.K @ basis.I - basis.J)) < 1e-13


@pytest.mark.parametrize("alpha", ALPHAS)
def test_basis_conjugation_phases(alpha):
    basis = hamilton_basis(alpha)
    phase = np.exp(2j * alpha)
    assert np.max(np.abs(np.conj(basis.E) - basis.E)) < 1e-13
    assert np.max(np.abs(np.conj(basis.I) - basis.I)) < 1e-13
    assert np.max(np.abs(np.conj(basis.J) + phase * basis.J)) < 1e-13
    assert np.max(np.abs(np.conj(basis.K) + phase * basis.K)) < 1e-13


@pytest.mark.parametrize("alpha", ALPHAS)
def test_compression_frames_are_isometries(alpha):
    basis = hamilton_basis(alpha)
    id2 = np.eye(2)
    for frame in (basis.T_plus, basis.T_minus):
        assert np.max(np.abs(frame.conj().T @ frame - id2)) < 1e-13


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", [0.1, 1.0, 10.0])
def test_flow_matches_matrix_exponential(nu, alpha):
    params = ModelParams(nu=nu, alpha=alpha)
    gen = hamilton_map(generator_hessian(params))
    for t in (0.3, 1.0, 2.7):
        oracle = scipy.linalg.expm(-1j * t * gen)
        got = kappa(t, params).matrix
        assert np.max(np.abs(got - oracle)) < 1e-11 * max(
            1.0, float(np.max(np.abs(oracle))))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_twisted_flow_matches_matrix_exponential(alpha):
    params = ModelParams(nu=1.0, alpha=alpha)
    osc = hamilton_map(rotated_oscillator_hessian(0.0))
    for delta in (0.0, 0.4, 1.0):
        oracle = scipy.linalg.expm(1j * delta * osc)
        got = kappa0(delta, params).matrix
        assert np.max(np.abs(got - oracle)) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", [0.5, 4.0])
def test_flow_group_property(nu, alpha):
    params = ModelParams(nu=nu, alpha=alpha)
    for t, s in ((0.4, 0.9), (1.1, 1.1)):
        prod = kappa(t, params).matrix @ kappa(s, params).matrix
        whole = kappa(t + s, params).matrix
        scale = max(1.0, float(np.max(np.abs(whole))))
        assert np.max(np.abs(prod - whole)) < 1e-11 * scale


def test_flow_factors_series_seam():
    # crossing the series cutoff must not move the matrix
    nu = 1e4
    params = ModelParams(nu=nu, alpha=np.pi / 2)
    t_star = 2e-4 / np.sqrt(abs(params.n1sq))
    below = kappa(t_star * 0.99, params).matrix
    above = kappa(t_star * 1.01, params).matrix
    assert np.max(np.abs(above - below)) < 1e-5
    mid_lo = kappa(t_star * (1 - 1e-12), params).matrix
    mid_hi = kappa(t_star * (1 + 1e-12), params).matrix
    assert np.max(np.abs(mid_hi - mid_lo)) < 1e-10


@pytest.mark.parametrize("alpha", ALPHAS)
def test_central_unit_commutes_with_model_hamilton_maps(alpha):
    e = hamilton_basis(alpha).E
    for hessian in (oscillator_p_hessian(), transport_hessian(alpha)):
        f = hamilton_map(hessian)
        assert np.max(np.abs(e @ f - f @ e)) == 0.0
