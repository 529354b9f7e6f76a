"""Tests for the Hermite-Galerkin discretization oracle."""

import numpy as np
import pytest
import scipy.linalg

from kfpq import galerkin
from kfpq.galerkin import (
    OPERATOR_LABELS,
    ParityNotConserved,
    TruncationNotConverged,
    UnknownLabel,
    build,
    corner_mode_vector,
    decay_curve,
    interior_indices,
    ladder,
    operator_norm,
    semigroup_matrix,
    subelliptic_constant,
)
from kfpq.symbols import ModelParams

ALPHAS = (0.0, np.pi / 2)


def _dense_product_reference(label, params, dim_q, dim_p):
    """The operator as a product of full-size Kronecker lifts."""
    a_q = ladder(dim_q)
    qq = (a_q + a_q.T) / np.sqrt(2.0)
    dq1 = (a_q - a_q.T) / np.sqrt(2.0)
    num_q = np.diag(np.arange(dim_q) + 0.5)
    a_p = ladder(dim_p)
    pp = (a_p + a_p.T) / np.sqrt(2.0)
    dp1 = (a_p - a_p.T) / np.sqrt(2.0)
    num_p = np.diag(np.arange(dim_p) + 0.5)
    eye_q, eye_p = np.eye(dim_q), np.eye(dim_p)
    attracting = params.alpha > 0
    root_nu = np.sqrt(params.nu)
    p_mult = np.kron(eye_q, pp)
    q_mult = np.kron(qq, eye_p)
    d_q = np.kron(dq1, eye_p)
    d_p = np.kron(eye_q, dp1)
    if attracting:
        transport = p_mult @ d_q - q_mult @ d_p
        partner = -d_q @ d_p + q_mult @ p_mult
    else:
        transport = p_mult @ d_q + q_mult @ d_p
        partner = -(d_q @ d_p + q_mult @ p_mult)
    sign = 1.0 if attracting else -1.0
    return {
        "O_p": np.kron(eye_q, num_p),
        "O_q": np.kron(num_q, eye_p),
        "X": transport,
        "Y": partner,
        "K": np.kron(eye_q, num_p) + root_nu * transport,
        "K_degenerate": (p_mult @ d_q - params.lambda1 * d_p
                         + np.kron(eye_q, num_p)
                         - 0.5 * np.eye(dim_q * dim_p)),
        "a_q": np.kron(a_q, eye_p),
        "a_q_star": np.kron(a_q.T, eye_p),
        "D_q": d_q,
        "grad_V": sign * root_nu * q_mult,
        "weight_q": np.kron(np.diag(np.sqrt(params.nu * (np.arange(dim_q) + 0.5))),
                            eye_p),
    }[label]


class TestAssembly:
    @pytest.mark.parametrize("label", OPERATOR_LABELS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dim_q,dim_p", [(9, 9), (7, 11)])
    def test_kronecker_table_matches_dense_products(self, label, alpha,
                                                    dim_q, dim_p):
        params = ModelParams(2.7, alpha, 0.6)
        got = build(label, params, dim_q, dim_p).matrix
        assert np.array_equal(got, _dense_product_reference(label, params,
                                                            dim_q, dim_p))

    def test_ladder_adjoint_pair(self):
        a = ladder(12)
        q = build("a_q", ModelParams(1.0), 12, 4).matrix
        qs = build("a_q_star", ModelParams(1.0), 12, 4).matrix
        assert np.max(np.abs(q - np.kron(a, np.eye(4)))) == 0.0
        assert np.max(np.abs(qs - q.T)) <= 1e-13

    def test_ladder_commutator_interior(self):
        # [a, a*] = 1 away from the truncation edge
        a = ladder(16)
        comm = a @ a.T - a.T @ a
        assert np.max(np.abs(comm[:15, :15] - np.eye(15))) <= 1e-12
        # the top diagonal entry carries the truncation defect
        assert comm[15, 15] == pytest.approx(-15.0)

    def test_oscillator_is_diagonal(self):
        op = build("O_p", ModelParams(1.0), 5, 7).matrix
        assert np.max(np.abs(op - np.diag(np.diag(op)))) == 0.0
        expected = np.tile(np.arange(7) + 0.5, 5)
        assert np.max(np.abs(np.diag(op) - expected)) == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_transport_real_antisymmetric(self, alpha):
        x = build("X", ModelParams(2.0, alpha), 12, 12).matrix
        assert np.max(np.abs(x.imag)) if np.iscomplexobj(x) else True
        assert np.max(np.abs(x + x.T)) <= 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_commutator_partner_interior(self, alpha):
        # [O_p, X] = Y exactly on states whose ladder images survive
        params = ModelParams(2.0, alpha)
        x = build("X", params, 14, 14).matrix
        y = build("Y", params, 14, 14).matrix
        op = build("O_p", params, 14, 14).matrix
        comm = op @ x - x @ op
        idx = interior_indices(14, 14, 2)
        block = np.ix_(idx, idx)
        assert np.max(np.abs((comm - y)[block])) <= 1e-12

    def test_unknown_label_raises(self):
        with pytest.raises(UnknownLabel):
            build("O_r", ModelParams(1.0), 4, 4)

    def test_tiny_dimension_raises(self):
        with pytest.raises(ValueError):
            build("K", ModelParams(1.0), 1, 8)

    def test_corner_mode_is_exact_repelling_eigenvector(self):
        # truncation removes the raising half of the transport on this
        # state, so the repelling generator fixes it with eigenvalue 1/2
        k = build("K", ModelParams(4.0, 0.0), 10, 12).matrix
        v = corner_mode_vector(10, 12)
        assert np.linalg.norm(v) == 1.0
        assert np.max(np.abs(k @ v - 0.5 * v)) == 0.0
        # the attracting generator does not share the mode
        ka = build("K", ModelParams(4.0, np.pi / 2), 10, 12).matrix
        assert np.max(np.abs(ka @ v - 0.5 * v)) > 1.0


class TestNormAndSemigroup:
    def test_operator_norm_matches_svd(self):
        rng = np.random.RandomState(7)
        m = rng.randn(50, 50) + 1j * rng.randn(50, 50)
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2),
                                                 rel=1e-9)

    def test_operator_norm_real_rectangular(self):
        rng = np.random.RandomState(3)
        m = rng.randn(40, 25)
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2),
                                                 rel=1e-9)

    @pytest.mark.parametrize("nu", [1.0, 4.0])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_semigroup_is_contraction(self, nu, alpha, t):
        op = build("K", ModelParams(nu, alpha), 20, 20)
        e = semigroup_matrix(op, t)
        assert operator_norm(e) <= 1.0 + 1e-12

    def test_semigroup_group_property(self):
        op = build("K", ModelParams(1.0, 0.0), 20, 20)
        half = semigroup_matrix(op, 0.5)
        full = semigroup_matrix(op, 1.0)
        assert np.max(np.abs(half @ half - full)) <= 1e-9

    def test_negative_time_raises(self):
        op = build("O_p", ModelParams(1.0), 4, 4)
        with pytest.raises(ValueError):
            semigroup_matrix(op, -0.1)


MATRIX_CURVES = ("evolution_norm", "derivative_weight", "gradient_weight",
                 "position_weight", "creation_weight")


class TestParitySectors:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_generator_cross_blocks_are_exactly_zero(self, alpha):
        k = build("K", ModelParams(2.7, alpha), 12, 12).matrix
        even, odd = galerkin._parity_sectors(12, 12)
        assert len(even) + len(odd) == 144
        assert not np.any(k[np.ix_(even, odd)])
        assert not np.any(k[np.ix_(odd, even)])

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("nu", [1.0, 2.7])
    @pytest.mark.parametrize("dim_q,dim_p", [(12, 12), (7, 11)])
    def test_blocks_are_conserved_level_sets(self, alpha, nu, dim_q, dim_p):
        gen = build("K", ModelParams(nu, alpha), dim_q, dim_p)
        blocks = galerkin._conserved_blocks(gen)
        m, n = np.divmod(np.arange(dim_q * dim_p), dim_p)
        # attracting transport keeps m + n, repelling transport keeps m - n
        level = m + n if alpha > 0 else m - n
        expected = {tuple(np.flatnonzero(level == v)) for v in np.unique(level)}
        got = [tuple(states) for sector in blocks for states in sector]
        assert len(got) == dim_q + dim_p - 1
        assert set(got) == expected
        for parity, sector in enumerate(blocks):
            for states in sector:
                assert np.all((m + n)[states] % 2 == parity)
        corner = np.flatnonzero(corner_mode_vector(dim_q, dim_p))[0]
        holding = [states for states in got if corner in states]
        if alpha == 0:
            assert holding == [(corner,)]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_block_exponentials_match_sector_expm(self, alpha):
        gen = build("K", ModelParams(2.0, alpha), 12, 12)
        blocks = galerkin._conserved_blocks(gen)
        ts = (0.5, 1.0, 2.0)
        for parity, idx in enumerate(galerkin._parity_sectors(12, 12)):
            sector = gen.matrix[np.ix_(idx, idx)]
            assembled = galerkin._sector_exponentials(gen, idx, blocks[parity],
                                                      ts)
            for t, et in zip(ts, assembled):
                assert np.max(np.abs(et - scipy.linalg.expm(-t * sector))) \
                    <= 1e-13

    @pytest.mark.parametrize("quantity", MATRIX_CURVES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    # an odd truncation leaves one more even state than odd ones, so a
    # flipping weight acts on rectangular blocks and the corner mode is even
    @pytest.mark.parametrize("dim", [12, 11])
    def test_split_matches_unsplit_matrix(self, quantity, alpha, dim,
                                          monkeypatch):
        params = ModelParams(2.0, alpha)
        ts = (0.5, 1.0, 2.0)
        k = build("K", params, dim, dim).matrix
        root_nu = np.sqrt(params.nu)
        root_a = np.sqrt(galerkin._potential_constants(params).a)
        weight, shift = {
            "evolution_norm": (np.eye(dim * dim), 0.0),
            "derivative_weight": (root_nu * build("D_q", params, dim, dim).matrix,
                                  root_a),
            "gradient_weight": (build("grad_V", params, dim, dim).matrix, root_a),
            "position_weight": (build("weight_q", params, dim, dim).matrix,
                                root_nu),
            "creation_weight": (root_nu * build("a_q_star", params, dim,
                                                dim).matrix,
                                params.nu ** (1.0 / 3.0)),
        }[quantity]
        v = corner_mode_vector(dim, dim)
        unsplit = []
        for t in ts:
            corner = np.exp(-t / 2.0) * np.outer(v, v) if alpha == 0 else 0.0
            unsplit.append(np.linalg.norm(weight @ (scipy.linalg.expm(-t * k)
                                                    - corner), 2)
                           * np.exp(-t * shift))
        # the oracle: power iteration stops when successive estimates agree
        # to 1e-10, which leaves up to a few 1e-9 on the gaps met here
        oracle = galerkin._weighted_norm_values(quantity, params, ts, dim)
        assert oracle == pytest.approx(unsplit, rel=1e-8)
        # the split itself, with exact sector-block norms
        monkeypatch.setattr(galerkin, "operator_norm",
                            lambda m: np.linalg.norm(m, 2))
        exact = galerkin._weighted_norm_values(quantity, params, ts, dim)
        assert exact == pytest.approx(unsplit, rel=1e-12)

    def test_parity_breaking_generator_raises(self, monkeypatch):
        # the linear-potential drift -lambda1 d_p moves the level by one
        real_build = galerkin.build

        def degenerate_as_k(label, params, dim_q, dim_p):
            if label == "K":
                label = "K_degenerate"
            return real_build(label, params, dim_q, dim_p)

        monkeypatch.setattr(galerkin, "build", degenerate_as_k)
        with pytest.raises(ParityNotConserved):
            galerkin._weighted_norm_values("evolution_norm",
                                           ModelParams(1.0, np.pi / 2, 1.0),
                                           (1.0,), 8)


class TestDecayCurves:
    def test_evolution_norm_curve_strict(self):
        curve = decay_curve("evolution_norm", ModelParams(1.0, 0.0),
                            (0.5, 1.0, 2.0), dims=48, strict=True)
        assert curve.quantity_label == "evolution_norm"
        assert len(curve.samples) == 3
        for s in curve.samples:
            assert s.converged
            assert s.rel_discrepancy <= 1e-8
            assert s.oracle <= s.bound * (1.0 + 1e-9)
        assert max(curve.convergence_meta.drifts) <= \
            curve.convergence_meta.drift_tol

    def test_position_weight_curve(self):
        curve = decay_curve("position_weight", ModelParams(4.0, np.pi / 2),
                            (0.5, 1.0), dims=32, strict=False)
        oracles = [s.oracle for s in curve.samples]
        assert oracles[0] == pytest.approx(1.135536, abs=2e-4)
        assert oracles[1] == pytest.approx(0.125469, abs=2e-4)
        for s in curve.samples:
            assert s.converged
            assert s.oracle <= s.bound

    def test_degenerate_fiber_curve(self):
        curve = decay_curve("degenerate_fiber", ModelParams(0.0, 0.0, 1.0),
                            (0.5, 1.0), dims=48, strict=False)
        analytic = [s.analytic for s in curve.samples]
        assert analytic[0] == pytest.approx(3.63073623, abs=1e-6)
        assert analytic[1] == pytest.approx(0.780494216, abs=1e-6)
        for s in curve.samples:
            assert s.converged
            # truncation can only lose mass, never add it
            assert s.oracle <= s.analytic * (1.0 + 1e-9)
            assert s.oracle >= 0.99 * s.analytic
            assert s.analytic <= s.bound

    def test_strict_mode_rejects_coarse_truncation(self):
        with pytest.raises(TruncationNotConverged):
            decay_curve("derivative_weight", ModelParams(1.0, 0.0),
                        (1.0,), dims=24, strict=True)

    def test_unknown_quantity_raises(self):
        with pytest.raises(UnknownLabel):
            decay_curve("momentum_weight", ModelParams(1.0), (1.0,))


# constants from the generalized eigenvalue pencil at the dims used in
# the cross checks; refreshed whenever the assembly changes
FROZEN_PENCIL = {
    (1.0, np.pi / 2, 16): 0.242251,
    (1.0, np.pi / 2, 24): 0.222303,
    (1.0, 0.0, 16): 0.293399,
    (1.0, 0.0, 24): 0.254971,
    (100.0, np.pi / 2, 16): 0.283438,
    (100.0, 0.0, 16): 0.816124,
}


class TestSubellipticConstant:
    @pytest.mark.parametrize("nu,alpha,dims", sorted(FROZEN_PENCIL))
    def test_frozen_values(self, nu, alpha, dims):
        c = subelliptic_constant(ModelParams(nu, alpha), dims=dims)
        assert c == pytest.approx(FROZEN_PENCIL[(nu, alpha, dims)], abs=1e-5)

    def test_positive_and_stable_under_refinement(self):
        c16 = subelliptic_constant(ModelParams(1.0, np.pi / 2), dims=16)
        c24 = subelliptic_constant(ModelParams(1.0, np.pi / 2), dims=24)
        assert c16 > 0 and c24 > 0
        assert abs(c24 - c16) / c16 < 0.30

    def test_constant_does_not_collapse_at_large_nu(self):
        # the inequality is uniform in the potential scale, so the
        # discretized constant must not degrade as nu grows
        c_small = subelliptic_constant(ModelParams(1.0, 0.0), dims=16)
        c_large = subelliptic_constant(ModelParams(100.0, 0.0), dims=16)
        assert c_large >= 0.5 * c_small
