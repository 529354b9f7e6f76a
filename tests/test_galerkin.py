"""Tests for the Hermite-Galerkin discretization oracle."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from kfpq import galerkin
from kfpq.galerkin import (
    OPERATOR_LABELS,
    ParityNotConserved,
    TruncationNotConverged,
    UnknownLabel,
    build,
    decay_curve,
    interior_indices,
    ladder,
    operator_norm,
    semigroup_matrix,
    subelliptic_constant,
)
from kfpq.exactnorms import semigroup_norm
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
        got = build(label, params, dim_q, dim_p).matrix.toarray()
        assert np.array_equal(got, _dense_product_reference(label, params,
                                                            dim_q, dim_p))

    @pytest.mark.parametrize("label", OPERATOR_LABELS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("nu", [0.0, 2.7])
    def test_matrix_is_csr_without_stored_zeros(self, label, alpha, nu):
        # the decay curves read the stored pattern of K as the coupling of
        # its levels, so zero coefficients and cancellations must leave no
        # entry behind
        m = build(label, ModelParams(nu, alpha, 0.6), 9, 7).matrix
        assert isinstance(m, scipy.sparse.csr_array)
        assert m.nnz == m.count_nonzero()

    def test_ladder_adjoint_pair(self):
        a = ladder(12)
        q = build("a_q", ModelParams(1.0), 12, 4).matrix.toarray()
        qs = build("a_q_star", ModelParams(1.0), 12, 4).matrix.toarray()
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
        op = build("O_p", ModelParams(1.0), 5, 7).matrix.toarray()
        assert np.max(np.abs(op - np.diag(np.diag(op)))) == 0.0
        expected = np.tile(np.arange(7) + 0.5, 5)
        assert np.max(np.abs(np.diag(op) - expected)) == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_transport_real_antisymmetric(self, alpha):
        x = build("X", ModelParams(2.0, alpha), 12, 12).matrix.toarray()
        assert np.max(np.abs(x.imag)) if np.iscomplexobj(x) else True
        assert np.max(np.abs(x + x.T)) <= 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_commutator_partner_interior(self, alpha):
        # [O_p, X] = Y exactly on states whose ladder images survive
        params = ModelParams(2.0, alpha)
        x = build("X", params, 14, 14).matrix.toarray()
        y = build("Y", params, 14, 14).matrix.toarray()
        op = build("O_p", params, 14, 14).matrix.toarray()
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


def _expected_levels(alpha, dims):
    """Level value -> its (m, n) states: whole attracting chains m + n = L,
    repelling chains m - n = L cut at dims // 2 states."""
    if alpha > 0:
        return {level: [(m, level - m) for m in range(level + 1)]
                for level in range(dims)}
    return {level: [(level + k, k) if level >= 0 else (k, k - level)
                    for k in range(dims // 2)]
            for level in range(1 - dims, dims)}


class TestParitySectors:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dims", [12, 11])
    def test_kept_states_are_level_sets(self, alpha, dims):
        size, levels = galerkin._conserved_levels(ModelParams(2.7, alpha),
                                                  dims)
        assert size == (dims + 1 if alpha > 0 else dims + dims // 2)
        expected = _expected_levels(alpha, dims)
        for parity, sector in enumerate(levels):
            assert [list(states) for states in sector] == [
                sorted(m * size + n for m, n in expected[level])
                for level in sorted(expected) if level % 2 == parity]
        # a weight raises the q-level by at most one; the box is the
        # smallest that holds it
        assert max(m for pairs in expected.values() for m, _ in pairs) + 1 \
            == size - 1

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("nu", [1.0, 2.7])
    def test_generator_couples_no_two_kept_levels(self, alpha, nu):
        params = ModelParams(nu, alpha)
        size, levels = galerkin._conserved_levels(params, 12)
        k = build("K", params, size, size).matrix.toarray()
        every = levels[0] + levels[1]
        for i, rows in enumerate(every):
            for j, cols in enumerate(every):
                if i != j:
                    assert not np.any(k[np.ix_(rows, cols)])

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sector_exponential_matches_kept_block_expm(self, alpha):
        params = ModelParams(2.0, alpha)
        size, levels = galerkin._conserved_levels(params, 12)
        gen = build("K", params, size, size)
        ts = (0.5, 1.0, 2.0)
        for blocks in levels:
            idx = np.sort(np.concatenate(blocks))
            kept = gen.matrix.toarray()[np.ix_(idx, idx)]
            assembled = galerkin._sector_exponentials(gen, idx, blocks, ts)
            for t, et in zip(ts, assembled):
                assert np.max(np.abs(et - scipy.linalg.expm(-t * kept))) \
                    <= 1e-13

    @pytest.mark.parametrize("quantity", MATRIX_CURVES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    # an odd truncation keeps an odd number of levels, so the two sectors
    # differ in size and a flipping weight acts on rectangular blocks
    @pytest.mark.parametrize("dim", [12, 11])
    def test_split_matches_unsplit_matrix(self, quantity, alpha, dim,
                                          monkeypatch):
        params = ModelParams(2.0, alpha)
        ts = (0.5, 1.0, 2.0)
        size, levels = galerkin._conserved_levels(params, dim)
        kept = np.sort(np.concatenate(levels[0] + levels[1]))

        def dense(label):
            return build(label, params, size, size).matrix.toarray()

        k = dense("K")[np.ix_(kept, kept)]
        root_nu = np.sqrt(params.nu)
        root_a = np.sqrt(galerkin._potential_constants(params).a)
        weight, shift = {
            "evolution_norm": (np.eye(size * size), 0.0),
            "derivative_weight": (root_nu * dense("D_q"), root_a),
            "gradient_weight": (dense("grad_V"), root_a),
            "position_weight": (dense("weight_q"), root_nu),
            "creation_weight": (root_nu * dense("a_q_star"),
                                params.nu ** (1.0 / 3.0)),
        }[quantity]
        unsplit = [np.linalg.norm(weight[:, kept] @ scipy.linalg.expm(-t * k),
                                  2) * np.exp(-t * shift)
                   for t in ts]
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

    def test_parity_mixing_weight_raises(self, monkeypatch):
        # D_q + weight_q maps every state onto both parities of m + n, so
        # the rows the even and the odd sector reach overlap
        real_build = galerkin.build

        def mixed_derivative(label, params, dim_q, dim_p):
            op = real_build(label, params, dim_q, dim_p)
            if label == "D_q":
                op = galerkin.HermiteOperator(
                    dim_q, dim_p,
                    op.matrix + real_build("weight_q", params, dim_q,
                                           dim_p).matrix, label)
            return op

        monkeypatch.setattr(galerkin, "build", mixed_derivative)
        with pytest.raises(ParityNotConserved):
            galerkin._weighted_norm_values("derivative_weight",
                                           ModelParams(1.0, np.pi / 2),
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
        # t = 0.5 still moves by about 11% between dims 18 and 24
        with pytest.raises(TruncationNotConverged):
            decay_curve("derivative_weight", ModelParams(1.0, 0.0),
                        (0.5,), dims=24, strict=True)

    @pytest.mark.parametrize("quantity", MATRIX_CURVES)
    def test_attracting_oracle_rises_with_dims(self, quantity):
        # whole attracting levels make W e^{-tK} an exact compression of
        # the untruncated operator, so more levels can only raise its norm
        params = ModelParams(2.0, np.pi / 2)
        ts = (0.5, 1.0, 2.0)
        ladder_values = [galerkin._weighted_norm_values(quantity, params,
                                                        ts, dims)
                         for dims in (10, 14, 18)]
        for lower, higher in zip(ladder_values, ladder_values[1:]):
            for a, b in zip(lower, higher):
                assert b >= a * (1.0 - 1e-8)

    def test_repelling_evolution_norm_matches_semigroup_norm(self):
        # no corner mode to deflate; at dims 24 the chains of 12 states
        # still leave 3.6e-7 at t = 2, at dims 32 (16 states) 3.7e-9
        ts = (0.5, 1.0, 2.0)
        values = galerkin._weighted_norm_values(
            "evolution_norm", ModelParams(1.0, 0.0), ts, 32)
        assert values == pytest.approx([semigroup_norm(t, 1.0).norm
                                        for t in ts], rel=1e-8)

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
