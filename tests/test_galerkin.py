"""Tests for the Hermite-Galerkin discretization oracle."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from kfpq import galerkin
from kfpq.galerkin import (
    OPERATOR_LABELS,
    NormNotConverged,
    ParityNotConserved,
    TruncationNotConverged,
    UnknownLabel,
    build,
    decay_curve,
    ladder,
    operator_norm,
    semigroup_matrix,
    subelliptic_constant,
)
from kfpq.exactnorms import semigroup_norm
from kfpq.symbols import ModelParams

ALPHAS = (0.0, np.pi / 2)


def dense_norm(m):
    """operator_norm of one dense matrix: a one-block stack, W the identity."""
    return operator_norm(m[None], scipy.sparse.eye_array(m.shape[0]))


def _exhaustive_fiber_sups(ts, lambda1, dim, xi_grid):
    """The fiber sups of ``galerkin._fiber_matrix_sups`` with the top
    eigenvalue of every fiber's Gram matrix, from one batched eigvalsh."""
    _, derivative, _ = galerkin._ops_1d(dim)
    base = np.diag(np.arange(dim, dtype=float)) + np.eye(dim)
    xis = xi_grid[xi_grid != 0.0]
    fibers = base - np.hypot(xis, lambda1)[:, None, None] * derivative
    exps = galerkin._chained_exponentials(fibers, ts)
    sups = []
    for t in ts:
        gram = np.matmul(exps[t].transpose(0, 2, 1), exps[t])
        top = np.linalg.eigvalsh(gram)[:, -1]
        sups.append(float(np.max(np.abs(xis) * np.sqrt(top), initial=0.0)))
    return sups


def _dense_product_reference(label, params, dim_q, dim_p):
    """The operator as a product of full-size Kronecker lifts."""
    a_q = ladder(dim_q)
    qq = (a_q + a_q.T) / np.sqrt(2.0)
    dq1 = (a_q - a_q.T) / np.sqrt(2.0)
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
        "X": transport,
        "Y": partner,
        "K": np.kron(eye_q, num_p) + root_nu * transport,
        "a_q_star": np.kron(a_q.T, eye_p),
        "D_q": d_q,
        "grad_V": sign * root_nu * q_mult,
        "weight_q": np.kron(np.diag(np.sqrt(params.nu * (np.arange(dim_q) + 0.5))),
                            eye_p),
    }[label]


def _kron_sum_reference(label, params, dim_q, dim_p):
    """The operator as a sum of scipy.sparse Kronecker products of its
    one-variable factors, with explicit zeros dropped."""
    matrix = sum(coefficient * scipy.sparse.kron(
                     scipy.sparse.csr_array(q_factor), p_factor, format="csr")
                 for q_factor, p_factor, coefficient
                 in galerkin._kron_terms(label, params, dim_q, dim_p))
    matrix.eliminate_zeros()
    return matrix


class TestAssembly:
    @pytest.mark.parametrize("label", OPERATOR_LABELS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("nu", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("dim_q,dim_p", [(2, 2), (9, 14), (49, 49)])
    def test_index_arithmetic_matches_sparse_kron_sum(self, label, alpha, nu,
                                                      dim_q, dim_p):
        params = ModelParams(nu, alpha, 0.6)
        got = build(label, params, dim_q, dim_p)
        want = _kron_sum_reference(label, params, dim_q, dim_p)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.all(got.data != 0.0)

    @pytest.mark.parametrize("label", OPERATOR_LABELS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dim_q,dim_p", [(9, 9), (7, 11)])
    def test_kronecker_table_matches_dense_products(self, label, alpha,
                                                    dim_q, dim_p):
        params = ModelParams(2.7, alpha, 0.6)
        got = build(label, params, dim_q, dim_p).toarray()
        assert np.array_equal(got, _dense_product_reference(label, params,
                                                            dim_q, dim_p))

    def test_symmetric_terms_store_their_symmetric_part(self):
        # a general, a skew and a symmetric factor, with zeros where only
        # the transpose has an entry; every term stands for (T + T^T) / 2
        rng = np.random.default_rng(3)
        general = np.triu(rng.standard_normal((5, 5)), -1)
        skew = np.triu(rng.standard_normal((4, 4)), 1)
        skew -= skew.T
        sym = rng.standard_normal((4, 4))
        sym += sym.T
        terms = [(general, skew, 0.7), (general.T, sym, -1.3),
                 (np.eye(5), skew, 2.0)]
        got = galerkin._assemble(terms, 5, 4, symmetric=True).toarray()
        want = sum(c * 0.5 * (np.kron(q, p) + np.kron(q, p).T)
                   for q, p, c in terms)
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("label", OPERATOR_LABELS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("nu", [0.0, 2.7])
    def test_matrix_is_csr_without_stored_zeros(self, label, alpha, nu):
        # the decay curves read the stored pattern of K as the coupling of
        # its levels, so zero coefficients and cancellations must leave no
        # entry behind
        m = build(label, ModelParams(nu, alpha, 0.6), 9, 7)
        assert isinstance(m, scipy.sparse.csr_array)
        assert m.nnz == m.count_nonzero()

    def test_ladder_adjoint_pair(self):
        # the adjoint of the q-creation operator is the lifted ladder
        a = ladder(12)
        qs = build("a_q_star", ModelParams(1.0), 12, 4).toarray()
        assert np.max(np.abs(qs.T - np.kron(a, np.eye(4)))) == 0.0

    def test_ladder_commutator_interior(self):
        # [a, a*] = 1 away from the truncation edge
        a = ladder(16)
        comm = a @ a.T - a.T @ a
        assert np.max(np.abs(comm[:15, :15] - np.eye(15))) <= 1e-12
        # the top diagonal entry carries the truncation defect
        assert comm[15, 15] == pytest.approx(-15.0)

    def test_oscillator_is_diagonal(self):
        op = build("O_p", ModelParams(1.0), 5, 7).toarray()
        assert np.max(np.abs(op - np.diag(np.diag(op)))) == 0.0
        expected = np.tile(np.arange(7) + 0.5, 5)
        assert np.max(np.abs(np.diag(op) - expected)) == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_transport_real_antisymmetric(self, alpha):
        x = build("X", ModelParams(2.0, alpha), 12, 12).toarray()
        assert np.max(np.abs(x.imag)) if np.iscomplexobj(x) else True
        assert np.max(np.abs(x + x.T)) <= 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_commutator_partner_interior(self, alpha):
        # [O_p, X] = Y exactly on states whose ladder images survive
        params = ModelParams(2.0, alpha)
        x = build("X", params, 14, 14).toarray()
        y = build("Y", params, 14, 14).toarray()
        op = build("O_p", params, 14, 14).toarray()
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
        assert dense_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13)

    def test_operator_norm_real_rectangular(self):
        rng = np.random.RandomState(3)
        m = rng.randn(40, 25)
        assert dense_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13)

    def test_arpack_failure_raises_norm_not_converged(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0), np.zeros(0))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(NormNotConverged):
            dense_norm(np.eye(4))

    def test_uncertified_ritz_pair_raises(self, monkeypatch):
        # a pair ARPACK reports as converged but whose vector is off the
        # top eigenvector leaves a Ritz residual above 1e-12 rho
        real_eigsh = scipy.sparse.linalg.eigsh

        def perturbed(*args, **kwargs):
            values, vectors = real_eigsh(*args, **kwargs)
            vectors = vectors + 1e-10 * np.arange(len(vectors))[:, None]
            return values, vectors / np.linalg.norm(vectors)

        m = np.diag([3.0, 2.0, 1.0, 0.5])
        assert dense_norm(m) == pytest.approx(3.0, rel=1e-13)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
        with pytest.raises(NormNotConverged, match="Ritz residual"):
            dense_norm(m)

    # ARPACK needs two columns for a real m and three for a complex one
    @pytest.mark.parametrize("rows,cols,is_complex", [
        (2, 2, False), (5, 2, False), (2, 5, False), (1, 6, False),
        (3, 3, True), (2, 5, True), (1, 6, True), (60, 8, True),
        (8, 60, True),
    ])
    def test_operator_norm_matches_svd_across_shapes(self, rows, cols,
                                                     is_complex):
        rng = np.random.RandomState(rows * 100 + cols)
        m = rng.randn(rows, cols)
        if is_complex:
            m = m + 1j * rng.randn(rows, cols)
        assert dense_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13)

    @pytest.mark.parametrize("kind", ["rank_one", "repeated_top"])
    def test_operator_norm_degenerate_spectrum(self, kind):
        rng = np.random.RandomState(5)
        if kind == "rank_one":
            m = np.outer(rng.randn(20), rng.randn(15))
        else:
            m = np.diag([3.0, 3.0, 1.0, 0.5, 0.2])
        assert dense_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13)

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_stack_of_unequal_blocks_matches_block_diagonal(self, is_complex):
        # blocks of sizes 3, 7 and 5 zero-padded to width 7; entries of W in
        # the columns of padded slots meet only the zero rows of the padding
        rng = np.random.RandomState(17)
        sizes = (3, 7, 5)
        blocks = [rng.randn(n, n) + (1j * rng.randn(n, n) if is_complex
                                     else 0.0) for n in sizes]
        stack = np.zeros((3, 7, 7), dtype=blocks[0].dtype)
        for padded, block in zip(stack, blocks):
            padded[:len(block), :len(block)] = block
        slots = np.concatenate([7 * i + np.arange(n)
                                for i, n in enumerate(sizes)])
        dense_weight = rng.randn(6, 21)
        reference = np.linalg.norm(dense_weight[:, slots]
                                   @ scipy.linalg.block_diag(*blocks), 2)
        norm = operator_norm(stack, scipy.sparse.csr_array(dense_weight))
        assert norm == pytest.approx(reference, rel=1e-13)

    def test_zero_matrix_raises_norm_not_converged(self):
        # the Gram products send the start vector to 0
        with pytest.raises(NormNotConverged):
            dense_norm(np.zeros((4, 4)))

    @pytest.mark.parametrize("nu", [1.0, 4.0])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_semigroup_is_contraction(self, nu, alpha, t):
        op = build("K", ModelParams(nu, alpha), 20, 20).toarray()
        e = semigroup_matrix(op, t)
        assert dense_norm(e) <= 1.0 + 1e-12

    def test_semigroup_group_property(self):
        op = build("K", ModelParams(1.0, 0.0), 20, 20).toarray()
        half = semigroup_matrix(op, 0.5)
        full = semigroup_matrix(op, 1.0)
        assert np.max(np.abs(half @ half - full)) <= 1e-9

    def test_negative_time_raises(self):
        op = build("O_p", ModelParams(1.0), 4, 4).toarray()
        with pytest.raises(ValueError):
            semigroup_matrix(op, -0.1)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0])
    def test_semigroup_of_stack_is_slicewise(self, t):
        # a stack (..., n, n) is exponentiated matrix by matrix
        gens = np.stack([build("K", ModelParams(nu, alpha), 5, 5).toarray()
                         for nu in (1.0, 4.0) for alpha in ALPHAS])
        stack = semigroup_matrix(gens.reshape(2, 2, 25, 25), t)
        assert stack.shape == (2, 2, 25, 25)
        for got, gen in zip(stack.reshape(4, 25, 25), gens):
            assert np.max(np.abs(got - scipy.linalg.expm(-t * gen))) <= 1e-14


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
        k = build("K", params, size, size).toarray()
        every = levels[0] + levels[1]
        for i, rows in enumerate(every):
            for j, cols in enumerate(every):
                if i != j:
                    assert not np.any(k[np.ix_(rows, cols)])

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dims", [12, 11])
    def test_level_blocks_match_sliced_blocks(self, alpha, dims):
        params = ModelParams(2.7, alpha)
        size, levels = galerkin._conserved_levels(params, dims)
        gen = build("K", params, size, size)
        every = levels[0] + levels[1]
        cut = galerkin._diagonal_blocks(gen, every, "coupled")
        assert len(cut) == len(every)
        for states, block in zip(every, cut):
            assert np.array_equal(block, gen[np.ix_(states, states)].toarray())

    def test_diagonal_blocks_sum_duplicate_entries(self):
        # two groups of sizes 2 and 1; (0, 1) is stored twice
        coupling = scipy.sparse.coo_array(
            ([1.0, 2.0, 3.0], ([0, 0, 2], [1, 1, 2])), shape=(3, 3))
        first, second = galerkin._diagonal_blocks(
            coupling, [np.array([0, 1]), np.array([2])], "coupled")
        assert np.array_equal(first, [[0.0, 3.0], [0.0, 0.0]])
        assert np.array_equal(second, [[3.0]])

    def test_diagonal_blocks_drop_states_outside_every_group(self):
        # groups {3, 1} in increasing order {1, 3} and {0}; state 2 is in
        # no group, so its row and column are dropped, even across groups
        full = np.arange(1.0, 17.0).reshape(4, 4)
        full[[0, 0, 1, 3], [1, 3, 0, 0]] = 0.0
        first, second = galerkin._diagonal_blocks(
            scipy.sparse.csr_array(full), [np.array([1, 3]), np.array([0])],
            "coupled")
        assert np.array_equal(first, full[np.ix_([1, 3], [1, 3])])
        assert np.array_equal(second, [[1.0]])

    def test_diagonal_blocks_entry_between_groups_raises(self):
        coupling = scipy.sparse.csr_array(np.array([[1.0, 0.0, 0.5],
                                                    [0.0, 2.0, 0.0],
                                                    [0.0, 0.0, 3.0]]))
        with pytest.raises(ParityNotConserved, match="groups meet"):
            galerkin._diagonal_blocks(
                coupling, [np.array([0, 1]), np.array([2])], "groups meet")
        # the same entry is dropped when its column is in no group
        first, = galerkin._diagonal_blocks(coupling, [np.array([0, 1])],
                                           "groups meet")
        assert np.array_equal(first, np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sector_exponential_matches_kept_block_expm(self, alpha):
        # each padded level block is the level's block of the exponential
        # of the whole kept sector, and the padding stays zero
        params = ModelParams(2.0, alpha)
        size, levels = galerkin._conserved_levels(params, 12)
        gen = build("K", params, size, size)
        ts = (0.5, 1.0, 2.0)
        for blocks in levels:
            idx = np.sort(np.concatenate(blocks))
            kept = gen.toarray()[np.ix_(idx, idx)]
            dense = [gen[np.ix_(states, states)].toarray()
                     for states in blocks]
            width = max(len(states) for states in blocks)
            padded = galerkin._padded_exponentials(dense, ts)
            for t, stack in zip(ts, padded):
                assert stack.shape == (len(blocks), width, width)
                full = scipy.linalg.expm(-t * kept)
                for states, level in zip(blocks, stack):
                    pos = np.searchsorted(idx, states)
                    n = len(states)
                    assert np.max(np.abs(level[:n, :n]
                                         - full[np.ix_(pos, pos)])) <= 1e-13
                    assert not np.any(level[n:]) and not np.any(level[:, n:])

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dim", [12, 11])
    def test_sector_weight_skips_padded_slots(self, alpha, dim, monkeypatch):
        # the weight handed to operator_norm has no entry in a padded
        # column, and W blockdiag(stack) is the sector block of
        # W e^{-tK} with its columns permuted into the slots
        params = ModelParams(2.0, alpha)
        size, levels = galerkin._conserved_levels(params, dim)
        gen = build("K", params, size, size).toarray()
        weight = np.sqrt(params.nu) * build("D_q", params, size, size)
        calls = []
        real_norm = galerkin.operator_norm

        def capture(stack, w_block):
            calls.append((stack, w_block))
            return real_norm(stack, w_block)

        monkeypatch.setattr(galerkin, "operator_norm", capture)
        galerkin._weighted_norm_values("derivative_weight", params, (1.0,),
                                       dim)
        assert len(calls) == 2
        for blocks, (stack, w_block) in zip(levels, calls):
            width = stack.shape[1]
            if alpha > 0:
                assert len({len(states) for states in blocks}) > 1
            slots = np.concatenate([i * width + np.arange(len(states))
                                    for i, states in enumerate(blocks)])
            padded = np.setdiff1d(np.arange(len(blocks) * width), slots)
            assert not w_block[:, padded].count_nonzero()
            idx = np.concatenate(blocks)
            rows = np.flatnonzero(weight[:, idx].count_nonzero(axis=1))
            expected = (weight[:, idx].toarray()[rows]
                        @ scipy.linalg.expm(-gen[np.ix_(idx, idx)]))
            got = (w_block @ scipy.linalg.block_diag(*stack))[:, slots]
            assert np.max(np.abs(got - expected)) <= 1e-13

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
            return build(label, params, size, size).toarray()

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
        oracle = galerkin._weighted_norm_values(quantity, params, ts, dim)
        assert oracle == pytest.approx(unsplit, rel=1e-12)
        # the split itself, with exact sector-block norms
        monkeypatch.setattr(galerkin, "operator_norm",
                            lambda stack, w_block: np.linalg.norm(
                                w_block @ scipy.linalg.block_diag(*stack), 2))
        exact = galerkin._weighted_norm_values(quantity, params, ts, dim)
        assert exact == pytest.approx(unsplit, rel=1e-12)

    def test_parity_breaking_generator_raises(self, monkeypatch):
        # grad_V moves the q-level, and so the level, by one
        real_build = galerkin.build

        def k_plus_gradient(label, params, dim_q, dim_p):
            op = real_build(label, params, dim_q, dim_p)
            if label == "K":
                op = op + real_build("grad_V", params, dim_q, dim_p)
            return op

        monkeypatch.setattr(galerkin, "build", k_plus_gradient)
        with pytest.raises(ParityNotConserved):
            galerkin._weighted_norm_values("evolution_norm",
                                           ModelParams(1.0, np.pi / 2),
                                           (1.0,), 8)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("label", ["D_q", "a_q_star"])
    def test_level_moving_term_in_generator_raises(self, monkeypatch, label,
                                                   alpha):
        # either term moves the q-level by one, and so couples neighbouring
        # levels of both the attracting and the repelling generator
        real_build = galerkin.build

        def k_plus_term(build_label, params, dim_q, dim_p):
            op = real_build(build_label, params, dim_q, dim_p)
            if build_label == "K":
                op = op + real_build(label, params, dim_q, dim_p)
            return op

        monkeypatch.setattr(galerkin, "build", k_plus_term)
        with pytest.raises(ParityNotConserved):
            galerkin._weighted_norm_values("evolution_norm",
                                           ModelParams(1.0, alpha),
                                           (1.0,), 8)

    def test_parity_mixing_weight_raises(self, monkeypatch):
        # D_q + weight_q maps every state onto both parities of m + n, so
        # the rows the even and the odd sector reach overlap
        real_build = galerkin.build

        def mixed_derivative(label, params, dim_q, dim_p):
            op = real_build(label, params, dim_q, dim_p)
            if label == "D_q":
                op = op + real_build("weight_q", params, dim_q, dim_p)
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

    @pytest.mark.parametrize("dim", [20, 28])
    @pytest.mark.parametrize("lambda1", [0.0, 1.0, 10.0])
    # (0.5, 1, 2) squares E(0.5) and E(1); (0.3, 0.7) has no halving, so
    # every t takes the direct exponential
    @pytest.mark.parametrize("ts", [(0.5, 1.0, 2.0), (0.3, 0.7)])
    def test_fiber_chain_matches_direct_expm(self, dim, lambda1, ts):
        xi_grid = np.linspace(0.0, 12.0, 121)
        x1 = (ladder(dim) + ladder(dim).T) / np.sqrt(2.0)
        base = np.diag(np.arange(dim, dtype=float)) + np.eye(dim)
        xis = xi_grid[1:]
        direct = []
        for t in ts:
            norms = [np.linalg.norm(scipy.linalg.expm(
                -t * (base + 1j * np.hypot(xi, lambda1) * x1)), 2)
                for xi in xis]
            direct.append(float(np.max(xis * norms)))
        chained = galerkin._fiber_matrix_sups(ts, lambda1, dim, xi_grid)
        assert chained == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("dim", [20, 28])
    @pytest.mark.parametrize("lambda1", [0.0, 1.0, 10.0])
    # (0.5, 1, 2) halves; (0.3, 0.7) does not; at t = 9 to 13 the top
    # fibers are rank one to rounding, so their bound sits within an ulp of
    # their value; at t = 32 and lambda1 = 10 the squares of the Gram
    # entries underflow, and at t = 1000 the whole stack is zero
    @pytest.mark.parametrize("ts", [(0.5, 1.0, 2.0), (0.3, 0.7),
                                    (9.0, 10.0, 12.5, 13.0), (32.0,),
                                    (1000.0,)])
    def test_pruned_sup_equals_exhaustive_sup(self, dim, lambda1, ts):
        xi_grid = np.linspace(0.0, 12.0, 121)
        assert galerkin._fiber_matrix_sups(ts, lambda1, dim, xi_grid) == \
            _exhaustive_fiber_sups(ts, lambda1, dim, xi_grid)

    @pytest.mark.parametrize("scale", [1.0, 1e-160])
    def test_schatten4_bounds_top_singular_value(self, scale):
        rng = np.random.RandomState(8)
        # non-normal stacks: random, upper triangular with a large
        # off-diagonal, and rank one, where the bound is tight; scaled by
        # 1e-160 the squares of the Gram entries underflow
        n = 12
        stacks = [rng.standard_normal((40, n, n)),
                  np.triu(rng.standard_normal((40, n, n)))
                  + 30.0 * np.eye(n, k=3),
                  np.einsum("ki,kj->kij", rng.standard_normal((40, n)),
                            rng.standard_normal((40, n)))]
        for e in stacks:
            e = scale * e
            gram = np.matmul(e.transpose(0, 2, 1), e)
            sigma = np.linalg.svd(e, compute_uv=False)[:, 0]
            top = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
            bound = galerkin._schatten4(gram) * (1.0 + 1e-10)
            assert np.all(bound >= sigma)
            assert np.all(bound >= top)
            if scale == 1.0:
                # and it is a Schatten-4 norm, not a looser one
                assert np.all(galerkin._schatten4(gram) <= np.sqrt(
                    np.einsum("kii->k", gram)) * (1.0 + 1e-14))

    @pytest.mark.parametrize("dim", [20, 28])
    def test_fiber_gauge_is_exact(self, dim):
        # D = diag(i^n) takes i x to the real skew matrix -d, entry by entry
        position, derivative, _ = galerkin._ops_1d(dim)
        d = np.array([1, 1j, -1, -1j])[np.arange(dim) % 4]
        gauged = d.conj()[:, None] * (1j * position) * d[None, :]
        assert np.array_equal(gauged.real, -derivative)
        assert not np.any(gauged.imag)

    def test_fiber_grid_of_zero_only_gives_zero(self):
        # xi = 0 is dropped, so every t reduces an empty stack
        sups = galerkin._fiber_matrix_sups((0.5, 1.0, 2.0), 1.0, 20,
                                           np.array([0.0]))
        assert sups == [0.0, 0.0, 0.0]

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

    def test_fiber_zero_check_is_unconverged(self, monkeypatch):
        # a check value of 0 under a nonzero oracle is infinite drift, as
        # on the matrix curves, not a converged sample
        monkeypatch.setattr(galerkin, "_fiber_matrix_sups",
                            lambda ts, lambda1, dim, xi_grid:
                            [float(dim == 28)] * len(ts))
        params = ModelParams(0.0, 0.0, 1.0)
        curve = decay_curve("degenerate_fiber", params, (0.5, 1.0),
                            strict=False)
        for s in curve.samples:
            assert s.oracle == 1.0
            assert s.rel_discrepancy == np.inf
            assert not s.converged
        assert curve.convergence_meta.levels == (28, 20)
        with pytest.raises(TruncationNotConverged):
            decay_curve("degenerate_fiber", params, (0.5, 1.0), strict=True)

    # (oracle, check value, drift, converged)
    @pytest.mark.parametrize("main,check,drift,converged", [
        (0.0, 0.0, 0.0, True),
        (1.0, 0.0, np.inf, False),
        (1.005, 1.0, 0.005, True),
        (1.02, 1.0, 0.02, False),
    ])
    @pytest.mark.parametrize("quantity", ["evolution_norm",
                                          "degenerate_fiber"])
    def test_matrix_and_fiber_curves_share_drift_rule(
            self, monkeypatch, quantity, main, check, drift, converged):
        # dims 16 compares truncations 16 and 12; the fiber compares 28, 20
        monkeypatch.setattr(galerkin, "_weighted_norm_values",
                            lambda q, params, ts, dim:
                            [main if dim == 16 else check] * len(ts))
        monkeypatch.setattr(galerkin, "_fiber_matrix_sups",
                            lambda ts, lambda1, dim, xi_grid:
                            [main if dim == 28 else check] * len(ts))
        curve = decay_curve(quantity, ModelParams(1.0, 0.0, 1.0), (0.5, 1.0),
                            dims=16, strict=False)
        for s in curve.samples:
            assert s.oracle == main
            assert s.rel_discrepancy == pytest.approx(drift, rel=1e-9)
            assert s.converged is converged
        assert curve.convergence_meta.drifts == \
            pytest.approx((drift, drift), rel=1e-9)
        if not converged:
            with pytest.raises(TruncationNotConverged):
                decay_curve(quantity, ModelParams(1.0, 0.0, 1.0), (0.5, 1.0),
                            dims=16, strict=True)

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


def interior_indices(dim_q, dim_p, margin):
    """Flattened indices whose ladder images stay below truncation.

    Identities involving operators that move at most ``margin`` levels hold
    exactly on this block; outside it they are truncation artifacts.
    """
    keep = []
    for m in range(dim_q - margin):
        base = m * dim_p
        keep.extend(range(base, base + dim_p - margin))
    return np.asarray(keep, dtype=int)


def _dense_pencil_reference(params, dims):
    """The pencil on the whole dims x dims interior, from dense operators at
    dims + 2 and fractional weights on the eigenvalues of q and -d_q^2."""
    big = dims + 2
    a = ladder(big)
    qq = (a + a.T) / np.sqrt(2.0)
    dq1 = (a - a.T) / np.sqrt(2.0)
    eye_p = np.eye(big)
    gen, osc_p, x = (build(label, params, big, big).toarray()
                     for label in ("K", "O_p", "X"))
    transport = np.sqrt(params.nu) * x
    big_a = galerkin._potential_constants(params).a
    w, vecs = np.linalg.eigh(qq)
    grad_sq = (vecs * (1.0 + params.nu * w * w) ** (2.0 / 3.0)) @ vecs.T
    w, vecs = np.linalg.eigh(-dq1 @ dq1)
    deriv_sq = (vecs * (1.0 + np.maximum(w, 0.0)) ** (2.0 / 3.0)) @ vecs.T
    left = gen.T @ gen + big_a * np.eye(big * big)
    right = (osc_p.T @ osc_p + transport.T @ transport
             + np.kron(grad_sq, eye_p) + np.kron(deriv_sq, eye_p))
    idx = interior_indices(big, big, 2)
    left = left[np.ix_(idx, idx)]
    right = right[np.ix_(idx, idx)]
    return float(scipy.linalg.eigh(0.5 * (left + left.T),
                                   0.5 * (right + right.T),
                                   eigvals_only=True)[0])


def _sparse_product_forms(params, dims):
    """The two pencil forms as sparse products of the operators on the
    (dims+2)^2 box, the way they were assembled before the Gram-term
    tables: (left, right, sectors), the sectors the parity classes of the
    box's dims x dims interior."""
    big = dims + 2
    a = ladder(big)
    qq = (a + a.T) / np.sqrt(2.0)
    dq1 = (a - a.T) / np.sqrt(2.0)
    gen, osc_p, x = (build(label, params, big, big)
                     for label in ("K", "O_p", "X"))
    transport = np.sqrt(params.nu) * x
    big_a = galerkin._potential_constants(params).a
    weights = (galerkin._parity_weight(qq @ qq, params.nu)
               + galerkin._parity_weight(-dq1 @ dq1, 1.0))
    left = gen.T @ gen + big_a * scipy.sparse.eye_array(big * big)
    right = (osc_p.T @ osc_p + transport.T @ transport
             + scipy.sparse.kron(scipy.sparse.csr_array(weights),
                                 scipy.sparse.eye_array(big)))
    m, n = np.divmod(np.arange(big * big), big)
    interior = (m < dims) & (n < dims)
    sectors = tuple(np.flatnonzero(interior & ((m + n) % 2 == parity))
                    for parity in (0, 1))
    return left, right, sectors


class TestSubellipticConstant:
    @pytest.mark.parametrize("dims", [8, 12, 16])
    @pytest.mark.parametrize("nu", [1e-2, 1.0, 100.0, 1e4])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_parity_split_matches_dense_pencil(self, dims, nu, alpha):
        params = ModelParams(nu, alpha)
        c = subelliptic_constant(params, dims=dims)
        assert c == pytest.approx(_dense_pencil_reference(params, dims),
                                  rel=1e-12)
        # the sectors split the dims x dims interior by the parity of
        # m + n, and the forms store no entry between the two parities
        left, right, sectors = galerkin._pencil_forms(params, dims)
        assert left.shape == right.shape == (dims * dims, dims * dims)
        assert np.array_equal(np.sort(np.concatenate(sectors)),
                              np.arange(dims * dims))
        for parity, states in enumerate(sectors):
            assert np.all(np.sum(np.divmod(states, dims), axis=0) % 2
                          == parity)
        for form in (left, right):
            coo = form.tocoo()
            assert np.array_equal((coo.row // dims + coo.row % dims) % 2,
                                  (coo.col // dims + coo.col % dims) % 2)

    @pytest.mark.parametrize("dims", [8, 13, 16, 24])
    @pytest.mark.parametrize("nu", [1e-2, 1.0, 100.0, 1e4])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_gram_term_sectors_match_sparse_products(self, dims, nu, alpha):
        params = ModelParams(nu, alpha)
        coupled = "cross-sector entry"
        left, right, sectors = galerkin._pencil_forms(params, dims)
        ref_left, ref_right, ref_sectors = _sparse_product_forms(params,
                                                                 dims)
        for form, ref in ((left, ref_left), (right, ref_right)):
            blocks = galerkin._diagonal_blocks(form, sectors, coupled)
            refs = galerkin._diagonal_blocks(ref, ref_sectors, coupled)
            for block, ref_block in zip(blocks, refs):
                # exactly symmetric, so eigh needs no symmetrization
                assert np.array_equal(block, block.T)
                scale = np.max(np.abs(ref_block))
                assert np.max(np.abs(block - ref_block)) <= 1e-13 * scale

    def test_indefinite_right_hand_gram_raises(self):
        sectors = (np.array([0, 2]), np.array([1, 3]))
        left = scipy.sparse.csr_array(np.eye(4))
        right = scipy.sparse.csr_array(np.diag([1.0, 2.0, -1.0, 3.0]))
        with pytest.raises(galerkin.IndefinitePencil):
            galerkin._sector_pencil_minimum(left, right, sectors)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_cross_sector_entry_raises(self, side):
        sectors = (np.array([0, 2]), np.array([1, 3]))
        forms = {"left": np.eye(4), "right": np.diag([1.0, 2.0, 3.0, 4.0])}
        # one stored entry between an even and an odd state
        forms[side][0, 1] = 0.25
        with pytest.raises(ParityNotConserved):
            galerkin._sector_pencil_minimum(
                scipy.sparse.csr_array(forms["left"]),
                scipy.sparse.csr_array(forms["right"]), sectors)

    def test_states_outside_the_sectors_are_dropped(self):
        # state 4 is outside the interior: its entries, one of them
        # between the two sectors and one a negative pivot of the right
        # form, take no part in the pencil
        sectors = (np.array([0, 2]), np.array([1, 3]))
        left = np.diag([3.0, 1.0, 4.0, 2.0, 0.5])
        right = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
        left[4, 1] = left[1, 4] = right[0, 4] = 0.75
        assert galerkin._sector_pencil_minimum(
            scipy.sparse.csr_array(left), scipy.sparse.csr_array(right),
            sectors) == 1.0

    def test_sector_minimum_is_the_lower_sector(self):
        sectors = (np.array([0, 2]), np.array([1, 3]))
        left = scipy.sparse.csr_array(np.diag([3.0, 1.0, 4.0, 2.0]))
        right = scipy.sparse.csr_array(np.eye(4))
        assert galerkin._sector_pencil_minimum(left, right, sectors) == 1.0

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
