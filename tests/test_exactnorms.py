"""Exact repelling-side norms, the resolvent integral, and the witness."""

import sys
import threading

import mpmath
import numpy as np
import pytest

from kfpq import exactnorms
from kfpq.acceptance import sweep_norms
from kfpq.exactnorms import (_LOG_SWITCH, _STRIP_ROWS, _TILE_COLS,
                             GridUnderResolved, WitnessGrid, _strip_plan,
                             _support_window, _witness_field, _witness_sums,
                             _witness_tables,
                             boosted_state_norm_quadrature,
                             optimality_witness, oscillator_norm_closed,
                             oscillator_norm_quadrature, overlap_closed,
                             overlap_quadrature, resolvent_bound,
                             semigroup_norm, witness_rayleigh_numeric)


class TestSemigroupNorm:
    def test_identity_at_zero(self):
        res = semigroup_norm(0.0, 3.0)
        assert res.norm == 1.0

    def test_frozen_value(self):
        assert abs(semigroup_norm(1.0, 1.0).norm - 0.5609479853809665) < 1e-12

    def test_input_guards(self):
        with pytest.raises(ValueError):
            semigroup_norm(-0.1, 1.0)
        with pytest.raises(ValueError):
            semigroup_norm(1.0, 0.0)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 100.0])
    def test_strictly_decreasing(self, nu):
        ts = np.linspace(0.01, 5.0, 40)
        values = [semigroup_norm(float(t), nu).norm for t in ts]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nu", [0.5, 4.0, 1e4])
    def test_submultiplicative(self, nu):
        for t, s in ((0.3, 0.4), (1.0, 2.0), (0.05, 3.0)):
            whole = semigroup_norm(t + s, nu).norm
            split = semigroup_norm(t, nu).norm * semigroup_norm(s, nu).norm
            assert whole <= split * (1.0 + 1e-9)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 100.0, 1e4])
    def test_eigenvalue_route_agrees(self, nu):
        for t in np.logspace(-3, 1.2, 20):
            res = semigroup_norm(float(t), nu)
            assert abs((res.mu1 / res.mu2) ** 0.25 - res.norm) < 1e-10

    @pytest.mark.parametrize("nu", [1.0, 100.0])
    def test_eigenvalue_product_unimodular(self, nu):
        # mu1 mu2 = e^{-2t}: the unscaled pair is reciprocal
        for t in (0.2, 1.0, 4.0):
            res = semigroup_norm(t, nu)
            assert abs(res.mu1 * res.mu2 / np.exp(-2 * t) - 1.0) < 1e-12

    def test_log_branch_seam(self):
        nu = 1.0
        n1 = np.sqrt(1.0 + 4.0 * nu)
        t_star = 2.0 * 150.0 / n1
        lo = semigroup_norm(t_star * (1 - 1e-9), nu)
        hi = semigroup_norm(t_star * (1 + 1e-9), nu)
        # the two branches agree up to the genuine derivative scale
        assert abs(hi.norm / lo.norm - 1.0) < 1e-6

    @staticmethod
    def _norm_mpmath(t, nu):
        """exp(-Argsh S(t)), S = sinh(t n1 / 2) / n1, at 50 digits."""
        with mpmath.workdps(50):
            n1 = mpmath.sqrt(1 + 4 * mpmath.mpf(nu))
            big_s = mpmath.sinh(mpmath.mpf(t) * n1 / 2) / n1
            return float(mpmath.exp(-mpmath.asinh(big_s)))

    @pytest.mark.parametrize("nu", [0.5, 4.0, 1e4, 1e8])
    def test_log_switch_against_mpmath(self, nu):
        # theta = t n1 / 2 from 149 to 151: both sides of the switch to the
        # logarithmic branch, each held to a few rounding steps of theta
        n1 = np.sqrt(1.0 + 4.0 * nu)
        thetas = np.concatenate([np.linspace(149.0, 151.0, 21),
                                 _LOG_SWITCH * (1.0 + np.array(
                                     [-1e-6, -1e-12, 1e-12, 1e-6]))])
        for theta in thetas:
            t = float(2.0 * theta / n1)
            rel = semigroup_norm(t, nu).norm / self._norm_mpmath(t, nu) - 1.0
            assert abs(rel) <= 1e-13

    @pytest.mark.parametrize("nu", [0.5, 4.0, 1e4, 1e8])
    def test_log_switch_is_continuous(self, nu):
        # the last double t on the direct branch and the first past it
        n1 = np.sqrt(1.0 + 4.0 * nu)
        t_hi = 2.0 * _LOG_SWITCH / n1
        while 0.5 * t_hi * n1 <= _LOG_SWITCH:
            t_hi = np.nextafter(t_hi, np.inf)
        t_lo = np.nextafter(t_hi, 0.0)
        assert 0.5 * t_lo * n1 <= _LOG_SWITCH
        step = semigroup_norm(t_hi, nu).norm / semigroup_norm(t_lo, nu).norm
        true_step = self._norm_mpmath(t_hi, nu) / self._norm_mpmath(t_lo, nu)
        assert abs(step - true_step) <= 1e-13

    @pytest.mark.parametrize("t", [2.54, 3.84, 5.80])
    def test_eigenvalue_route_past_the_double_range(self, t):
        # at nu = 1e4 the quotient mu1 / mu2 underflows (and from t = 3.84
        # mu2 overflows) while the norm is still positive; the route is
        # carried by the log form of the quotient
        res = semigroup_norm(t, 1e4)
        assert res.mu1 / res.mu2 == 0.0
        _, rows = sweep_norms((1e4,), (t,))
        _, _, analytic, _, oracle, rel, ok = rows[0]
        assert analytic == res.norm > 0.0
        assert oracle > 0.0
        assert rel <= 1e-12
        assert ok

    def test_log_quotient_matches_the_quotient(self):
        # up to t = 1.58, past the log switch at nu = 1e4, mu1 / mu2 is
        # still a positive double
        for nu in (1.0, 1e4):
            for t in np.logspace(-3, 0.2, 12):
                res = semigroup_norm(float(t), nu)
                assert res.log_quotient == pytest.approx(
                    np.log(res.mu1 / res.mu2), rel=1e-13, abs=1e-13)

    def test_extreme_time_does_not_overflow(self):
        res = semigroup_norm(20.0, 1e8)
        assert res.norm == 0.0 or res.norm > 0.0  # finite, no exception
        assert not np.isnan(res.norm)


# frozen quadrature of the norm curve, nu = 1e2 .. 1e8 on the half-decade
# log grid; c_ratio = integral / (log nu / sqrt(nu))
FROZEN_C_RATIOS = (0.743990, 0.673594, 0.635010, 0.610682, 0.593895,
                   0.581580, 0.572141, 0.564669, 0.558602)


class TestResolventBound:
    def test_needs_moderate_curvature(self):
        with pytest.raises(ValueError):
            resolvent_bound(5.0)

    def test_integral_under_log_bound(self):
        for nu in (1e2, 1e4, 1e6):
            res = resolvent_bound(nu)
            n1 = np.sqrt(1.0 + 4.0 * nu)
            assert res.integral <= 2.0 * (np.log(nu) / n1 + 1.0 / nu)

    def test_c_ratios_frozen(self):
        nus = np.logspace(2, 8, 9)
        for nu, expected in zip(nus, FROZEN_C_RATIOS):
            got = resolvent_bound(float(nu)).c_ratio
            assert abs(got - expected) < 1e-5

    def test_c_ratio_decreasing(self):
        ratios = [resolvent_bound(float(nu)).c_ratio
                  for nu in np.logspace(2, 8, 9)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))


class TestQuadratureIdentities:
    @pytest.mark.parametrize("big_l", [0.5, 1.0, 2.25])
    def test_overlap(self, big_l):
        closed = overlap_closed(big_l)
        assert abs(closed - 1.0 / np.cosh(big_l)) < 1e-15
        assert abs(overlap_quadrature(big_l) - closed) < 1e-13

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_boosted_state_is_normalized(self, s):
        assert abs(boosted_state_norm_quadrature(s) - 1.0) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_oscillator_energy(self, s):
        closed = oscillator_norm_closed(s)
        assert abs(closed - np.cosh(4.0 * s) / 4.0) < 1e-12 * closed
        err = abs(oscillator_norm_quadrature(s) - closed)
        assert err < 1e-10 * max(1.0, closed)


# frozen witness table: log nu -> (op_bound_sq, rayleigh_bound, scaled)
FROZEN_WITNESS = {
    9.0: (49.081940, 6712.5613, 7.4556),
    12.0: (562.749753, 114827.3854, 8.4663),
    16.0: (17345.820752, 5024129.8820, 9.0463),
}


class TestOptimalityWitness:
    def test_needs_large_curvature(self):
        with pytest.raises(ValueError):
            optimality_witness(np.exp(7.9))

    @pytest.mark.parametrize("log_nu", sorted(FROZEN_WITNESS))
    def test_frozen_closed_forms(self, log_nu):
        nu = float(np.exp(log_nu))
        wit = optimality_witness(nu)
        op_sq, rayleigh, scaled = FROZEN_WITNESS[log_nu]
        assert abs(wit.op_bound_sq / op_sq - 1.0) < 1e-5
        assert abs(wit.rayleigh_bound / rayleigh - 1.0) < 1e-5
        assert abs(wit.rayleigh_bound * log_nu / nu - scaled) < 1e-3

    def test_x0_norm_closed_form(self):
        nu = float(np.exp(9.0))
        wit = optimality_witness(nu)
        big_l = np.log(nu) / 4.0
        expected = (2.0 / big_l ** 2) * (1.0 - 1.0 / np.cosh(big_l))
        assert abs(wit.x0_norm_sq - expected) < 1e-14

    def test_scaled_bound_stays_below_constant(self):
        values = [optimality_witness(float(np.exp(l))).rayleigh_bound
                  * l / float(np.exp(l)) for l in (9.0, 12.0, 16.0)]
        assert max(values) <= 9.5


def _rule(grid):
    """The Gauss-Legendre rule ``witness_rayleigh_numeric`` forms per call."""
    return np.polynomial.legendre.leggauss(grid.s_nodes)


def _witness_on_grid(nu, xs, rows, bound):
    """The serial evaluation of one grid: every strip job of its plan in
    order on the calling thread, then the reduction."""
    return _witness_sums(nu, xs, [job() for job in _strip_plan(xs, rows,
                                                                bound)])


def per_node_witness_field(nu, n, grid):
    """u summed node by node from exp(-(a^2+b^2)/2) over the full grid."""
    big_l = np.log(nu) / 4.0
    extent = grid.extent_factor * np.exp(big_l)
    xs = np.linspace(-extent, extent, n)
    q_grid, p_grid = np.meshgrid(xs, xs, indexing="ij")
    nodes, weights = np.polynomial.legendre.leggauss(grid.s_nodes)
    u = np.zeros_like(q_grid)
    for s, w in zip(0.5 * big_l * (nodes + 1.0), 0.5 * big_l * weights):
        ch, sh = np.cosh(s), np.sinh(s)
        a = ch * q_grid + sh * p_grid
        b = sh * q_grid + ch * p_grid
        u += w * np.exp(-(a * a + b * b) / 2.0)
    return xs, u / (big_l * np.sqrt(np.pi))


def _reference_tables(nu, n, grid):
    """Grid axis and the two diagonal tables, every exp taken."""
    big_l = np.log(nu) / 4.0
    extent = grid.extent_factor * np.exp(big_l)
    xs = np.linspace(-extent, extent, n)
    nodes, weights = np.polynomial.legendre.leggauss(grid.s_nodes)
    s_vals = 0.5 * big_l * (nodes + 1.0)
    s_weights = 0.5 * big_l * weights
    diag = np.linspace(-2.0 * extent, 2.0 * extent, 2 * n - 1)
    quarter_sq = 0.25 * diag * diag
    f_tab = np.exp(-np.multiply.outer(quarter_sq, np.exp(2.0 * s_vals)))
    g_tab = np.exp(-np.multiply.outer(quarter_sq, np.exp(-2.0 * s_vals)))
    f_tab *= s_weights / (big_l * np.sqrt(np.pi))
    return xs, f_tab, g_tab


def _dense_witness_reference(nu, n, grid):
    """Quotient, ||u||^2, ||X0 u||^2, ||O_p u||^2 from full-grid arrays.

    The whole (2n-1)^2 product of the separable tables is formed, u is read
    off its diagonals, and every stencil array covers the full n x n grid;
    the interior is summed in one piece.
    """
    xs, f_tab, g_tab = _reference_tables(nu, n, grid)
    prod = f_tab @ g_tab.T
    # prod[i+j, i-j+n-1] sits at flat offset i 2n + j (2n-2) + n-1
    step = prod.itemsize
    u = np.lib.stride_tricks.as_strided(
        prod.ravel()[n - 1:], shape=(n, n),
        strides=(2 * n * step, (2 * n - 2) * step)).copy()

    h = xs[1] - xs[0]
    q_col, p_row = xs[:, None], xs[None, :]

    def d4(f, axis):
        out = np.zeros_like(f)
        sl = [slice(None)] * 2

        def shifted(k):
            sl_k = list(sl)
            sl_k[axis] = slice(2 + k, f.shape[axis] - 2 + k)
            return f[tuple(sl_k)]

        core = (shifted(-2) - 8 * shifted(-1) + 8 * shifted(1)
                - shifted(2)) / (12.0 * h)
        sl_core = list(sl)
        sl_core[axis] = slice(2, -2)
        out[tuple(sl_core)] = core
        return out

    du_q = d4(u, 0)
    du_p = d4(u, 1)
    d2u_p = d4(du_p, 1)
    interior = (slice(4, -4), slice(4, -4))
    op_u = 0.5 * (p_row * p_row * u - d2u_p)
    x0_u = p_row * du_q + q_col * du_p
    k_u = op_u + np.sqrt(nu) * x0_u
    cell = h * h
    usq = float(np.sum(u[interior] ** 2) * cell)
    x0sq = float(np.sum(x0_u[interior] ** 2) * cell)
    opsq = float(np.sum(op_u[interior] ** 2) * cell)
    ksq = float(np.sum(k_u[interior] ** 2) * cell)
    return ksq / usq, usq, x0sq, opsq


def _exact_witness_norms(nu, s_nodes):
    """Quotient, ||u||^2, ||X0 u||^2, ||O_p u||^2 from Gaussian moments.

    u = (1/L) sum_s w_s phi_s on the grid's Gauss-Legendre nodes, with
    phi_s = pi^{-1/2} exp(-z^T A_s z / 2), z = (q, p), A_s = [[C, S], [S, C]],
    C = cosh 2s, S = sinh 2s.  Each image is a quadratic times the slice:
    O_p phi_s = (p^2 - (S q + C p)^2 + C) phi_s / 2 and
    X0 phi_s = -(S q^2 + 2 C q p + S p^2) phi_s, both (z^T B z / 2 + beta)
    phi_s.  phi_s phi_t has mass 1/cosh(s - t) and covariance
    Sigma = (A_s + A_t)^{-1}, and by Isserlis
    E[(z^T B z)(z^T B' z)] = tr(B Sigma) tr(B' Sigma) + 2 tr(B Sigma B' Sigma).
    No grid and no finite difference enters.
    """
    big_l = np.log(nu) / 4.0
    nodes, weights = np.polynomial.legendre.leggauss(s_nodes)
    s_vals = 0.5 * big_l * (nodes + 1.0)
    ch, sh = np.cosh(2.0 * s_vals), np.sinh(2.0 * s_vals)

    def sym(a, b, d):
        return np.moveaxis(np.array([[a, b], [b, d]]), -1, 0)

    sigma = np.linalg.inv(sym(ch, sh, ch)[:, None] + sym(ch, sh, ch)[None])
    # (w_s / L)(w_t / L) <phi_s, phi_t>, with w_s / L = weights / 2
    pair_weights = (np.outer(weights, weights) / 4.0
                    / np.cosh(np.subtract.outer(s_vals, s_vals)))

    def norm_sq(b, beta):
        tr = np.einsum("sij,stji->st", b, sigma)
        tr_t = np.einsum("tij,stji->st", b, sigma)
        cross = np.einsum("sij,stjk,tkl,stli->st", b, sigma, b, sigma)
        moment = (0.25 * (tr * tr_t + 2.0 * cross) + 0.5 * beta[None] * tr
                  + 0.5 * beta[:, None] * tr_t + np.outer(beta, beta))
        return float(np.sum(pair_weights * moment))

    b_op, beta_op = sym(-sh * sh, -sh * ch, 1.0 - ch * ch), 0.5 * ch
    b_x0 = -2.0 * sym(sh, ch, sh)
    usq = float(np.sum(pair_weights))
    x0sq = norm_sq(b_x0, np.zeros(s_nodes))
    opsq = norm_sq(b_op, beta_op)
    ksq = norm_sq(b_op + np.sqrt(nu) * b_x0, beta_op)
    return ksq / usq, usq, x0sq, opsq


class TestWitnessNumeric:
    @pytest.mark.parametrize("n", [151, 150])
    def test_separable_field_matches_per_node_sum(self, n):
        nu = float(np.exp(9.0))
        grid = WitnessGrid(n=n, s_nodes=24)
        xs, rows, bound = _witness_field(nu, n, grid, _rule(grid))
        xs_ref, u_ref = per_node_witness_field(nu, n, grid)
        assert np.array_equal(xs, xs_ref)
        scale = np.max(np.abs(u_ref))
        # the whole grid, then strips at both row parities, one row, and one
        # reaching the last column tile, over all columns and over windows
        # that start at both column parities inside a tile
        for i0, i1 in ((0, n), (2, 70), (37, 101), (74, 75), (n - 9, n)):
            for j0, j1 in ((0, n), (3, n - 5), (40, 41), (n - 140, n - 7)):
                strip = rows(i0, i1, j0, j1)
                assert strip.shape == (i1 - i0, j1 - j0)
                assert (np.max(np.abs(strip - u_ref[i0:i1, j0:j1]))
                        <= 1e-13 * scale)
        got = _witness_on_grid(nu, xs, rows, bound)
        ref = _witness_on_grid(nu, xs_ref,
                               lambda i0, i1, j0, j1: u_ref[i0:i1, j0:j1],
                               bound)
        for g, r in zip(got, ref):
            assert abs(g / r - 1.0) <= 1e-12

    @pytest.mark.parametrize("log_nu", [8.5, 9.0, 16.0])
    @pytest.mark.parametrize("n", [151, 1201, 1801])
    def test_tables_skipping_underflow_are_bit_identical(self, n, log_nu):
        # the exps of F that underflow are skipped, not taken: the tables are
        # the ones every exp gives, byte for byte
        nu = float(np.exp(log_nu))
        grid = WitnessGrid(n=n)
        got = _witness_tables(nu, n, grid, _rule(grid))
        reference = _reference_tables(nu, n, grid)
        assert np.count_nonzero(reference[1] == 0.0) > reference[1].size // 2
        for g, r in zip(got, reference):
            assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("log_nu", [9.0, 12.0, 16.0])
    @pytest.mark.parametrize("n,s_nodes", [(150, 24), (151, 24), (1201, 64)])
    def test_streamed_grid_matches_dense_reference(self, n, s_nodes, log_nu):
        # none of these sizes is a multiple of the strip height or the tile
        # width, and the strip count of the half grid leaves a partial strip
        assert n % _STRIP_ROWS and n % _TILE_COLS
        assert (n // 2 - 4) % _STRIP_ROWS
        nu = float(np.exp(log_nu))
        grid = WitnessGrid(n=n, s_nodes=s_nodes)
        got = _witness_on_grid(nu, *_witness_field(nu, n, grid,
                                                     _rule(grid)))
        ref = _dense_witness_reference(nu, n, grid)
        for g, r in zip(got, ref):
            assert abs(g / r - 1.0) <= 1e-12

    @pytest.mark.parametrize("log_nu", [8.5, 9.0, 12.0, 16.0])
    @pytest.mark.parametrize("n", [150, 151, 1201])
    def test_support_windows_skip_only_negligible_field(self, n, log_nu):
        nu = float(np.exp(log_nu))
        grid = WitnessGrid(n=n)
        _, rows, bound = _witness_field(nu, n, grid, _rule(grid))
        half = n // 2
        u0 = rows(half, half + 1, n - 1 - half, n - half)[0, 0]
        floor = np.finfo(float).eps ** 2 * u0
        # the strips of the symmetric half, as _witness_on_grid walks them,
        # each with its two-row halo
        strips = [(i0, min(i0 + _STRIP_ROWS, half))
                  for i0 in range(4, half, _STRIP_ROWS)]
        strips += [(half, half + 1)] if n % 2 else []
        for i0, i1 in strips:
            col_bound = bound(i0 - 2, i1 + 2)
            u = rows(i0 - 2, i1 + 2, 0, n)
            # up to the rounding of a sum of s_nodes positive products
            assert np.all(u <= col_bound * (1.0 + 1e-13))
            assert np.max(u) <= u0 * (1.0 + 1e-13)
            c0, c1 = _support_window(col_bound, floor)
            assert np.all(u[:, :c0] < floor) and np.all(u[:, c1:] < floor)
            # a summand reads four field columns either side of its own;
            # every one that reads a column at or above floor is summed
            reads = np.convolve(col_bound >= floor, np.ones(9), "same") > 0
            summed = np.zeros(n, dtype=bool)
            summed[c0 + 4:c1 - 4] = True
            assert np.all(summed[4:-4] | ~reads[4:-4])

    @pytest.mark.parametrize("log_nu", [8.5, 9.0, 12.0, 16.0])
    @pytest.mark.parametrize("n", [150, 151, 1201])
    def test_trimmed_sums_match_full_width(self, n, log_nu):
        nu = float(np.exp(log_nu))
        grid = WitnessGrid(n=n)
        xs, rows, bound = _witness_field(nu, n, grid, _rule(grid))
        got = _witness_on_grid(nu, xs, rows, bound)
        # an infinite bound keeps every column of every strip
        full = _witness_on_grid(nu, xs, rows,
                                lambda i0, i1: np.full(n, np.inf))
        for g, r in zip(got, full):
            assert abs(g / r - 1.0) <= 1e-14

    def test_strip_below_the_floor_adds_nothing(self):
        # on a grid 16 times the witness scale wide, the first strip lies
        # wholly below eps^2 of the peak and fills no column
        nu, n = float(np.exp(9.0)), 601
        grid = WitnessGrid(n=n, extent_factor=16.0)
        xs, rows, bound = _witness_field(nu, n, grid, _rule(grid))
        u0 = rows(n // 2, n // 2 + 1, n // 2, n // 2 + 1)[0, 0]
        floor = np.finfo(float).eps ** 2 * u0
        assert _support_window(bound(2, 4 + _STRIP_ROWS + 2), floor) == (0, 0)
        got = _witness_on_grid(nu, xs, rows, bound)
        full = _witness_on_grid(nu, xs, rows,
                                lambda i0, i1: np.full(n, np.inf))
        for g, r in zip(got, full):
            assert abs(g / r - 1.0) <= 1e-14

    def test_exact_moments_reproduce_closed_slice_norms(self):
        # one node: u = phi_{L/2}, ||O_p phi_s||^2 = cosh(4s)/4 and
        # ||X0 phi_s||^2 = -d^2/dx^2 sech(x) at 0 = 1; the X0 image of the
        # node sum is (phi_L - phi_0)/L up to Gauss-Legendre error
        nu = float(np.exp(9.0))
        big_l = np.log(nu) / 4.0
        quotient, usq, x0sq, opsq = _exact_witness_norms(nu, 1)
        assert usq == 1.0
        assert abs(opsq / oscillator_norm_closed(big_l / 2.0) - 1.0) < 1e-12
        assert abs(x0sq - 1.0) < 1e-12
        assert quotient > 0.0
        x0_closed = optimality_witness(nu).x0_norm_sq
        assert abs(_exact_witness_norms(nu, 64)[2] / x0_closed - 1.0) < 1e-10

    def test_grid_quotient_converges_to_exact_moments(self):
        nu = float(np.exp(9.0))
        num = witness_rayleigh_numeric(nu)
        exact_q, exact_usq, _, _ = _exact_witness_norms(nu,
                                                        num.grid.s_nodes)
        fine_err = num.quotient / exact_q - 1.0
        coarse_err = num.coarse_quotient / exact_q - 1.0
        assert abs(fine_err) < 2e-4
        assert abs(coarse_err) < 1e-3
        # fourth-order differences: refining by 1.5 cuts the error by 1.5^4
        assert 4.0 <= coarse_err / fine_err <= 6.0
        assert abs(num.u_norm_sq / exact_usq - 1.0) < 1e-10

    def test_grid_quotient_frozen(self):
        nu = float(np.exp(9.0))
        num = witness_rayleigh_numeric(nu)
        # ||u||^2 = (1/L^2) sum_{s,s'} w_s w_s' <phi_s, phi_s'> exactly, with
        # <phi_s, phi_s'> = 1/cosh(s - s') on the grid's Gauss-Legendre nodes
        big_l = np.log(nu) / 4.0
        nodes, weights = np.polynomial.legendre.leggauss(num.grid.s_nodes)
        s_vals = 0.5 * big_l * (nodes + 1.0)
        s_weights = 0.5 * big_l * weights
        overlaps = np.array([[overlap_closed(a - b) for b in s_vals]
                             for a in s_vals])
        u_sq = s_weights @ overlaps @ s_weights / big_l ** 2
        assert abs(num.u_norm_sq / u_sq - 1.0) < 1e-10
        assert abs(num.x0_norm_sq - 0.312578) < 1e-4
        assert abs(num.op_norm_sq - 35.4096) < 1e-2
        assert abs(num.quotient - 3970.490) < 1.0
        assert num.drift <= 0.01

    def test_numeric_is_consistent_with_closed_forms(self):
        nu = float(np.exp(9.0))
        num = witness_rayleigh_numeric(nu)
        wit = optimality_witness(nu)
        assert abs(num.x0_norm_sq / wit.x0_norm_sq - 1.0) < 0.01
        assert num.u_norm_sq >= wit.u_norm_sq_lower
        assert num.op_norm_sq <= wit.op_bound_sq
        assert num.quotient <= 1.2 * wit.rayleigh_bound

    def test_coarse_grid_raises(self):
        nu = float(np.exp(9.0))
        with pytest.raises(GridUnderResolved):
            witness_rayleigh_numeric(nu, grid=WitnessGrid(n=151, s_nodes=24))


def test_d4_in_place_matches_the_stencil_bit_for_bit():
    f = np.random.default_rng(0).standard_normal((41, 37))
    h = 0.0137
    ref = (f[:-4] - f[4:] + 8 * (f[3:-1] - f[1:-3])) / (12.0 * h)
    assert exactnorms._d4(f, h, 0).tobytes() == ref.tobytes()
    assert exactnorms._d4(f.T, h, 1).tobytes() == ref.T.copy().tobytes()


def _serial_witness(nu, grid):
    """The coarse grid, then the refined one, on the calling thread alone."""
    rule = _rule(grid)
    coarse = _witness_on_grid(nu, *_witness_field(nu, grid.n, grid, rule))
    n_fine = int(round(grid.n * grid.refine_factor))
    if n_fine % 2 == 0:
        n_fine += 1
    fine = _witness_on_grid(nu, *_witness_field(nu, n_fine, grid, rule))
    return coarse, fine


def _gathered_bound(nu, n, grid):
    """The column bound with a* and b* gathered row by row, n x s_nodes
    table rows each."""
    _, f_tab, g_tab = _witness_tables(nu, n, grid, _rule(grid))
    cols = np.arange(n)

    def bound(i0, i1):
        a_star = np.clip(n - 1, i0 + cols, i1 - 1 + cols)
        b_star = np.clip(n - 1, i0 - cols + n - 1, i1 - cols + n - 2)
        return np.einsum("js,js->j", f_tab[a_star], g_tab[b_star])

    return bound


@pytest.mark.parametrize("log_nu", [8.5, 9.0, 16.0])
@pytest.mark.parametrize("n", [601, 1201, 1801])
def test_sliced_bound_matches_the_gathered_one_bit_for_bit(n, log_nu):
    nu = float(np.exp(log_nu))
    grid = WitnessGrid(n=n)
    _, _, bound = _witness_field(nu, n, grid, _rule(grid))
    reference = _gathered_bound(nu, n, grid)
    half = n // 2
    # every strip of the plan with its halo, then ranges that reach the
    # grid's edges and its middle row
    ranges = [(i0 - 2, min(i0 + _STRIP_ROWS, half) + 2)
              for i0 in range(4, half, _STRIP_ROWS)]
    ranges += [(half - 2, half + 3), (0, 1), (0, n), (n - 1, n),
               (half, half + 1), (3, n - 2)]
    for i0, i1 in ranges:
        assert bound(i0, i1).tobytes() == reference(i0, i1).tobytes()


def _serial_witness(nu, grid):
    """The coarse grid, then the refined one, on the calling thread alone."""
    rule = _rule(grid)
    coarse = _witness_on_grid(nu, *_witness_field(nu, grid.n, grid, rule))
    n_fine = int(round(grid.n * grid.refine_factor))
    if n_fine % 2 == 0:
        n_fine += 1
    fine = _witness_on_grid(nu, *_witness_field(nu, n_fine, grid, rule))
    return coarse, fine


def _recorded_plans(monkeypatch, fail_on=None):
    """Patch ``_strip_plan`` so each job records (grid size, plan index,
    thread) as it starts, and return that list.

    Whichever job starts first waits until a second one has started, so
    the two threads each take at least one job.  A job started on the
    thread ``fail_on`` returns, given one, raises MemoryError.
    """
    started = []
    second = threading.Event()

    def recording(xs, rows, bound):
        def wrap(k, job):
            def run():
                started.append((xs.size, k, threading.get_ident()))
                if len(started) == 1:
                    assert second.wait(timeout=60.0)
                else:
                    second.set()
                if fail_on is not None and fail_on(threading.get_ident()):
                    raise MemoryError("strip job")
                return job()
            return run

        return [wrap(k, job) for k, job in enumerate(_strip_plan(xs, rows,
                                                                 bound))]

    monkeypatch.setattr(exactnorms, "_strip_plan", recording)
    return started


class TestConcurrentGrids:
    @pytest.mark.parametrize("grid", [WitnessGrid(),
                                      WitnessGrid(n=601, s_nodes=32)],
                             ids=["default", "small"])
    def test_matches_serial_grids_bit_for_bit(self, grid):
        nu = float(np.exp(9.0))
        before = threading.active_count()
        got = witness_rayleigh_numeric(nu, grid)
        assert threading.active_count() == before
        (coarse_q, usq, x0sq, opsq), (fine_q, *_) = _serial_witness(nu, grid)
        assert got.quotient == fine_q
        assert got.coarse_quotient == coarse_q
        assert got.drift == abs(fine_q / coarse_q - 1.0)
        assert (got.u_norm_sq, got.x0_norm_sq, got.op_norm_sq) == (usq, x0sq,
                                                                   opsq)

    def test_one_queue_both_threads_fine_strips_first(self, monkeypatch):
        fields = []

        def recording_field(nu, n, grid, rule):
            fields.append((n, threading.get_ident()))
            return _witness_field(nu, n, grid, rule)

        monkeypatch.setattr(exactnorms, "_witness_field", recording_field)
        started = _recorded_plans(monkeypatch)
        nu, grid = float(np.exp(9.0)), WitnessGrid(n=601, s_nodes=32)
        got = witness_rayleigh_numeric(nu, grid)
        caller = threading.get_ident()
        owners = dict(fields)
        # the coarse tables on the worker, the refined ones on the caller
        assert len(fields) == 2 and owners[903] == caller
        assert owners[601] != caller
        # every job ran once, shared between the caller and the one worker,
        # and each thread took its jobs in queue order: the refined grid's
        # first, each grid's in plan order
        jobs = [(size, k) for size, k, _ in started]
        assert len(set(jobs)) == len(jobs) == 9
        assert {size for size, _ in jobs} == {601, 903}
        assert {ident for *_, ident in started} == {caller, owners[601]}
        for thread in (caller, owners[601]):
            taken = [(size != 903, k) for size, k, ident in started
                     if ident == thread]
            assert taken == sorted(taken)
        monkeypatch.undo()
        assert got == witness_rayleigh_numeric(nu, grid)

    def test_concurrent_calls_under_fast_thread_switching(self):
        # three callers, each with its own worker, on two cores, switching
        # threads every microsecond: each call keeps its own queue and sums
        nu, grid = float(np.exp(9.0)), WitnessGrid(n=601, s_nodes=32)
        want = witness_rayleigh_numeric(nu, grid)
        results = []
        callers = [threading.Thread(
            target=lambda: results.append(witness_rayleigh_numeric(nu, grid)))
            for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [want] * 3

    def test_drift_above_tolerance_raises_and_joins_the_worker(self):
        nu = float(np.exp(9.0))
        grid = WitnessGrid(n=601, s_nodes=32, drift_tol=1e-9)
        before = threading.active_count()
        with pytest.raises(GridUnderResolved, match="above 1e-09"):
            witness_rayleigh_numeric(nu, grid)
        assert threading.active_count() == before

    @pytest.mark.parametrize("on_caller", [True, False],
                             ids=["caller", "worker"])
    def test_strip_error_comes_out_empties_the_queue_and_joins_the_worker(
            self, monkeypatch, on_caller):
        caller = threading.get_ident()
        started = _recorded_plans(
            monkeypatch, lambda ident: (ident == caller) == on_caller)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="strip job"):
            witness_rayleigh_numeric(float(np.exp(9.0)),
                                     WitnessGrid(n=601, s_nodes=32))
        assert threading.active_count() == before
        # nine jobs in all; the failing one empties the queue, so the other
        # thread stops after the job it holds
        assert len(started) < 9

    def test_worker_field_error_comes_out_and_the_worker_is_joined(
            self, monkeypatch):
        caller = threading.get_ident()

        def failing(nu, n, grid, rule):
            if threading.get_ident() != caller:
                raise MemoryError("coarse tables")
            return _witness_field(nu, n, grid, rule)

        monkeypatch.setattr(exactnorms, "_witness_field", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="coarse tables"):
            witness_rayleigh_numeric(float(np.exp(9.0)),
                                     WitnessGrid(n=601, s_nodes=32))
        assert threading.active_count() == before
