"""Exact decay data for the repelling quadratic potential.

Three groups of results, all for alpha = 0 (potential -nu q^2 / 2):

* the exact semigroup norm exp(-Argsh S(t)) with S = sinh(t n1/2)/n1, also
  recovered through the eigenvalues mu1, mu2 of the conjugated flow product;
* the resolvent norm integral with its log(nu)/sqrt(nu) scaling;
* the Rayleigh-quotient witness built from boosted Gaussians that shows the
  log factor cannot be removed (closed forms plus an independent
  finite-difference/quadrature evaluation on a grid).

The eigenvalue route is assembled through the unimodularity identity
(A - s)(A + s) = 1 of the flow product, never by subtracting nearly equal
exponentials; see ``semigroup_norm``.

``resolvent_bound`` and ``optimality_witness`` import ``scipy.integrate``
when called, not at load: it pulls in ``scipy.optimize``, ``scipy.special``
and ``scipy.fft``, and commands that never integrate should not pay their
start-up time and memory.  Their integrands run on Python floats with
``math``, as ``quad`` calls them one point at a time; a numpy scalar call
costs several times more there.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "QuadratureNotConverged",
    "GridUnderResolved",
    "NormResult",
    "OptimalityWitness",
    "ResolventBound",
    "WitnessGrid",
    "WitnessNumeric",
    "semigroup_norm",
    "resolvent_bound",
    "optimality_witness",
    "witness_rayleigh_numeric",
    "overlap_closed",
    "overlap_quadrature",
    "oscillator_norm_closed",
    "oscillator_norm_quadrature",
    "boosted_state_norm_quadrature",
]

_RESOLVENT_TOL = 1e-8
_GH_NODES = 180
# Beyond this half-argument theta the mu factors switch to their logarithmic
# asymptotics, well before the eigenvalue route's cosh^4(theta) reaches the
# double-precision ceiling near theta = 177; the asymptotics are off by
# e^{-2 theta} < e^{-300} there.
_LOG_SWITCH = 150.0


class QuadratureNotConverged(ArithmeticError):
    """Adaptive quadrature reported an error estimate above tolerance."""


class GridUnderResolved(ArithmeticError):
    """Grid refinement moved the witness quotient by more than the tolerance."""


@dataclass(frozen=True)
class NormResult:
    """Semigroup norm at one time, with the eigenvalue pair backing it.

    mu1 and mu2 are the eigenvalues of the conjugated flow product
    conj(kappa(t))^{-1} kappa(t); the norm equals (mu1/mu2)^{1/4} and
    matches exp(-Argsh S(t)).  log_quotient is log(mu1/mu2), carried in
    log form: past the log switch mu2 overflows to inf and the quotient
    underflows to 0 while the norm is still a positive double.
    """

    t: float
    norm: float
    mu1: float
    mu2: float
    log_quotient: float


class ResolventBound(NamedTuple):
    integral: float
    c_ratio: float


@dataclass(frozen=True)
class OptimalityWitness:
    """Closed forms of the boosted-Gaussian witness at one curvature.

    rayleigh_bound = (op_bound_sq + nu * x0_norm_sq) / u_norm_sq_lower is an
    upper bound for the Rayleigh quotient ||K u||^2 / ||u||^2 of the witness,
    of size nu / log(nu) up to a bounded constant.
    """

    nu: float
    L: float
    x0_norm_sq: float
    u_norm_sq_lower: float
    op_bound_sq: float
    rayleigh_bound: float


def _flow_data(t: float, nu: float):
    n1 = np.sqrt(1.0 + 4.0 * nu)
    theta = 0.5 * t * n1
    return n1, theta


def semigroup_norm(t: float, nu: float) -> NormResult:
    """Exact norm of the repelling-model semigroup at time t.

    norm = exp(-Argsh S(t)).  The eigenvalue route uses A = 1 + 2 S^2 and
    s^2 = 4 S^2 (C^2 - 4 nu S^2); mu2 = e^{-t}(A + s) and, by unimodularity
    of the product, mu1 = e^{-t} / (A + s).  Assembling mu1 by division
    instead of as e^{-t}(A - s) avoids the catastrophic cancellation that
    otherwise loses log(4 nu) digits at large t n1.
    """
    if t < 0:
        raise ValueError("norm is defined for t >= 0")
    if nu <= 0:
        raise ValueError("nu must be positive")
    if t == 0:
        return NormResult(t=0.0, norm=1.0, mu1=1.0, mu2=1.0, log_quotient=0.0)
    n1, theta = _flow_data(t, nu)
    if theta > _LOG_SWITCH:
        # 2 Argsh S = u_log up to e^{-2 theta}, far below double precision
        u_log = 2.0 * (theta - np.log(n1))
        log_mu1, log_mu2 = -t - u_log, -t + u_log
        mu2 = float(np.exp(log_mu2)) if log_mu2 <= 700.0 else float("inf")
        return NormResult(t=float(t), norm=float(np.exp(-u_log / 2)),
                          mu1=float(np.exp(log_mu1)), mu2=mu2,
                          log_quotient=float(log_mu1 - log_mu2))
    big_c = np.cosh(theta)
    big_s = np.sinh(theta) / n1
    a_val = 1.0 + 2.0 * big_s * big_s
    s_sq = 4.0 * big_s * big_s * (big_c * big_c - 4.0 * nu * big_s * big_s)
    s_val = np.sqrt(s_sq)
    mu2 = np.exp(-t) * (a_val + s_val)
    mu1 = np.exp(-t) / (a_val + s_val)
    norm = float(np.exp(-np.arcsinh(big_s)))
    return NormResult(t=float(t), norm=norm, mu1=float(mu1), mu2=float(mu2),
                      log_quotient=float(-2.0 * np.log(a_val + s_val)))


def resolvent_bound(nu: float) -> ResolventBound:
    """Quadrature of the exact semigroup norm over t, with analytic tail.

    integral = int_0^infty exp(-Argsh S(t)) dt bounds the resolvent norm at
    the origin; c_ratio = integral / (log nu / sqrt(nu)) exposes the
    logarithmic scaling.  Raises QuadratureNotConverged if the adaptive
    error estimate exceeds ``_RESOLVENT_TOL``.
    """
    from scipy import integrate

    if nu < 10:
        raise ValueError("resolvent scaling is studied for nu >= 10")
    n1 = math.sqrt(1.0 + 4.0 * nu)

    def integrand(t):
        s_val = math.sinh(0.5 * t * n1) / n1
        return 1.0 / (s_val + math.hypot(1.0, s_val))

    t_cut = 2.0 * np.log(1e18) / n1
    value, err = integrate.quad(integrand, 0.0, t_cut, limit=400,
                                epsabs=1e-12, epsrel=1e-12)
    tail = 4.0 * np.exp(-0.5 * t_cut * n1)
    if err + tail > _RESOLVENT_TOL:
        raise QuadratureNotConverged("resolvent integral error %g above %g"
                                     % (err + tail, _RESOLVENT_TOL))
    integral = float(value + tail)
    return ResolventBound(integral=integral,
                          c_ratio=float(integral / (np.log(nu) / np.sqrt(nu))))


# ---------------------------------------------------------------------------
# optimality witness, closed forms


def optimality_witness(nu: float) -> OptimalityWitness:
    """Closed-form witness data at curvature nu (requires log(nu)/4 > 2).

    x0_norm_sq = (2/L^2)(1 - 1/cosh L) is exact; u_norm_sq_lower keeps only
    the inner sech integral over [0, 1], evaluated by its antiderivative
    2 atan(tanh(s/2)); op_bound_sq is the Cauchy-Schwarz square
    ((1/L) int_0^L sqrt(cosh 4s)/2 ds)^2 of the exact slice norms
    ||O_p phi_s|| = sqrt(cosh 4s)/2.
    """
    from scipy import integrate

    if nu <= np.exp(8.0):
        raise ValueError("witness regime needs log(nu)/4 > 2")
    big_l = np.log(nu) / 4.0
    x0 = (2.0 / big_l ** 2) * (1.0 - 1.0 / np.cosh(big_l))
    u_lower = 2.0 * np.arctan(np.tanh(0.5)) / big_l

    def integrand(s):
        return (0.5 * math.exp(2.0 * s)
                * math.sqrt((1.0 + math.exp(-8.0 * s)) / 2.0))

    value, err = integrate.quad(integrand, 0.0, big_l, limit=200,
                                epsabs=1e-12, epsrel=1e-12)
    if err > 1e-6 * max(1.0, value):
        raise QuadratureNotConverged("slice-norm integral error %g" % err)
    op_sq = (value / big_l) ** 2
    rayleigh = (op_sq + nu * x0) / u_lower
    return OptimalityWitness(nu=float(nu), L=float(big_l),
                             x0_norm_sq=float(x0),
                             u_norm_sq_lower=float(u_lower),
                             op_bound_sq=float(op_sq),
                             rayleigh_bound=float(rayleigh))


# ---------------------------------------------------------------------------
# boosted Gaussian slices and their quadrature oracles


def _slice_field(s: float):
    """phi_s(q, p) = pi^{-1/2} exp(-(a^2+b^2)/2), a,b the boosted coordinates."""
    ch, sh = np.cosh(s), np.sinh(s)

    def phi(q, p):
        a = ch * q + sh * p
        b = sh * q + ch * p
        return np.exp(-(a * a + b * b) / 2.0) / np.sqrt(np.pi)

    return phi


def _axis_scale(fax) -> float:
    """Gaussian length scale of a positive profile along one axis.

    Probes geometrically spaced offsets until the profile has dropped below
    e^{-4} of its center value and converts the drop to an equivalent
    standard deviation.  A probe that underflows to zero is treated as a
    drop of e^{-745} (the double-precision underflow exponent).
    """
    f0 = fax(0.0)
    for x in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        r = max(fax(x), fax(-x)) / f0
        if r <= 0.0:
            return x / np.sqrt(745.0)
        if r < np.exp(-4.0):
            return x / np.sqrt(-np.log(r))
    return 64.0


@functools.cache
def _gauss_hermite_rule():
    """Nodes x and log weights log(w) + x^2 of the ``_GH_NODES`` point rule.

    Built on first use, not at load, and shared read-only after that.
    """
    x, w = np.polynomial.hermite.hermgauss(_GH_NODES)
    logw = np.log(w) + x * x
    x.flags.writeable = False
    logw.flags.writeable = False
    return x, logw


def _gauss_hermite_2d(f) -> float:
    """Tensor Gauss-Hermite integral of f over the plane, ``_GH_NODES`` a side.

    Axes are rotated by pi/4 (the boosted Gaussians are elongated along the
    diagonals) and each axis is scaled by the decay-probed length of f.
    Weights are applied in log form so strongly scaled axes do not underflow.
    """
    x, logw = _gauss_hermite_rule()
    r = 1.0 / np.sqrt(2.0)
    s1 = _axis_scale(lambda u: float(f(np.array([r * u]), np.array([r * u]))[0]))
    s2 = _axis_scale(lambda u: float(f(np.array([r * u]), np.array([-r * u]))[0]))
    uu, vv = np.meshgrid(x * s1, x * s2, indexing="ij")
    lw = np.add.outer(logw, logw)
    q_c = r * (uu - vv)
    p_c = r * (uu + vv)
    vals = f(q_c.ravel(), p_c.ravel()).reshape(uu.shape)
    return float(np.sum(vals * np.exp(lw)) * s1 * s2)


def overlap_closed(big_l: float) -> float:
    """<phi_L, phi_0> = 1 / cosh(L)."""
    return float(1.0 / np.cosh(big_l))


def overlap_quadrature(big_l: float) -> float:
    phi_l = _slice_field(big_l)
    phi_0 = _slice_field(0.0)
    return _gauss_hermite_2d(lambda q, p: phi_l(q, p) * phi_0(q, p))


def boosted_state_norm_quadrature(s: float) -> float:
    """||phi_s||^2 by quadrature; equals 1 for every boost."""
    phi = _slice_field(s)
    return _gauss_hermite_2d(lambda q, p: phi(q, p) ** 2)


def oscillator_norm_closed(s: float) -> float:
    """||O_p phi_s||^2 = cosh(4 s) / 4."""
    return float(np.cosh(4.0 * s) / 4.0)


def oscillator_norm_quadrature(s: float) -> float:
    """||O_p phi_s||^2 by quadrature on the explicit Gaussian image.

    O_p phi_s = (p^2 - (a sh + b ch)^2 + cosh 2s) phi_s / 2 follows from
    differentiating the boosted Gaussian twice in p.
    """
    ch, sh = np.cosh(s), np.sinh(s)
    phi = _slice_field(s)

    def integrand(q, p):
        a = ch * q + sh * p
        b = sh * q + ch * p
        g = 0.5 * (p * p - (a * sh + b * ch) ** 2 + np.cosh(2.0 * s))
        return (g * phi(q, p)) ** 2

    return _gauss_hermite_2d(integrand)


# ---------------------------------------------------------------------------
# independent grid evaluation of the witness quotient


@dataclass(frozen=True)
class WitnessGrid:
    """Resolution parameters for the finite-difference witness evaluation."""

    n: int = 1201
    s_nodes: int = 64
    extent_factor: float = 3.8
    refine_factor: float = 1.5
    drift_tol: float = 0.01


# row strip height and column tile width of the streamed witness grid
_STRIP_ROWS = 128
_TILE_COLS = 128

# e^x rounds to exactly 0.0 for every x below ln(2^-1075) = -745.13...
_EXP_UNDERFLOW = -746.0


@dataclass(frozen=True)
class WitnessNumeric:
    """Grid evaluation of the witness Rayleigh quotient.

    quotient is from the refined grid; drift compares it against the coarse
    grid.  The squared norms are from the coarse grid (they enter the
    acceptance checks only through generous one-sided comparisons).  Every
    sum runs over one half of the grid interior and is doubled, as u is
    even under (q, p) -> (-q, -p), and leaves out only summands whose field
    values a table bound puts below eps^2 of the peak of u.
    """

    nu: float
    quotient: float
    coarse_quotient: float
    drift: float
    u_norm_sq: float
    x0_norm_sq: float
    op_norm_sq: float
    grid: WitnessGrid


def _fill_tile(out, f_tab, g_tab):
    """out[r, c] = sum_s f_tab[r+c, s] g_tab[r-c+C-1, s] for an R x C tile.

    f_tab and g_tab hold the R + C - 1 table rows the tile reaches.  The two
    row indices add up to 2r + C - 1, so even rows of f_tab meet only rows of
    g_tab with the parity of C - 1, and odd rows only the others: two
    half-size matrix products hold every entry, and each of the four
    (r mod 2, c mod 2) classes of the tile is a strided view of one of them.
    """
    rows, cols = out.shape
    odd = (cols - 1) % 2
    prods = (f_tab[0::2] @ g_tab[odd::2].T,
             f_tab[1::2] @ g_tab[1 - odd::2].T)
    for r in (0, 1):
        for c in (0, 1):
            # entry (r + 2a, c + 2b) sits at row (r + c)//2 + a + b and
            # column (r - c + C - 1)//2 + a - b of its product
            prod = prods[(r + c) % 2]
            width, step = prod.shape[1], prod.itemsize
            start = (r + c) // 2 * width + (r - c + cols - 1) // 2
            out[r::2, c::2] = np.lib.stride_tricks.as_strided(
                prod.ravel()[start:],
                shape=((rows - r + 1) // 2, (cols - c + 1) // 2),
                strides=((width + 1) * step, (width - 1) * step))


def _witness_tables(nu: float, n: int, grid: WitnessGrid, rule):
    """Grid axis xs and the (2n-1) x s_nodes diagonal tables F and G.

    rule is the (nodes, weights) of the ``grid.s_nodes``-point
    Gauss-Legendre rule on [-1, 1], which the caller forms once for all its
    grids.  Column s of F is w_s exp(-e^{2s} (q+p)^2 / 4) / (L sqrt(pi)), the
    weight and normalization folded in, and column s of G is
    exp(-e^{-2s} (q-p)^2 / 4), both over the 2n - 1 diagonal points.  About
    two thirds of F underflows to exactly zero; its exp is taken only where
    the exponent is at least ``_EXP_UNDERFLOW``, which leaves the same table.
    """
    big_l = np.log(nu) / 4.0
    extent = grid.extent_factor * np.exp(big_l)
    xs = np.linspace(-extent, extent, n)

    nodes, weights = rule
    s_vals = 0.5 * big_l * (nodes + 1.0)
    s_weights = 0.5 * big_l * weights

    diag = np.linspace(-2.0 * extent, 2.0 * extent, 2 * n - 1)
    quarter_sq = 0.25 * diag * diag
    # each table is its exponent array, exponentiated in place
    f_tab = np.multiply.outer(-quarter_sq, np.exp(2.0 * s_vals))
    underflow = f_tab < _EXP_UNDERFLOW
    np.exp(f_tab, out=f_tab, where=~underflow)
    f_tab[underflow] = 0.0
    del underflow
    g_tab = np.multiply.outer(quarter_sq, np.exp(-2.0 * s_vals))
    np.negative(g_tab, out=g_tab)
    np.exp(g_tab, out=g_tab)
    f_tab *= s_weights / (big_l * np.sqrt(np.pi))
    return xs, f_tab, g_tab


def _witness_field(nu: float, n: int, grid: WitnessGrid, rule):
    """Grid axis xs, rows(i0, i1, j0, j1) = u[i0:i1, j0:j1] and bound(i0, i1).

    u = (1/L) int_0^L phi_s ds on the n x n (q, p) grid, with the
    Gauss-Legendre rule passed on to ``_witness_tables``.  The slice exponent
    separates along the diagonals:
    a^2 + b^2 = (e^{2s} (q+p)^2 + e^{-2s} (q-p)^2) / 2.  On the uniform grid
    q + p at node (i, j) depends only on i + j and q - p only on i - j, and
    both run over the same 2n - 1 points.  So with Gauss-Legendre weights w_s,
    u[i, j] = sum_s w_s F_s[i+j] G_s[i-j+n-1] for the two tables of
    ``_witness_tables``, F_s = exp(-e^{2s} (q+p)^2 / 4) and
    G_s = exp(-e^{-2s} (q-p)^2 / 4).  The rows are contracted over s one
    column tile at a time (``_fill_tile``), so no n x n array is formed
    unless the whole grid is asked for.

    Every factor is positive, and each table column is a Gaussian in the
    diagonal coordinate, so it is non-increasing in |index - (n-1)|.  Over
    rows i0 <= i < i1, column j reads F at i0+j .. i1-1+j and G at
    i0-j+n-1 .. i1-j+n-2, and at a* and b*, the indices of those ranges
    nearest n - 1, each table takes its largest value.  Hence every row of
    column j has u[i, j] <= sum_s F_s[a*] G_s[b*] = bound(i0, i1)[j].
    """
    xs, f_tab, g_tab = _witness_tables(nu, n, grid, rule)

    def rows(i0: int, i1: int, j0: int, j1: int):
        u = np.empty((i1 - i0, j1 - j0))
        for t0 in range(j0, j1, _TILE_COLS):
            t1 = min(t0 + _TILE_COLS, j1)
            _fill_tile(u[:, t0 - j0:t1 - j0], f_tab[i0 + t0:i1 + t1 - 1],
                       g_tab[i0 - t1 + n:i1 - t0 + n - 1])
        return u

    cols = np.arange(n)

    def bound(i0: int, i1: int):
        a_star = np.clip(n - 1, i0 + cols, i1 - 1 + cols)
        b_star = np.clip(n - 1, i0 - cols + n - 1, i1 - cols + n - 2)
        return np.einsum("js,js->j", f_tab[a_star], g_tab[b_star])

    return xs, rows, bound


def _support_window(bound, floor: float):
    """Field columns [c0, c1) that a strip fills, from its column bound.

    The columns whose bound reaches floor span [lo, hi].  Each summand reads
    the field four columns either side of its own, so the summands over
    [lo - 4, hi + 4] are all that read a column reaching floor, and the
    field they read is [lo - 8, hi + 8], clipped to the grid.  A strip with
    no column reaching floor fills nothing: (0, 0).
    """
    above = np.flatnonzero(bound >= floor)
    if above.size == 0:
        return 0, 0
    return max(int(above[0]) - 8, 0), min(int(above[-1]) + 9, bound.size)


def _d4(f, h: float, axis: int):
    """Fourth-order central first derivative along axis, at indices 2 .. -3."""
    size = f.shape[axis]

    def shifted(k):
        index = [slice(None)] * f.ndim
        index[axis] = slice(2 + k, size - 2 + k)
        return f[tuple(index)]

    # (f[-2] - f[2] + 8 (f[1] - f[-1])) / 12h, in two arrays
    out = shifted(-2) - shifted(2)
    inner = shifted(1) - shifted(-1)
    inner *= 8
    out += inner
    out /= 12.0 * h
    return out


def _witness_on_grid(nu: float, xs, rows, bound):
    """Witness quotient and squared norms from the field rows on xs x xs.

    rows and bound come from ``_witness_field``.  The generator is applied
    with fourth-order central differences, and the squared norms are summed
    over the interior that stays four nodes clear of the grid margin.  The
    interior is walked in strips of ``_STRIP_ROWS`` rows, each read with the
    two-row halo the q-derivative needs.  u(-q, -p) = u(q, p) and every
    summand is even, so only the rows below the middle are summed and
    doubled, and the middle row of an odd grid is added once.
    ||K u||^2 = ||O_p u||^2 + 2 sqrt(nu) <O_p u, X0 u> + nu ||X0 u||^2.

    Each strip fills and differences only the columns of its support
    window (``_support_window``).  With u0 the largest field value on the
    grid, a skipped summand reads only columns whose bound, and so whose
    field, is below m = eps^2 u0.  The stencils have gains |u| <= m,
    |d_q u|, |d_p u| <= 3m / 2h and |d_p^2 u| <= 9m / 4h^2, so with
    X = max |x| a skipped summand of ||u||^2, ||X0 u||^2, ||O_p u||^2 or
    <O_p u, X0 u> is at most (c m)^2, c = X^2 / 2 + 9 / 8h^2 + 3X / h >= 1,
    and one of ||K u||^2 at most ((1 + sqrt(nu)) c m)^2.  Fewer than n^2 are
    skipped and ||u||^2 >= u0^2, so each of the first four sums moves by at
    most (n c eps^2)^2 ||u||^2, and ||K u||^2 by (1 + sqrt(nu))^2 times
    that, against ||K u||^2 >= ||u||^2 / 4 (Re <K u, u> = <O_p u, u> >=
    ||u||^2 / 2).  At n = 1801 and log nu = 16, n c eps is about 1e-8 and
    sqrt(nu) about 3e3: every sum and the quotient move by far less than
    eps^2 relative.
    """
    n = xs.size
    h = xs[1] - xs[0]
    half = n // 2
    # u0 sits on q = -p at the node nearest the origin: u's largest value on
    # the grid, in a row that the sums below count
    u0 = rows(half, half + 1, n - 1 - half, n - half)[0, 0]
    floor = np.finfo(float).eps ** 2 * u0

    def strip_sums(i0, i1):
        c0, c1 = _support_window(bound(i0 - 2, i1 + 2), floor)
        if c0 == c1:
            return np.zeros(4)
        u = rows(i0 - 2, i1 + 2, c0, c1)
        p_row = xs[c0 + 4:c1 - 4]
        mid = u[2:-2]
        core = mid[:, 4:-4]
        du_p = _d4(mid, h, 1)
        d2u_p = _d4(du_p, h, 1)
        op_u = 0.5 * (p_row * p_row * core - d2u_p)
        del d2u_p
        du_q = _d4(u[:, 4:-4], h, 0)
        x0_u = p_row * du_q
        del du_q
        x0_u += xs[i0:i1, None] * du_p[:, 2:-2]
        del du_p
        # einsum, not a BLAS dot: a threaded dot splits its sum by the
        # thread count, and the report must not depend on it
        return np.array([np.einsum("ij,ij->", core, core),
                         np.einsum("ij,ij->", x0_u, x0_u),
                         np.einsum("ij,ij->", op_u, op_u),
                         np.einsum("ij,ij->", op_u, x0_u)])

    sums = np.zeros(4)
    for i0 in range(4, half, _STRIP_ROWS):
        sums += strip_sums(i0, min(i0 + _STRIP_ROWS, half))
    sums *= 2.0
    if n % 2:
        sums += strip_sums(half, half + 1)
    usq, x0sq, opsq, op_x0 = (float(v) for v in sums * (h * h))
    ksq = opsq + 2.0 * float(np.sqrt(nu)) * op_x0 + nu * x0sq
    return ksq / usq, usq, x0sq, opsq


def witness_rayleigh_numeric(nu: float,
                             grid: WitnessGrid | None = None) -> WitnessNumeric:
    """Evaluate the witness Rayleigh quotient on a grid, with refinement.

    Builds u = (1/L) int_0^L phi_s ds by Gauss-Legendre quadrature in s on a
    uniform (q, p) grid, applies the generator with fourth-order finite
    differences, and forms ||K u||^2 / ||u||^2.  Each slice factors as
    phi_s = pi^{-1/2} exp(-e^{2s} (q+p)^2 / 4) exp(-e^{-2s} (q-p)^2 / 4), so u
    is a contraction over s of two exponential tables on the 2n - 1 grid
    diagonals, not s_nodes exponentials over the full grid.  The contraction
    and the differences stream over row strips of one symmetric half of the
    grid, so memory stays at a few strips whatever n is.  Each strip covers
    only the columns where a bound read off the two tables lets the field
    reach eps^2 of its peak; u is below that off a hyperbolic cross around
    q = -p.  At nu = e^9 the strips fill 29% of the half grid at n = 1201
    and 26% at n = 1801, and the skipped columns move no sum by more than
    about eps^2 relative (see ``_witness_on_grid``).  The grid is also
    refined by ``refine_factor``; a relative change above ``drift_tol``
    raises GridUnderResolved.

    The two grids are evaluated at the same time: the coarse one on a
    worker thread and the refined one, the larger, on the calling thread,
    which holds the peak RSS lower than a second worker does.  Their
    matrix products and elementwise kernels release the GIL.  Each grid
    runs sequentially in its own thread, so every sum keeps its order and
    the result is the same, bit for bit, as evaluating the grids one after
    the other, on one CPU or on several.
    """
    if nu <= np.exp(8.0):
        raise ValueError("witness regime needs log(nu)/4 > 2")
    if grid is None:
        grid = WitnessGrid()
    rule = np.polynomial.legendre.leggauss(grid.s_nodes)
    n_fine = int(round(grid.n * grid.refine_factor))
    if n_fine % 2 == 0:
        n_fine += 1

    def on_grid(n: int):
        return _witness_on_grid(nu, *_witness_field(nu, n, grid, rule))

    # leaving the with block joins the worker, also when on_grid raises
    with ThreadPoolExecutor(1) as pool:
        coarse = pool.submit(on_grid, grid.n)
        fine_q, *_ = on_grid(n_fine)
        coarse_q, usq, x0sq, opsq = coarse.result()
    drift = abs(fine_q / coarse_q - 1.0)
    if drift > grid.drift_tol:
        raise GridUnderResolved(
            "quotient drift %.3g above %.3g under refinement"
            % (drift, grid.drift_tol))
    return WitnessNumeric(nu=float(nu), quotient=float(fine_q),
                          coarse_quotient=float(coarse_q), drift=float(drift),
                          u_norm_sq=usq, x0_norm_sq=x0sq, op_norm_sq=opsq,
                          grid=grid)
