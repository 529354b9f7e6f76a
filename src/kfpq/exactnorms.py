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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate

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
    matches exp(-Argsh S(t)).
    """

    t: float
    norm: float
    mu1: float
    mu2: float


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
        return NormResult(t=0.0, norm=1.0, mu1=1.0, mu2=1.0)
    n1, theta = _flow_data(t, nu)
    if theta > _LOG_SWITCH:
        # 2 Argsh S = u_log up to e^{-2 theta}, far below double precision
        u_log = 2.0 * (theta - np.log(n1))
        log_mu2 = -t + u_log
        mu2 = float(np.exp(log_mu2)) if log_mu2 <= 700.0 else float("inf")
        return NormResult(t=float(t), norm=float(np.exp(-u_log / 2)),
                          mu1=float(np.exp(-t - u_log)), mu2=mu2)
    big_c = np.cosh(theta)
    big_s = np.sinh(theta) / n1
    a_val = 1.0 + 2.0 * big_s * big_s
    s_sq = 4.0 * big_s * big_s * (big_c * big_c - 4.0 * nu * big_s * big_s)
    s_val = np.sqrt(s_sq)
    mu2 = np.exp(-t) * (a_val + s_val)
    mu1 = np.exp(-t) / (a_val + s_val)
    norm = float(np.exp(-np.arcsinh(big_s)))
    return NormResult(t=float(t), norm=norm, mu1=float(mu1), mu2=float(mu2))


def resolvent_bound(nu: float, tol: float = 1e-8) -> ResolventBound:
    """Quadrature of the exact semigroup norm over t, with analytic tail.

    integral = int_0^infty exp(-Argsh S(t)) dt bounds the resolvent norm at
    the origin; c_ratio = integral / (log nu / sqrt(nu)) exposes the
    logarithmic scaling.  Raises QuadratureNotConverged if the adaptive
    error estimate exceeds ``tol``.
    """
    if nu < 10:
        raise ValueError("resolvent scaling is studied for nu >= 10")
    n1 = np.sqrt(1.0 + 4.0 * nu)

    def integrand(t):
        s_val = np.sinh(0.5 * t * n1) / n1
        return 1.0 / (s_val + np.hypot(1.0, s_val))

    t_cut = 2.0 * np.log(1e18) / n1
    value, err = integrate.quad(integrand, 0.0, t_cut, limit=400,
                                epsabs=1e-12, epsrel=1e-12)
    tail = 4.0 * np.exp(-0.5 * t_cut * n1)
    if err + tail > tol:
        raise QuadratureNotConverged(
            "resolvent integral error %g above %g" % (err + tail, tol))
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
    if nu <= np.exp(8.0):
        raise ValueError("witness regime needs log(nu)/4 > 2")
    big_l = np.log(nu) / 4.0
    x0 = (2.0 / big_l ** 2) * (1.0 - 1.0 / np.cosh(big_l))
    u_lower = 2.0 * np.arctan(np.tanh(0.5)) / big_l

    def integrand(s):
        return 0.5 * np.exp(2.0 * s) * np.sqrt((1.0 + np.exp(-8.0 * s)) / 2.0)

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


def _gauss_hermite_2d(f, n: int = 180) -> float:
    """Tensor Gauss-Hermite integral of f over the plane.

    Axes are rotated by pi/4 (the boosted Gaussians are elongated along the
    diagonals) and each axis is scaled by the decay-probed length of f.
    Weights are applied in log form so strongly scaled axes do not underflow.
    """
    x, w = np.polynomial.hermite.hermgauss(n)
    logw = np.log(w) + x * x
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


def overlap_quadrature(big_l: float, n: int = 180) -> float:
    phi_l = _slice_field(big_l)
    phi_0 = _slice_field(0.0)
    return _gauss_hermite_2d(lambda q, p: phi_l(q, p) * phi_0(q, p), n)


def boosted_state_norm_quadrature(s: float, n: int = 180) -> float:
    """||phi_s||^2 by quadrature; equals 1 for every boost."""
    phi = _slice_field(s)
    return _gauss_hermite_2d(lambda q, p: phi(q, p) ** 2, n)


def oscillator_norm_closed(s: float) -> float:
    """||O_p phi_s||^2 = cosh(4 s) / 4."""
    return float(np.cosh(4.0 * s) / 4.0)


def oscillator_norm_quadrature(s: float, n: int = 180) -> float:
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

    return _gauss_hermite_2d(integrand, n)


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


@dataclass(frozen=True)
class WitnessNumeric:
    """Grid evaluation of the witness Rayleigh quotient.

    quotient is from the refined grid; drift compares it against the coarse
    grid.  The squared norms are from the coarse grid (they enter the
    acceptance checks only through generous one-sided comparisons).
    """

    nu: float
    quotient: float
    coarse_quotient: float
    drift: float
    u_norm_sq: float
    x0_norm_sq: float
    op_norm_sq: float
    grid: WitnessGrid


def _witness_on_grid(nu: float, n: int, grid: WitnessGrid):
    big_l = np.log(nu) / 4.0
    extent = grid.extent_factor * np.exp(big_l)
    xs = np.linspace(-extent, extent, n)
    h = xs[1] - xs[0]
    q_grid, p_grid = np.meshgrid(xs, xs, indexing="ij")

    nodes, weights = np.polynomial.legendre.leggauss(grid.s_nodes)
    s_vals = 0.5 * big_l * (nodes + 1.0)
    s_weights = 0.5 * big_l * weights

    u = np.zeros_like(q_grid)
    for s, w in zip(s_vals, s_weights):
        ch, sh = np.cosh(s), np.sinh(s)
        a = ch * q_grid + sh * p_grid
        b = sh * q_grid + ch * p_grid
        u += w * np.exp(-(a * a + b * b) / 2.0)
    u /= big_l * np.sqrt(np.pi)

    def d4(f, axis):
        # fourth-order central first derivative, zero-padded at the margin
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
    op_u = 0.5 * (p_grid * p_grid * u - d2u_p)
    x0_u = p_grid * du_q + q_grid * du_p
    k_u = op_u + np.sqrt(nu) * x0_u

    cell = h * h
    usq = float(np.sum(u[interior] ** 2) * cell)
    x0sq = float(np.sum(x0_u[interior] ** 2) * cell)
    opsq = float(np.sum(op_u[interior] ** 2) * cell)
    ksq = float(np.sum(k_u[interior] ** 2) * cell)
    return ksq / usq, usq, x0sq, opsq


def witness_rayleigh_numeric(nu: float,
                             grid: WitnessGrid | None = None) -> WitnessNumeric:
    """Evaluate the witness Rayleigh quotient on a grid, with refinement.

    Builds u = (1/L) int_0^L phi_s ds by Gauss-Legendre quadrature in s on a
    uniform (q, p) grid, applies the generator with fourth-order finite
    differences, and forms ||K u||^2 / ||u||^2.  The grid is then refined by
    ``refine_factor``; a relative change above ``drift_tol`` raises
    GridUnderResolved.
    """
    if nu <= np.exp(8.0):
        raise ValueError("witness regime needs log(nu)/4 > 2")
    if grid is None:
        grid = WitnessGrid()
    coarse_q, usq, x0sq, opsq = _witness_on_grid(nu, grid.n, grid)
    n_fine = int(round(grid.n * grid.refine_factor))
    if n_fine % 2 == 0:
        n_fine += 1
    fine_q, *_ = _witness_on_grid(nu, n_fine, grid)
    drift = abs(fine_q / coarse_q - 1.0)
    if drift > grid.drift_tol:
        raise GridUnderResolved(
            "quotient drift %.3g above %.3g under refinement"
            % (drift, grid.drift_tol))
    return WitnessNumeric(nu=float(nu), quotient=float(fine_q),
                          coarse_quotient=float(coarse_q), drift=float(drift),
                          u_norm_sq=usq, x0_norm_sq=x0sq, op_norm_sq=opsq,
                          grid=grid)
