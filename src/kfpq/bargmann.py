"""Holomorphic-side reduction of the attracting quadratic model.

For alpha = pi/2 and nu > 1/4 the model operator is unitarily equivalent to
the first-order flow z . M grad_z on a weighted Fock space, with a 2x2 matrix
M recovered here by eigenvector identification (``reduce``).  Everything
downstream is finite dimensional: the Gram matrix of the flow e^{tM} as a
biquaternion, the Gram eigenvalues lambda_{+/-}, the weighted quotient
Q_t(e'_q) that controls creation-operator decay, and the resulting t^{-3/2}
remainder envelope.  scipy handles the matrix exponentials and the 2x2
generalized eigenproblem used as oracles; the closed forms are the
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from kfpq.biquat import Biquaternion
from kfpq.symbols import ModelParams, generator_hessian, hamilton_map

__all__ = [
    "DegenerateEigenbasis",
    "BargmannReduction",
    "WeightedQuotient",
    "GramEigenvalues",
    "reduce",
    "gram_matrix",
    "gram_eigenvalues",
    "lambda_minus_log_form",
    "quotient",
    "sup_direct_optimization",
    "remainder_bound",
    "quotient_regime_constants",
]

#: c0 = sup_{s >= 0} s e^{-s}, attained at s = 1.
C0 = float(np.exp(-1.0))

#: Small-time limit (and maximum) of nu t^3 / Q_t(e'_q); the regime constant
#: used by the remainder envelope.  Measured maxima over the acceptance grids
#: stay at 6.0 to six digits.
SMALL_TIME_QUOTIENT_CONSTANT = 6.0


class DegenerateEigenbasis(np.linalg.LinAlgError):
    """Eigenvector identification failed (resonant or defective spectrum)."""


@dataclass(frozen=True)
class BargmannReduction:
    """Outcome of the eigenvector identification.

    A_plus and A_minus parametrize the positive and negative invariant
    planes (A_plus = i Id, A_minus = -i Id for this model), B is the
    quadratic coefficient matrix solved by identification, and
    M = (Id - i A_plus) B = 2 B generates the reduced flow.
    """

    A_plus: np.ndarray
    A_minus: np.ndarray
    B: np.ndarray
    M: np.ndarray


class GramEigenvalues(NamedTuple):
    lambda_plus: float
    lambda_minus: float


@dataclass(frozen=True)
class WeightedQuotient:
    """Closed data of the weighted sup at one time.

    Q_t_eq is the quotient Q_t(e'_q) evaluated on the adapted basis vector
    e'_q (the position direction made S_t-orthogonal to e_p), and
    sup_value = 2 c0 / Q_t_eq is the exact supremum of |z_q|^2 e^{-Q_t(z)/2}.
    """

    t: float
    params: ModelParams
    Q_t_eq: float
    lambda_minus: float
    sup_value: float


def _require_oscillatory(params: ModelParams):
    if abs(params.alpha - np.pi / 2) > 1e-12:
        raise ValueError("holomorphic reduction is set up for alpha = pi/2")
    if params.nu <= 0.25:
        raise ValueError("need nu > 1/4 so that r1 is real")


def _trig_factors(t: float, r1: float):
    """C = cos(t r1 / 2) and S = sin(t r1 / 2) / r1 (real flow factors)."""
    half = 0.5 * t * r1
    return np.cos(half), np.sin(half) / r1


def reduce(params: ModelParams, tol: float = 1e-10) -> BargmannReduction:
    """Identify the reduced flow matrix M from the adjoint Hamilton map.

    Splits the eigenvectors of the Hamilton map of the adjoint symbol by the
    sign of Im(lambda), forms A_pm = Y_pm X_pm^{-1} from the position and
    momentum blocks, and solves the linear identification problem for B by
    least squares on the full Hessian.  Raises DegenerateEigenbasis when the
    splitting or the identification degenerates (nu = 1/4 resonance).
    """
    _require_oscillatory(params)
    hess = np.conj(generator_hessian(params))
    fmap = hamilton_map(hess)
    w, v = np.linalg.eig(fmap)
    pos = [k for k in range(4) if w[k].imag > 1e-10]
    neg = [k for k in range(4) if w[k].imag < -1e-10]
    if len(pos) != 2 or len(neg) != 2:
        raise DegenerateEigenbasis(
            "eigenvalues do not split two against two by Im sign")

    def lagrangian_matrix(idx):
        x_block = v[:2, idx]
        y_block = v[2:, idx]
        if np.linalg.cond(x_block) > 1e8:
            raise DegenerateEigenbasis("position block nearly singular")
        return y_block @ np.linalg.inv(x_block)

    a_plus = lagrangian_matrix(pos)
    a_minus = lagrangian_matrix(neg)

    # Candidate Hessian as a linear function of the four entries of B; the
    # identification is an overdetermined linear solve.
    def cand_hessian(b):
        h = np.zeros((4, 4), dtype=complex)
        apbam = a_plus @ b @ a_minus
        h[2:, 2:] = b + b.T
        h[:2, :2] = apbam + apbam.T
        cross = -(b @ a_minus + (a_plus @ b).T)
        h[2:, :2] = cross
        h[:2, 2:] = cross.T
        return h

    cols = []
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            cols.append(cand_hessian(unit).ravel())
    system = np.stack(cols, axis=1)
    coeffs, *_ = np.linalg.lstsq(system, hess.ravel(), rcond=None)
    b = coeffs.reshape(2, 2)
    scale = max(1.0, float(np.max(np.abs(hess))))
    residual = float(np.max(np.abs(cand_hessian(b) - hess)))
    if residual > tol * scale:
        raise DegenerateEigenbasis(
            "identification residual %g exceeds tolerance" % residual)
    m = (np.eye(2) - 1j * a_plus) @ b
    return BargmannReduction(A_plus=a_plus, A_minus=a_minus, B=b, M=m)


def gram_matrix(t: float, params: ModelParams) -> np.ndarray:
    """(e^{tM})^* e^{tM} = e^t(1 + 2S^2 + 2iCS i - 4i sqrt(nu) S^2 k)."""
    _require_oscillatory(params)
    c, s = _trig_factors(t, params.r1)
    gram = Biquaternion(1 + 2 * s * s, 2j * c * s, 0,
                        -4j * np.sqrt(params.nu) * s * s)
    return np.exp(t) * gram.to_matrix()


def gram_eigenvalues(t: float, params: ModelParams) -> GramEigenvalues:
    """Closed eigenvalues of the Gram matrix.

    lambda_pm = e^t (1 + 2S^2 +- 2|S| sqrt(1 + S^2)); lambda_minus stays
    above 1 for every t > 0, which is what makes the Gaussian weight
    integrable on the holomorphic side.
    """
    _require_oscillatory(params)
    if t <= 0:
        raise ValueError("Gram eigenvalues are studied for t > 0")
    _, s = _trig_factors(t, params.r1)
    sa = abs(s)
    root = 2 * sa * np.sqrt(1 + s * s)
    et = np.exp(t)
    return GramEigenvalues(lambda_plus=float(et * (1 + 2 * s * s + root)),
                           lambda_minus=float(et * (1 + 2 * s * s - root)))


def lambda_minus_log_form(t: float, params: ModelParams) -> float:
    """Alternative closed form e^{t - 2 Argsh|S|} of the small Gram eigenvalue."""
    _require_oscillatory(params)
    _, s = _trig_factors(t, params.r1)
    return float(np.exp(t - 2 * np.arcsinh(abs(s))))


def quotient(t: float, params: ModelParams) -> WeightedQuotient:
    """Adapted-basis quotient Q_t(e'_q) and the exact weighted supremum.

    The Gram form S_t = G_t - Id is made block diagonal by replacing e_q
    with e'_q = e_q - (S_t(e_p, e_q)/S_t(e_p, e_p)) e_p; then

        Q_t(e'_q) = 4 (sinh^2(t/2) - S^2) / ((1 - e^{-t}) + 2 S^2 + 2 S C)

    and sup |z_q|^2 e^{-Q_t(z)/2} over C^2 equals 2 c0 / Q_t(e'_q).
    """
    _require_oscillatory(params)
    if t <= 0:
        raise ValueError("quotient is defined for t > 0")
    c, s = _trig_factors(t, params.r1)
    num = 4 * (np.sinh(t / 2) ** 2 - s * s)
    den = (1 - np.exp(-t)) + 2 * s * s + 2 * s * c
    q_val = float(num / den)
    lam_minus = gram_eigenvalues(t, params).lambda_minus
    return WeightedQuotient(t=float(t), params=params, Q_t_eq=q_val,
                            lambda_minus=lam_minus, sup_value=2 * C0 / q_val)


def sup_direct_optimization(t: float, params: ModelParams) -> float:
    """sup of |z_q|^2 e^{-Q_t(z)/2} over z in C^2 from one 2x2 eigenproblem.

    By homogeneity f(r u) = r^2 |u_q|^2 e^{-r^2 Q_t(u)/2} peaks at
    r^2 = 2 / Q_t(u) with value 2 |u_q|^2 / (e Q_t(u)), so the supremum is
    2 c0 times the largest generalized eigenvalue of (e_q e_q^*, S_t) with
    S_t = G_t - Id.  It does not use e'_q, but it is not an unstructured
    search either: by the Schur complement 1 / (S_t^{-1})_qq = Q_t(e'_q),
    so this oracle checks the closed trig formula for Q_t(e'_q) and the
    homogeneity step.
    """
    s_form = gram_matrix(t, params) - np.eye(2)
    e_qq = np.diag([1.0, 0.0])
    top = scipy.linalg.eigh(e_qq, s_form, eigvals_only=True)[-1]
    return float(2 * C0 * top)


def remainder_bound(t: float, params: ModelParams) -> float:
    """Piecewise decay bound for the nu-weighted creation operator.

    Bounds ||sqrt(nu) a_q^* e^{-t(K + nu^{1/3})}|| by the smaller of the
    direct closed expression sqrt(2 c0 nu / Q_t) e^{-t(nu^{1/3} - 1)} and the
    universal envelope sqrt(2 c0 C_q) / t^{3/2} coming from
    nu t^3 / Q_t <= C_q.  Needs nu > 1 so the exponential factor decays.
    """
    _require_oscillatory(params)
    if params.nu <= 1:
        raise ValueError("remainder bound needs nu > 1")
    if t <= 0:
        raise ValueError("remainder bound is defined for t > 0")
    q_val = quotient(t, params).Q_t_eq
    master = np.sqrt(2 * C0 * params.nu / q_val) * np.exp(
        -t * (params.nu ** (1.0 / 3.0) - 1.0))
    envelope = np.sqrt(2 * C0 * SMALL_TIME_QUOTIENT_CONSTANT) / t ** 1.5
    return float(min(master, envelope))


def quotient_regime_constants(nu_values=(1.0, 1e2, 1e4), n_points: int = 80):
    """Fitted constants for the two 1/Q_t regimes.

    c_small = max of nu t^3 / Q_t over t in (0, 4/r1] and c_large = max of
    e^t / Q_t over t in [max(4/r1, 1), 10], both over the given curvatures.
    One pair of constants covers all sampled nu; the small-time constant
    tends to 6 (its analytic limit) and the large-time one stays near 2.
    """
    c_small = 0.0
    c_large = 0.0
    for nu in nu_values:
        p = ModelParams(nu=nu, alpha=np.pi / 2)
        t_edge = 4.0 / p.r1
        for t in np.logspace(np.log10(t_edge) - 3, np.log10(t_edge), n_points):
            q_val = quotient(float(t), p).Q_t_eq
            c_small = max(c_small, nu * t ** 3 / q_val)
        t_lo = max(t_edge, 1.0)
        for t in np.linspace(t_lo, 10.0, n_points):
            q_val = quotient(float(t), p).Q_t_eq
            c_large = max(c_large, np.exp(t) / q_val)
    return float(c_small), float(c_large)
