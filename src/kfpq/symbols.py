"""Quadratic symbols, Hamilton maps, and closed-form flows.

The model operator acts on L^2(R) in normal-form coordinates as

    K = O_p + z * X_alpha,   O_p = (p^2 + D_p^2) / 2,   z = e^{i alpha} sqrt(nu),

where alpha in {0, pi/2} selects an attracting or repelling quadratic
potential and X_alpha is the rotated transport field.  All computations here
happen on Weyl symbols: a symbol of degree two is stored as its symmetric
4x4 Hessian in the phase-space coordinates (q, p, xi_q, xi_p), and the
fundamental matrix (Hamilton map) is obtained by composing with the standard
symplectic form.

The Hamilton maps of the model span a biquaternion line: this module builds
the 4x4 representation E, I, J, K of that algebra together with the two
isotropic-plane isometries T_plus and T_minus that compress it to 2x2
blocks on the invariant planes.  The flows ``kappa`` (model evolution) and
``kappa0`` (position weight twist) are closed forms; scipy.linalg.expm of
the Hamilton map serves as their oracle in the tests, never as the
implementation.

The scalar factors of the flows (``ModelParams.z``, ``n1sq``, ``n1`` and the
flow factors C and S) are evaluated on Python scalars with the helpers of
``kfpq.biquat``, which round as numpy does.  The basis of each angle is
built once and shared: its arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from kfpq.biquat import _cdiv, _cosh_sinh, _exp, _sqrt

__all__ = [
    "PotentialSpec",
    "Constants",
    "ModelParams",
    "HamiltonBasis",
    "CanonicalMap",
    "NonSymmetricInput",
    "constants",
    "hamilton_map",
    "oscillator_p_hessian",
    "rotated_oscillator_hessian",
    "transport_hessian",
    "generator_hessian",
    "hamilton_basis",
    "kappa",
    "kappa0",
]

_ALPHA_TOL = 1e-12
_SYMMETRY_TOL = 1e-12


class NonSymmetricInput(ValueError):
    """A Hessian argument was not symmetric within tolerance."""


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class PotentialSpec:
    """Description of a degree <= 2 potential in diagonal coordinates.

    kind is "quadratic" (nus holds the nonzero Hessian eigenvalues, signed)
    or "linear" (lambda1 >= 0 is the slope coefficient of the affine part;
    nus must be empty).  Zero Hessian directions are simply omitted from nus.
    """

    kind: str
    nus: tuple = ()
    lambda1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("quadratic", "linear"):
            raise ValueError("kind must be 'quadratic' or 'linear', got %r"
                             % (self.kind,))
        object.__setattr__(self, "nus", tuple(float(v) for v in self.nus))
        object.__setattr__(self, "lambda1", float(self.lambda1))
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be nonnegative")
        if self.kind == "linear" and self.nus:
            raise ValueError("linear kind carries no Hessian eigenvalues")


@dataclass(frozen=True)
class Constants:
    """Spectral trace constants and the two derived envelope constants.

    tr_plus sums the positive Hessian eigenvalues, tr_minus sums the moduli
    of the nonpositive ones.  a is the decay-shift constant
    max{(1 + tr_plus)^(2/3), 1 + tr_minus}; b is the subelliptic scale
    max{lambda1^(4/3), (1 + tr_minus) / log(2 + tr_minus)^2}.
    """

    tr_plus: float
    tr_minus: float
    a: float
    b: float


def constants(spec: PotentialSpec) -> Constants:
    tr_plus = sum(v for v in spec.nus if v > 0)
    tr_minus = -sum(v for v in spec.nus if v <= 0)
    a = max((1.0 + tr_plus) ** (2.0 / 3.0), 1.0 + tr_minus)
    b = max(spec.lambda1 ** (4.0 / 3.0),
            (1.0 + tr_minus) / np.log(2.0 + tr_minus) ** 2)
    return Constants(tr_plus=tr_plus, tr_minus=tr_minus, a=a, b=b)


@dataclass(frozen=True)
class ModelParams:
    """One-dimensional normal form parameters.

    nu >= 0 is the modulus of the potential curvature (nu = 0 with
    lambda1 > 0 is the degenerate, linear-potential model).  alpha must be
    0 (repelling potential -nu q^2 / 2) or pi/2 (attracting +nu q^2 / 2).
    """

    nu: float
    alpha: float = 0.0
    lambda1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lambda1", float(self.lambda1))
        if self.nu < 0:
            raise ValueError("nu must be nonnegative; the sign lives in alpha")
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be nonnegative")
        if min(abs(self.alpha), abs(self.alpha - np.pi / 2)) > _ALPHA_TOL:
            raise ValueError("alpha must be 0 or pi/2, got %r" % (self.alpha,))

    @property
    def z(self) -> complex:
        """Rotated curvature coefficient e^{i alpha} sqrt(nu)."""
        return _exp(1j * self.alpha) * math.sqrt(self.nu)

    @property
    def n1sq(self) -> float:
        """1 + 4 z^2, real for the two admissible angles."""
        return 1.0 + 4.0 * self.nu * math.cos(2.0 * self.alpha)

    @property
    def n1(self) -> complex:
        """Principal square root of 1 + 4 z^2."""
        return _sqrt(complex(self.n1sq))

    @property
    def r1(self) -> float:
        """sqrt(4 nu - 1) for the oscillatory attracting regime (nu > 1/4)."""
        if self.nu <= 0.25:
            raise ValueError("r1 is defined only for nu > 1/4")
        return float(np.sqrt(4.0 * self.nu - 1.0))


# ---------------------------------------------------------------------------
# Hessians of the degree-two symbols, coordinates (q, p, xi_q, xi_p)


def oscillator_p_hessian() -> np.ndarray:
    """Hessian of (p^2 + xi_p^2) / 2."""
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = 1.0
    h[3, 3] = 1.0
    return h


def rotated_oscillator_hessian(alpha: float) -> np.ndarray:
    """Hessian of ((e^{i alpha} q)^2 + (e^{-i alpha} xi_q)^2) / 2."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = np.exp(2j * alpha)
    h[2, 2] = np.exp(-2j * alpha)
    return h


def transport_hessian(alpha: float) -> np.ndarray:
    """Hessian of the rotated transport symbol i(e^{-i alpha} p xi_q + e^{i alpha} q xi_p)."""
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2] = h[2, 1] = 1j * np.exp(-1j * alpha)
    h[0, 3] = h[3, 0] = 1j * np.exp(1j * alpha)
    return h


def generator_hessian(params: ModelParams) -> np.ndarray:
    """Hessian of the full model symbol O_p + z X_alpha."""
    return oscillator_p_hessian() + params.z * transport_hessian(params.alpha)


def hamilton_map(hessian) -> np.ndarray:
    """Fundamental matrix of a quadratic symbol given its full Hessian.

    Composes the Hessian with the standard symplectic form so that the map
    sends (x, xi) to (q''_{xi x} x + q''_{xi xi} xi, -q''_{x x} x - q''_{x xi} xi)
    without any extra factor of one half.

    Raises NonSymmetricInput when the input fails symmetry beyond
    ``_SYMMETRY_TOL`` relative to its magnitude.
    """
    h = np.asarray(hessian, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError("expected a 4x4 Hessian, got shape %r" % (h.shape,))
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.T))) > _SYMMETRY_TOL * scale:
        raise NonSymmetricInput("Hessian is not symmetric within %g"
                                % _SYMMETRY_TOL)
    return np.block([[h[2:, :2], h[2:, 2:]],
                     [-h[:2, :2], -h[:2, 2:]]])


# ---------------------------------------------------------------------------
# biquaternion representation on phase space


@dataclass(frozen=True)
class HamiltonBasis:
    """4x4 representation of the biquaternion units adapted to angle alpha.

    E is central with E^2 = -1; I, J, K obey the quaternion relations.
    sigma = sin(alpha) E + cos(alpha) I is the unit appearing in the
    sesquilinear positivity forms.  T_plus and T_minus are the isometric
    4x2 column maps onto the two invariant planes; compressing a flow by
    them yields its 2x2 blocks.  The arrays are read-only, since
    ``hamilton_basis`` hands the same basis to every caller.
    """

    E: np.ndarray
    I: np.ndarray
    J: np.ndarray
    K: np.ndarray
    sigma: np.ndarray
    T_plus: np.ndarray
    T_minus: np.ndarray
    alpha: float


@functools.lru_cache(maxsize=8)
def hamilton_basis(alpha: float) -> HamiltonBasis:
    """The basis adapted to alpha, built once per angle.

    Cached on the exact value of alpha: an angle within ``_ALPHA_TOL`` of 0
    or pi/2 gets a basis of its own, not the one of the angle it is near.
    """
    if min(abs(alpha), abs(alpha - np.pi / 2)) > _ALPHA_TOL:
        raise ValueError("alpha must be 0 or pi/2, got %r" % (alpha,))
    ep = np.exp(1j * alpha)
    e2 = ep * ep
    E = np.array([[0, 0, 1 / e2, 0],
                  [0, 0, 0, -1],
                  [-e2, 0, 0, 0],
                  [0, 1, 0, 0]], dtype=complex)
    I = np.array([[0, 0, -1 / e2, 0],
                  [0, 0, 0, -1],
                  [e2, 0, 0, 0],
                  [0, 1, 0, 0]], dtype=complex)
    J = np.array([[0, -1j / ep, 0, 0],
                  [-1j * ep, 0, 0, 0],
                  [0, 0, 0, 1j * ep],
                  [0, 0, 1j / ep, 0]], dtype=complex)
    K = np.array([[0, 0, 0, -1j / ep],
                  [0, 0, -1j / ep, 0],
                  [0, -1j * ep, 0, 0],
                  [-1j * ep, 0, 0, 0]], dtype=complex)
    sigma = np.sin(alpha) * E + np.cos(alpha) * I
    rt = 1.0 / np.sqrt(2.0)
    T_plus = rt * np.array([[1, 0],
                            [0, 1],
                            [-1j * e2, 0],
                            [0, 1j]], dtype=complex)
    T_minus = rt * np.array([[1, 0],
                             [0, 1],
                             [1j / e2, 0],
                             [0, -1j]], dtype=complex)
    for unit in (E, I, J, K, sigma, T_plus, T_minus):
        unit.flags.writeable = False
    return HamiltonBasis(E=E, I=I, J=J, K=K, sigma=sigma,
                         T_plus=T_plus, T_minus=T_minus, alpha=alpha)


# ---------------------------------------------------------------------------
# closed-form flows


@dataclass(frozen=True)
class CanonicalMap:
    """A 4x4 complex canonical transformation."""

    matrix: np.ndarray


_ID4 = np.eye(4, dtype=complex)
_ID4.flags.writeable = False


def _flow_factors(t: float, n1sq: float):
    """cosh(t n1 / 2) and sinh(t n1 / 2) / n1 as even functions of n1.

    Small |t n1| uses the power series in theta^2 = t^2 n1sq / 4, which keeps
    the pair finite and accurate through n1sq = 0 (the critical curvature).
    """
    th2 = 0.25 * t * t * complex(n1sq)
    if abs(th2) < 1e-8:
        c = 1 + th2 / 2 + th2 * th2 / 24
        s = (t / 2) * (1 + th2 / 6 + th2 * th2 / 120)
        return c, s
    n1 = _sqrt(complex(n1sq))
    ch, sh = _cosh_sinh(t * n1 / 2)
    return ch, _cdiv(sh, n1)


def kappa(t: float, params: ModelParams) -> CanonicalMap:
    """Flow of the model at time t as a closed biquaternion product.

    kappa(t) = (cosh(t/2) Id + i sinh(t/2) E) (C Id + i S (I + 2 z J)) with
    C = cosh(t n1 / 2) and S = sinh(t n1 / 2) / n1.  Satisfies the group
    property in t and equals expm(-i t F_K) for the Hamilton map F_K of the
    model symbol.
    """
    basis = hamilton_basis(params.alpha)
    # real cosh and sinh stay numpy's: libm's round differently
    c0, s0 = np.cosh(t / 2), np.sinh(t / 2)
    c1, s1 = _flow_factors(t, params.n1sq)
    left = c0 * _ID4 + 1j * s0 * basis.E
    right = c1 * _ID4 + 1j * s1 * (basis.I + 2 * params.z * basis.J)
    return CanonicalMap(left @ right)


def kappa0(delta: float, params: ModelParams) -> CanonicalMap:
    """Twisted position-weight flow for weight parameter delta.

    kappa0(delta) = (cosh(w) Id + i sinh(w) E) (cosh(w) Id - i sinh(w) I)
    with w = delta e^{2 i alpha} / 2.  The twist phase in w and the basis
    rotation cancel: for both admissible angles the matrix equals
    expm(+i delta F0) with F0 the Hamilton map of (q^2 + xi_q^2) / 2.
    """
    basis = hamilton_basis(params.alpha)
    cw, sw = _cosh_sinh(delta * _exp(2j * params.alpha) / 2)
    matrix = (cw * _ID4 + 1j * sw * basis.E) @ (cw * _ID4 - 1j * sw * basis.I)
    return CanonicalMap(matrix)

