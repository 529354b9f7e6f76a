"""Positivity window for the conjugated position weight.

Conjugating the model semigroup by the twisted position-weight flow stays
bounded exactly as long as the difference of two sesquilinear forms on an
invariant plane of the flow is positive semidefinite.  Both forms are
biquaternions a + b I + c J + d K in the units of ``hamilton_basis(alpha)``,
with closed coefficients:

* ``position_flow_form``   the weight side, depending on delta only,
* ``evolved_flow_form``    the evolved model side, depending on t only.

On the plane selected by ``sign`` (T_plus for +1, T_minus for -1) the
units I, J, K compress to anti-Hermitian 2x2 matrices that square to -1,
so the determinant of the difference is its norm form
a^2 + b^2 + c^2 + d^2 and the smallest eigenvalue of its Hermitian part is
Re a - |(Im b, Im c, Im d)|; ``positivity_report`` reads both off the
coefficients.  The evolved side is formed once per (t, sign), so a sweep
or a root-find in delta pays only for the weight side's two coefficients
and one ``Biquaternion``, the difference.  The determinant vanishes at an
explicit threshold delta0(t) > 0, and positivity holds for
0 <= delta < delta0(t).  For small t the threshold behaves like
nu t^3 / 12, which is what makes the weight useful: ``delta0`` evaluates
the closed logarithm with a series-protected bracket and an accurate
complex log1p, so the cubic regime survives in floating point, and
``position_weight_decay_bound`` turns the threshold into the decay envelope
of the weighted semigroup.

The coefficients and the threshold are evaluated on Python scalars with the
helpers of ``kfpq.biquat``, which round as numpy does.  The real exp and
sinh of t stay numpy's, since libm rounds them differently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from kfpq.biquat import (Biquaternion, NonFiniteBiquaternion, _cdiv,
                         _cosh_sinh, _exp)
from kfpq.symbols import ModelParams, _flow_factors, hamilton_basis

__all__ = [
    "NonRealDelta0",
    "NonFiniteDeterminant",
    "PositivityReport",
    "position_flow_form",
    "evolved_flow_form",
    "hermitian_difference",
    "positivity_report",
    "delta0",
    "position_weight_decay_bound",
]


_IMAG_TOL = 1e-10
_EPSILON0 = 0.5
# Past this t n1 (n1 real) ``delta0`` takes its ratio from A and X scaled by
# e^{-t n1}: unscaled, X ~ e^{t n1} / (2 n1) overflows near
# t n1 = 709.8 + log(2 n1), a little before A ~ e^{t n1} / (2 n1^2) does.
_SCALED_SWITCH = 700.0


class NonRealDelta0(ArithmeticError):
    """The closed threshold came out non-finite or not real."""


class NonFiniteDeterminant(ArithmeticError):
    """The determinant of the form difference, or its scale, overflowed."""


@dataclass(frozen=True)
class PositivityReport:
    """Decomposition of the form difference at one (t, delta) pair.

    coeffs holds (a, b, c, d) of the normalized difference
    w = e^{sign*t} (position form - evolved form) = a + b I + c J + d K.
    det_value is its norm form a^2 + b^2 + c^2 + d^2, the determinant of
    its 2x2 compression, which vanishes at delta = delta0(t).
    det_residual is |det_value| / (1 + max|coeff|^2).
    min_eigenvalue is the smallest eigenvalue of the Hermitian part of that
    compression, Re a - |(Im b, Im c, Im d)|.
    """

    t: float
    delta: float
    coeffs: np.ndarray
    det_value: complex
    det_residual: float
    min_eigenvalue: float
    is_positive: bool


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    return sign


def _position_coefficients(delta: float, alpha: float, s: int):
    """a and b of the weight-side form; its c and d vanish."""
    w = delta * _exp(2j * alpha)
    ch, sh = _cosh_sinh(w)
    sa, ca = math.sin(alpha), math.cos(alpha)
    pref = _exp(s * w)
    return (pref * (s * sa * ch - sh * ca),
            pref * 1j * (ca * ch - s * sa * sh))


def position_flow_form(delta: float, params: ModelParams,
                       sign: int) -> Biquaternion:
    """Weight-side form: closed in cosh and sinh of delta e^{2 i alpha}."""
    s = _check_sign(sign)
    return Biquaternion(*_position_coefficients(delta, params.alpha, s))


def evolved_flow_form(t: float, params: ModelParams,
                      sign: int) -> Biquaternion:
    """Evolved-side form: closed in the flow factors C, S at time t."""
    s = _check_sign(sign)
    alpha = params.alpha
    z = params.z
    c, sf = _flow_factors(t, params.n1sq)
    p = 1 + 2 * sf * sf
    cs = c * sf
    sa, ca = math.sin(alpha), math.cos(alpha)
    # the real exp stays numpy's: libm's rounds differently
    decay = np.exp(-s * t)
    return Biquaternion((s * sa * p - 2 * ca * cs) * decay,
                        (1j * ca * p - 2j * s * sa * cs) * decay,
                        4j * z * ca * sf * sf * decay,
                        -4 * z * s * sa * sf * sf * decay)


def hermitian_difference(t: float, delta: float, params: ModelParams,
                         sign: int) -> np.ndarray:
    """Weight-side form minus evolved-side form as a 2x2 matrix.

    The compression T^* (a + b I + c J + d K) T of the difference to the
    sign's invariant plane (T_plus for +1, T_minus for -1) in
    ``hamilton_basis(alpha)``; Hermitian for real inputs.
    """
    s = _check_sign(sign)
    w = (position_flow_form(delta, params, s)
         - evolved_flow_form(t, params, s))
    basis = hamilton_basis(params.alpha)
    frame = basis.T_plus if s == 1 else basis.T_minus
    full = w.a * np.eye(4) + w.b * basis.I + w.c * basis.J + w.d * basis.K
    return frame.conj().T @ full @ frame


def _form_difference(t: float, params: ModelParams, sign: int):
    """The map delta -> w = e^{sign t} (position form(delta) - evolved form(t)).

    The evolved side and e^{sign t} depend on t only and are formed once, so
    each evaluation costs the weight side's coefficients and one
    ``Biquaternion``, the difference itself.
    """
    # past the flow factors' double range the evolved side overflows: that
    # is reported as the determinant it leaves non-finite, naming t, and
    # without numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            evolved = evolved_flow_form(t, params, sign)
        except NonFiniteBiquaternion as exc:
            raise NonFiniteDeterminant("evolved form at t=%g: %s"
                                       % (t, exc)) from None
    growth = np.exp(sign * t)
    alpha = params.alpha
    # the weight side has no c and d, so these are fixed by t
    c = (0j - evolved.c) * growth
    d = (0j - evolved.d) * growth

    def difference(delta: float) -> Biquaternion:
        a, b = _position_coefficients(delta, alpha, sign)
        return Biquaternion((a - evolved.a) * growth,
                            (b - evolved.b) * growth, c, d)
    return difference


def _checked_determinant(w: Biquaternion, t: float, delta: float):
    """(det, scale) of w: its norm form and 1 + max|coeff|^2.

    Raises NonFiniteDeterminant, naming t and delta, if either overflowed.
    The square is a float power, which rounds as numpy's scalar power does;
    Python's abs and power raise OverflowError where numpy returns inf.
    """
    det = w.norm()
    try:
        scale = 1.0 + w.max_coeff() ** 2
    except OverflowError:
        scale = math.inf
    if not (cmath.isfinite(det) and math.isfinite(scale)):
        raise NonFiniteDeterminant("determinant %r, scale %g at t=%g, delta=%g"
                                   % (det, scale, t, delta))
    return det, scale


def _report(t: float, delta: float, w: Biquaternion) -> PositivityReport:
    """The report of the form difference w at (t, delta)."""
    det, scale = _checked_determinant(w, t, delta)
    min_eig = w.a.real - math.hypot(w.b.imag, w.c.imag, w.d.imag)
    return PositivityReport(t=float(t), delta=float(delta),
                            coeffs=np.array([w.a, w.b, w.c, w.d]),
                            det_value=det, det_residual=float(abs(det) / scale),
                            min_eigenvalue=min_eig, is_positive=min_eig > 0.0)


def positivity_report(t: float, delta: float, params: ModelParams,
                      sign: int) -> PositivityReport:
    return _report(t, delta, _form_difference(t, params, sign)(delta))


# ---------------------------------------------------------------------------
# the closed threshold


def _bracket(t: float, n1sq: float, s: complex | None = None) -> complex:
    """2 S^2 - (cosh t - 1), series-protected against cancellation.

    The two terms agree through order t^2, so for |t n1| < 1/2 the closed
    difference is evaluated as the tail series
    sum_{k>=2} t^{2k} (n1sq^{k-1} - 1) / (2k)! instead.  Above the switch
    cosh t - 1 is taken as 2 sinh^2(t/2), which keeps its relative accuracy
    where t is small and |n1| large, and S is s if the caller has it from
    ``_flow_factors``, else evaluated here.
    """
    if abs(t) * math.sqrt(abs(n1sq)) < 0.5:
        total = 0j
        fact = 24.0
        pw = complex(n1sq)
        k = 2
        while True:
            total += t ** (2 * k) * (pw - 1.0) / fact
            # individual terms can vanish (n1sq^{k-1} = 1), so terminate on
            # the sign-insensitive envelope instead of the term itself
            envelope = t ** (2 * k) * (abs(pw) + 1.0) / fact
            if envelope < 1e-30 * (1.0 + abs(total)) or k > 60:
                break
            k += 1
            fact *= (2 * k - 1) * (2 * k)
            pw *= n1sq
        return total
    if s is None:
        s = _flow_factors(t, n1sq)[1]
    return 2 * s * s - 2.0 * np.sinh(0.5 * t) ** 2


def _scaled_ratio(t: float, n1: float) -> float:
    """2 A / (X - A) of ``delta0`` for real n1 > 0, with A and X scaled by
    e^{-t n1}.

    With E = e^{-t n1} the scaled factors are C e^{-t n1/2} = (1 + E) / 2,
    S e^{-t n1/2} = (1 - E) / (2 n1),
    sinh(t/2) e^{-t n1/2} = (e^{t (1-n1)/2} - e^{-t (1+n1)/2}) / 2 and
    sinh(t) e^{-t n1} = (e^{t (1-n1)} - e^{-t (1+n1)}) / 2, none of which
    overflows for n1 >= 1 however large t n1 is.  Past ``_SCALED_SWITCH``
    E is below e^{-700}, and the ratio is 2 / (n1 - 1) to rounding at
    large n1.
    """
    e = np.exp(-t * n1)
    c = 0.5 * (1.0 + e)
    s = 0.5 * (1.0 - e) / n1
    half = 0.5 * (np.exp(0.5 * t * (1.0 - n1)) - np.exp(-0.5 * t * (1.0 + n1)))
    sinh_t = 0.5 * (np.exp(t * (1.0 - n1)) - np.exp(-t * (1.0 + n1)))
    a = 2.0 * s * s - 2.0 * half * half
    x = 2.0 * c * s + sinh_t
    return float(2.0 * a / (x - a))


def _log1p(z: complex) -> complex:
    """log(1 + z), accurate relative to z however small |z| is.

    numpy's complex log1p forms 1 + z first, which keeps only about eps / |z|
    of relative accuracy.  With z = x + i y this takes
    Re = log1p(2x + x^2 + y^2) / 2 and Im = atan2(y, 1 + x); z = -1 gives
    a real part of -inf.
    """
    x, y = z.real, z.imag
    u = 2.0 * x + x * x + y * y
    re = 0.5 * math.log1p(u) if u > -1.0 else -math.inf
    return complex(re, math.atan2(y, 1.0 + x))


def delta0(t: float, params: ModelParams) -> float:
    """Positivity threshold: the positive root of the determinant in delta.

    delta0(t) = (e^{-2 i alpha} / 2) log(1 + 2 A / (X - A)) with
    A = 2 S^2 - (cosh t - 1) and X = 2 C S + sinh t.  The series bracket and
    the accurate log1p of ``_log1p`` keep the small-t cubic regime
    delta0 ~ nu t^3 / 12: over nu in {1e-3, 0.5, 4, 1e4}, both angles and
    t in [1e-8, 3] the value is within 1.4e-12 of a 60-digit evaluation of
    the same formula.  For real n1 with t n1 past ``_SCALED_SWITCH`` the
    ratio 2 A / (X - A) is formed from A and X scaled by e^{-t n1}
    (``_scaled_ratio``), where unscaled X would overflow; the threshold
    then tends to log((n1 + 1) / (n1 - 1)) / 2.

    Raises NonRealDelta0 if the closed expression is not finite or if its
    imaginary part exceeds ``_IMAG_TOL`` relative to the real part.
    """
    if t <= 0:
        raise ValueError("the threshold is defined for t > 0")
    n1sq = params.n1sq
    # an overflow leaves a non-finite value, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        if n1sq > 0.0 and t * math.sqrt(n1sq) > _SCALED_SWITCH:
            ratio = complex(_scaled_ratio(t, math.sqrt(n1sq)))
        else:
            c, s = _flow_factors(t, n1sq)
            a = _bracket(t, n1sq, s)
            # the real sinh stays numpy's: libm's rounds differently
            x = 2 * c * s + np.sinh(t)
            ratio = _cdiv(2 * a, x - a)
        val = _exp(-2j * params.alpha) / 2 * _log1p(ratio)
    if not cmath.isfinite(val):
        raise NonRealDelta0("threshold is %r at t=%g" % (val, t))
    scale = max(1.0, abs(val.real))
    if abs(val.imag) > _IMAG_TOL * scale:
        raise NonRealDelta0(
            "threshold has imaginary part %g at t=%g" % (val.imag, t))
    return float(val.real)


def position_weight_decay_bound(t: float, params: ModelParams) -> float:
    """Decay envelope of the position-weighted semigroup.

    With delta(t) = delta0(t) / 2 and t0 = _EPSILON0 / (1 + sqrt(nu)):

        t <= t0:  sqrt(nu / delta(t))  c1 e^{-t sqrt(nu)}
        t >  t0:  sqrt(nu / delta(t0)) c1 e^{-t sqrt(nu)} e^{-(t - t0)/2}

    where c1 = sqrt(1/2) e^{-1/2}.  The two branches agree at t = t0.
    """
    if params.nu <= 0:
        raise ValueError("decay envelope needs nu > 0")
    if t <= 0:
        raise ValueError("decay envelope is defined for t > 0")
    c1 = np.sqrt(0.5) * np.exp(-0.5)
    rnu = np.sqrt(params.nu)
    t0 = _EPSILON0 / (1.0 + rnu)
    if t <= t0:
        d = delta0(t, params) / 2.0
        return float(np.sqrt(params.nu / d) * c1 * np.exp(-t * rnu))
    d0 = delta0(t0, params) / 2.0
    return float(np.sqrt(params.nu / d0) * c1
                 * np.exp(-t * rnu) * np.exp(-(t - t0) / 2.0))
