"""Biquaternion arithmetic.

Quaternions with complex coefficients form an associative ring with zero
divisors.  The complex-valued quadratic form

    N(w) = a^2 + b^2 + c^2 + d^2

is multiplicative and detects invertibility (it is not a metric norm).  The
ring is isomorphic to the algebra of complex 2x2 matrices; ``to_matrix``
realizes that isomorphism and serves as an independent oracle for the
exponential and the norm form in the test suite.

Conventions: i*j = k, j*k = i, k*i = j, and the scalar imaginary unit of the
coefficients commutes with everything.

Coefficients are Python complex numbers, and the algebra and its
exponential run on Python scalars: ``cmath`` for the elementary functions,
numpy only where the two round differently.  The scalar helpers below
(``_exp``, ``_cosh_sinh``, ``_cos_sin``, ``_sqrt``, ``_cdiv``) are shared
with the closed flows of ``kfpq.symbols`` and ``kfpq.positivity``.  Each
returns numpy's value bit for bit: ``cmath`` agrees with numpy's complex
exp, cosh, sinh, cos, sin and sqrt inside the ranges they test, and numpy
evaluates the rest, so an overflow gives inf (with numpy's warning) where
``cmath`` would raise.  Complex division always goes through numpy, which
scales by a reciprocal where Python divides.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = ["Biquaternion", "NonFiniteBiquaternion", "SingularBiquaternion"]

# Below this modulus of N(v) the exponential switches to even power series in
# N(v); cos and sinc are entire in N(v), so the switch is smooth.
_SERIES_CUTOFF = 1e-4

# Below this exponent cmath and numpy's complex exp, cosh and sinh take the
# same unscaled path (both rescale from about 708 on, in different ways).
_CMATH_RANGE = 700.0

_isfinite = cmath.isfinite
_setattr = object.__setattr__


def _exp(z: complex) -> complex:
    """e^z, rounded as numpy's complex exp."""
    if abs(z.real) < _CMATH_RANGE:
        return cmath.exp(z)
    return complex(np.exp(z))


def _cosh_sinh(z: complex):
    """(cosh z, sinh z), rounded as numpy's complex cosh and sinh."""
    if abs(z.real) < _CMATH_RANGE:
        return cmath.cosh(z), cmath.sinh(z)
    return complex(np.cosh(z)), complex(np.sinh(z))


def _cos_sin(z: complex):
    """(cos z, sin z), rounded as numpy's complex cos and sin."""
    if abs(z.imag) < _CMATH_RANGE:
        return cmath.cos(z), cmath.sin(z)
    return complex(np.cos(z)), complex(np.sin(z))


def _sqrt(z: complex) -> complex:
    """Principal square root, rounded as numpy's complex sqrt.

    numpy special-cases a zero real part and rescales tiny moduli; away
    from those the two agree.
    """
    if abs(z.real) > 1e-150:
        return cmath.sqrt(z)
    return complex(np.sqrt(complex(z)))


def _cdiv(p: complex, q: complex) -> complex:
    """p / q rounded as numpy's complex division, which differs from
    Python's in the last bit for about a quarter of quotients."""
    return complex(np.complex128(p) / q)


class SingularBiquaternion(ZeroDivisionError):
    """Inversion attempted on an element whose norm form vanishes."""


class NonFiniteBiquaternion(ValueError, ArithmeticError):
    """A coefficient is infinite or NaN, as left behind by an overflow."""


def _sqrt_cos_sinc(nv: complex):
    """cos(sqrt(nv)) and sinc(sqrt(nv)) as entire functions of nv.

    Both are even in sqrt(nv), so the branch of the square root is
    irrelevant.  Small |nv| uses the power series to avoid 0/0 in sinc.
    """
    if abs(nv) < _SERIES_CUTOFF:
        c = 1 - nv / 2 + nv * nv / 24 - nv ** 3 / 720
        s = 1 - nv / 6 + nv * nv / 120 - nv ** 3 / 5040
        return c, s
    r = _sqrt(nv)
    cos_r, sin_r = _cos_sin(r)
    return cos_r, _cdiv(sin_r, r)


@dataclass(frozen=True, slots=True, init=False)
class Biquaternion:
    """Quaternion a + b*i + c*j + d*k with complex coefficients.

    Every coefficient is converted to a Python complex and checked finite
    when an element is constructed.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __init__(self, a: complex, b: complex = 0j, c: complex = 0j,
                 d: complex = 0j):
        a = complex(a)
        b = complex(b)
        c = complex(c)
        d = complex(d)
        if not (_isfinite(a) and _isfinite(b) and _isfinite(c)
                and _isfinite(d)):
            name, v = next((name, v) for name, v in zip("abcd", (a, b, c, d))
                           if not _isfinite(v))
            raise NonFiniteBiquaternion("non-finite coefficient %s = %r"
                                        % (name, v))
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "c", c)
        _setattr(self, "d", d)

    # ring structure ----------------------------------------------------

    def __add__(self, other: "Biquaternion") -> "Biquaternion":
        return Biquaternion(self.a + other.a, self.b + other.b,
                            self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Biquaternion") -> "Biquaternion":
        return Biquaternion(self.a - other.a, self.b - other.b,
                            self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Biquaternion":
        return Biquaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            a1, b1, c1, d1 = self.a, self.b, self.c, self.d
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            return Biquaternion(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            )
        return Biquaternion(self.a * other, self.b * other,
                            self.c * other, self.d * other)

    def __rmul__(self, scalar):
        return Biquaternion(self.a * scalar, self.b * scalar,
                            self.c * scalar, self.d * scalar)

    # involutions and norm form ------------------------------------------

    def conj(self) -> "Biquaternion":
        """Quaternionic conjugation (negates the vector part)."""
        return Biquaternion(self.a, -self.b, -self.c, -self.d)

    def vector_norm(self) -> complex:
        """N of the vector part: b^2 + c^2 + d^2."""
        return self.b * self.b + self.c * self.c + self.d * self.d

    def norm(self) -> complex:
        """Multiplicative norm form N = a^2 + b^2 + c^2 + d^2 = det(to_matrix)."""
        return self.a * self.a + self.vector_norm()

    def max_coeff(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def inv(self) -> "Biquaternion":
        """Two-sided inverse conj(w)/N(w).

        Raises SingularBiquaternion when |N| falls below the scale-aware
        tolerance 1e-12 * (1 + max-coefficient^2); zero divisors such as
        1 + (scalar i) * i have N exactly zero.
        """
        n = self.norm()
        m = self.max_coeff()
        tol = 1e-12 * (1.0 + m * m)
        if abs(n) <= tol:
            raise SingularBiquaternion(
                "norm form %r is below tolerance %g" % (n, tol))
        cj = self.conj()
        return Biquaternion(cj.a / n, cj.b / n, cj.c / n, cj.d / n)

    # analytic functions --------------------------------------------------

    def exp(self) -> "Biquaternion":
        """exp(w) = e^a (cos(sqrt(N(v))) + sinc(sqrt(N(v))) v), v the vector part.

        Branch independent: cos and sinc are even, so re-evaluating with the
        negated root gives the same element.
        """
        c, s = _sqrt_cos_sinc(self.vector_norm())
        ea = _exp(self.a)
        eas = ea * s
        return Biquaternion(ea * c, eas * self.b, eas * self.c, eas * self.d)

    # matrix representation ----------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Image under the isomorphism with complex 2x2 matrices.

        i maps to diag(i, -i), j to [[0, 1], [-1, 0]], k to [[0, i], [i, 0]].
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.array([[a + 1j * b, c + 1j * d],
                         [-c + 1j * d, a - 1j * b]])
