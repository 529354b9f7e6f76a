"""Biquaternion arithmetic.

Quaternions with complex coefficients form an associative ring with zero
divisors.  The complex-valued quadratic form

    N(w) = a^2 + b^2 + c^2 + d^2

is multiplicative and detects invertibility (it is not a metric norm).  The
ring is isomorphic to the algebra of complex 2x2 matrices; ``to_matrix``
realizes that isomorphism and serves as an independent oracle for the
exponential and the spectrum in the test suite.

Conventions: i*j = k, j*k = i, k*i = j, and the scalar imaginary unit of the
coefficients commutes with everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Biquaternion", "NonFiniteBiquaternion", "SingularBiquaternion"]

# Below this modulus of N(v) the exponential switches to even power series in
# N(v); cos and sinc are entire in N(v), so the switch is smooth.
_SERIES_CUTOFF = 1e-4


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
    r = np.sqrt(complex(nv))
    return np.cos(r), np.sin(r) / r


@dataclass(frozen=True)
class Biquaternion:
    """Quaternion a + b*i + c*j + d*k with complex coefficients."""

    a: complex
    b: complex = 0j
    c: complex = 0j
    d: complex = 0j

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = complex(getattr(self, name))
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise NonFiniteBiquaternion("non-finite coefficient %s = %r"
                                            % (name, v))
            object.__setattr__(self, name, v)

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

    def inv(self, tol: float | None = None) -> "Biquaternion":
        """Two-sided inverse conj(w)/N(w).

        Raises SingularBiquaternion when |N| falls below the scale-aware
        tolerance 1e-12 * (1 + max-coefficient^2); zero divisors such as
        1 + (scalar i) * i have N exactly zero.
        """
        n = self.norm()
        if tol is None:
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
        ea = np.exp(complex(self.a))
        return Biquaternion(ea * c, ea * s * self.b, ea * s * self.c,
                            ea * s * self.d)

    def spectrum(self):
        """Eigenvalues a +- sqrt(-N(v)) of the 2x2 matrix image."""
        s = np.sqrt(complex(-self.vector_norm()))
        return (self.a + s, self.a - s)

    # matrix representation ----------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Image under the isomorphism with complex 2x2 matrices.

        i maps to diag(i, -i), j to [[0, 1], [-1, 0]], k to [[0, i], [i, 0]].
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.array([[a + 1j * b, c + 1j * d],
                         [-c + 1j * d, a - 1j * b]])

    @classmethod
    def from_matrix(cls, m) -> "Biquaternion":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix, got shape %r" % (m.shape,))
        return cls((m[0, 0] + m[1, 1]) / 2,
                   (m[0, 0] - m[1, 1]) / 2j,
                   (m[0, 1] - m[1, 0]) / 2,
                   (m[0, 1] + m[1, 0]) / 2j)
