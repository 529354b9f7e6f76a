"""Fiberwise analysis of the degenerate model (linear potential coupling).

After a Fourier transform in the position variables the degenerate generator
splits into one-dimensional fibers P_b = O_p - 1/2 + i b q with a single
frequency parameter b >= lambda1.  The shifted fiber semigroup norm is
exactly exp(u(t) b^2) with

    u(t) = tanh(t/2) - t/2  < 0  for t > 0,

and all decay statements reduce to suprema of b^2 exp(u b^2) over the
admissible frequencies.  This module provides those scalar objects.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fiber_exponent",
    "fiber_norm",
    "F",
    "optimal_weight",
    "sup_weighted",
    "decay_bound_degenerate",
]


def fiber_exponent(t: float) -> float:
    """u(t) = tanh(t/2) - t/2; strictly negative for t > 0.

    Below |t| = 0.05 the subtraction is replaced by the Taylor series
    -t^3/24 + t^5/240 - 17 t^7/40320 + ..., which keeps full relative
    accuracy where the direct difference would lose leading digits.
    """
    if abs(t) < 0.05:
        t2 = t * t
        return float(t * t2 * (-1.0 / 24.0 + t2 * (1.0 / 240.0 + t2 * (
            -17.0 / 40320.0 + t2 * (62.0 / 1451520.0)))))
    return float(np.tanh(0.5 * t) - 0.5 * t)


def fiber_norm(t: float, b: float) -> float:
    """Weighted fiber quantity b^2 exp(u(t) b^2).

    This is the object whose supremum over b gives the decay rate of the
    frequency-weighted semigroup; b = 0 contributes 0 through the b^2
    factor.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(b * b * np.exp(fiber_exponent(t) * b * b))


def F(t: float) -> float:
    """Small-time profile F(t) = -t^3 exp(u(t)) / u(t) on (0, 1]; F(0+) = 24.

    The series branch of fiber_exponent makes the removable singularity at
    t = 0 harmless: the profile extrapolates cleanly to 24.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("profile is studied on (0, 1]")
    u = fiber_exponent(t)
    return float(-(t ** 3) * np.exp(u) / u)


def optimal_weight(t: float) -> float:
    """Unconstrained maximizer b^2 = -1/u(t) of b^2 exp(u b^2)."""
    if t <= 0:
        raise ValueError("maximizer is defined for t > 0")
    return float(-1.0 / fiber_exponent(t))


def sup_weighted(t: float, lambda1: float = 0.0) -> float:
    """sup over b >= lambda1 of b^2 exp(u(t) b^2), in closed form.

    The unconstrained maximum e^{-1} / (-u) is attained at b^2 = -1/u; when
    lambda1^2 exceeds that point the supremum sits at the boundary.
    """
    if t <= 0:
        raise ValueError("supremum is defined for t > 0")
    if lambda1 < 0:
        raise ValueError("lambda1 must be nonnegative")
    u = fiber_exponent(t)
    b_sq_star = -1.0 / u
    if b_sq_star >= lambda1 ** 2:
        return float(np.exp(-1.0) / (-u))
    return float(lambda1 ** 2 * np.exp(u * lambda1 ** 2))


def decay_bound_degenerate(t: float, lambda1: float = 0.0) -> float:
    """Bound for the normalized weighted semigroup norm of the degenerate model.

    Bounds W(t) = e^{t} ||(D_q^2 + lambda1^2) exp(-t (K_1 + 1))||, which
    equals sup_weighted(t, lambda1) fiber by fiber (the fiber norm of
    exp(-t (K_1 + 1)) at frequency b is e^{-t} e^{u(t) b^2}).  For t <= 1
    the supremum itself is returned; beyond that it is capped by its value
    at the branch point (the supremum is nonincreasing, so the cap never
    increases the bound).  Multiply by e^{-t} to bound the plain operator
    norm, which then carries the large-time decay.
    """
    if t <= 0:
        raise ValueError("bound is defined for t > 0")
    value = sup_weighted(t, lambda1)
    if t > 1.0:
        value = min(value, sup_weighted(1.0, lambda1))
    return float(value)

