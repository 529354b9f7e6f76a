"""Algebra checks for the 2x2 complexified quaternion wrapper."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from kfpq.biquat import (_SERIES_CUTOFF, Biquaternion, NonFiniteBiquaternion,
                         SingularBiquaternion, _sqrt_cos_sinc)

EPS = np.finfo(float).eps


def random_biquat(rng, scale=0.8):
    coeffs = scale * (rng.randn(4) + 1j * rng.randn(4))
    return Biquaternion(*coeffs)


def matrix_exp_series(m, terms=80):
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


# images of 1, i, j and k documented in Biquaternion.to_matrix
UNIT_IMAGES = (np.eye(2), np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]]),
               np.array([[0, 1j], [1j, 0]]))


def test_matrix_roundtrip():
    for k, image in enumerate(UNIT_IMAGES):
        unit = Biquaternion(*np.eye(4)[k])
        assert np.array_equal(unit.to_matrix(), image)
    # the unit images are unitary and pairwise orthogonal in the trace
    # pairing, so tr(U^* m) / 2 recovers each coefficient of w from m
    rng = np.random.RandomState(11)
    for _ in range(50):
        w = random_biquat(rng)
        m = w.to_matrix()
        back = [np.trace(u.conj().T @ m) / 2 for u in UNIT_IMAGES]
        assert np.allclose(back, [w.a, w.b, w.c, w.d], rtol=0, atol=1e-14)


def test_multiplication_matches_matrix_product():
    rng = np.random.RandomState(3)
    for _ in range(50):
        u, v = random_biquat(rng), random_biquat(rng)
        direct = (u * v).to_matrix()
        via_matrices = u.to_matrix() @ v.to_matrix()
        assert np.max(np.abs(direct - via_matrices)) < 1e-13


def test_multiplication_associative():
    rng = np.random.RandomState(7)
    for _ in range(30):
        u, v, w = (random_biquat(rng) for _ in range(3))
        left = ((u * v) * w).to_matrix()
        right = (u * (v * w)).to_matrix()
        assert np.max(np.abs(left - right)) < 1e-12


def test_norm_is_determinant():
    rng = np.random.RandomState(5)
    for _ in range(100):
        w = random_biquat(rng)
        det = complex(np.linalg.det(w.to_matrix()))
        assert abs(w.norm() - det) <= 1e-12 * max(1.0, abs(det))


def test_exp_matches_matrix_series():
    rng = np.random.RandomState(0)
    worst = 0.0
    for _ in range(100):
        w = random_biquat(rng)
        closed = w.exp().to_matrix()
        series = matrix_exp_series(w.to_matrix())
        worst = max(worst, float(np.max(np.abs(closed - series))))
    assert worst < 1e-10


def test_exp_inverse_pairs():
    rng = np.random.RandomState(21)
    ident = np.eye(2)
    for _ in range(20):
        w = random_biquat(rng)
        prod = (w.exp() * (-1.0 * w).exp()).to_matrix()
        assert np.max(np.abs(prod - ident)) < 1e-12


def test_exp_small_vector_series_branch():
    # exercise the sinc-style series used below the branch cutoff
    w = Biquaternion(0.3, 1e-6, -2e-6, 1j * 1e-6)
    closed = w.exp().to_matrix()
    series = matrix_exp_series(w.to_matrix())
    assert np.max(np.abs(closed - series)) < 1e-14


def _cos_sinc_mpmath(nv):
    """cos(sqrt(nv)) and sin(sqrt(nv)) / sqrt(nv) at 50 digits."""
    with mpmath.workdps(50):
        nv = mpmath.mpc(nv)
        if nv == 0:
            return mpmath.mpf(1), mpmath.mpf(1)
        r = mpmath.sqrt(nv)
        return mpmath.cos(r), mpmath.sin(r) / r


def _cutoff_pair(unit):
    """Adjacent scales x_lo < x_hi with |x unit| below and at the cutoff."""
    def series(x):
        return abs(x * unit) < _SERIES_CUTOFF

    x = _SERIES_CUTOFF
    while series(x):
        x = math.nextafter(x, math.inf)
    while not series(x):
        x = math.nextafter(x, 0.0)
    return x, math.nextafter(x, math.inf)


# N(v) positive, negative (cos and sinc turn into cosh and sinh), imaginary
# and in general position
@pytest.mark.parametrize("phase", [0.0, math.pi, math.pi / 2, 2.0, -0.7])
def test_cos_sinc_against_mpmath_across_series_switch(phase):
    unit = cmath.exp(1j * phase)
    x_lo, x_hi = _cutoff_pair(unit)
    assert abs(x_lo * unit) < _SERIES_CUTOFF <= abs(x_hi * unit)
    for x in (0.0, 0.1 * x_lo, 0.9 * x_lo, x_lo, x_hi, 1.1 * x_hi,
              10.0 * x_hi):
        nv = x * unit
        for got, ref in zip(_sqrt_cos_sinc(nv), _cos_sinc_mpmath(nv)):
            assert float(abs(got - ref) / abs(ref)) <= 4 * EPS
    # continuity: one ulp of scale apart, the two branches agree to rounding
    for lo, hi in zip(_sqrt_cos_sinc(x_lo * unit), _sqrt_cos_sinc(x_hi * unit)):
        assert abs(hi - lo) <= 4 * EPS * abs(lo)


def test_inverse():
    rng = np.random.RandomState(13)
    ident = np.eye(2)
    for _ in range(50):
        w = random_biquat(rng)
        if abs(w.norm()) < 1e-6:
            continue
        prod = (w * w.inv()).to_matrix()
        assert np.max(np.abs(prod - ident)) < 1e-12


def test_null_element_has_no_inverse():
    w = Biquaternion(1.0, 1j, 0.0, 0.0)
    assert abs(w.norm()) < 1e-15
    with pytest.raises(SingularBiquaternion):
        w.inv()


def test_conjugation_preserves_norm():
    rng = np.random.RandomState(29)
    for _ in range(30):
        w = random_biquat(rng)
        assert abs(w.conj().norm() - w.norm()) < 1e-12


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                 complex(np.inf, 0.0), complex(0.0, np.inf),
                                 complex(-np.inf, 0.0),
                                 complex(0.0, -np.inf)])
def test_non_finite_coefficient_raises(slot, bad):
    coeffs = [0.5 + 0.25j] * 4
    coeffs[slot] = bad
    with pytest.raises(NonFiniteBiquaternion,
                       match="coefficient %s = " % "abcd"[slot]):
        Biquaternion(*coeffs)


@pytest.mark.parametrize("slot", range(3))
def test_non_finite_message_names_the_first_bad_slot(slot):
    coeffs = [1.0] * 4
    coeffs[slot] = np.nan
    coeffs[3] = np.inf
    with pytest.raises(NonFiniteBiquaternion,
                       match=r"coefficient %s = \(nan\+0j\)" % "abcd"[slot]):
        Biquaternion(*coeffs)


def test_large_finite_coefficients_pass():
    big = np.finfo(float).max
    w = Biquaternion(complex(big, -big), -big, complex(0.0, big), 1e300j)
    assert w.a == complex(big, -big) and w.d == 1e300j
