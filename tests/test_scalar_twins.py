"""The closed-form scalar layer on Python scalars, bit for bit.

``kfpq.biquat``, ``kfpq.symbols`` and ``kfpq.positivity`` evaluate their
closed forms with ``cmath``, ``math`` and Python complex arithmetic.  The
twins below are the numpy-scalar forms they replaced, kept verbatim: numpy
scalar ufuncs on Python floats and numpy complex division.  Every
comparison is on the bytes of the values, so a moved last bit or a flipped
zero sign fails.
"""

import numpy as np
import pytest

from kfpq.biquat import Biquaternion, _cdiv, _cosh_sinh, _exp, _sqrt
from kfpq.positivity import (_form_difference, delta0, evolved_flow_form,
                             position_flow_form)
from kfpq.symbols import (ModelParams, _flow_factors, hamilton_basis, kappa,
                          kappa0)

ALPHAS = (0.0, np.pi / 2)
NUS = (0.5, 1.0, 4.0, 25.0, 100.0)
# the CLI's 0.05:3:24:log grid, as in test_positivity
HOIST_TS = tuple(float(t) for t in np.geomspace(0.05, 3.0, 24))
UNITS = ("E", "I", "J", "K", "sigma", "T_plus", "T_minus")


def bits(*values):
    return np.array(values, dtype=complex).tobytes()


def coefficient_bits(w):
    return bits(w.a, w.b, w.c, w.d)


# ---------------------------------------------------------------------------
# the numpy-scalar twins


def twin_z(params):
    return np.exp(1j * params.alpha) * np.sqrt(params.nu)


def twin_n1sq(params):
    return 1.0 + 4.0 * params.nu * np.cos(2.0 * params.alpha)


def twin_flow_factors(t, n1sq):
    th2 = 0.25 * t * t * complex(n1sq)
    if abs(th2) < 1e-8:
        c = 1 + th2 / 2 + th2 * th2 / 24
        s = (t / 2) * (1 + th2 / 6 + th2 * th2 / 120)
        return c, s
    n1 = np.sqrt(complex(n1sq))
    th = t * n1 / 2
    return np.cosh(th), np.sinh(th) / n1


def twin_position_flow_form(delta, params, s):
    alpha = params.alpha
    w = delta * np.exp(2j * alpha)
    ch, sh = np.cosh(w), np.sinh(w)
    sa, ca = np.sin(alpha), np.cos(alpha)
    pref = np.exp(s * w)
    return Biquaternion(pref * (s * sa * ch - sh * ca),
                        pref * 1j * (ca * ch - s * sa * sh))


def twin_evolved_flow_form(t, params, s):
    alpha = params.alpha
    z = twin_z(params)
    c, sf = twin_flow_factors(t, twin_n1sq(params))
    p = 1 + 2 * sf * sf
    cs = c * sf
    sa, ca = np.sin(alpha), np.cos(alpha)
    return Biquaternion(s * sa * p - 2 * ca * cs,
                        1j * ca * p - 2j * s * sa * cs,
                        4j * z * ca * sf * sf,
                        -4 * z * s * sa * sf * sf) * np.exp(-s * t)


def twin_form_difference(t, params, sign):
    evolved = twin_evolved_flow_form(t, params, sign)
    growth = np.exp(sign * t)

    def difference(delta):
        return (twin_position_flow_form(delta, params, sign)
                - evolved) * growth
    return difference


def twin_hamilton_basis(alpha):
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
    return dict(E=E, I=I, J=J, K=K, sigma=sigma, T_plus=T_plus,
                T_minus=T_minus)


def twin_kappa(t, params):
    basis = twin_hamilton_basis(params.alpha)
    idm = np.eye(4, dtype=complex)
    c0, s0 = np.cosh(t / 2), np.sinh(t / 2)
    c1, s1 = twin_flow_factors(t, twin_n1sq(params))
    left = c0 * idm + 1j * s0 * basis["E"]
    right = c1 * idm + 1j * s1 * (basis["I"] + 2 * twin_z(params) * basis["J"])
    return left @ right


def twin_kappa0(delta, params):
    basis = twin_hamilton_basis(params.alpha)
    idm = np.eye(4, dtype=complex)
    w = delta * np.exp(2j * params.alpha) / 2
    cw, sw = np.cosh(w), np.sinh(w)
    return ((cw * idm + 1j * sw * basis["E"])
            @ (cw * idm - 1j * sw * basis["I"]))


def twin_sqrt_cos_sinc(nv):
    if abs(nv) < 1e-4:
        c = 1 - nv / 2 + nv * nv / 24 - nv ** 3 / 720
        s = 1 - nv / 6 + nv * nv / 120 - nv ** 3 / 5040
        return c, s
    r = np.sqrt(complex(nv))
    return np.cos(r), np.sin(r) / r


def twin_exp(w):
    c, s = twin_sqrt_cos_sinc(w.vector_norm())
    ea = np.exp(complex(w.a))
    return Biquaternion(ea * c, ea * s * w.b, ea * s * w.c, ea * s * w.d)


def twin_mul(x, y):
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return Biquaternion(a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


# ---------------------------------------------------------------------------
# the flows and forms on the CLI grid


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", NUS)
def test_model_scalars_match_numpy(nu, alpha):
    params = ModelParams(nu=nu, alpha=alpha)
    assert bits(params.z) == bits(twin_z(params))
    assert bits(params.n1sq) == bits(twin_n1sq(params))
    assert bits(params.n1) == bits(np.sqrt(complex(twin_n1sq(params))))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("nu", NUS)
def test_flow_forms_match_numpy(nu, alpha):
    params = ModelParams(nu=nu, alpha=alpha)
    for t in HOIST_TS:
        assert (bits(*_flow_factors(t, params.n1sq))
                == bits(*twin_flow_factors(t, twin_n1sq(params))))
        assert kappa(t, params).matrix.tobytes() \
            == twin_kappa(t, params).tobytes()
        d0 = delta0(t, params)
        deltas = (0.0, 0.5 * d0, d0, 1.5 * d0)
        for sign in (1, -1):
            assert (coefficient_bits(evolved_flow_form(t, params, sign))
                    == coefficient_bits(twin_evolved_flow_form(t, params,
                                                               sign)))
            difference = _form_difference(t, params, sign)
            twin_difference = twin_form_difference(t, params, sign)
            for delta in deltas:
                assert (coefficient_bits(position_flow_form(delta, params,
                                                            sign))
                        == coefficient_bits(
                            twin_position_flow_form(delta, params, sign)))
                assert (coefficient_bits(difference(delta))
                        == coefficient_bits(twin_difference(delta)))
        for delta in deltas:
            assert kappa0(delta, params).matrix.tobytes() \
                == twin_kappa0(delta, params).tobytes()


def test_criterion_3_flows_match_numpy():
    # criterion 3's grid: kappa on 12 times, kappa0 on 6 weights
    for nu in (0.1, 1.0, 10.0):
        for alpha in ALPHAS:
            params = ModelParams(nu=nu, alpha=alpha)
            for t in np.linspace(0.25, 3.0, 12):
                assert kappa(float(t), params).matrix.tobytes() \
                    == twin_kappa(float(t), params).tobytes()
            for d in np.linspace(0.0, 1.0, 6):
                assert kappa0(float(d), params).matrix.tobytes() \
                    == twin_kappa0(float(d), params).tobytes()


def test_criterion_1_algebra_matches_numpy():
    # criterion 1's draws, exponentiated and multiplied pairwise
    rng = np.random.RandomState(0)
    draws = [Biquaternion(*(0.8 * (rng.randn(4) + 1j * rng.randn(4))))
             for _ in range(200)]
    for w, v in zip(draws, draws[1:] + draws[:1]):
        assert coefficient_bits(w.exp()) == coefficient_bits(twin_exp(w))
        assert coefficient_bits(w * v) == coefficient_bits(twin_mul(w, v))


def test_exp_series_branch_and_large_arguments_match_numpy():
    cases = [Biquaternion(0.3, 1e-6, -2e-6, 1j * 1e-6),
             Biquaternion(0.1j, 0.02, 0.0, 0.0),
             # a pure imaginary N(v), where numpy's sqrt takes its own path
             Biquaternion(0.5, 1 + 1j, 0.0, 0.0),
             Biquaternion(705.0, 0.3, 0.1j, 0.0),
             Biquaternion(-2.0, 0.1 + 702j, 0.0, 0.0)]
    for w in cases:
        assert coefficient_bits(w.exp()) == coefficient_bits(twin_exp(w))


# ---------------------------------------------------------------------------
# the scalar helpers against numpy, near the ends of cmath's range


def test_scalar_helpers_match_numpy():
    rng = np.random.RandomState(5)
    for _ in range(2000):
        # each part below 10^2.8 = 631 in modulus
        z = complex(*(rng.uniform(-1.0, 1.0, 2)
                      * 10.0 ** rng.uniform(-3.0, 2.8, 2)))
        w = complex(*rng.standard_normal(2))
        assert bits(_exp(z)) == bits(np.exp(z))
        assert bits(*_cosh_sinh(z)) == bits(np.cosh(z), np.sinh(z))
        assert bits(_sqrt(z)) == bits(np.sqrt(z))
        assert bits(_cdiv(z, w)) == bits(np.complex128(z) / w)
    # pure imaginary and tiny arguments of sqrt, where numpy evaluates
    for z in (3j, -0.5j, complex(1e-300, 2e-300), 0j):
        assert bits(_sqrt(z)) == bits(np.sqrt(z))
    with np.errstate(all="ignore"):
        # exponents past cmath's unscaled range, where numpy evaluates, up to
        # overflow, where cmath raises OverflowError and numpy returns inf
        for z in (complex(709.5, 0.3), complex(-709.9, 1.0), 720.0 + 0j,
                  1000.0 + 0j):
            assert bits(_exp(z)) == bits(np.exp(z))
            assert bits(*_cosh_sinh(z)) == bits(np.cosh(z), np.sinh(z))
        # division by zero, where Python raises ZeroDivisionError
        assert bits(_cdiv(1.0, 0j)) == bits(np.complex128(1.0) / 0j)


# ---------------------------------------------------------------------------
# the per-angle basis


@pytest.mark.parametrize("alpha", ALPHAS + (1e-14, np.pi / 2 - 1e-13))
def test_cached_basis_matches_numpy_build(alpha):
    basis = hamilton_basis(alpha)
    twin = twin_hamilton_basis(alpha)
    for unit in UNITS:
        assert getattr(basis, unit).tobytes() == twin[unit].tobytes()
    assert hamilton_basis(alpha) is basis


@pytest.mark.parametrize("unit", UNITS)
def test_cached_basis_is_read_only(unit):
    array = getattr(hamilton_basis(0.0), unit)
    with pytest.raises(ValueError, match="read-only"):
        array[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        array *= 2.0


def test_basis_keyed_on_exact_angle():
    # an angle inside the admissibility tolerance keeps its own basis, which
    # differs from alpha = 0 exactly where the numpy build does
    near, zero = hamilton_basis(1e-14), hamilton_basis(0.0)
    twin_near, twin_zero = twin_hamilton_basis(1e-14), twin_hamilton_basis(0.0)
    moved = 0
    for unit in UNITS:
        differs = getattr(near, unit) != getattr(zero, unit)
        assert np.array_equal(differs, twin_near[unit] != twin_zero[unit])
        moved += int(np.count_nonzero(differs))
    assert moved > 0
