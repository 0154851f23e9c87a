import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsrigidity import jets

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _sample(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.3, 2.8, n), rng.uniform(0.1, 6.1, n)


def _expr(jt, jp):
    return (
        jets.sinh(jt * 0.4 + jets.cos(jp) * 0.3)
        + jets.sqrt(jt + 1.2) / (jets.cosh(jp * 0.5) + 0.7)
        + jets.log(jets.cos(jt) * 0.9 + 1.2) * jets.arcsinh(jp - 3.0)
        + (jt * jp) * (jt * jp) * (jt * jp) * 1e-2
    )


def _value(theta, phi):
    return _expr(jets.Jet3.constant(theta), jets.Jet3.constant(phi)).f


def test_gradient_matches_central_differences():
    theta, phi = _sample()
    out = _expr(jets.Jet3.variable(theta, 0), jets.Jet3.variable(phi, 1))
    h = 1e-6
    dt = (_value(theta + h, phi) - _value(theta - h, phi)) / (2 * h)
    dp = (_value(theta, phi + h) - _value(theta, phi - h)) / (2 * h)
    assert np.abs(out.d[0] - dt).max() < 5e-8
    assert np.abs(out.d[1] - dp).max() < 5e-8


def test_hessian_matches_central_differences():
    theta, phi = _sample(seed=1)
    out = _expr(jets.Jet3.variable(theta, 0), jets.Jet3.variable(phi, 1))
    h = 1e-4
    dtt = (_value(theta + h, phi) - 2 * _value(theta, phi) + _value(theta - h, phi)) / h**2
    dpp = (_value(theta, phi + h) - 2 * _value(theta, phi) + _value(theta, phi - h)) / h**2
    dtp = (
        _value(theta + h, phi + h)
        - _value(theta + h, phi - h)
        - _value(theta - h, phi + h)
        + _value(theta - h, phi - h)
    ) / (4 * h * h)
    assert np.abs(out.d2[0, 0] - dtt).max() < 1e-4
    assert np.abs(out.d2[1, 1] - dpp).max() < 1e-4
    assert np.abs(out.d2[0, 1] - dtp).max() < 1e-4
    # symmetric up to summation order of the product rule
    sym_err = np.abs(out.d2[0, 1] - out.d2[1, 0])
    assert sym_err.max() <= 1e-13 * max(1.0, np.abs(out.d2).max())


def test_third_order_matches_differenced_hessian():
    theta, phi = _sample(seed=2)

    def hess(t, p):
        return _expr(jets.Jet3.variable(t, 0), jets.Jet3.variable(p, 1)).d2

    out = _expr(jets.Jet3.variable(theta, 0), jets.Jet3.variable(phi, 1))
    h = 1e-6
    d3_t = (hess(theta + h, phi) - hess(theta - h, phi)) / (2 * h)
    d3_p = (hess(theta, phi + h) - hess(theta, phi - h)) / (2 * h)
    assert np.abs(out.d3[:, :, 0] - d3_t).max() < 5e-7
    assert np.abs(out.d3[:, :, 1] - d3_p).max() < 5e-7


def test_division_and_power_consistency():
    theta, phi = _sample(seed=3)
    jt = jets.Jet3.variable(theta, 0)
    a = jt / (jt + 1.0)
    # theta / (theta + 1) = 1 - 1 / (theta + 1): closed-form theta derivatives
    q = 1.0 / (theta + 1.0)
    b = jets.Jet3.constant(theta / (theta + 1.0))
    b.d[0], b.d2[0, 0], b.d3[0, 0, 0] = q**2, -2.0 * q**3, 6.0 * q**4
    for lhs, rhs in ((a.f, b.f), (a.d, b.d), (a.d2, b.d2), (a.d3, b.d3)):
        assert np.abs(lhs - rhs).max() < 1e-13


@deterministic
@given(
    arrays(float, (15, 3), elements=st.floats(-1e3, 1e3)),
    st.floats(-1e3, 1e3),
)
def test_scalar_factor_matches_the_constant_jet_product(parts, c):
    jet = jets.Jet3(parts[0], parts[1:3], parts[3:7].reshape(2, 2, 3),
                    parts[7:15].reshape(2, 2, 2, 3))
    coerced = jet * jets.Jet3.constant(c)
    for scaled in (jet * c, c * jet, jet * np.float64(c)):
        for lhs, rhs in zip((scaled.f, scaled.d, scaled.d2, scaled.d3),
                            (coerced.f, coerced.d, coerced.d2, coerced.d3)):
            assert np.array_equal(lhs, rhs)


def test_azimuth_derivatives_match_arctan():
    theta, phi = _sample(seed=4)
    jt = jets.Jet3.variable(theta, 0)
    jp = jets.Jet3.variable(phi, 1)
    x = jets.cos(jp) * jets.cosh(jt * 0.2)
    y = jets.sin(jp) + jt * 0.3
    az = jets.azimuth(x, y)

    def val(t, p):
        return np.arctan2(np.sin(p) + 0.3 * t, np.cos(p) * np.cosh(0.2 * t))

    assert np.abs(az.f - val(theta, phi)).max() == 0.0
    h = 1e-6
    dp = (val(theta, phi + h) - val(theta, phi - h)) / (2 * h)
    assert np.abs(az.d[1] - dp).max() < 5e-9
    assert np.all(np.isreal(az.d3))


def test_scalar_and_batch_broadcasting():
    jt = jets.Jet3.variable(np.array([0.5, 1.5]), 0)
    out = jt * 2.0 + 1.0
    assert out.f.shape == (2,)
    assert np.allclose(out.d[0], 2.0)
    with pytest.raises((TypeError, ValueError)):
        jets.Jet3.variable(0.5, 0) + "text"
