import numpy as np
import pytest

import jet_oracle as jets
from dsrigidity import jets as lifts


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


def test_division_and_power_consistency():
    theta, phi = _sample(seed=3)
    jt = jets.Jet3.variable(theta, 0)
    a = jt / (jt + 1.0)
    # theta / (theta + 1) = 1 - 1 / (theta + 1): closed-form theta derivatives
    q = 1.0 / (theta + 1.0)
    b = jets.Jet3.constant(theta / (theta + 1.0))
    b.d[0], b.d2[0, 0] = q**2, -2.0 * q**3
    for lhs, rhs in ((a.f, b.f), (a.d, b.d), (a.d2, b.d2)):
        assert np.abs(lhs - rhs).max() < 1e-13


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


def test_scalar_and_batch_broadcasting():
    jt = jets.Jet3.variable(np.array([0.5, 1.5]), 0)
    out = jt * 2.0 + 1.0
    assert out.f.shape == (2,)
    assert np.allclose(out.d[0], 2.0)
    with pytest.raises((TypeError, ValueError)):
        jets.Jet3.variable(0.5, 0) + "text"


def test_transport_lifts_match_the_oracle_jets():
    theta, phi = _sample(seed=5)
    jt = jets.Jet3.variable(theta, 0)
    jp = jets.Jet3.variable(phi, 1)
    a = jets.cos(jp) * jets.cosh(jt * 0.2) - jt * 0.1
    b = jets.sin(jp) + jt * 0.3 + jp * jp * 0.05
    pa, pb = ((j.f, j.d, j.d2) for j in (a, b))
    pairs = (
        (lifts.arcsinh(pa), jets.arcsinh(a)),
        (lifts.hypot(pa, pb), jets.sqrt(a * a + b * b)),
        (lifts.atan2(pb, pa), jets.azimuth(a, b)),
    )
    for lifted, oracle in pairs:
        for lhs, rhs in zip(lifted, (oracle.f, oracle.d, oracle.d2), strict=True):
            assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())
        # each Hessian is symmetric term by term
        assert np.array_equal(lifted[2][0, 1], lifted[2][1, 0])
