import math

import numpy as np
import pytest

from dsrigidity import ambient
from dsrigidity.errors import ChartPole, OffShell


def move(iso, point):
    """Image of a point under an isometry, through the pseudosphere model."""
    return ambient.unembed(iso.matrix @ ambient.embed(point))


def random_point(rng, rho_span=1.5):
    return ambient.DeSitterPoint.from_angles(
        rng.uniform(-rho_span, rho_span),
        rng.uniform(0.2, math.pi - 0.2),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def test_embed_examples():
    p = ambient.DeSitterPoint(0.0, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(ambient.embed(p), [0.0, 1.0, 0.0, 0.0])
    p = ambient.DeSitterPoint(1.0, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(
        ambient.embed(p), [math.sinh(1.0), 0.0, 0.0, math.cosh(1.0)]
    )


def test_embedding_stays_on_pseudosphere_and_round_trips():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = random_point(rng)
        x = ambient.embed(p)
        assert abs(x @ ambient.ETA @ x - 1.0) < 1e-12
        q = ambient.unembed(x)
        assert abs(q.rho - p.rho) < 1e-12
        assert np.abs(q.omega - p.omega).max() < 1e-12


def test_unembed_rejects_off_shell():
    with pytest.raises(OffShell):
        ambient.unembed([0.0, 2.0, 0.0, 0.0])


def test_christoffel_closed_forms():
    gam = ambient.christoffel_components(1.0, 1.0)
    assert abs(gam[0, 1, 1] - math.cosh(1.0) * math.sinh(1.0)) < 1e-12
    assert abs(gam[1, 0, 1] - math.tanh(1.0)) < 1e-12
    assert abs(gam[0, 1, 1] - 1.8134302039235093) < 1e-12
    assert abs(gam[1, 0, 1] - 0.7615941559557649) < 1e-12
    # equator: all radial symbols vanish
    gam0 = ambient.christoffel_components(0.0, 1.0)
    assert np.abs(gam0[0]).max() == 0.0
    # lower-index symmetry
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = ambient.christoffel_components(
            rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.8)
        )
        assert np.abs(g - np.swapaxes(g, 1, 2)).max() == 0.0


def test_metric_compatibility_by_finite_differences():
    # nabla g = 0: d_c g_ab = Gamma^d_{ca} g_db + Gamma^d_{cb} g_ad
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(50):
        rho = rng.uniform(-1.5, 1.5)
        theta = rng.uniform(0.3, math.pi - 0.3)
        gam = ambient.christoffel_components(rho, theta)
        g = ambient.metric_components(rho, theta)
        for c, (dr, dt) in enumerate(((h, 0.0), (0.0, h))):
            dg = (
                ambient.metric_components(rho + dr, theta + dt)
                - ambient.metric_components(rho - dr, theta - dt)
            ) / (2 * h)
            rhs = np.einsum("da,db->ab", gam[:, c, :], g) + np.einsum(
                "db,ad->ab", gam[:, c, :], g
            )
            assert np.abs(dg - rhs).max() < 1e-6


def test_sectional_curvature_is_one_by_finite_differences():
    # R_abcd = g_ac g_bd - g_ad g_bc for a space form of curvature +1
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        rho = rng.uniform(-1.2, 1.2)
        theta = rng.uniform(0.4, math.pi - 0.4)

        def gamma(dr, dt):
            return ambient.christoffel_components(rho + dr, theta + dt)

        dgam = np.zeros((3, 3, 3, 3))  # derivative axis first; phi is Killing
        dgam[0] = (gamma(h, 0) - gamma(-h, 0)) / (2 * h)
        dgam[1] = (gamma(0, h) - gamma(0, -h)) / (2 * h)
        gam = gamma(0.0, 0.0)
        g = ambient.metric_components(rho, theta)

        riem = (
            np.einsum("cadb->abcd", dgam)
            - np.einsum("dacb->abcd", dgam)
            + np.einsum("ace,edb->abcd", gam, gam)
            - np.einsum("ade,ecb->abcd", gam, gam)
        )
        lowered = np.einsum("ae,ebcd->abcd", g, riem)
        target = np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
        assert np.abs(lowered - target).max() < 2e-5


def test_conformal_field_identity_at_random_points():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        p = random_point(rng)
        u = rng.uniform(-1.0, 1.0, 3)
        w = rng.uniform(-1.0, 1.0, 3)
        worst = max(worst, abs(ambient.lie_derivative_residual(p, u, w)))
    assert worst <= 1e-10


def test_isometries_preserve_the_lorentz_form():
    rng = np.random.default_rng(5)
    isos = [
        ambient.boost(0.3, [1.0, 0.0, 0.0]),
        ambient.boost(-0.7, [0.0, 1.0, 0.0]),
        ambient.rotation(1.2, [0.0, 0.0, 1.0]),
        ambient.rotation(-0.4, [1.0, 1.0, 1.0]),
        ambient.reflect_equator(),
    ]
    for _ in range(20):
        a, b = rng.choice(len(isos), 2)
        m = (isos[a] @ isos[b]).matrix
        assert np.abs(m.T @ ambient.ETA @ m - ambient.ETA).max() < 1e-12


def test_boost_examples():
    assert np.abs(ambient.boost(0.0, [1, 0, 0]).matrix - np.eye(4)).max() == 0.0
    b = ambient.boost(0.4, [1.0, 0.0, 0.0])
    binv = ambient.boost(-0.4, [1.0, 0.0, 0.0])
    assert np.abs((b @ binv).matrix - np.eye(4)).max() < 1e-12
    x = b.matrix @ np.array([0.0, 1.0, 0.0, 0.0])
    assert abs(x @ ambient.ETA @ x - 1.0) < 1e-12
    np.testing.assert_allclose(x[:2], [math.sinh(0.4), math.cosh(0.4)], atol=1e-15)
    with pytest.raises(ValueError):
        ambient.boost(0.3, [2.0, 0.0, 0.0])


def test_equator_reflection():
    refl = ambient.reflect_equator()
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_point(rng)
        q = move(refl, p)
        assert abs(q.rho + p.rho) < 1e-12
        assert np.abs(q.omega - p.omega).max() < 1e-12
    # fixes the equator, squares to the identity
    eq = ambient.DeSitterPoint.from_angles(0.0, 1.0, 2.0)
    fixed = move(refl, eq)
    assert abs(fixed.rho) < 1e-15
    assert np.abs((refl @ refl).matrix - np.eye(4)).max() == 0.0


def test_rotation_moves_the_direction():
    rot = ambient.rotation(math.pi / 2.0, [0.0, 0.0, 1.0])
    p = ambient.DeSitterPoint(0.3, [1.0, 0.0, 0.0])
    q = move(rot, p)
    assert abs(q.rho - 0.3) < 1e-12
    np.testing.assert_allclose(q.omega, [0.0, 1.0, 0.0], atol=1e-12)
    ident = ambient.identity_isometry()
    r = move(ident, p)
    assert abs(r.rho - p.rho) < 1e-15


def test_lie_derivative_guards_the_poles():
    with pytest.raises(ChartPole):
        ambient.lie_derivative_residual(
            ambient.DeSitterPoint(0.2, [0.0, 0.0, 1.0]), [1.0, 0, 0], [0, 1.0, 0]
        )
    c2 = math.cosh(0.5) ** 2
    np.testing.assert_allclose(
        ambient.metric_components(0.5, 1.0),
        np.diag([-1.0, c2, c2 * math.sin(1.0) ** 2]),
        atol=1e-14,
    )
