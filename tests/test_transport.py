import gc
import math

import numpy as np
import pytest

from dsrigidity import ambient, geometry, kernels, transport
from dsrigidity.errors import NotAGraph
from dsrigidity.quadrature import gauss_sphere_rule
from dsrigidity.surfaces import AnalyticSurface


def target_angles(corr, theta, phi):
    """Image chart angles and height by arccos, independent of the jet route."""
    lam = corr.iso.matrix
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    y = corr.surface.height_jet(theta, phi)
    x = np.stack([j.f for j in transport._embedded_jets(y, theta, phi)])
    xt = np.einsum("ab,b...->a...", lam, x)
    r = np.sqrt(xt[1] ** 2 + xt[2] ** 2 + xt[3] ** 2)
    theta_t = np.arccos(np.clip(xt[3] / r, -1.0, 1.0))
    phi_t = np.arctan2(xt[2], xt[1]) % (2.0 * math.pi)
    return theta_t, phi_t, np.arcsinh(xt[0])


def test_boosted_slice_heights_match_closed_form(scattered_nodes):
    theta, phi = scattered_nodes
    surf = AnalyticSurface(0.6)
    alpha = 0.25
    corr = transport.IsometryCorrespondence(surf, ambient.boost(alpha, [1.0, 0, 0]))
    _, _, rho_t = target_angles(corr, theta, phi)
    s0, c0 = math.sinh(0.6), math.cosh(0.6)
    x0 = math.cosh(alpha) * s0 + math.sinh(alpha) * c0 * np.sin(theta) * np.cos(phi)
    np.testing.assert_allclose(rho_t, np.arcsinh(x0), atol=1e-13)


def test_correspondence_jacobian_matches_finite_differences(perturbed_surface):
    iso = ambient.boost(0.3, [0.0, 1.0, 0.0])
    corr = transport.IsometryCorrespondence(perturbed_surface, iso)
    rng = np.random.default_rng(2)
    theta = rng.uniform(0.5, 2.6, 20)
    phi = rng.uniform(0.0, 2 * math.pi, 20)
    data = corr.node_data(theta, phi)
    h = 1e-6
    tp, pp, _ = target_angles(corr, theta + h, phi)
    tm, pm, _ = target_angles(corr, theta - h, phi)
    dt = (tp - tm) / (2 * h)
    dp = (np.unwrap(pp - pm + math.pi) - math.pi) / (2 * h)
    assert np.abs(data.jacobian[:, 0, 0] - dt).max() < 1e-8
    assert np.abs(data.jacobian[:, 1, 0] - dp).max() < 1e-8


def test_pullback_data_is_equivariant(perturbed_surface, scattered_nodes):
    theta, phi = scattered_nodes
    for iso in (
        ambient.boost(0.25, [1.0, 0, 0]),
        ambient.boost(-0.4, [0.0, 1.0, 0.0]),
        ambient.rotation(0.7, [0.0, 0.0, 1.0]),
    ):
        data = transport.IsometryCorrespondence(perturbed_surface, iso).node_data(
            theta, phi
        )
        assert data.metric_pullback_residual.max() < 1e-8
        assert np.abs(data.w_tilde_frame - data.base.w_frame).max() < 1e-6
        # image surface satisfies its own pointwise identities
        assert data.tilde.pre_integral_residual.max() < 1e-8
        # pulled-back potential matches sinh of the image height
        np.testing.assert_allclose(
            data.phi_prime_tilde, np.sinh(data.tilde.y), atol=1e-12
        )


def test_identity_pair_collapses(perturbed_surface, scattered_nodes):
    theta, phi = scattered_nodes
    data = transport.identity_pair(perturbed_surface, perturbed_surface).node_data(
        theta, phi
    )
    assert data.metric_pullback_residual.max() < 1e-12
    assert np.abs(data.w_tilde_frame - data.base.w_frame).max() < 1e-12
    np.testing.assert_allclose(
        data.hess_phi_tilde_frame, data.base.hess_phi_frame, atol=1e-13
    )


def test_pair_node_data_forms_no_curvature_fields(
    perturbed_surface, scattered_nodes, monkeypatch
):
    # a pair enters the argument through second-order data only
    def forbidden(*args):
        raise AssertionError("curvature kernel called on the pair path")

    monkeypatch.setattr(kernels, "curvature_fields", forbidden)
    theta, phi = scattered_nodes
    boost = ambient.boost(0.25, [1.0, 0, 0])
    other = AnalyticSurface(0.65, [(0.03, 3, 2)])
    for pair in (
        transport.isometry_pair(perturbed_surface, boost),
        transport.identity_pair(perturbed_surface, other),
    ):
        data = pair.node_data(theta, phi)
        for fields in (data.base, data.tilde):
            assert fields.k_norm is fields.gauss_residual is fields.newton_residual is None
            assert fields.pre_integral_residual.max() < 1e-8
    # the regraph's spacelike check needs the margin only
    transport.transform_surface(perturbed_surface, boost, regraph_grid=(16, 32))


def test_pair_data_follows_each_rule(perturbed_surface):
    # temporary rules may reuse each other's ids once collected; every rule
    # must still get data at its own nodes
    pair = transport.isometry_pair(perturbed_surface, ambient.boost(0.25, [1.0, 0, 0]))
    for _ in range(3):
        for degree in (16, 18, 16, 18, 20):
            rule = gauss_sphere_rule(degree, degree)
            data = pair.node_data(rule.theta, rule.phi)
            assert data.base.n_nodes == data.tilde.n_nodes == degree * degree
            np.testing.assert_array_equal(data.base.theta, rule.theta)
            del rule, data
            gc.collect()


def test_transform_surface_regraph_contains_image(perturbed_surface):
    iso = ambient.boost(0.3, [1.0, 0, 0])
    sampled, corr = transport.transform_surface(
        perturbed_surface, iso, regraph_grid=(32, 64)
    )
    tt, pp = sampled.nodes()
    hh = sampled.values.ravel()
    x = np.stack(
        [
            np.sinh(hh),
            np.cosh(hh) * np.sin(tt) * np.cos(pp),
            np.cosh(hh) * np.sin(tt) * np.sin(pp),
            np.cosh(hh) * np.cos(tt),
        ]
    )
    back = np.einsum("ab,bn->an", iso.inverse().matrix, x)
    rho = np.arcsinh(back[0])
    r = np.sqrt(back[1] ** 2 + back[2] ** 2 + back[3] ** 2)
    th = np.arccos(np.clip(back[3] / r, -1, 1))
    ph = np.arctan2(back[2], back[1]) % (2 * math.pi)
    assert np.abs(rho - perturbed_surface.height(th, ph)).max() < 1e-11


def test_transform_surface_identity_and_rotation(perturbed_surface):
    sampled, _ = transport.transform_surface(
        perturbed_surface, ambient.identity_isometry(), regraph_grid=(24, 48)
    )
    tt, pp = sampled.nodes()
    np.testing.assert_allclose(
        sampled.values.ravel(), perturbed_surface.height(tt, pp), atol=1e-11
    )
    # zonal surfaces are invariant under rotations about the polar axis
    sampled, _ = transport.transform_surface(
        perturbed_surface, ambient.rotation(1.0, [0, 0, 1.0]), regraph_grid=(24, 48)
    )
    np.testing.assert_allclose(
        sampled.values.ravel(), perturbed_surface.height(tt, pp), atol=1e-11
    )


def test_transform_surface_rejects_non_graphs():
    # a strongly rippled surface folds over radial lines after a polar boost
    with pytest.raises(NotAGraph):
        transport.transform_surface(
            AnalyticSurface(0.0, [(1.2, 4, 0)]),
            ambient.boost(0.9, [0.0, 0.0, 1.0]),
            regraph_grid=(16, 32),
            t_max=6.0,
        )


def test_transformed_grid_passes_geometry_checks(perturbed_surface):
    sampled, _ = transport.transform_surface(
        perturbed_surface, ambient.boost(0.2, [1.0, 0, 0]), regraph_grid=(48, 96)
    )
    fields = geometry.evaluate_on_grid(sampled)
    assert fields.margin.min() > 0
    assert fields.pre_integral_residual.max() < 1e-10
