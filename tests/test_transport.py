import gc
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jet_oracle
from dsrigidity import ambient, geometry, kernels, transport
from dsrigidity.errors import DsRigidityError, NotAGraph
from dsrigidity.quadrature import gauss_sphere_rule
from dsrigidity.surfaces import AnalyticSurface, SampledGridSurface


def target_angles(corr, theta, phi):
    """Image chart angles and height by arccos, independent of the jet route."""
    lam = corr.iso.matrix
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    y = corr.surface.height(theta, phi)
    omega = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    x = np.concatenate([np.sinh(y)[None], np.cosh(y) * omega])
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


axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: np.array(v) / np.linalg.norm(v)
)
modes = st.tuples(st.floats(-0.05, 0.05), st.integers(0, 4), st.integers(0, 4)).map(
    lambda t: (t[0], t[1], min(t[2], t[1]))
)
boosts = st.builds(ambient.boost, st.floats(-0.8, 0.8), axes)
rotations = st.builds(ambient.rotation, st.floats(-math.pi, math.pi), axes)
isometries = st.one_of(
    boosts,
    rotations,
    st.builds(lambda a, b: a @ b, rotations, boosts),
    st.builds(
        lambda a, b, r: (ambient.reflect_equator() @ a if r else a) @ b,
        boosts, rotations, st.booleans(),
    ),
)


def nodes_next_to_the_image_poles(iso, rho, count, rng):
    """Source nodes whose point at height rho maps within 1e-2 of an image
    chart pole, plus as many scattered nodes."""
    theta_t = rng.uniform(1e-4, 1e-2, count) * rng.choice([1.0, -1.0], count) % math.pi
    phi_t = rng.uniform(0.0, 2.0 * math.pi, count)
    p = np.stack([
        np.full(count, math.sinh(rho)),
        math.cosh(rho) * np.sin(theta_t) * np.cos(phi_t),
        math.cosh(rho) * np.sin(theta_t) * np.sin(phi_t),
        math.cosh(rho) * np.cos(theta_t),
    ])
    x = iso.inverse().matrix @ p
    theta = np.arctan2(np.hypot(x[1], x[2]), x[3])
    phi = np.arctan2(x[2], x[1]) % (2.0 * math.pi)
    theta = np.concatenate([theta, rng.uniform(0.05, math.pi - 0.05, count)])
    phi = np.concatenate([phi, rng.uniform(0.0, 2.0 * math.pi, count)])
    keep = np.sin(theta) > 0.05  # off the source chart's poles
    return theta[keep], phi[keep]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.floats(-0.8, 0.8), st.lists(modes, max_size=2), isometries, st.integers(0, 2**32 - 1)
)
def test_closed_form_transport_matches_the_jet_oracle(rho0, mode_list, iso, seed):
    surface = AnalyticSurface(rho0, mode_list)
    theta, phi = nodes_next_to_the_image_poles(iso, rho0, 16, np.random.default_rng(seed))
    # the second evaluation is the image surface's, on its own chart jets
    with mock.patch.object(geometry, "evaluate_fields", wraps=geometry.evaluate_fields) as spy:
        data = transport.IsometryCorrespondence(surface, iso).node_data(theta, phi)
    y, dy, d2y = spy.call_args_list[1].args[2]
    oracle = jet_oracle.transport_oracle(surface, iso, theta, phi)
    for name, value in (
        ("jacobian", data.jacobian),
        ("y", y),
        ("dy", dy),
        ("d2y", d2y),
        ("w_tilde_frame", data.w_tilde_frame),
        ("hess_phi_tilde_frame", data.hess_phi_tilde_frame),
    ):
        expected = oracle[name]
        assert np.abs(value - expected).max() <= 1e-11 * max(1.0, np.abs(expected).max()), name
    assert np.abs(data.tilde.theta - oracle["theta"]).max() <= 1e-13


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


def dense_scan_heights(surface, iso, regraph_grid, t_max=3.0, n_scan=241, tol=1e-12):
    """Regraph oracle: count sign changes of F on a dense scan of every radial
    line, require exactly one, then bisect its bracket down to ``tol``."""
    n_theta, n_phi = regraph_grid
    tt, pp = SampledGridSurface(np.zeros(regraph_grid)).nodes()
    omega = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)])
    lam_inv = iso.inverse().matrix

    def height_mismatch(t):
        x = np.concatenate([np.sinh(t)[None], np.cosh(t) * omega[:, None, :]])
        xs = np.einsum("ab,b...->a...", lam_inv, x)
        rnorm = np.sqrt(xs[1] ** 2 + xs[2] ** 2 + xs[3] ** 2)
        th = np.arccos(np.clip(xs[3] / rnorm, -1.0, 1.0))
        ph = np.arctan2(xs[2], xs[1]) % (2.0 * math.pi)
        return np.arcsinh(xs[0]) - surface.height(th, ph)

    ts = np.linspace(-t_max, t_max, n_scan)
    values = height_mismatch(np.repeat(ts[:, None], omega.shape[1], axis=1))
    signs = np.where(values == 0.0, 1.0, np.sign(values))
    flips = signs[:-1] * signs[1:] < 0
    assert np.all(flips.sum(axis=0) == 1)
    idx = np.argmax(flips, axis=0)
    lo, hi = ts[idx], ts[idx + 1]
    flo = values[idx, np.arange(omega.shape[1])]
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        fmid = height_mismatch(mid[None, :])[0]
        take_low = flo * fmid <= 0.0
        hi = np.where(take_low, mid, hi)
        lo = np.where(take_low, lo, mid)
        flo = np.where(take_low, flo, fmid)
    return (0.5 * (lo + hi)).reshape(n_theta, n_phi)


@pytest.mark.parametrize(
    "iso",
    [
        ambient.identity_isometry(),
        ambient.rotation(0.7, [1.0, 2.0, 0.5]),
        ambient.boost(0.35, [0.36, -0.8, 0.48]),
        ambient.reflect_equator(),
        ambient.reflect_equator() @ ambient.boost(-0.3, [0.6, 0.0, 0.8]),
    ],
    ids=["identity", "rotation", "boost", "reflection", "reflected_boost"],
)
def test_transform_surface_matches_dense_scan_oracle(iso):
    surface = AnalyticSurface(0.4, [(0.05, 2, 1), (0.03, 3, 0)])
    sampled, _ = transport.transform_surface(surface, iso, regraph_grid=(16, 32))
    oracle = dense_scan_heights(surface, iso, (16, 32))
    assert np.abs(sampled.values - oracle).max() <= 1e-12


def test_transform_surface_with_a_foot_on_the_source_pole(perturbed_surface):
    # theta_0 = pi/32 on a 16-row grid: the rotation sends the line at
    # (pi/32, pi) onto the source chart's pole, where y_phi / sin(theta)
    # must come from the division-free ladder
    iso = ambient.rotation(math.pi / 32, [0.0, 1.0, 0.0])
    surface = AnalyticSurface(0.6, [(0.05, 2, 0), (0.04, 3, 2)])
    sampled, _ = transport.transform_surface(surface, iso, regraph_grid=(16, 32))
    oracle = dense_scan_heights(surface, iso, (16, 32))
    assert np.abs(sampled.values - oracle).max() <= 1e-12


def test_rotation_regraph_needs_few_height_calls(perturbed_surface, monkeypatch):
    calls = []
    height = AnalyticSurface.height

    def counted(self, theta, phi):
        calls.append(np.size(theta))
        return height(self, theta, phi)

    monkeypatch.setattr(AnalyticSurface, "height", counted)
    surface = AnalyticSurface(0.5, [(0.04, 2, 1), (0.03, 3, 3)])
    transport.transform_surface(
        surface, ambient.rotation(0.9, [0.2, 1.0, -0.4]), regraph_grid=(32, 64)
    )
    # a dense scan of 241 points per line and 35 bisection steps made 36
    assert len(calls) <= 14


def test_non_graph_errors_name_the_line_and_the_values():
    with pytest.raises(NotAGraph) as info:
        transport.transform_surface(
            AnalyticSurface(0.6), ambient.boost(0.3, [1.0, 0, 0]),
            regraph_grid=(16, 32), t_max=0.5,
        )
    message = str(info.value)
    for part in ("node 0 (", "theta=0.0982", "phi=0.0000", "F_start=-1.150e+00", "F_end="):
        assert part in message
    # the same surface as test_transform_surface_rejects_non_graphs: its
    # slope breaks the spacelike bound at the foot of a crossing
    with pytest.raises(NotAGraph) as info:
        transport.transform_surface(
            AnalyticSurface(0.0, [(1.2, 4, 0)]), ambient.boost(0.9, [0.0, 0.0, 1.0]),
            regraph_grid=(16, 32), t_max=6.0,
        )
    message = str(info.value)
    for part in ("node ", "theta=", "phi=", "grad_y_sq=", "cosh_y_sq="):
        assert part in message


def test_transform_surface_rejects_non_graphs():
    # a strongly rippled surface folds over radial lines after a polar boost
    with pytest.raises(NotAGraph):
        transport.transform_surface(
            AnalyticSurface(0.0, [(1.2, 4, 0)]),
            ambient.boost(0.9, [0.0, 0.0, 1.0]),
            regraph_grid=(16, 32),
            t_max=6.0,
        )


def test_transform_surface_needs_an_analytic_source():
    sampled = SampledGridSurface.from_height(AnalyticSurface(0.5), 16, 32)
    with pytest.raises(DsRigidityError, match="regraphing needs an analytic source"):
        transport.transform_surface(sampled, ambient.boost(0.2, [1.0, 0, 0]), regraph_grid=(16, 32))


def test_transformed_grid_passes_geometry_checks(perturbed_surface):
    sampled, _ = transport.transform_surface(
        perturbed_surface, ambient.boost(0.2, [1.0, 0, 0]), regraph_grid=(48, 96)
    )
    fields = geometry.evaluate_on_grid(sampled)
    assert fields.margin.min() > 0
    assert fields.pre_integral_residual.max() < 1e-10
