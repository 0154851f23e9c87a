import dataclasses
import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jet_oracle
from dsrigidity import ambient, geometry, kernels, transport
from dsrigidity.errors import ConfigError, DsRigidityError, NotAGraph
from dsrigidity.quadrature import gauss_sphere_rule
from dsrigidity.surfaces import AnalyticSurface, SampledGridSurface, sampled_grid


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


def compose(a, b):
    """The isometry a after b."""
    return ambient.AmbientIsometry(a.matrix @ b.matrix)


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
    # the image height's gradient on its own chart, carried through the
    # finite-difference Jacobian of the chart map, is d rho~ / d theta
    iso = ambient.boost(0.3, [0.0, 1.0, 0.0])
    corr = transport.IsometryCorrespondence(perturbed_surface, iso)
    rng = np.random.default_rng(2)
    theta = rng.uniform(0.5, 2.6, 20)
    phi = rng.uniform(0.0, 2 * math.pi, 20)
    dy = corr.node_data(theta, phi).tilde.dy
    h = 1e-6
    tp, pp, rp = target_angles(corr, theta + h, phi)
    tm, pm, rm = target_angles(corr, theta - h, phi)
    dt = (tp - tm) / (2 * h)
    dp = (np.unwrap(pp - pm + math.pi) - math.pi) / (2 * h)
    assert np.abs(dy[0] * dt + dy[1] * dp - (rp - rm) / (2 * h)).max() < 1e-8


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
    st.builds(compose, rotations, boosts),
    st.builds(
        lambda a, b, r: compose(compose(ambient.reflect_equator(), a) if r else a, b),
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
        ("y", y),
        ("dy", dy),
        ("d2y", d2y),
        ("w_tilde_frame", data.w_tilde_frame),
        ("hess_phi_tilde_frame", data.hess_phi_tilde_frame),
    ):
        expected = oracle[name]
        assert np.abs(value - expected).max() <= 1e-11 * max(1.0, np.abs(expected).max()), name
    assert np.abs(data.tilde.theta - oracle["theta"]).max() <= 1e-13
    # the isometry invariant W~ = +-W, which leans on no rounding shared with the oracle
    sign = np.sign(iso.matrix[0, 0])
    assert np.abs(data.w_tilde_frame - sign * data.base.w_frame).max() <= 2e-9


def test_identity_pair_collapses(perturbed_surface, scattered_nodes):
    theta, phi = scattered_nodes
    data = transport.IdentityCorrespondence(perturbed_surface, perturbed_surface).node_data(
        theta, phi
    )
    assert data.metric_pullback_residual.max() < 1e-12
    assert np.abs(data.w_tilde_frame - data.base.w_frame).max() < 1e-12
    np.testing.assert_allclose(
        data.hess_phi_tilde_frame, data.base.hess_phi_frame, atol=1e-13
    )


def test_identity_pair_forms_the_surface_own_formulas_bit_for_bit(perturbed_surface):
    # one formula each for the potential's jets, its frame Hessian and the
    # frame's orthonormality: a surface paired with itself reproduces its
    # own fields exactly, and the Hessian in the frame is exactly symmetric
    rule = gauss_sphere_rule(32, 64)
    pair = transport.IdentityCorrespondence(perturbed_surface, perturbed_surface)
    data = pair.node_data(rule.theta, rule.phi)
    base = data.base
    assert np.array_equal(data.hess_phi_tilde_frame, base.hess_phi_frame)
    assert np.array_equal(data.hess_phi_tilde_frame[0, 1], data.hess_phi_tilde_frame[1, 0])
    assert np.array_equal(
        data.metric_pullback_residual, kernels.orthonormality_residual(base.frame, base.g)
    )


def test_grid_nodes_give_the_bits_of_the_flat_nodes():
    # cli passes the quadrature rule as the grid, whose rows and columns
    # evaluate each angle function once; every field, eager or formed on
    # first read, must carry the bytes it has at the rule's flat nodes
    rule = gauss_sphere_rule(24, 48)
    surface = AnalyticSurface(0.6, [(0.05, 2, 0), (0.03, 3, 1)])
    fields = [f.name for f in dataclasses.fields(geometry.SurfaceFields)] + [
        "nu", "w_chart", "gamma", "hess_phi_frame", "k_norm", "newton_residual"]

    def assert_same_bytes(grid, flat, names):
        for name in names:
            a, b = np.asarray(getattr(grid, name)), np.asarray(getattr(flat, name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    flat = geometry.evaluate_fields(rule.theta, rule.phi, surface.height_jet(rule.theta, rule.phi))
    assert_same_bytes(geometry.evaluate_surface(surface, rule), flat, fields)
    for pair in (
        transport.IsometryCorrespondence(
            surface, ambient.boost(0.25, ambient.unit_vector([0.3, 0.5, 0.81]))),
        transport.IsometryCorrespondence(surface, ambient.rotation(0.7, [0.2, 1.0, -0.4])),
        transport.IdentityCorrespondence(surface, AnalyticSurface(0.65, [(0.03, 3, 2)])),
    ):
        flat = pair.node_data(rule.theta, rule.phi)
        grid = pair.node_data(rule.theta, rule.phi, rule)
        assert_same_bytes(grid, flat, ("w_tilde_frame", "metric_pullback_residual",
                                       "hess_phi_tilde_frame"))
        assert_same_bytes(grid.base, flat.base, fields)
        assert_same_bytes(grid.tilde, flat.tilde, fields)


def test_pair_node_data_forms_no_curvature_fields(
    perturbed_surface, scattered_nodes, kernel_calls
):
    # a pair enters the argument through second-order data only: node_data
    # forms the two surface cores and nothing past them, and the pulled-back
    # Hessian forms the base connection on its first read; the identity pair
    # forms its image potential's chart jets, the isometric pair takes them
    # from the transported point
    theta, phi = scattered_nodes
    nodes = len(theta)
    boost = ambient.boost(0.25, [1.0, 0, 0])
    other = AnalyticSurface(0.65, [(0.03, 3, 2)])
    for pair, potentials in (
        (transport.IsometryCorrespondence(perturbed_surface, boost), []),
        (transport.IdentityCorrespondence(perturbed_surface, other), [nodes]),
    ):
        for seen in kernel_calls.values():
            seen.clear()
        data = pair.node_data(theta, phi)
        assert kernel_calls == {
            "surface_core": [nodes, nodes], "normal_fields": [], "connection": [],
            "potential_jets": potentials, "frame_hessian": [], "curvature_fields": [],
            "newton_divergence": [],
        }
        assert data.hess_phi_tilde_frame is data.hess_phi_tilde_frame
        assert data.base.gamma is data.base.gamma
        assert kernel_calls["connection"] == kernel_calls["frame_hessian"] == [nodes]
        for fields in (data.base, data.tilde):
            assert fields.pre_integral_residual.max() < 1e-8
        assert kernel_calls["curvature_fields"] == kernel_calls["newton_divergence"] == []


def test_pair_node_data_frees_the_transport_before_the_image_is_evaluated(
    perturbed_surface, rule_32
):
    # the image points' jets and the lifted jets die with the transport helper,
    # so the image surface's kernel does not run on top of them
    pair = transport.IsometryCorrespondence(perturbed_surface, ambient.boost(0.25, [1.0, 0, 0]))
    pair.node_data(rule_32.theta, rule_32.phi)
    tracemalloc.start()
    try:
        pair.node_data(rule_32.theta, rule_32.phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_200_000


def test_pair_data_follows_each_rule(perturbed_surface):
    # temporary rules may reuse each other's ids once collected; every rule
    # must still get data at its own nodes
    pair = transport.IsometryCorrespondence(perturbed_surface, ambient.boost(0.25, [1.0, 0, 0]))
    for _ in range(3):
        for degree in (16, 18, 16, 18, 20):
            rule = gauss_sphere_rule(degree, degree)
            data = pair.node_data(rule.theta, rule.phi)
            assert data.base.theta.size == data.tilde.theta.size == degree * degree
            np.testing.assert_array_equal(data.base.theta, rule.theta)
            del rule, data
            gc.collect()


def test_transform_surface_regraph_contains_image(perturbed_surface):
    iso = ambient.boost(0.3, [1.0, 0, 0])
    sampled, corr = transport.transform_surface(
        perturbed_surface, iso, regraph_grid=(32, 64)
    )
    tt, pp = sampled.grid.theta, sampled.grid.phi
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
    tt, pp = sampled.grid.theta, sampled.grid.phi
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
    grid = sampled_grid(n_theta, n_phi)
    tt, pp = grid.theta, grid.phi
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
        compose(ambient.reflect_equator(), ambient.boost(-0.3, [0.6, 0.0, 0.8])),
    ],
    ids=["identity", "rotation", "boost", "reflection", "reflected_boost"],
)
def test_transform_surface_matches_dense_scan_oracle(iso):
    surface = AnalyticSurface(0.4, [(0.05, 2, 1), (0.03, 3, 0)])
    sampled, _ = transport.transform_surface(surface, iso, regraph_grid=(16, 32))
    oracle = dense_scan_heights(surface, iso, (16, 32))
    assert np.abs(sampled.values - oracle).max() <= 1e-12


def test_regraph_runs_no_surface_kernel(perturbed_surface, monkeypatch):
    # the closing spacelike check reads the first-order margin only
    def forbidden(*args):
        raise AssertionError("surface kernel called by the regraph")

    monkeypatch.setattr(kernels, "surface_core", forbidden)
    monkeypatch.setattr(kernels, "curvature_fields", forbidden)
    for iso in (ambient.boost(0.3, [1.0, 0, 0]), ambient.reflect_equator()):
        sampled, _ = transport.transform_surface(perturbed_surface, iso, regraph_grid=(16, 32))
        assert sampled.values.shape == (16, 32)


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


def test_regraph_evaluates_only_the_unfinished_lines(monkeypatch):
    # the lines of this boost finish over four passes; every pass maps the
    # probes of the lines still unfinished and no others, and a line's last
    # probes lie within REGRAPH_TOL / 2 of its height
    surface = AnalyticSurface(0.4, [(0.05, 2, 1), (0.03, 3, 0)])
    iso = ambient.boost(0.35, [0.36, -0.8, 0.48])
    st_, ct, sp, cp = sampled_grid(16, 32).trig
    line_of = {d.tobytes(): k for k, d in enumerate(np.stack([st_ * cp, st_ * sp, ct]).T)}
    sizes, probes = [], []
    height, embed = AnalyticSurface.height, ambient.embed

    def counted(self, theta, phi):
        sizes.append(np.size(theta))
        return height(self, theta, phi)

    def spied(t, omega):
        probes.append(([line_of[d.tobytes()] for d in omega.reshape(3, -1).T], t))
        return embed(t, omega)

    monkeypatch.setattr(AnalyticSurface, "height", counted)
    monkeypatch.setattr(ambient, "embed", spied)
    sampled, _ = transport.transform_surface(surface, iso, regraph_grid=(16, 32))
    heights = sampled.values.ravel()
    n = heights.size
    # the bracket, the Illinois passes, then the feet of the roots, whose
    # slope is read without a height call
    assert sizes[0] == 2 * n and probes[0][0] == probes[-1][0] == list(range(n))
    passes = [lines for lines, _ in probes[1:-1]]
    assert sizes[1:] == [2 * len(lines) for lines in passes]
    assert passes[0] == list(range(n))
    finished = []
    for lines, later in zip(passes, passes[1:] + [[]]):
        assert len(set(lines)) == len(lines) and set(later) <= set(lines)
        finished.append(sorted(set(lines) - set(later)))
    assert sum(map(bool, finished)) >= 3
    for (lines, t), done in zip(probes[1:-1], finished):
        last = np.abs(t - heights[lines]).min(axis=0)[np.isin(lines, done)]
        assert last.size == len(done) and np.all(last <= 0.5 * transport.REGRAPH_TOL)
    assert np.abs(sampled.values - dense_scan_heights(surface, iso, (16, 32))).max() <= 1e-12


@pytest.mark.parametrize(
    "surface, iso",
    [
        (AnalyticSurface(2.9, [(0.05, 2, 0)]), ambient.boost(0.5, [1.0, 0, 0])),
        (AnalyticSurface(10.0, [(0.05, 2, 0)]), ambient.boost(0.5, [1.0, 0, 0])),
        (AnalyticSurface(-20.0, [(0.05, 2, 0)]), ambient.reflect_equator()),
    ],
    ids=["rho0=2.9-boost", "rho0=10-boost", "rho0=-20-reflection"],
)
def test_regraph_brackets_heights_past_three(surface, iso):
    # the bracket grows with the surface's height bound and the boost
    sampled, _ = transport.transform_surface(surface, iso, regraph_grid=(16, 32))
    t_max = surface.height_bound() + math.acosh(abs(iso.matrix[0, 0])) + 1.0
    oracle = dense_scan_heights(surface, iso, (16, 32), t_max=t_max)
    assert np.abs(sampled.values - oracle).max() <= 1e-12


class UnderstatedBound(AnalyticSurface):
    """A surface whose ``height_bound`` lies: its heights leave the bracket."""

    def height_bound(self):
        return 0.0


def test_non_graph_errors_name_the_line_and_the_values():
    with pytest.raises(NotAGraph) as info:
        transport.transform_surface(
            UnderstatedBound(3.5), ambient.boost(0.3, [1.0, 0, 0]), regraph_grid=(16, 32)
        )
    message = str(info.value)
    for part in ("node 0 (", "theta=0.0982", "phi=0.0000", "F_start=-6.572e+00", "F_end=-4.848e-01",
                 "the end signs must be -+"):
        assert part in message
    # the same surface as test_transform_surface_rejects_non_graphs: its
    # slope breaks the spacelike bound at the foot of a crossing
    with pytest.raises(NotAGraph) as info:
        transport.transform_surface(
            AnalyticSurface(0.0, [(1.2, 4, 0)]), ambient.boost(0.9, [0.0, 0.0, 1.0]),
            regraph_grid=(16, 32),
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
        )


@pytest.mark.parametrize(
    "grid", [(16, 31), (0, 4), (16, 0), (1, 2), (2, 4)],
    ids=["odd_n_phi", "no_theta_rows", "no_phi_columns", "one_row", "two_rows"],
)
def test_regraph_grid_is_checked_before_any_height(grid, monkeypatch):
    # too few theta rows for the pole ghost rows read wrong theta stencils
    def height(self, theta, phi):
        raise AssertionError("height called before the grid check")

    monkeypatch.setattr(AnalyticSurface, "height", height)
    with pytest.raises(ConfigError, match=f"regraph_grid: '{grid[0]}x{grid[1]}' needs"):
        transport.transform_surface(
            AnalyticSurface(0.5), ambient.boost(0.2, [1.0, 0, 0]), regraph_grid=grid
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
