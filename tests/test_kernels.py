import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_forms
from reference_forms import component_first, node_major
from dsrigidity import ambient, geometry, kernels, transport
from dsrigidity.errors import NonSpacelike
from dsrigidity.quadrature import gauss_sphere_rule
from dsrigidity.surfaces import AnalyticSurface, SampledGridSurface, grid_scalar_jets


def test_surface_kernels_satisfy_their_invariants():
    rng = np.random.default_rng(1)
    n = 300
    theta = rng.uniform(0.15, math.pi - 0.15, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    surf = AnalyticSurface(0.55, [(0.05, 2, 0), (0.02, 4, 3)])
    y, dy, d2y = surf.height_jet(theta, phi)

    f = geometry.evaluate_fields(theta, phi, (y, dy, d2y))
    eye = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, n))
    mul = lambda a, b: np.einsum("ijn,jkn->ikn", a, b)
    frame_t = f.frame.transpose(1, 0, 2)
    np.testing.assert_allclose(mul(f.g_inv, f.g), eye, atol=1e-13)
    np.testing.assert_allclose(mul(mul(f.frame, f.g), frame_t), eye, atol=1e-13)
    np.testing.assert_allclose(f.w_frame, mul(mul(f.frame, f.h), frame_t), atol=1e-13)
    np.testing.assert_array_equal(f.w_frame, f.w_frame.transpose(1, 0, 2))
    np.testing.assert_allclose(f.sigma1, np.trace(f.w_frame), atol=1e-14)
    np.testing.assert_allclose(f.sigma2, np.linalg.det(node_major(f.w_frame)), atol=1e-14)
    np.testing.assert_allclose(f.gamma, f.gamma.transpose(0, 2, 1, 3), atol=1e-14)

    # one node with |grad y| >= cosh y; numpy must not warn on the way to the error
    bad = 123
    dy = dy.copy()
    dy[0, bad] = 2.0 * math.cosh(y[bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonSpacelike, match=f"at node {bad} "):
            geometry.evaluate_fields(theta, phi, (y, dy, d2y))
        # the margin-only check of the regraph names the same node; it reads
        # the nodes and their sin theta off a grid
        nodes = SimpleNamespace(theta=theta, phi=phi, trig=(np.sin(theta),))
        with pytest.raises(NonSpacelike, match=f"at node {bad} "):
            geometry.check_spacelike(nodes, y, dy)


# -- component forms against the broadcast and einsum forms they replaced --

# property tests draw from a fixed sequence so that every run sees the same cases
deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=100)
entries = st.floats(-3.0, 3.0)
unit = st.floats(-1.0, 1.0)
nodes = st.integers(1, 12)


@st.composite
def spacelike_jets(draw):
    """theta and the jets (y, dy, d2y) at a few nodes, |grad y| < cosh y."""
    n = draw(nodes)
    theta = draw(arrays(float, n, elements=st.floats(0.2, math.pi - 0.2)))
    y = draw(arrays(float, n, elements=st.floats(-1.5, 1.5)))
    u = draw(arrays(float, (2, n), elements=unit))
    # |grad y|^2 = 0.49^2 cosh^2(y) |u|^2 stays below cosh^2(y)
    dy = 0.49 * np.cosh(y) * u * np.array([np.ones(n), np.sin(theta)])
    d2y = draw(arrays(float, (2, 2, n), elements=entries))
    return theta, y, dy, d2y


@deterministic
@given(spacelike_jets())
def test_component_kernels_match_the_broadcast_kernels(node_jets):
    # the reference forms formed every field in two kernels; the package
    # splits them into the surface core and the groups formed on first read
    theta, y, dy, d2y = node_jets
    node_trig = kernels.node_trig(theta, y, None)
    core = kernels.surface_core(theta, y, dy, d2y, trig=node_trig)
    expected = reference_forms.surface_core(theta, y, dy, d2y)
    # T goes on to the Newton kernel
    t = core.pop("t")
    trig = np.sin(theta), np.cos(theta), np.cosh(y), np.sinh(y)
    t_ref = reference_forms._second_form_parts(*trig, node_major(dy), node_major(d2y))[1]
    assert np.array_equal(np.array(t), component_first(t_ref))
    normal = kernels.normal_fields(dy, core["margin"], core["g_inv"], core["h"], trig=node_trig)
    core.update(zip(("nu", "nu_norm_residual", "nu_tangency_residual", "w_chart"), normal,
                    strict=True))
    dg, gamma = kernels.connection(dy, d2y, core["g_inv"], trig=node_trig)
    hess = kernels.frame_hessian(core["frame"], gamma,
                                 *kernels.potential_jets(dy, d2y, trig=node_trig))
    preint = kernels.pre_integral_residual(hess, np.sinh(y), core["support"], core["w_frame"])
    core.update(dg=np.array(dg), gamma=gamma, hess_phi_frame=hess,
                pre_integral_residual=preint)
    assert core.keys() == expected.keys()
    for name, value in expected.items():
        assert np.array_equal(core[name], value), name
    g, g_inv, det_g, w_chart, sigma2 = (
        core[k] for k in ("g", "g_inv", "det_g", "w_chart", "sigma2")
    )
    want = reference_forms.curvature_fields(
        theta, y, dy, d2y, g, g_inv, det_g, w_chart, gamma, core["dg"], sigma2
    )
    got = kernels.curvature_fields(theta, y, dy, d2y, g, det_g, dg, sigma2, trig=node_trig)
    got += (kernels.newton_divergence(
        dy, d2y, g_inv, w_chart, gamma, dg, core["margin"], t, trig=node_trig
    ),)
    for name, a, b in zip(("k_norm", "gauss", "newton"), got, want, strict=True):
        assert np.array_equal(a, b), name


def drawn_surface(rng):
    """rho0 in [-1.5, 1.5] plus three modes of degree 1 to 5 and amplitude up
    to 0.1, the first with m >= 1 so that F = g_theta,phi is not zero."""
    degrees = rng.integers(1, 6, size=3)
    orders = [int(rng.integers(1 if k == 0 else 0, l + 1)) for k, l in enumerate(degrees)]
    modes = [(float(rng.uniform(-0.1, 0.1)), int(l), m) for l, m in zip(degrees, orders)]
    return AnalyticSurface(float(rng.uniform(-1.5, 1.5)), modes)


def drawn_fields(n_theta):
    """Fields of two drawn surfaces at the n_theta x 2 n_theta Gauss rule and
    sampled on the cell-centred grid, each with random, totally symmetric
    third derivatives y_ijk = y[i + j + k] of scale 10 at its nodes."""
    rng = np.random.default_rng(n_theta)
    rule = gauss_sphere_rule(n_theta, 2 * n_theta)
    for _ in range(2):
        surface = drawn_surface(rng)
        sampled = SampledGridSurface.from_height(surface, n_theta, 2 * n_theta)
        for f in (geometry.evaluate_surface(surface, rule), geometry.evaluate_on_grid(sampled)):
            by_sum = 10.0 * rng.standard_normal((4, f.theta.size))
            d3y = np.array([by_sum[sum(idx)] for idx in np.ndindex(2, 2, 2)])
            yield f, d3y.reshape(2, 2, 2, -1)


@pytest.mark.parametrize("n_theta", [16, 32, 64, 128, 256])
def test_brioschi_curvature_matches_the_christoffel_route(n_theta):
    # the kernel's K against g_1a R^a_212 / det g, which reads every d_p d_q g_ij
    # and so the y_ijk that Brioschi's formula cancels.  det g ~ sin^2 theta
    # amplifies roundoff toward the poles on both routes: on the draws below
    # |dK| sin^2 theta was at most 4.8 eps.  Flipping the sign of a21 G - F a31
    # in det A moves K by E_u F G_v / (2 det g^2), by more than 4e8 eps / sin^2 theta
    # at some node of each
    for f, d3y in drawn_fields(n_theta):
        oracle = reference_forms.riemann_curvature(
            f.theta, f.y, f.dy, f.d2y, d3y, f.g, f.g_inv, f.det_g, f.gamma, np.array(f.dg)
        )
        scaled = np.abs(f.k_norm - oracle) * np.sin(f.theta) ** 2
        assert scaled.max() <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("n_theta", [16, 64, 256])
def test_newton_divergence_cancels_symmetric_third_derivatives(n_theta):
    # the kernel leaves out d_p h's term (c / sqrt(margin)) y_ijp; the oracle
    # keeps it, and a totally symmetric y_ijk cancels in tr(d_j W) - d_i W^i_j.
    # g^22 ~ 1 / sin^2 theta scales the roundoff of both: on these draws the
    # kernel's residual was at most 3.1 eps / sin^2 theta, the oracle's
    # 2.0 eps (1 + max |y_ijk|) / sin^2 theta.  A y_001 that differs from y_010
    # does not cancel
    eps = np.finfo(float).eps
    for f, d3y in drawn_fields(n_theta):
        args = f.theta, f.y, f.dy, f.d2y, d3y, f.g_inv, f.w_chart, f.gamma, np.array(f.dg)
        sin2 = np.sin(f.theta) ** 2
        assert (f.newton_residual * sin2).max() <= 16 * eps
        size = 1.0 + np.abs(d3y).max(axis=(0, 1, 2))
        assert (reference_forms.newton_divergence(*args) * sin2 / size).max() <= 16 * eps
        d3y[0, 0, 1] += 1.0
        assert reference_forms.newton_divergence(*args).min() > 1e-3


@deterministic
@given(nodes.flatmap(lambda n: arrays(float, (2, 2, 2, n), elements=entries)))
def test_matmul_and_congruence_sum_like_the_stacked_forms(stacks):
    product = np.array(kernels._matmul(*stacks))
    a, b = (node_major(x) for x in stacks)
    assert np.array_equal(node_major(product), reference_forms._matmul(a, b))
    congruent = node_major(np.array(kernels.congruence(*stacks)))
    # the frame congruences of the residuals and the pushed shape operator
    assert np.array_equal(congruent, np.einsum("nai,nij,nbj->nab", a, b, a))
    assert np.array_equal(congruent, np.einsum("nia,nab,njb->nij", a, b, a))


@deterministic
@given(st.integers(3, 12).flatmap(lambda n: arrays(float, (3, 7, n), elements=unit)))
def test_chart_inversion_sums_like_einsum(parts):
    # on exactly two nodes einsum's iterator orders these strided operands
    # another way and the last bit of d2y can differ from the left-to-right
    # sum; the pair suites evaluate at least 256 nodes
    rho = (parts[0, 0], parts[0, 1:3], parts[0, 3:].reshape(2, 2, -1))
    # the chart map's Jacobian I + 0.3 U stays invertible for |U_ij| <= 1
    u_jets = [
        (p[0], np.eye(2)[a][:, None] + 0.3 * p[1:3], p[3:].reshape(2, 2, -1))
        for a, p in enumerate(parts[1:])
    ]
    _, dy, d2y, _ = transport._invert_chart_map(rho, u_jets)
    assert np.array_equal(d2y, reference_forms.invert_chart_map_d2y(rho, u_jets, dy))


@deterministic
@given(st.integers(3, 12), st.integers(1, 8), st.integers(1, 2), st.floats(-3.0, 3.0), st.data())
def test_grid_stencils_sum_like_the_rolled_forms(n_theta, half_phi, order, decade, data):
    values = 10.0**decade * data.draw(arrays(float, (n_theta, 2 * half_phi), elements=unit))
    got = grid_scalar_jets(values, order)
    want = reference_forms.grid_scalar_jets(values, order)
    assert len(got) == len(want) == order + 1
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@deterministic
@given(st.integers(3, 10), st.integers(1, 8), st.floats(-1.0, 1.0), st.data())
def test_sampled_residuals_sum_like_einsum(n_theta, half_phi, rho0, data):
    n_phi = 2 * half_phi
    noise = data.draw(arrays(float, (n_theta, n_phi), elements=unit))
    surface = SampledGridSurface(rho0 + 1e-3 * noise)
    fields = geometry.evaluate_on_grid(surface)
    assert np.array_equal(
        geometry.sampled_pre_integral_residual(surface, fields),
        reference_forms.sampled_pre_integral_residual(surface, fields),
    )
    assert np.array_equal(
        geometry.sampled_newton_residual(surface, fields),
        reference_forms.sampled_newton_residual(surface, fields),
    )


@deterministic
@given(nodes.flatmap(lambda n: arrays(float, (n, 8), elements=unit)))
def test_conformal_check_sums_like_einsum(draws):
    rho, theta = 1.5 * draws[:, 0], 1.5 + 1.3 * draws[:, 1]
    u, w = draws[:, 2:5].T, draws[:, 5:8].T
    assert np.array_equal(
        ambient.lie_derivative_residual(rho, theta, u, w),
        reference_forms.lie_derivative_residual(rho, theta, u, w),
    )
