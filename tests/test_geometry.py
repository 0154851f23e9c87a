import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsrigidity import geometry
from dsrigidity.errors import ChartPole, GateFailed, NonSpacelike
from dsrigidity.surfaces import AnalyticSurface, SampledGridSurface, grid_scalar_jets
from dsrigidity.symfun import ConeLabel

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_umbilic_slice_closed_forms(slice_half, scattered_nodes):
    theta, phi = scattered_nodes
    f = geometry.evaluate_surface(slice_half, theta, phi)
    c = math.cosh(0.5)
    t = math.tanh(0.5)
    assert np.abs(f.g[0, 0] - c * c).max() < 1e-9
    assert np.abs(f.g[1, 1] - c * c * np.sin(theta) ** 2).max() < 1e-9
    assert np.abs(f.g[0, 1]).max() < 1e-9
    assert np.abs(f.nu - np.array([1.0, 0.0, 0.0])[:, None]).max() < 1e-9
    assert np.abs(f.support + c).max() < 1e-9
    assert np.abs(f.w_frame - t * np.eye(2)[:, :, None]).max() < 1e-9
    assert np.abs(f.hess_phi_frame).max() < 1e-9
    assert np.abs(f.sigma2 - t * t).max() < 1e-9
    assert np.abs(f.k_norm - 1.0 / c**2).max() < 1e-9
    assert np.abs(f.h - math.sinh(0.5) * c * _round_metric(theta)).max() < 1e-9


def _round_metric(theta):
    sig = np.zeros((2, 2, theta.shape[0]))
    sig[0, 0] = 1.0
    sig[1, 1] = np.sin(theta) ** 2
    return sig


def test_equator_slice_flat_geometry(scattered_nodes):
    theta, phi = scattered_nodes
    f = geometry.evaluate_surface(AnalyticSurface(0.0), theta, phi)
    assert np.abs(f.w_frame).max() == 0.0
    assert np.abs(f.sigma2).max() == 0.0
    assert np.abs(f.k_norm - 1.0).max() < 1e-12
    assert np.abs(f.pre_integral_residual).max() < 1e-12


def test_pointwise_identities_on_perturbed_surfaces(scattered_nodes):
    theta, phi = scattered_nodes
    for surf in (
        AnalyticSurface(0.5, [(0.05, 2, 0)]),
        AnalyticSurface(0.6, [(0.08, 2, 0)]),
        AnalyticSurface(0.7, [(0.04, 3, 1), (0.02, 2, 0)]),
        AnalyticSurface(-0.4, [(0.03, 4, 2)]),
    ):
        f = geometry.evaluate_surface(surf, theta, phi)
        assert f.pre_integral_residual.max() < 1e-8
        assert f.gauss_residual.max() < 1e-6
        assert f.newton_residual.max() < 1e-6
        assert f.nu_norm_residual.max() < 1e-10
        assert f.nu_tangency_residual.max() < 1e-10
        gram = np.einsum("ain,ijn,bjn->abn", f.frame, f.g, f.frame)
        assert np.abs(gram - np.eye(2)[:, :, None]).max() < 1e-10
        assert np.abs(f.w_frame - np.transpose(f.w_frame, (1, 0, 2))).max() < 1e-9


def test_geometry_against_embedded_finite_differences(perturbed_surface):
    """Cross-check h, g and the normal against the flat R^{1,3} embedding."""
    surf = perturbed_surface
    h = 1e-5

    def emb(t, p):
        y = surf.height(np.atleast_1d(t), np.atleast_1d(p))[0]
        st, ct = math.sin(t), math.cos(t)
        return np.array(
            [
                math.sinh(y),
                math.cosh(y) * st * math.cos(p),
                math.cosh(y) * st * math.sin(p),
                math.cosh(y) * ct,
            ]
        )

    rng = np.random.default_rng(9)
    for _ in range(5):
        t0 = rng.uniform(0.6, 2.5)
        p0 = rng.uniform(0.0, 2 * math.pi)
        f = geometry.evaluate_surface(surf, [t0], [p0])
        x1 = (emb(t0 + h, p0) - emb(t0 - h, p0)) / (2 * h)
        x2 = (emb(t0, p0 + h) - emb(t0, p0 - h)) / (2 * h)
        g_fd = np.array(
            [[x1 @ ETA @ x1, x1 @ ETA @ x2], [x2 @ ETA @ x1, x2 @ ETA @ x2]]
        )
        assert np.abs(f.g[..., 0] - g_fd).max() < 1e-8

        def second(i, j):
            h2 = 1e-4  # balances truncation and roundoff for 2nd differences
            steps = [(h2, 0.0), (0.0, h2)]
            (ai, bi), (aj, bj) = steps[i], steps[j]
            return (
                emb(t0 + ai + aj, p0 + bi + bj)
                - emb(t0 + ai - aj, p0 + bi - bj)
                - emb(t0 - ai + aj, p0 - bi + bj)
                + emb(t0 - ai - aj, p0 - bi - bj)
            ) / (4 * h2 * h2)

        x0 = emb(t0, p0)
        a = np.stack([ETA @ x1, ETA @ x2, ETA @ x0])
        _, _, vt = np.linalg.svd(a)
        nu = vt[-1]
        nu /= math.sqrt(abs(nu @ ETA @ nu))
        if nu[0] < 0:
            nu = -nu
        h_fd = np.array(
            [
                [-(second(0, 0) @ ETA @ nu), -(second(0, 1) @ ETA @ nu)],
                [-(second(1, 0) @ ETA @ nu), -(second(1, 1) @ ETA @ nu)],
            ]
        )
        assert np.abs(f.h[..., 0] - h_fd).max() < 1e-6


def test_single_node_evaluation(perturbed_surface):
    f = geometry.evaluate_surface(perturbed_surface, 1.1, 2.3)
    assert f.theta.shape == (1,) and f.g.shape == (2, 2, 1)
    assert f.support[0] < 0
    assert abs(f.sigma2[0] - (1.0 - f.k_norm[0])) < 1e-9
    assert f.pre_integral_residual[0] < 1e-8
    assert f.gauss_residual[0] < 1e-6 and f.sigma2[0] > 0
    assert f.newton_residual[0] < 1e-6


def test_spacelike_criteria_agree(scattered_nodes):
    # det g = cosh^2(y) sin^2(theta) * (cosh^2(y) - |grad y|^2): positive
    # definiteness of g and the gradient bound are the same condition
    theta, phi = scattered_nodes
    f = geometry.evaluate_surface(
        AnalyticSurface(0.4, [(0.07, 3, 1), (0.05, 2, 0)]), theta, phi
    )
    c2 = np.cosh(f.y) ** 2
    predicted = c2 * np.sin(theta) ** 2 * f.margin
    assert np.abs(f.det_g - predicted).max() < 1e-12 * np.abs(f.det_g).max()


def test_spacelike_violation_raises():
    steep = AnalyticSurface(0.3, [(3.0, 2, 0)])
    theta = np.linspace(0.4, 2.7, 40)
    phi = np.zeros(40)
    with pytest.raises(NonSpacelike):
        geometry.evaluate_surface(steep, theta, phi)
    with pytest.raises(ChartPole):
        geometry.evaluate_surface(AnalyticSurface(0.5), [1e-8], [0.0])


def _outcome(check, *args):
    """None when ``check`` passes, else the NonSpacelike message."""
    try:
        check(*args)
    except NonSpacelike as exc:
        return str(exc)
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(3, 10), st.integers(1, 8), st.floats(-1.0, 1.0), st.floats(0.0, 3.0),
       st.data())
def test_spacelike_check_agrees_with_the_surface_kernel(n_theta, half_phi, rho0, scale, data):
    # drawn sampled grids, steep ones included, on their stencil jets
    noise = data.draw(arrays(float, (n_theta, 2 * half_phi), elements=st.floats(-1.0, 1.0)))
    surface = SampledGridSurface(rho0 + scale * noise)
    theta, phi = surface.grid.theta, surface.grid.phi
    y, dy, d2y = grid_scalar_jets(surface.values, order=2)
    y1, dy1 = grid_scalar_jets(surface.values, order=1)
    assert np.array_equal(y1, y) and np.array_equal(dy1, dy)
    assert _outcome(geometry.check_spacelike, surface.grid, y1, dy1) == _outcome(
        geometry.evaluate_fields, theta, phi, (y, dy, d2y)
    )


def test_curvature_gate(rule_32):
    def gate(surface):
        fields = geometry.evaluate_surface(surface, rule_32.theta, rule_32.phi)
        return geometry.curvature_gate_fields(fields)

    assert gate(AnalyticSurface(0.5)) == (True, ConeLabel.PLUS)
    assert gate(AnalyticSurface(-0.5)) == (True, ConeLabel.MINUS)
    assert gate(AnalyticSurface(0.0)) == (False, None)

    # positive sigma2 in both cones (the sums of W = I and W = -I): the
    # error names a node of each
    split = SimpleNamespace(
        theta=np.array([0.5, 1.0]), phi=np.array([0.0, 2.0]), sigma1=np.array([2.0, -2.0]),
        sigma2=np.ones(2),
    )
    message = (
        r"node 0 \(theta=0\.5000, phi=0\.0000\) is PlusCone, "
        r"node 1 \(theta=1\.0000, phi=2\.0000\) is MinusCone"
    )
    with pytest.raises(GateFailed, match=message):
        geometry.curvature_gate_fields(split)


def test_reflection_parity_of_shape_operator(rule_32):
    for surf in (AnalyticSurface(0.5), AnalyticSurface(0.5, [(0.05, 2, 0)])):
        f = geometry.evaluate_surface(surf, rule_32.theta, rule_32.phi)
        fr = geometry.evaluate_surface(surf.reflected(), rule_32.theta, rule_32.phi)
        assert np.abs(fr.w_frame + f.w_frame).max() < 1e-8
        # one label per surface (the gate raises otherwise), plus and minus
        _, label = geometry.curvature_gate_fields(f)
        _, label_r = geometry.curvature_gate_fields(fr)
        assert {label, label_r} == {ConeLabel.PLUS, ConeLabel.MINUS}


def test_sampled_routes_converge_at_second_order(perturbed_surface):
    pre = []
    newt = []
    for n in (64, 128, 256):
        grid = SampledGridSurface.from_height(perturbed_surface, n, 2 * n)
        fields = geometry.evaluate_on_grid(grid)
        pre.append(geometry.sampled_pre_integral_residual(grid, fields).max())
        newt.append(geometry.sampled_newton_residual(grid, fields).max())
    assert pre[1] < 1e-4
    assert pre[0] / pre[1] > 3.0 and pre[1] / pre[2] > 3.0
    assert newt[1] < 1e-3
    assert newt[0] / newt[1] > 3.0 and newt[1] / newt[2] > 3.0
