"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import math

import numpy as np
import pytest

from dsrigidity import ambient, geometry, integrals, symfun, transport
from dsrigidity.errors import GateFailed
from dsrigidity.quadrature import gauss_sphere_rule, reduce_sum
from dsrigidity.surfaces import AnalyticSurface, SampledGridSurface


def _verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def rule():
    return gauss_sphere_rule(64, 128)


def _data(pair, rule):
    return pair.node_data(rule.theta, rule.phi, rule)


@pytest.fixture(scope="module")
def pair_set(rule):
    """Node data at ``rule`` of three isometric pairs."""
    perturbed = AnalyticSurface(0.6, [(0.05, 2, 0)])
    boost = ambient.boost(0.25, [1.0, 0.0, 0.0])
    pairs = (
        ("identity on perturbed slice", transport.IdentityCorrespondence(perturbed, perturbed)),
        ("boost of the 0.6 slice", transport.IsometryCorrespondence(AnalyticSurface(0.6), boost)),
        ("boost of the perturbed slice", transport.IsometryCorrespondence(perturbed, boost)),
    )
    return tuple((name, _data(pair, rule)) for name, pair in pairs)


def _stacked_symmetric(rng, count, n, scale=5.0):
    """An (n, n, count) stack of symmetric matrices, matrix indices first."""
    a = rng.uniform(-scale, scale, (count, n, n))
    return np.moveaxis(0.5 * (a + a.transpose(0, 2, 1)), 0, -1)


def _cone_quadratic(w):
    n = w.shape[0]
    tr = np.trace(w)
    tr2 = np.einsum("ijb,jib->b", w, w)
    s2 = 0.5 * (tr * tr - tr2)
    return n * (n - 1) / 2.0, (n - 1) * tr, s2


def _shift_into_plus_cone(w, rng):
    a, b, c = _cone_quadratic(w)
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    t2 = (-b + np.sqrt(disc)) / (2.0 * a)
    shift = t2 + rng.uniform(0.1, 2.0, w.shape[-1])
    return w + shift * np.eye(w.shape[0])[:, :, None]


def test_criterion_1_umbilic_slice_closed_forms():
    rng = np.random.default_rng(10)
    theta = rng.uniform(0.1, math.pi - 0.1, 400)
    phi = rng.uniform(0.0, 2.0 * math.pi, 400)
    f = geometry.evaluate_surface(AnalyticSurface(0.5), theta, phi)
    c = math.cosh(0.5)
    t = math.tanh(0.5)
    sigma = np.zeros((2, 2, 400))
    sigma[0, 0] = 1.0
    sigma[1, 1] = np.sin(theta) ** 2
    checks = {
        "g = cosh^2(0.5) sigma": np.abs(f.g - c * c * sigma).max(),
        "nu = d_rho": np.abs(f.nu - np.array([1.0, 0.0, 0.0])[:, None]).max(),
        "<V,nu> = -cosh(0.5)": np.abs(f.support + c).max(),
        "W = tanh(0.5) I": np.abs(f.w_frame - t * np.eye(2)[:, :, None]).max(),
        "Hess Phi = 0": np.abs(f.hess_phi_frame).max(),
        "sigma2 = tanh^2(0.5)": np.abs(f.sigma2 - t * t).max(),
        "K = sech^2(0.5)": np.abs(f.k_norm - 1.0 / (c * c)).max(),
    }
    worst = max(checks.values())
    _verdict(
        1, worst <= 1e-9,
        f"umbilic slice closed forms, worst residual {worst:.3e} <= 1e-9",
    )


def test_criterion_2_conformal_field_identity():
    # one column per point: rho, theta, phi (not read by the chart check), u, w
    low = [-1.5, 0.2, 0.0] + [-1.0] * 6
    high = [1.5, math.pi - 0.2, 2.0 * math.pi] + [1.0] * 6
    d = np.random.default_rng(11).uniform(low, high, size=(100, 9)).T
    residual = ambient.lie_derivative_residual(d[0], d[1], d[3:6], d[6:9])
    worst = float(np.abs(residual).max())
    _verdict(
        2, worst <= 1e-10,
        f"symmetrized radial-field derivative equals 2 phi' g, "
        f"worst residual {worst:.3e} <= 1e-10 over 100 random points",
    )


def test_criterion_3_hessian_identity_and_grid_convergence(rule):
    worst = 0.0
    for surf in (
        AnalyticSurface(0.5),
        AnalyticSurface(0.3),
        AnalyticSurface(0.5, [(0.05, 2, 0)]),
        AnalyticSurface(0.6, [(0.08, 2, 0)]),
        AnalyticSurface(0.7, [(0.04, 3, 1), (0.03, 2, 0)]),
    ):
        f = geometry.evaluate_surface(surf, rule.theta, rule.phi)
        worst = max(worst, float(f.pre_integral_residual.max()))
    analytic_ok = worst <= 1e-8

    base = AnalyticSurface(0.6, [(0.05, 2, 0)])
    grids = [SampledGridSurface.from_height(base, n, 2 * n) for n in (64, 128, 256)]
    resid = [
        geometry.sampled_pre_integral_residual(grid, geometry.evaluate_on_grid(grid)).max()
        for grid in grids
    ]
    decay_ok = resid[0] / resid[1] >= 3.0 and resid[1] / resid[2] >= 3.0
    _verdict(
        3, analytic_ok and decay_ok,
        f"Hess(Phi) = phi' g + <V,nu> h: analytic worst {worst:.3e} <= 1e-8; "
        f"sampled residuals {resid[0]:.2e} -> {resid[1]:.2e} -> {resid[2]:.2e} "
        f"(ratios {resid[0] / resid[1]:.2f}, {resid[1] / resid[2]:.2f} >= 3)",
    )


def test_criterion_4_cone_inequality_and_equality_case():
    rng = np.random.default_rng(12)
    per_dim = 20000
    min_gap = math.inf
    for n in range(2, 7):
        wa = _shift_into_plus_cone(_stacked_symmetric(rng, per_dim, n), rng)
        wb = _shift_into_plus_cone(_stacked_symmetric(rng, per_dim, n), rng)
        for w in (wa, wb):
            _, _, labels = symfun.cone_roots(w)
            assert {symfun.CONE_LABELS[k] for k in np.unique(labels)} == {symfun.ConeLabel.PLUS}
        gap = symfun.sigma11(wa, wb) - np.sqrt(symfun.sigma2(wa) * symfun.sigma2(wb))
        min_gap = min(min_gap, float(gap.min()))
    ineq_ok = min_gap >= -1e-12

    worst_recovery = 0.0
    equality_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        w = _shift_into_plus_cone(_stacked_symmetric(rng, 1, n), rng)[..., 0]
        c = float(rng.uniform(0.2, 5.0))
        wt = c * w
        report = symfun.garding_gap(w, wt)
        equality_ok &= report.equality
        matched = wt * math.sqrt(symfun.sigma2(w) / symfun.sigma2(wt))
        worst_recovery = max(worst_recovery, float(np.linalg.norm(w - matched)))
    _verdict(
        4, ineq_ok and equality_ok and worst_recovery <= 1e-8,
        f"cone inequality over 1e5 pairs: min gap {min_gap:.3e} >= -1e-12; "
        f"equality detected on 1000 proportional pairs, matched-sigma2 "
        f"recovery {worst_recovery:.3e} <= 1e-8",
    )


def test_criterion_5_hyperbolicity_of_the_symmetric_functions():
    rng = np.random.default_rng(13)
    # sigma2: the cone quadratic has real roots for symmetric input
    min_rel_disc = math.inf
    for n in range(2, 7):
        w = _stacked_symmetric(rng, 2000, n)
        a, b, c = _cone_quadratic(w)
        disc = b * b - 4.0 * a * c
        scale = np.maximum(np.maximum(b * b, np.abs(4.0 * a * c)), 1.0)
        min_rel_disc = min(min_rel_disc, float((disc / scale).min()))
    sigma2_ok = min_rel_disc >= -1e-9

    # determinant: symmetric eigenproblem has real spectrum
    worst_eig = 0.0
    for n in range(2, 7):
        w = np.moveaxis(_stacked_symmetric(rng, 2000, n), -1, 0)
        kappa, vec = np.linalg.eigh(w)
        resid = np.einsum("bij,bjk->bik", w, vec) - kappa[:, None, :] * vec
        norms = np.linalg.norm(w, axis=(1, 2))
        worst_eig = max(
            worst_eig, float((np.linalg.norm(resid, axis=(1, 2)) / norms).max())
        )
    det_ok = worst_eig <= 1e-9

    # every sigma_k: the line polynomial has real roots (companion matrix)
    worst_imag = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        w = _stacked_symmetric(rng, 1, n)[..., 0]
        for k in range(1, n + 1):
            roots = np.roots(symfun.sigma_line_coefficients(w, k))
            if roots.size:
                worst_imag = max(worst_imag, float(np.abs(roots.imag).max()))
    sigma_k_ok = worst_imag <= 1e-7
    _verdict(
        5, sigma2_ok and det_ok and sigma_k_ok,
        f"hyperbolicity: sigma2 discriminant >= {min_rel_disc:.3e} (tol -1e-9); "
        f"eigensolver residual {worst_eig:.3e} <= 1e-9; "
        f"sigma_k root imag parts {worst_imag:.3e} <= 1e-7",
    )


def test_criterion_6_reflection_parity(rule):
    worst = 0.0
    flips_ok = True
    for surf in (
        AnalyticSurface(0.5),
        AnalyticSurface(-0.5),
        AnalyticSurface(0.5, [(0.05, 2, 0)]),
        AnalyticSurface(0.6, [(0.04, 3, 1)]),
    ):
        f = geometry.evaluate_surface(surf, rule.theta, rule.phi)
        fr = geometry.evaluate_surface(surf.reflected(), rule.theta, rule.phi)
        worst = max(worst, float(np.abs(fr.w_frame + f.w_frame).max()))
        _, label = geometry.curvature_gate_fields(f)
        _, label_r = geometry.curvature_gate_fields(fr)
        flips_ok &= {label, label_r} == {
            symfun.ConeLabel.PLUS,
            symfun.ConeLabel.MINUS,
        }
    _verdict(
        6, worst <= 1e-8 and flips_ok,
        f"reflection parity W -> -W, worst residual {worst:.3e} <= 1e-8; "
        "cone labels swap between the plus and minus cones",
    )


def test_criterion_7_integral_identities(pair_set, rule):
    worst_rel = 0.0
    worst_point = 0.0
    for _, data in pair_set:
        for rep in integrals.verify_identities(data, rule)[0]:
            worst_rel = max(worst_rel, rep.residual_rel)
            worst_point = max(worst_point, rep.pointwise_max)
    _verdict(
        7, worst_rel <= 1e-6 and worst_point <= 1e-8,
        f"four integral identities on three pairs at 64x128: "
        f"worst relative residual {worst_rel:.3e} <= 1e-6, "
        f"worst pointwise (proof-sign) residual {worst_point:.3e} <= 1e-8",
    )


def test_criterion_8_tilde_symmetry(pair_set, rule):
    worst = 0.0
    for _, data in pair_set:
        worst = max(worst, integrals.verify_identities(data, rule)[1])
    _verdict(
        8, worst <= 1e-6,
        f"tilde-swap symmetry of the Hessian integral on three pairs: "
        f"worst residual {worst:.3e} <= 1e-6",
    )


def test_criterion_9_rigidity_experiment(pair_set, rule):
    worst_mismatch = 0.0
    worst_integral = 0.0
    rigid_ok = True
    for name, data in pair_set:
        rep = integrals.rigidity_experiment(data, rule)
        rigid_ok &= rep.verdict == "Rigid"
        worst_mismatch = max(worst_mismatch, rep.max_w_mismatch)
        worst_integral = max(worst_integral, rep.integral_rel)

    control = transport.IdentityCorrespondence(
        AnalyticSurface(0.6, [(0.05, 2, 0)]), AnalyticSurface(0.6, [(0.08, 2, 0)])
    )
    control_rep = integrals.rigidity_experiment(_data(control, rule), rule)
    control_ok = (
        control_rep.verdict == "NotIsometric"
        and control_rep.max_metric_residual > 1e-3
    )

    gate_ok = False
    negative = transport.IsometryCorrespondence(
        AnalyticSurface(-0.3), ambient.boost(0.1, [1.0, 0.0, 0.0])
    )
    try:
        integrals.rigidity_experiment(_data(negative, rule), rule)
    except GateFailed:
        gate_ok = True
    _verdict(
        9, rigid_ok and worst_mismatch <= 1e-6 and worst_integral <= 1e-8
        and control_ok and gate_ok,
        f"rigidity: isometric pairs Rigid (W mismatch {worst_mismatch:.3e} <= 1e-6, "
        f"integral {worst_integral:.3e} <= 1e-8 x area); control NotIsometric "
        f"(metric residual {control_rep.max_metric_residual:.3e} > 1e-3); "
        "negative-height surface gate-failed",
    )


def test_criterion_10_newton_tensor_divergence(rule):
    worst = 0.0
    for surf in (
        AnalyticSurface(0.5),
        AnalyticSurface(0.5, [(0.05, 2, 0)]),
        AnalyticSurface(0.7, [(0.04, 3, 1), (0.03, 2, 0)]),
    ):
        f = geometry.evaluate_surface(surf, rule.theta, rule.phi)
        worst = max(worst, float(f.newton_residual.max()))
    analytic_ok = worst <= 1e-6

    base = AnalyticSurface(0.6, [(0.05, 2, 0)])
    grids = [SampledGridSurface.from_height(base, n, 2 * n) for n in (64, 128, 256)]
    resid = [
        geometry.sampled_newton_residual(grid, geometry.evaluate_on_grid(grid)).max()
        for grid in grids
    ]
    decay_ok = resid[0] / resid[1] >= 3.0 and resid[1] / resid[2] >= 3.0
    _verdict(
        10, analytic_ok and decay_ok,
        f"Newton-tensor divergence: analytic worst {worst:.3e} <= 1e-6; "
        f"sampled residuals {resid[0]:.2e} -> {resid[1]:.2e} -> {resid[2]:.2e} "
        f"(ratios {resid[0] / resid[1]:.2f}, {resid[1] / resid[2]:.2f} >= 3)",
    )


def test_criterion_11_quadrature(rule):
    total = reduce_sum(rule.weights * np.sin(rule.theta) * np.ones(rule.theta.size))
    sphere_err = abs(total - 4.0 * math.pi) / (4.0 * math.pi)
    area_errs = []
    for rho0 in (0.3, 0.5, 0.8):
        f = geometry.evaluate_surface(AnalyticSurface(rho0), rule.theta, rule.phi)
        area = reduce_sum(rule.weights * f.sqrt_det_g)
        area_errs.append(abs(area - 4.0 * math.pi * math.cosh(rho0) ** 2))
    worst_area = max(area_errs)
    _verdict(
        11, sphere_err <= 1e-12 and worst_area <= 1e-10,
        f"quadrature: sphere measure relative error {sphere_err:.3e} <= 1e-12; "
        f"slice areas off by {worst_area:.3e} <= 1e-10",
    )
