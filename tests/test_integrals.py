import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from dsrigidity import ambient, geometry, integrals, transport
from dsrigidity.errors import CorrespondenceInvalid, GateFailed
from dsrigidity.quadrature import gauss_sphere_rule, integrate_sphere, integrate_surface
from dsrigidity.surfaces import AnalyticSurface


def pair_data(pair, rule):
    return pair.node_data(rule.theta, rule.phi)


def test_sphere_rule_recovers_the_measure(rule_64):
    total = integrate_sphere(rule_64, np.ones(rule_64.n_nodes))
    assert abs(total - 4 * math.pi) < 1e-12 * 4 * math.pi
    assert rule_64.weights.min() > 0
    assert np.sin(rule_64.theta).min() > 1e-3


def test_sphere_rule_integrates_harmonics_exactly(rule_64):
    rng = np.random.default_rng(0)
    for _ in range(12):
        l = int(rng.integers(1, 21))
        m = int(rng.integers(0, l + 1))
        vals = sph_harm_y(l, m, rule_64.theta, rule_64.phi).real
        assert abs(integrate_sphere(rule_64, vals)) < 1e-10


def test_surface_areas(rule_64):
    def integral(surface, func):
        fields = geometry.evaluate_surface(surface, rule_64.theta, rule_64.phi)
        return integrate_surface(rule_64, fields.sqrt_det_g, func(fields))

    ones = lambda f: np.ones(f.n_nodes)
    area = integral(AnalyticSurface(0.5), ones)
    assert abs(area - 4 * math.pi * math.cosh(0.5) ** 2) < 1e-10
    area0 = integral(AnalyticSurface(0.0), ones)
    assert abs(area0 - 4 * math.pi) < 1e-12 * 4 * math.pi
    # odd zonal integrand vanishes by symmetry
    odd = integral(AnalyticSurface(0.5), lambda f: np.cos(f.theta))
    assert abs(odd) < 1e-12


@pytest.fixture(scope="module")
def pairs(rule_64):
    """Node data at ``rule_64`` of three pairs."""
    perturbed = AnalyticSurface(0.6, [(0.05, 2, 0)])
    pairs = {
        "identity": transport.identity_pair(perturbed, perturbed),
        "boost-slice": transport.isometry_pair(
            AnalyticSurface(0.6), ambient.boost(0.25, [1.0, 0, 0])
        ),
        "boost-perturbed": transport.isometry_pair(
            perturbed, ambient.boost(0.25, [1.0, 0, 0])
        ),
    }
    return {name: pair_data(pair, rule_64) for name, pair in pairs.items()}


def test_integral_identities_on_all_pairs(pairs, rule_64):
    for name, data in pairs.items():
        reports, _ = integrals.verify_identities(data, rule_64)
        assert [r.label for r in reports] == list("abcd")
        for rep in reports:
            assert rep.residual_rel <= 1e-6, (name, rep.label, rep.residual_rel)
            assert rep.pointwise_max <= 1e-8, (name, rep.label)
            assert rep.pass_
            assert "+2<V,nu>" in rep.sign_note


def test_statement_sign_does_not_balance(pairs, rule_64):
    reports, _ = integrals.verify_identities(pairs["identity"], rule_64)
    for rep in reports:
        assert rep.statement_sign_residual_rel > 1e-3


def test_identity_pair_collapses_a_and_b(pairs, rule_64):
    reports, _ = integrals.verify_identities(pairs["identity"], rule_64)
    by_label = {r.label: r for r in reports}
    assert abs(by_label["a"].lhs - by_label["b"].lhs) < 1e-12
    assert abs(by_label["a"].rhs - by_label["b"].rhs) < 1e-12


def test_tilde_symmetry_on_all_pairs(pairs, rule_64):
    for name, data in pairs.items():
        _, resid = integrals.verify_identities(data, rule_64)
        assert resid <= 1e-6, name
    # the identity pair is symmetric by construction, exactly
    assert integrals.verify_identities(pairs["identity"], rule_64)[1] < 1e-15


def test_identity_residuals_decay_spectrally():
    # under-resolved rules see a high-frequency surface; doubling the
    # degrees must beat fourth-order decay until the rounding floor
    surf = AnalyticSurface(0.6, [(0.02, 8, 5)])
    pair = transport.isometry_pair(surf, ambient.boost(0.25, [1.0, 0, 0]))
    resid = []
    for deg in ((16, 32), (32, 64)):
        rule = gauss_sphere_rule(*deg)
        reports, _ = integrals.verify_identities(pair_data(pair, rule), rule)
        resid.append(max(r.residual_rel for r in reports))
    assert resid[1] < resid[0] / 16.0 or resid[1] < 1e-12


def test_identities_hold_for_the_reflection_pair(rule_64):
    # the mirrored partner sits in the minus cone (W~ = -W pulled back);
    # every identity uses the image's own future normal and still balances
    pair = transport.isometry_pair(
        AnalyticSurface(0.5, [(0.04, 2, 0)]), ambient.reflect_equator()
    )
    data = pair_data(pair, rule_64)
    reports, tilde = integrals.verify_identities(data, rule_64)
    for rep in reports:
        assert rep.residual_rel <= 1e-6 and rep.pointwise_max <= 1e-8
    assert tilde <= 1e-6
    assert np.abs(data.w_tilde_frame + data.base.w_frame).max() < 1e-8


def test_rigidity_on_isometric_pairs(pairs, rule_64):
    for name in ("boost-slice", "boost-perturbed"):
        rep = integrals.rigidity_experiment(pairs[name], rule_64)
        assert rep.verdict == "Rigid", name
        assert rep.max_w_mismatch <= 1e-6
        assert rep.integral_rel <= 1e-8
        assert rep.sign_factor_min > 0
        assert rep.gap_min >= -1e-10
    rep = integrals.rigidity_experiment(pairs["identity"], rule_64)
    assert rep.verdict == "Rigid"
    assert rep.max_w_mismatch < 1e-12


def test_rigidity_when_a_node_maps_next_to_the_image_chart_pole(rule_32):
    # one node lands within sin(theta~) = 5.7e-4 of the image chart pole
    axis = np.array([-0.8262995537662207, 0.5545146286727469, 0.09870447828579164])
    pair = transport.isometry_pair(
        AnalyticSurface(0.7315501103780506, [(0.024414182769641336, 2, 1)]),
        ambient.boost(-0.46826574533131926, axis / np.linalg.norm(axis)),
    )
    data = pair_data(pair, rule_32)
    assert np.sin(data.tilde.theta).min() < 1e-3
    rep = integrals.rigidity_experiment(data, rule_32)
    assert rep.verdict == "Rigid"
    assert rep.max_w_mismatch <= 1e-10
    assert rep.gap_min >= -1e-12


def test_rigidity_negative_control(rule_64):
    pair = transport.identity_pair(
        AnalyticSurface(0.6, [(0.05, 2, 0)]), AnalyticSurface(0.6, [(0.08, 2, 0)])
    )
    rep = integrals.rigidity_experiment(pair_data(pair, rule_64), rule_64)
    assert rep.verdict == "NotIsometric"
    assert rep.max_metric_residual > 1e-3
    # a control passes the isometric-pair grades by construction
    assert rep.integral_pass and rep.w_mismatch_pass and rep.cone_gap_pass


def test_rigidity_gate_failures(rule_64):
    negative = transport.isometry_pair(
        AnalyticSurface(-0.3), ambient.boost(0.1, [1.0, 0, 0])
    )
    with pytest.raises(GateFailed, match="positive-height region at node 0 "):
        integrals.rigidity_experiment(pair_data(negative, rule_64), rule_64)
    # positive height but sigma2 changes sign: the curvature gate fires
    saddled = AnalyticSurface(0.5, [(0.15, 5, 0)])
    data = pair_data(transport.identity_pair(saddled, saddled), rule_64)
    k = int(np.argmin(data.base.sigma2))
    with pytest.raises(GateFailed, match=rf"surface: sigma2 <= 1e-10 at node {k} \(theta="):
        integrals.rigidity_experiment(data, rule_64)


def test_identities_reject_invalid_correspondence(rule_64):
    pair = transport.identity_pair(
        AnalyticSurface(0.6, [(0.05, 2, 0)]), AnalyticSurface(0.6, [(0.08, 2, 0)])
    )
    with pytest.raises(CorrespondenceInvalid, match=r"at node \d+ \(theta="):
        integrals.verify_identities(pair_data(pair, rule_64), rule_64)


def test_pointwise_garding_bound_under_the_gate(pairs, rule_64):
    data = pairs["boost-perturbed"]
    w = data.base.w_frame
    wt = data.w_tilde_frame
    s2w = w[:, 0, 0] * w[:, 1, 1] - w[:, 0, 1] * w[:, 1, 0]
    s2wt = wt[:, 0, 0] * wt[:, 1, 1] - wt[:, 0, 1] * wt[:, 1, 0]
    tr = lambda m: m[:, 0, 0] + m[:, 1, 1]
    s11 = 0.5 * (tr(w) * tr(wt) - np.einsum("nij,nji->n", w, wt))
    assert np.all(s11 - np.sqrt(s2w * s2wt) >= -1e-10)
    # matched sigma2 on isometric pairs
    assert np.abs(s2w - s2wt).max() < 1e-9
    assert np.all(s11 - s2w >= -1e-10)


@st.composite
def isometric_pairs(draw):
    """A perturbed slice and a boost or rotation, in the benchmark's ranges."""
    rho0 = draw(st.floats(0.5, 0.8))
    modes = {}
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(1, 3))
        order = draw(st.integers(0, degree))
        amp = draw(st.floats(0.005, 0.05)) * draw(st.sampled_from([1.0, -1.0]))
        modes.setdefault((degree, order), amp)
    axis = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(axis)
    axis = axis / norm if norm > 0.1 else np.array([1.0, 0.0, 0.0])
    if draw(st.booleans()):
        limit = min(0.5, rho0 - 0.2)
        iso = ambient.boost(draw(st.floats(-limit, limit)), axis)
    else:
        iso = ambient.rotation(draw(st.floats(0.0, 2.0 * math.pi)), axis)
    surface = AnalyticSurface(rho0, [(a, l, m) for (l, m), a in modes.items()])
    return transport.isometry_pair(surface, iso)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(pair=isometric_pairs())
def test_drawn_isometric_pairs_pass_the_identities(pair, rule_32):
    data = pair_data(pair, rule_32)
    reports, tilde = integrals.verify_identities(data, rule_32)
    for rep in reports:
        assert rep.pass_ and rep.pointwise_max <= integrals.POINTWISE_TOL, rep
    assert tilde <= integrals.TILDE_SYMMETRY_TOL
