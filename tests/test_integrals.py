import math
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from dsrigidity import ambient, cli, geometry, integrals, quadrature, transport
from dsrigidity.errors import CorrespondenceInvalid, GateFailed
from dsrigidity.quadrature import gauss_sphere_rule, reduce_sum
from dsrigidity.surfaces import AnalyticSurface


TOL = cli.DEFAULT_TOLERANCES
#: the rigidity suite's tolerances, as ``cli`` passes them
RIGIDITY_TOL = dict(w_tol=TOL["w_mismatch"], integral_tol=TOL["rigidity_integral_rel"],
                    metric_tol=TOL["metric_pullback"])


def pair_data(pair, rule):
    return pair.node_data(rule.theta, rule.phi, rule)


def test_sphere_rule_recovers_the_measure(rule_64):
    total = reduce_sum(rule_64.weights * np.sin(rule_64.theta) * np.ones(rule_64.theta.size))
    assert abs(total - 4 * math.pi) < 1e-12 * 4 * math.pi
    assert rule_64.weights.min() > 0
    assert np.sin(rule_64.theta).min() > 1e-3


def test_sphere_rule_is_built_once_and_read_only():
    rule = gauss_sphere_rule(24, 48)
    assert gauss_sphere_rule(24, 48) is rule
    for array in (rule.theta, rule.phi, rule.weights, rule.theta_axis, rule.phi_axis):
        with pytest.raises(ValueError):
            array[0] = 0.0


# -- reduce_sum: math.fsum's double by exact extraction ---------------------


def _bits(x):
    return struct.pack("<d", x)


@st.composite
def hard_sums(draw):
    """Arrays of up to 80,000 values whose sums defeat naive summation:
    cancelling pairs, subnormals, exponents across the range and totals a
    hair from a rounding tie, each shuffled into a drawn order."""
    kind = draw(st.sampled_from(["cancel", "subnormal", "wide", "tie"]))
    n = draw(st.integers(1, 80_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-60, 60))
    if kind == "cancel":
        x = rng.standard_normal(n) * scale
        y = -x * (1.0 + rng.choice([0.0, 2.0**-52, -(2.0**-52)], n))
        values = np.concatenate([x, y, rng.standard_normal(draw(st.integers(0, 3))) * 1e-30])
    elif kind == "subnormal":
        values = rng.integers(-(2**40), 2**40, n) * 5e-324
        values[: draw(st.integers(0, min(n, 3)))] = 2.0**-1000
    elif kind == "wide":
        values = rng.standard_normal(n) * 2.0 ** rng.integers(-1070, 899, n).astype(float)
    else:
        # big plus half its ulp, spread over n pieces, then nudged below,
        # above or not at all: exact ties go through the fallback
        big = rng.choice([1.0, -3.0, 2.0**-500, 2.0**800]) * scale
        half_ulp = math.ulp(big) / 2.0
        pieces = np.full(n, half_ulp / 2 ** (n.bit_length())) * (2 ** (n.bit_length()) / n)
        pieces[0] += half_ulp - math.fsum(pieces.tolist())
        nudge = draw(st.sampled_from([0.0, half_ulp * 2.0**-60, -half_ulp * 2.0**-60]))
        values = np.concatenate([[big, nudge], pieces])
    return rng.permutation(values)


@settings(derandomize=True, database=None, deadline=None, max_examples=160)
@given(hard_sums())
def test_reduce_sum_returns_the_fsum_double(values):
    assert _bits(reduce_sum(values)) == _bits(math.fsum(values.tolist()))


@pytest.fixture
def fallbacks(monkeypatch):
    """Lengths of the value lists that ``reduce_sum`` hands to ``math.fsum`` whole."""
    lengths = []

    def fsum(values):
        lengths.append(len(values))
        return math.fsum(values)

    patched = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if k[0] != "_"})
    patched.fsum = fsum
    monkeypatch.setattr(quadrature, "math", patched)
    return lengths


@pytest.mark.parametrize(
    "values",
    [
        [],  # empty
        [0.0] * 12,  # all zero
        [-0.0] * 12,
        [1.0, math.inf] + [0.5] * 10,  # non-finite
        [1.0, -math.inf, math.inf] + [0.5] * 10,
        [math.nan] + [0.5] * 11,
        [2.0**900, 1.0] + [0.5] * 10,  # too large to extract
        [1.0, -1.0] + [0.0] * 10,  # an exact zero, whose sign fsum decides
        [1.0, 2.0**-53] + [0.0] * 10,  # an exact tie: never certified
    ],
    ids=["empty", "zeros", "negative_zeros", "inf", "inf_minus_inf", "nan", "huge",
         "exact_zero", "exact_tie"],
)
def test_reduce_sum_falls_back_to_fsum(values, fallbacks):
    try:
        expected = _bits(math.fsum(values))
    except ValueError as exc:  # fsum's own -inf + inf
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            reduce_sum(np.array(values))
    else:
        assert _bits(reduce_sum(np.array(values))) == expected
    assert fallbacks[-1] == len(values)


def test_reduce_sum_certifies_ordinary_sums(fallbacks):
    values = np.random.default_rng(3).standard_normal(4096) * 1e3
    assert _bits(reduce_sum(values)) == _bits(math.fsum(values.tolist()))
    assert len(values) not in fallbacks


def test_sphere_rule_integrates_harmonics_exactly(rule_64):
    rng = np.random.default_rng(0)
    for _ in range(12):
        l = int(rng.integers(1, 21))
        m = int(rng.integers(0, l + 1))
        vals = sph_harm_y(l, m, rule_64.theta, rule_64.phi).real
        assert abs(reduce_sum(rule_64.weights * np.sin(rule_64.theta) * vals)) < 1e-10


def test_surface_areas(rule_64):
    def integral(surface, func):
        fields = geometry.evaluate_surface(surface, rule_64)
        return reduce_sum(rule_64.weights * fields.sqrt_det_g * func(fields))

    ones = lambda f: np.ones_like(f.theta)
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
        "identity": transport.IdentityCorrespondence(perturbed, perturbed),
        "boost-slice": transport.IsometryCorrespondence(
            AnalyticSurface(0.6), ambient.boost(0.25, [1.0, 0, 0])
        ),
        "boost-perturbed": transport.IsometryCorrespondence(
            perturbed, ambient.boost(0.25, [1.0, 0, 0])
        ),
    }
    return {name: pair_data(pair, rule_64) for name, pair in pairs.items()}


def test_integral_identities_on_all_pairs(pairs, rule_64):
    for name, data in pairs.items():
        reports, _ = integrals.verify_identities(data, rule_64, TOL["metric_pullback"])
        assert [r.label for r in reports] == list("abcd")
        for rep in reports:
            assert rep.residual_rel <= TOL["identity_rel"], (name, rep.label)
            assert rep.pointwise_max <= 1e-8, (name, rep.label)
            assert "+2<V,nu>" in rep.sign_note


def test_statement_sign_does_not_balance(pairs, rule_64):
    data = pairs["identity"]
    reports, _ = integrals.verify_identities(data, rule_64, TOL["metric_pullback"])
    lhs, _, rhs_statement, term_scale = integrals.pair_integrand_tables(data)
    integral = lambda values: reduce_sum(rule_64.weights * data.base.sqrt_det_g * values)
    for rep in reports:
        label = rep.label
        scale = max(integral(np.abs(lhs[label])), integral(term_scale[label]))
        rel = abs(rep.lhs - integral(rhs_statement[label])) / scale
        assert rel > 1e-3
        assert f"-2<V,nu> form residual_rel={rel:.3e}" in rep.sign_note


def test_identity_pair_collapses_a_and_b(pairs, rule_64):
    data = pairs["identity"]
    reports, _ = integrals.verify_identities(data, rule_64, TOL["metric_pullback"])
    by_label = {r.label: r for r in reports}
    assert abs(by_label["a"].lhs - by_label["b"].lhs) < 1e-12
    _, rhs, _, _ = integrals.pair_integrand_tables(data)
    integral = lambda values: reduce_sum(rule_64.weights * data.base.sqrt_det_g * values)
    assert abs(integral(rhs["a"]) - integral(rhs["b"])) < 1e-12


def test_tilde_symmetry_on_all_pairs(pairs, rule_64):
    for name, data in pairs.items():
        _, resid = integrals.verify_identities(data, rule_64, TOL["metric_pullback"])
        assert resid <= 1e-6, name
    # the identity pair is symmetric by construction, exactly
    _, resid = integrals.verify_identities(pairs["identity"], rule_64, TOL["metric_pullback"])
    assert resid < 1e-15


def test_identity_residuals_decay_spectrally():
    # under-resolved rules see a high-frequency surface; doubling the
    # degrees must beat fourth-order decay until the rounding floor
    surf = AnalyticSurface(0.6, [(0.02, 8, 5)])
    pair = transport.IsometryCorrespondence(surf, ambient.boost(0.25, [1.0, 0, 0]))
    resid = []
    for deg in ((16, 32), (32, 64)):
        rule = gauss_sphere_rule(*deg)
        data = pair_data(pair, rule)
        reports, _ = integrals.verify_identities(data, rule, TOL["metric_pullback"])
        resid.append(max(r.residual_rel for r in reports))
    assert resid[1] < resid[0] / 16.0 or resid[1] < 1e-12


def test_identities_hold_for_the_reflection_pair(rule_64):
    # the mirrored partner sits in the minus cone (W~ = -W pulled back);
    # every identity uses the image's own future normal and still balances
    pair = transport.IsometryCorrespondence(
        AnalyticSurface(0.5, [(0.04, 2, 0)]), ambient.reflect_equator()
    )
    data = pair_data(pair, rule_64)
    reports, tilde = integrals.verify_identities(data, rule_64, TOL["metric_pullback"])
    for rep in reports:
        assert rep.residual_rel <= 1e-6 and rep.pointwise_max <= 1e-8
    assert tilde <= 1e-6
    assert np.abs(data.w_tilde_frame + data.base.w_frame).max() < 1e-8


def test_rigidity_on_isometric_pairs(pairs, rule_64):
    for name in ("boost-slice", "boost-perturbed"):
        rep = integrals.rigidity_experiment(pairs[name], rule_64, **RIGIDITY_TOL)
        assert rep.verdict == "Rigid", name
        assert rep.max_w_mismatch <= 1e-6
        assert rep.integral_rel <= 1e-8
        assert rep.sign_factor_min > 0
        assert rep.gap_min >= -1e-10
    rep = integrals.rigidity_experiment(pairs["identity"], rule_64, **RIGIDITY_TOL)
    assert rep.verdict == "Rigid"
    assert rep.max_w_mismatch < 1e-12


def test_rigidity_when_a_node_maps_next_to_the_image_chart_pole(rule_32):
    # one node lands within sin(theta~) = 5.7e-4 of the image chart pole
    axis = np.array([-0.8262995537662207, 0.5545146286727469, 0.09870447828579164])
    pair = transport.IsometryCorrespondence(
        AnalyticSurface(0.7315501103780506, [(0.024414182769641336, 2, 1)]),
        ambient.boost(-0.46826574533131926, axis / np.linalg.norm(axis)),
    )
    data = pair_data(pair, rule_32)
    assert np.sin(data.tilde.theta).min() < 1e-3
    rep = integrals.rigidity_experiment(data, rule_32, **RIGIDITY_TOL)
    assert rep.verdict == "Rigid"
    assert rep.max_w_mismatch <= 1e-10
    assert rep.gap_min >= -1e-12


def test_rigidity_negative_control(rule_64):
    pair = transport.IdentityCorrespondence(
        AnalyticSurface(0.6, [(0.05, 2, 0)]), AnalyticSurface(0.6, [(0.08, 2, 0)])
    )
    rep = integrals.rigidity_experiment(pair_data(pair, rule_64), rule_64, **RIGIDITY_TOL)
    assert rep.verdict == "NotIsometric"
    assert rep.max_metric_residual > 1e-3
    # a control passes the isometric-pair grades by construction
    assert rep.integral_pass and rep.w_mismatch_pass and rep.cone_gap_pass


def test_rigidity_gate_failures(rule_64):
    negative = transport.IsometryCorrespondence(
        AnalyticSurface(-0.3), ambient.boost(0.1, [1.0, 0, 0])
    )
    with pytest.raises(GateFailed, match="positive-height region at node 0 "):
        integrals.rigidity_experiment(pair_data(negative, rule_64), rule_64, **RIGIDITY_TOL)
    # positive height but sigma2 changes sign: the curvature gate fires
    saddled = AnalyticSurface(0.5, [(0.15, 5, 0)])
    data = pair_data(transport.IdentityCorrespondence(saddled, saddled), rule_64)
    k = int(np.argmin(data.base.sigma2))
    with pytest.raises(GateFailed, match=rf"surface: sigma2 <= 1e-10 at node {k} \(theta="):
        integrals.rigidity_experiment(data, rule_64, **RIGIDITY_TOL)


@pytest.mark.parametrize("family, integral_slope", [
    (lambda eps: AnalyticSurface(0.6, [(0.05, 2, 0), (eps, 3, 1)]), 2.0),
    (lambda eps: AnalyticSurface(0.6 + eps, [(0.05, 2, 0)]), 1.0),
], ids=["Y31_mode", "rho0_shift"])
def test_defect_ladder_of_non_isometric_pairs(family, integral_slope, rule_64):
    # S' = S + eps Y_3^1 or S at rho0 + eps over the chart identity: the
    # shape-operator mismatch grows like eps in both families, the rigidity
    # integral like eps^2 under the mode and like eps under the shift; the
    # tilde symmetry and identities a and b never read the isometry
    surface = AnalyticSurface(0.6, [(0.05, 2, 0)])
    eps = np.array([1e-6, 1e-4, 1e-2])
    mismatch, integral = [], []
    for e in eps:
        data = pair_data(transport.IdentityCorrespondence(surface, family(e)), rule_64)
        reports, tilde = integrals.verify_identities(data, rule_64, metric_tol=math.inf)
        assert max(tilde, reports[0].residual_rel, reports[1].residual_rel) < 1e-15
        report = integrals.rigidity_experiment(data, rule_64, **RIGIDITY_TOL)
        assert report.verdict == "NotIsometric"
        mismatch.append(report.max_w_mismatch)
        integral.append(report.integral_rel)
    slope = lambda values: np.polyfit(np.log10(eps), np.log10(values), 1)[0]
    assert abs(slope(mismatch) - 1.0) <= 0.1
    assert abs(slope(integral) - integral_slope) <= 0.1


def test_identities_reject_invalid_correspondence(rule_64):
    pair = transport.IdentityCorrespondence(
        AnalyticSurface(0.6, [(0.05, 2, 0)]), AnalyticSurface(0.6, [(0.08, 2, 0)])
    )
    with pytest.raises(CorrespondenceInvalid, match=r"at node \d+ \(theta="):
        integrals.verify_identities(pair_data(pair, rule_64), rule_64, TOL["metric_pullback"])


def test_pointwise_garding_bound_under_the_gate(pairs, rule_64):
    data = pairs["boost-perturbed"]
    w = data.base.w_frame
    wt = data.w_tilde_frame
    s2w = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
    s2wt = wt[0, 0] * wt[1, 1] - wt[0, 1] * wt[1, 0]
    tr = lambda m: m[0, 0] + m[1, 1]
    s11 = 0.5 * (tr(w) * tr(wt) - np.einsum("ijn,jin->n", w, wt))
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
    return transport.IsometryCorrespondence(surface, iso)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(pair=isometric_pairs())
def test_drawn_isometric_pairs_pass_the_identities(pair, rule_32):
    data = pair_data(pair, rule_32)
    reports, tilde = integrals.verify_identities(data, rule_32, TOL["metric_pullback"])
    for rep in reports:
        assert rep.residual_rel <= TOL["identity_rel"], rep
        assert rep.pointwise_max <= TOL["pointwise"], rep
    assert tilde <= TOL["tilde_symmetry"]
