import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsrigidity import symfun
from reference_forms import component_first, node_major
from dsrigidity.errors import DimensionMismatch, NonHyperbolic, NotInCone
from dsrigidity.symfun import ConeLabel


def random_symmetric(rng, n, scale=5.0):
    a = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (a + a.T)


def shift_into_plus_cone(w, rng):
    report = symfun.cone_classify(w)
    return w + (report.roots[1] + rng.uniform(0.1, 2.0)) * np.eye(w.shape[0])


# property tests draw from a fixed sequence so that every run sees the same cases
deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)
nodes = st.integers(1, 64)


@st.composite
def symmetric_stacks(draw, count=st.integers(1, 6), n=st.integers(2, 6)):
    """An (n, n, count) stack of symmetric matrices with entries in [-5, 5]."""
    count, n = draw(count), draw(n)
    a = draw(arrays(float, (n, n, count), elements=st.floats(-5.0, 5.0)))
    return 0.5 * (a + a.transpose(1, 0, 2))


def symmetric_matrices():
    return symmetric_stacks(count=st.just(1)).map(lambda w: w[..., 0])


def test_sigma1_examples():
    assert symfun.sigma1(np.diag([1.0, 2.0, 3.0])) == 6.0
    assert symfun.sigma1(np.eye(4)) == 4.0
    assert symfun.sigma1(np.zeros((2, 2))) == 0.0


def test_sigma2_examples():
    assert symfun.sigma2(np.eye(3)) == 3.0
    assert symfun.sigma2(np.diag([1.0, 2.0, 3.0])) == 11.0
    assert symfun.sigma2(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0


def test_sigma2_trace_form():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = rng.integers(2, 7)
        w = random_symmetric(rng, n)
        direct = symfun.sigma2(w)
        trace_form = 0.5 * (np.trace(w) ** 2 - np.trace(w @ w))
        assert abs(direct - trace_form) <= 1e-12 * max(1.0, abs(direct))


def test_sigma_all_examples():
    np.testing.assert_allclose(
        symfun.sigma_all(np.diag([1.0, 2.0, 3.0])), [1.0, 6.0, 11.0, 6.0], atol=1e-12
    )
    np.testing.assert_allclose(symfun.sigma_all(np.eye(2)), [1.0, 2.0, 1.0], atol=1e-13)
    np.testing.assert_allclose(symfun.sigma_all(np.zeros((2, 2))), [1.0, 0.0, 0.0])


def test_sigma_all_matches_eigenvalue_products():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = rng.integers(2, 7)
        w = random_symmetric(rng, n)
        sig = symfun.sigma_all(w)
        kappa = np.linalg.eigvalsh(w)
        coeffs = np.poly(kappa)  # t^n - e1 t^{n-1} + e2 t^{n-2} ...
        expected = [(-1.0) ** k * coeffs[k] for k in range(n + 1)]
        np.testing.assert_allclose(sig, expected, rtol=1e-9, atol=1e-9)
        assert abs(sig[2] - symfun.sigma2(w)) <= 1e-12 * max(1.0, abs(sig[2]))


@deterministic
@given(symmetric_matrices())
def test_sigma_all_matches_eigenvalue_products_on_drawn_operators(w):
    # each k x k principal minor carries roundoff of the size of |W|^k, so
    # sigma_k is compared on that scale
    kappa = np.linalg.eigvalsh(w)
    coeffs = np.poly(kappa)  # t^n - e1 t^{n-1} + e2 t^{n-2} ...
    scale = max(1.0, float(np.abs(kappa).max()))
    for k, value in enumerate(symfun.sigma_all(w)):
        assert abs(value - (-1.0) ** k * coeffs[k]) <= 1e-9 * scale**k


def test_sigma_all_takes_subnormal_entries_without_warnings():
    # a subnormal LU pivot makes np.linalg.det divide by zero, so sigma_all
    # flushes subnormal entries; that moves sigma_k by at most tiny * |W|^(k-1)
    tiny = np.finfo(float).tiny
    fixed = [
        ([[0.0, 2.2e-309], [2.2e-309, 2.2e-309]], [1.0, 0.0, 0.0]),
        (
            [[0.0, 1.1e-309, 0.5], [1.1e-309, 0.0, 0.0], [0.5, 0.0, 0.0]],
            [1.0, 0.0, -0.25, 0.0],
        ),
    ]
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, expected in fixed:
            np.testing.assert_allclose(symfun.sigma_all(w), expected, rtol=0, atol=tiny)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            w = random_symmetric(rng, n)
            subnormal = rng.random((n, n)) < 0.5
            w[subnormal] = rng.uniform(-1.0, 1.0, int(subnormal.sum())) * 2e-309
            w = np.triu(w) + np.triu(w, 1).T
            kappa = np.linalg.eigvalsh(w)
            coeffs = np.poly(kappa)
            scale = max(1.0, float(np.abs(kappa).max()))
            for k, value in enumerate(symfun.sigma_all(w)):
                assert abs(value - (-1.0) ** k * coeffs[k]) <= 1e-9 * scale**k


def test_sigma_all_vanishes_above_the_rank():
    # rank one: every principal minor of size >= 2 is zero (power sums
    # through Newton's identities gave sigma_6 = 2.5e-9 here)
    sig = symfun.sigma_all(np.full((6, 6), 3.08203125))
    assert abs(sig[1] - 6 * 3.08203125) <= 1e-12
    assert all(abs(value) <= 1e-12 for value in sig[2:])


@st.composite
def symmetric_pairs(draw, count=st.integers(1, 6)):
    """Two symmetric stacks of one shape."""
    wa = draw(symmetric_stacks(count=count))
    wb = draw(symmetric_stacks(count=st.just(wa.shape[-1]), n=st.just(wa.shape[0])))
    return wa, wb


@deterministic
@given(symmetric_pairs())
def test_stacked_calls_match_per_matrix_calls(pair):
    wa, wb = pair
    s1, s2, d = symfun.sigma1(wa), symfun.sigma2(wa), symfun.d_sigma2(wa)
    s11 = symfun.sigma11(wa, wb)
    t1, t2, labels = symfun.cone_roots(wa)
    for k in range(wa.shape[-1]):
        assert s1[k] == symfun.sigma1(wa[..., k])
        assert s2[k] == symfun.sigma2(wa[..., k])
        np.testing.assert_array_equal(d[..., k], symfun.d_sigma2(wa[..., k]))
        assert abs(s11[k] - symfun.sigma11(wa[..., k], wb[..., k])) < 1e-11
        report = symfun.cone_classify(wa[..., k])
        assert symfun.CONE_LABELS[labels[k]] is report.label
        assert (t1[k], t2[k]) == report.roots


@deterministic
@given(nodes.flatmap(lambda n: arrays(float, (2, n, 2, 2), elements=st.floats(-1e3, 1e3))))
def test_contractions_sum_like_the_node_major_einsum(stacks):
    # the integrands' D(W) : Hess contraction and sigma11 on 2x2 stacks give
    # the bits, signed zeros too, of the einsum they replaced
    a, b = stacks
    old = np.einsum("nij,nij->n", a, b)
    assert symfun.contract(component_first(a), component_first(b)).tobytes() == old.tobytes()
    w, wt = component_first(0.5 * (a + a.transpose(0, 2, 1))), component_first(b)
    old = 0.5 * np.einsum("nij,nij->n", node_major(symfun.d_sigma2(w)), b)
    assert symfun.sigma11(w, wt).tobytes() == old.tobytes()


@deterministic
@given(symmetric_pairs(count=st.just(1)), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
def test_plus_cone_pairs_satisfy_the_cone_inequality(pair, shift, shift_t):
    w, wt = (m[..., 0] for m in pair)
    n = w.shape[0]
    w = w + (symfun.cone_roots(w)[1] + shift) * np.eye(n)
    wt = wt + (symfun.cone_roots(wt)[1] + shift_t) * np.eye(n)
    gap = symfun.garding_gap(w, wt)
    assert gap.gap >= -1e-12 * max(1.0, gap.geo_mean)


def test_d_sigma2_examples():
    d = symfun.d_sigma2(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(d, np.diag([5.0, 4.0, 3.0]))
    np.testing.assert_allclose(symfun.d_sigma2(np.eye(4)), 3.0 * np.eye(4))
    np.testing.assert_allclose(
        symfun.d_sigma2(np.array([[0.0, 1.0], [1.0, 0.0]])),
        np.array([[0.0, -1.0], [-1.0, 0.0]]),
    )


@deterministic
@given(nodes.flatmap(lambda n: arrays(float, (2, 2, n), elements=st.floats(-1e3, 1e3))))
def test_d_sigma2_of_the_transpose_is_the_chart_newton_tensor(w):
    # the chart W = g^-1 h is not symmetric; both Newton divergence checks
    # read T^i_j = sigma1 delta_ij - W^i_j as d_sigma2 of W^T
    t = symfun.d_sigma2(np.swapaxes(w, 0, 1))
    for i in range(2):
        for j in range(2):
            expected = symfun.sigma1(w) * (i == j) - w[i, j]
            assert t[i, j].tobytes() == expected.tobytes(), (i, j)


def test_d_sigma2_is_the_gradient():
    rng = np.random.default_rng(2)
    w = random_symmetric(rng, 4)
    d = symfun.d_sigma2(w)
    h = 1e-6
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4))
            e[i, j] = h
            fd = (symfun.sigma2(w + e) - symfun.sigma2(w - e)) / (2 * h)
            assert abs(d[i, j] - fd) < 1e-7


def test_sigma11_examples():
    w = np.diag([2.0, 1.0])
    assert symfun.sigma11(np.eye(2), w) == 1.5
    assert symfun.sigma11(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 5.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = random_symmetric(rng, 3)
        assert abs(symfun.sigma11(a, a) - symfun.sigma2(a)) <= 1e-12 * max(
            1.0, abs(symfun.sigma2(a))
        )


def test_sigma11_symmetric_bilinear():
    rng = np.random.default_rng(4)
    for _ in range(10000):
        n = rng.integers(2, 7)
        a = random_symmetric(rng, n)
        b = random_symmetric(rng, n)
        ab = symfun.sigma11(a, b)
        ba = symfun.sigma11(b, a)
        assert abs(ab - ba) <= 1e-12 * max(1.0, abs(ab))
    with pytest.raises(DimensionMismatch):
        symfun.sigma11(np.eye(2), np.eye(3))


def test_cone_classify_examples():
    rep = symfun.cone_classify(np.eye(2))
    assert rep.label is ConeLabel.PLUS
    np.testing.assert_allclose(rep.roots, (-1.0, -1.0))
    rep = symfun.cone_classify(-np.eye(2))
    assert rep.label is ConeLabel.MINUS
    np.testing.assert_allclose(rep.roots, (1.0, 1.0))
    rep = symfun.cone_classify(np.diag([1.0, -2.0]))
    assert rep.label is ConeLabel.OUTSIDE
    np.testing.assert_allclose(sorted(rep.roots), (-1.0, 2.0))
    assert symfun.cone_classify(np.zeros((3, 3))).label is ConeLabel.BOUNDARY
    # the small root is free of cancellation; Boundary is relative to the large one
    rep = symfun.cone_classify(np.diag([1.0, 1e-13]))
    assert rep.label is ConeLabel.BOUNDARY
    np.testing.assert_allclose(rep.roots, (-1.0, -1e-13), rtol=1e-15)
    assert symfun.cone_classify(1e-13 * np.eye(2)).label is ConeLabel.PLUS


def test_cone_classify_flags_non_symmetric_input():
    # an antisymmetric matrix sneaks past only through the raw-array path
    # and surfaces as a negative discriminant
    with pytest.raises(NonHyperbolic):
        symfun.cone_classify(np.array([[0.0, 5.0], [-5.0, 0.0]]))


@deterministic
@given(symmetric_matrices())
def test_cone_label_mirrors_under_negation(w):
    mirror = {
        ConeLabel.PLUS: ConeLabel.MINUS,
        ConeLabel.MINUS: ConeLabel.PLUS,
        ConeLabel.OUTSIDE: ConeLabel.OUTSIDE,
        ConeLabel.BOUNDARY: ConeLabel.BOUNDARY,
    }
    assert symfun.cone_classify(-w).label is mirror[symfun.cone_classify(w).label]


@st.composite
def scaled_pairs(draw):
    """Two symmetric operators of one size 2^e, the second proportional to
    the first or not, and a factor 2^k; every nonzero entry, scaled or not,
    lies within 1e+-60."""
    n, e = draw(st.integers(2, 5)), draw(st.integers(-60, 60))
    size = st.floats(1e-15, 1.0)
    entry = st.one_of(st.just(0.0), size, size.map(lambda x: -x))
    sym = lambda a: 0.5 * (a + a.T)
    w = sym(2.0**e * draw(arrays(float, (n, n), elements=entry)))
    if draw(st.booleans()):
        wt = w * 2.0 ** draw(st.integers(-8, 8))
    else:
        wt = sym(2.0**e * draw(arrays(float, (n, n), elements=entry)))
    return w, wt, 2.0 ** draw(st.integers(-60, 60))


@deterministic
@given(scaled_pairs())
def test_cone_label_and_equality_ignore_the_operators_scale(drawn):
    # the Boundary label, the equality flag and the hyperbolicity gate
    # compare the operators with themselves, never with a fixed magnitude
    w, wt, scale = drawn
    reports = []
    for factor in (1.0, scale):
        with pytest.raises(NonHyperbolic):
            symfun.cone_classify(factor * np.array([[0.0, 5.0], [-5.0, 0.0]]))
        a, b = factor * w, factor * wt
        report = symfun.cone_classify(a)
        both_plus = report.label is symfun.cone_classify(b).label is ConeLabel.PLUS
        reports.append((report, both_plus and symfun.garding_gap(a, b).equality))
    (report, equality), (scaled, scaled_equality) = reports
    assert scaled.label is report.label
    assert scaled.roots == tuple(scale * t for t in report.roots)
    assert scaled_equality == equality


def test_garding_gap_examples():
    gap = symfun.garding_gap(np.eye(2), np.diag([2.0, 1.0]))
    assert abs(gap.sigma11 - 1.5) < 1e-15
    assert abs(gap.geo_mean - math.sqrt(2.0)) < 1e-15
    assert abs(gap.gap - 0.0857864376269) < 1e-9
    assert not gap.equality

    gap = symfun.garding_gap(np.diag([1.0, 1.0]), np.diag([1.0, 2.0]))
    assert abs(gap.gap - (1.5 - math.sqrt(2.0))) < 1e-15
    assert gap.gap > 0 and not gap.equality
    assert not symfun.garding_gap(np.diag([1e-6, 2e-6]), np.diag([2e-6, 1e-6])).equality

    rng = np.random.default_rng(6)
    w = shift_into_plus_cone(random_symmetric(rng, 3), rng)
    gap = symfun.garding_gap(w, 3.0 * w)
    assert gap.equality and abs(gap.gap) <= 1e-10 * max(1.0, gap.geo_mean)


def test_garding_gap_requires_plus_cone():
    with pytest.raises(NotInCone):
        symfun.garding_gap(np.eye(2), np.diag([1.0, -2.0]))
    with pytest.raises(NotInCone):
        symfun.garding_gap(-np.eye(2), np.eye(2))


def test_equality_case_recovers_the_operator():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(2, 7)
        w = shift_into_plus_cone(random_symmetric(rng, n), rng)
        c = rng.uniform(0.2, 5.0)
        wt = c * w
        gap = symfun.garding_gap(w, wt)
        assert gap.equality
        # sigma11(W, cW) = c sigma2(W) recovers the factor
        assert abs(symfun.sigma11(w, wt) / symfun.sigma2(w) - c) <= 1e-9 * c
        matched = wt * math.sqrt(symfun.sigma2(w) / symfun.sigma2(wt))
        assert np.linalg.norm(w - matched) <= 1e-8


def test_near_equality_perturbation():
    rng = np.random.default_rng(8)
    w = shift_into_plus_cone(random_symmetric(rng, 4), rng)
    wt = w + 1e-13 * random_symmetric(rng, 4)
    gap = symfun.garding_gap(w, wt)
    assert gap.equality
    matched = wt * math.sqrt(symfun.sigma2(w) / symfun.sigma2(wt))
    assert np.linalg.norm(w - matched) <= 1e-8
    # a visible perturbation must break the equality flag
    wt = w + 0.5 * np.diag([1.0, -1.0, 0.5, -0.5])
    assert not symfun.garding_gap(w, wt).equality


def test_sigma_line_coefficients_match_direct_expansion():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = rng.integers(2, 5)
        w = random_symmetric(rng, n)
        for k in range(1, n + 1):
            coeffs = symfun.sigma_line_coefficients(w, k)
            ts = rng.uniform(-2.0, 2.0, 5)
            for t in ts:
                direct = symfun.sigma_all(w + t * np.eye(n))[k]
                assert abs(np.polyval(coeffs, t) - direct) <= 1e-9 * max(
                    1.0, abs(direct)
                )
