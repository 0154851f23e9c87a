import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from dsrigidity import ambient
from dsrigidity.errors import ChartPole, ConfigError
from dsrigidity.quadrature import gauss_sphere_rule
from dsrigidity.surfaces import (
    AnalyticSurface,
    HarmonicMode,
    SampledGridSurface,
    grid_scalar_jets,
)


class Jet3rd:
    """Third-order forward-mode jet in (theta, phi), derivative axes first.

    The package's jets stop at second order; this oracle keeps the product
    and chain rules through third order, so the closed-form d3y of
    ``AnalyticSurface.jets`` is checked against an independent route.
    Operands share one batch shape.
    """

    def __init__(self, f, d, d2, d3):
        self.f, self.d, self.d2, self.d3 = f, d, d2, d3

    @classmethod
    def constant(cls, value):
        value = np.asarray(value, dtype=float)
        shape = value.shape
        return cls(value, np.zeros((2,) + shape), np.zeros((2, 2) + shape),
                   np.zeros((2, 2, 2) + shape))

    @classmethod
    def variable(cls, value, index):
        jet = cls.constant(value)
        jet.d[index] = 1.0
        return jet

    def _chain(self, u, u1, u2, u3):
        """A scalar function with derivatives u1, u2, u3 at self.f."""
        d, d2 = self.d, self.d2
        outer = d[:, None] * d[None, :]
        sym = (
            d2[:, :, None] * d[None, None, :]
            + d2[:, None, :] * d[None, :, None]
            + d2[None, :, :] * d[:, None, None]
        )
        return Jet3rd(
            u, u1 * d, u2 * outer + u1 * d2,
            u3 * outer[:, :, None] * d[None, None, :] + u2 * sym + u1 * self.d3,
        )

    def __add__(self, other):
        if not isinstance(other, Jet3rd):
            return Jet3rd(self.f + other, self.d, self.d2, self.d3)
        return Jet3rd(self.f + other.f, self.d + other.d, self.d2 + other.d2,
                      self.d3 + other.d3)

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, other):
        if not isinstance(other, Jet3rd):
            return Jet3rd(self.f * other, self.d * other, self.d2 * other, self.d3 * other)
        s, o = self, other
        d2 = s.d2 * o.f + s.d[:, None] * o.d[None, :] + o.d[:, None] * s.d[None, :] + s.f * o.d2
        d3 = (
            s.d3 * o.f
            + s.d2[:, :, None] * o.d[None, None, :]
            + s.d2[:, None, :] * o.d[None, :, None]
            + s.d2[None, :, :] * o.d[:, None, None]
            + o.d2[:, :, None] * s.d[None, None, :]
            + o.d2[:, None, :] * s.d[None, :, None]
            + o.d2[None, :, :] * s.d[:, None, None]
            + s.f * o.d3
        )
        return Jet3rd(s.f * o.f, s.d * o.f + s.f * o.d, d2, d3)

    __rmul__ = __mul__

    def sin(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self._chain(s, c, -s, -c)

    def cos(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return self._chain(c, -s, -c, s)


def harmonic_by_composed_jets(l, m, theta, phi):
    """Third-order jet of Re Y_l^m composed from jet arithmetic: cos, sin and
    the Legendre recurrence run on Jet3rd, independent of the closed form."""
    jt = Jet3rd.variable(theta, 0)
    jp = Jet3rd.variable(phi, 1)
    x, s = jt.cos(), jt.sin()
    pmm = Jet3rd.constant(np.full(np.shape(theta), (-1.0) ** m))
    for k in range(1, m + 1):
        pmm = pmm * s * float(2 * k - 1)
    plm = pmm
    if l > m:
        pm1 = x * float(2 * m + 1) * pmm
        for ll in range(m + 2, l + 1):
            pmm, pm1 = pm1, (x * float(2 * ll - 1) * pm1 - float(ll + m - 1) * pmm) * (
                1.0 / float(ll - m)
            )
        plm = pm1
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )
    return norm * plm * (jp * float(m)).cos()


def _assert_jets_close(ours, ref, rel):
    """``ours`` is (y, dy, d2y, d3y); ``ref`` a Jet3rd, laid out alike."""
    for a, b in zip(ours, (ref.f, ref.d, ref.d2, ref.d3), strict=True):
        a, b = np.broadcast_arrays(a, b)
        assert np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (5, 3), (8, 8)])
def test_real_harmonics_match_scipy(l, m):
    rng = np.random.default_rng(l * 10 + m)
    theta = rng.uniform(0.05, math.pi - 0.05, 60)
    phi = rng.uniform(0.0, 2.0 * math.pi, 60)
    y, _, _ = AnalyticSurface(0.0, [(1.0, l, m)]).height_jet(theta, phi)
    ref = sph_harm_y(l, m, theta, phi).real
    assert np.abs(y - ref).max() < 1e-12


def test_closed_form_jets_match_composed_jets():
    rng = np.random.default_rng(7)
    near_poles = np.arcsin(np.array([1e-3, 3e-3, 1e-2]))
    theta = np.concatenate(
        [near_poles, math.pi - near_poles, rng.uniform(0.05, math.pi - 0.05, 60)]
    )
    phi = rng.uniform(0.0, 2.0 * math.pi, theta.size)
    surfaces = [
        (AnalyticSurface(0.0, [(1.0, l, m)]), harmonic_by_composed_jets(l, m, theta, phi))
        for l in range(7)
        for m in range(l + 1)
    ]
    two_modes = AnalyticSurface(0.6, [(0.05, 2, 0), (0.02, 3, 1)])
    two_ref = 0.6 + 0.05 * harmonic_by_composed_jets(2, 0, theta, phi) + (
        0.02 * harmonic_by_composed_jets(3, 1, theta, phi)
    )
    surfaces.append((two_modes, two_ref))
    for surface, ref in surfaces:
        ours = surface.jets(theta, phi)
        _assert_jets_close(ours, ref, 1e-12)
        # the second-order jet reads the same table
        for a, b in zip(surface.height_jet(theta, phi), ours, strict=False):
            assert np.array_equal(a, b)


def test_harmonic_jets_match_finite_differences():
    theta = np.linspace(0.4, 2.7, 25)
    phi = np.linspace(0.1, 6.1, 25)
    surf = AnalyticSurface(0.5, [(0.1, 3, 1), (0.05, 2, 0)])
    y, dy, d2y, d3y = surf.jets(theta, phi)
    h = 1e-5

    def val(t, p):
        return surf.jets(t, p)[0]

    dt = (val(theta + h, phi) - val(theta - h, phi)) / (2 * h)
    dp = (val(theta, phi + h) - val(theta, phi - h)) / (2 * h)
    assert np.abs(dy[0] - dt).max() < 1e-9
    assert np.abs(dy[1] - dp).max() < 1e-9
    dtt = (val(theta + h, phi) - 2 * val(theta, phi) + val(theta - h, phi)) / h**2
    assert np.abs(d2y[0, 0] - dtt).max() < 1e-5

    def hess(t, p):
        return surf.jets(t, p)[2]

    d3_fd = (hess(theta + h, phi) - hess(theta - h, phi)) / (2 * h)
    assert np.abs(d3y[:, :, 0] - d3_fd).max() < 1e-6


def test_height_values_agree_with_jets_and_allow_poles():
    surf = AnalyticSurface(0.4, [(0.07, 4, 2)])
    theta = np.linspace(0.2, 2.9, 17)
    phi = np.linspace(0.0, 6.2, 17)
    # one table sums the series for values and jets alike
    y = surf.height(theta, phi)
    assert np.array_equal(surf.height_jet(theta, phi)[0], y)
    assert np.array_equal(surf.jets(theta, phi)[0], y)
    # value evaluation is defined at the poles themselves
    at_pole = surf.height(np.array([0.0, math.pi]), np.array([0.3, 1.1]))
    assert np.all(np.isfinite(at_pole))
    for jets in (surf.height_jet, surf.jets):
        with pytest.raises(ChartPole):
            jets(np.array([1e-9]), np.array([0.0]))


@pytest.mark.parametrize(
    "modes",
    [
        [],
        [(0.0, 0, 0)],  # an l = 0 mode: some Legendre factors are Python scalars
        [(0.1, 0, 0)],
        [(0.05, 1, 1)],  # the ladder reaches orders m + k above l
        [(0.05, 2, 0), (0.03, 3, 1)],
        [(0.02, 4, 3), (-0.01, 1, 0), (0.01, 0, 0)],
    ],
    ids=["slice", "l0_zero", "l0", "l1_m1", "two_modes", "three_modes"],
)
def test_grid_jets_have_the_bits_of_the_flat_nodes(modes):
    # a grid's (n_theta, 1) column and (1, n_phi) row evaluate each factor
    # once per row or column; the jets must equal those at the flat nodes
    surf = AnalyticSurface(0.6, modes)
    rule = gauss_sphere_rule(16, 24)
    for evaluate in (surf.height_jet, surf.jets):
        for a, b in zip(evaluate(*rule.mesh), evaluate(rule.theta, rule.phi), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    sampled = SampledGridSurface.from_height(surf, 12, 20)
    flat = surf.height(sampled.grid.theta, sampled.grid.phi)
    assert sampled.values.shape == (12, 20)
    assert sampled.values.tobytes() == flat.tobytes()


def test_jets_name_the_first_node_at_a_chart_pole():
    # one pole check for the jets and the ambient Lie-derivative residual
    surf = AnalyticSurface(0.4, [(0.07, 4, 2)])
    theta = np.array([1.0, 2.0, math.pi - 1e-9, 1e-9])
    phi = np.zeros(4)
    for evaluate in (surf.height_jet, surf.jets):
        with pytest.raises(ChartPole, match=r"node 2: theta = 3\.14 too close to a chart pole"):
            evaluate(theta, phi)
    # on a grid's column of row values the node is counted over the whole grid
    column = np.array([[1.0], [2.0], [1e-9]])
    with pytest.raises(ChartPole, match=r"node 8: theta = 1e-09 too close to a chart pole"):
        surf.height_jet(column, np.zeros((1, 4)))
    with pytest.raises(ChartPole, match=r"node 2: theta = 3\.14 too close to a chart pole"):
        ambient.lie_derivative_residual(np.zeros(4), theta, np.ones((3, 4)), np.ones((3, 4)))


def test_height_bound_bounds_every_height():
    surf = AnalyticSurface(-0.4, [(0.07, 4, 2), (-0.3, 1, 0), (0.2, 6, 6)])
    # |rho0| + sum |eps| sqrt((2l + 1) / (4 pi))
    bound = 0.4 + (0.07 * math.sqrt(9) + 0.3 * math.sqrt(3) + 0.2 * math.sqrt(13)) / math.sqrt(
        4 * math.pi)
    assert surf.height_bound() == pytest.approx(bound, rel=1e-15)
    theta, phi = np.meshgrid(np.linspace(0.0, math.pi, 181), np.linspace(0.0, 2 * math.pi, 361))
    assert np.abs(surf.height(theta, phi)).max() <= surf.height_bound()
    # a zonal mode attains the bound at the north pole
    zonal = AnalyticSurface(0.5, [(0.1, 3, 0)])
    at_pole = zonal.height(np.zeros(1), np.zeros(1))[0]
    assert at_pole == pytest.approx(zonal.height_bound(), rel=1e-15)


def test_slope_matches_jets_and_stays_finite_at_the_poles():
    # one mode of every (l, m) with l <= 7 exercises the division-free
    # m P_l^m / sin(theta) for each order
    modes = [(0.01 / (l + 1), l, m) for l in range(1, 8) for m in range(l + 1)]
    surf = AnalyticSurface(0.3, modes)
    theta = np.linspace(0.05, math.pi - 0.05, 23)
    phi = np.linspace(0.0, 6.2, 23)
    y, dy, _, _ = surf.jets(theta, phi)
    height, slope2 = surf.slope(theta, phi)
    np.testing.assert_allclose(height, y, atol=1e-14)
    np.testing.assert_allclose(
        slope2, dy[0] ** 2 + (dy[1] / np.sin(theta)) ** 2, rtol=1e-12, atol=1e-15
    )
    # at a pole the value is the limit along the meridian phi
    phi_pole = np.array([0.3, 2.0, 0.3, 4.0])
    at_pole = surf.slope(np.array([0.0, 0.0, math.pi, math.pi]), phi_pole)[1]
    near_pole = surf.slope(np.array([1e-9, 1e-9, math.pi - 1e-9, math.pi - 1e-9]), phi_pole)[1]
    np.testing.assert_allclose(at_pole, near_pole, rtol=1e-7)


def test_slope_reads_the_height_series():
    # y and y_theta are entries of the derivative table that height and jets
    # read, so they keep its bits; on a zonal surface y_phi vanishes and
    # |grad y|^2 is y_theta^2 exactly
    theta = np.linspace(0.05, math.pi - 0.05, 23)
    phi = np.linspace(0.0, 6.2, 23)
    surf = AnalyticSurface(0.3, [(0.05, 2, 0), (0.02, 5, 3), (-0.01, 4, 4)])
    assert surf.slope(theta, phi)[0].tobytes() == surf.height(theta, phi).tobytes()
    zonal = AnalyticSurface(-0.2, [(0.05, 2, 0), (0.03, 7, 0)])
    y_theta = zonal.jets(theta, phi)[1][0]
    assert zonal.slope(theta, phi)[1].tobytes() == (y_theta**2).tobytes()
    # a mode-free surface has zero slope at every node, shaped like theta
    flat = AnalyticSurface(0.4).slope(theta, phi)
    assert flat[1].shape == theta.shape and not flat[1].any()


def test_mode_validation():
    with pytest.raises(ValueError):
        HarmonicMode(0.1, 2, 3)
    with pytest.raises(ValueError):
        HarmonicMode(0.1, 2, -1)


def test_reflection_negates_heights_and_round_trips():
    surf = AnalyticSurface(0.5, [(0.05, 2, 0)])
    mirrored = surf.reflected()
    theta = np.linspace(0.3, 2.8, 11)
    phi = np.linspace(0.0, 6.0, 11)
    y, dy, _, _ = surf.jets(theta, phi)
    ym, dym, _, _ = mirrored.jets(theta, phi)
    np.testing.assert_allclose(ym, -y, atol=1e-15)
    np.testing.assert_allclose(dym, -dy, atol=1e-15)
    again = mirrored.reflected()
    np.testing.assert_allclose(again.jets(theta, phi)[0], y, atol=1e-15)


def test_sampled_grid_jets_converge_at_second_order():
    surf = AnalyticSurface(0.6, [(0.05, 2, 0), (0.02, 3, 1)])
    errors = []
    for n in (32, 64, 128):
        grid = SampledGridSurface.from_height(surf, n, 2 * n)
        tt, pp = grid.grid.theta, grid.grid.phi
        y_t, dy_t, d2y_t, _ = surf.jets(tt, pp)
        y_s, dy_s, d2y_s, _ = grid.grid_jets()
        np.testing.assert_allclose(y_s, y_t, atol=1e-14)
        errors.append(np.abs(d2y_s - d2y_t).max())
    assert errors[0] / errors[1] > 3.0
    assert errors[1] / errors[2] > 3.0


def test_pole_reflection_extension_is_exact_for_smooth_fields():
    surf = AnalyticSurface(0.3, [(0.05, 3, 2)])
    grid = SampledGridSurface.from_height(surf, 24, 48)
    _, dy, _ = grid_scalar_jets(grid.values, order=2)
    # first theta row uses ghost rows; compare against the analytic derivative
    tt, pp = grid.grid.theta, grid.grid.phi
    _, dy_t, _, _ = surf.jets(tt, pp)
    assert np.abs(dy[0] - dy_t[0]).max() < 5e-3


def test_sampled_grid_validation():
    with pytest.raises(ConfigError, match="sampled grid: '8x7' needs"):
        SampledGridSurface(np.zeros((8, 7)))  # odd phi count
    with pytest.raises(ValueError):
        SampledGridSurface(np.zeros(8))
