"""Spacelike graph surfaces over the sphere: height descriptors and jets.

A surface is a height function y(theta, phi) over the unit sphere; the
numerical engine needs its chart jets at arbitrary nodes (analytic
surfaces) or at the nodes of a fixed sampling grid (sampled surfaces):
second order for the pair suites, third order for the curvature checks of
the single-surface suite.  Heights are built from constant slices plus real
spherical harmonic perturbations; each harmonic is a product of a theta
factor and a phi factor, so every jet entry is a product of closed-form
derivatives.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .ambient import POLE_MARGIN
from .errors import ChartPole


#: (l + m)! with m <= l stays below the float maximum (171! does not)
MAX_DEGREE = 85


@dataclass(frozen=True)
class HarmonicMode:
    """One perturbation term: amplitude times Re Y_l^m."""

    amplitude: float
    degree: int
    order: int

    def __post_init__(self):
        if self.degree < 0 or not 0 <= self.order <= self.degree:
            raise ValueError(
                f"invalid mode (l={self.degree}, m={self.order}); need 0 <= m <= l"
            )
        if self.degree > MAX_DEGREE:
            raise ValueError(
                f"invalid mode (l={self.degree}, m={self.order}); need l <= {MAX_DEGREE}, "
                "where the (l + m)! of the Re Y_l^m normalization is a float"
            )


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def assoc_legendre(l, m, x, s):
    """P_l^m(cos theta) for 0 <= m <= l, with sin(theta) passed separately.

    ``x`` is cos(theta) and ``s`` sin(theta); using sin(theta) directly
    avoids the sqrt(1 - x^2) branch at the poles.  Includes the
    Condon-Shortley phase, matching scipy's convention.
    """
    pmm = ((-1.0) ** m) * _double_factorial(2 * m - 1) * s**m
    if l == m:
        return pmm
    pm1 = x * float(2 * m + 1) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        p = (x * float(2 * ll - 1) * pm1 - float(ll + m - 1) * pmm) * (
            1.0 / float(ll - m)
        )
        pmm, pm1 = pm1, p
    return pm1


def _legendre_any_order(l, m, x, s):
    """P_l^m for every integer m: zero for |m| > l and, for m < 0,
    P_l^m = (-1)^m (l+m)!/(l-m)! P_l^{-m}."""
    if abs(m) > l:
        return 0.0
    if m >= 0:
        return assoc_legendre(l, m, x, s)
    scale = (-1.0) ** m * math.factorial(l + m) / math.factorial(l - m)
    return scale * assoc_legendre(l, -m, x, s)


def _legendre_theta_derivatives(l, m, x, s, order):
    """(d/dtheta)^k P_l^m(cos theta) for k = 0..order, division-free.

    Applies the ladder d/dtheta P_l^m = (P_l^{m+1} - (l+m)(l-m+1) P_l^{m-1}) / 2
    to the coefficients of a combination of orders m - order .. m + order.
    """
    p = {mu: _legendre_any_order(l, mu, x, s) for mu in range(m - order, m + order + 1)}
    coeffs = {m: 1.0}
    out = []
    for _ in range(order + 1):
        out.append(sum(c * p[mu] for mu, c in coeffs.items()))
        step = {}
        for mu, c in coeffs.items():
            step[mu + 1] = step.get(mu + 1, 0.0) + 0.5 * c
            step[mu - 1] = step.get(mu - 1, 0.0) - 0.5 * c * (l + mu) * (l - mu + 1)
        coeffs = step
    return out


def _legendre_m_over_sin(l, m, x, s):
    """m P_l^m(cos theta) / sin(theta), finite at the poles: 2m P_l^m / sin(theta)
    = -(P_{l+1}^{m+1} + (l-m+1)(l-m+2) P_{l+1}^{m-1})."""
    lower = float((l - m + 1) * (l - m + 2)) * _legendre_any_order(l + 1, m - 1, x, s)
    return -0.5 * (_legendre_any_order(l + 1, m + 1, x, s) + lower)


def _sph_norm(l, m):
    """Normalization of Re Y_l^m in scipy's convention."""
    return math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )


class AnalyticSurface:
    """Height y = rho0 + sum_k eps_k Re Y_{l_k}^{m_k}, with closed-form jets."""

    def __init__(self, rho0: float, modes=()):
        self.rho0 = float(rho0)
        self.modes = tuple(
            m if isinstance(m, HarmonicMode) else HarmonicMode(*m) for m in modes
        )

    def __repr__(self):
        terms = ", ".join(
            f"{m.amplitude:+g}*Y({m.degree},{m.order})" for m in self.modes
        )
        return f"AnalyticSurface(rho0={self.rho0:g}{', ' + terms if terms else ''})"

    def _derivative_table(self, theta, phi, order):
        """part[k][j]: the height with k theta and j phi derivatives, k + j <=
        order.  Each mode is separable, so an entry is (d/dtheta)^k P_l^m
        times (d/dphi)^j cos(m phi)."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        x, s = np.cos(theta), np.sin(theta)
        if np.any(s < POLE_MARGIN):
            raise ChartPole("node too close to a chart pole")
        part = [
            [np.zeros(theta.shape) for _ in range(order + 1 - k)] for k in range(order + 1)
        ]
        part[0][0] += self.rho0
        for mode in self.modes:
            l, m = mode.degree, mode.order
            scale = mode.amplitude * _sph_norm(l, m)
            p_theta = _legendre_theta_derivatives(l, m, x, s, order)
            c, sn = np.cos(m * phi), np.sin(m * phi)
            p_phi = (c, -m * sn, -m * m * c, m**3 * sn)
            for k in range(order + 1):
                for j in range(order + 1 - k):
                    part[k][j] = part[k][j] + scale * p_theta[k] * p_phi[j]
        return part

    def height_jet(self, theta, phi) -> jets.Jet3:
        """Closed-form second-order jet of the height."""
        part = self._derivative_table(theta, phi, 2)
        return jets.Jet3(part[0][0], _derivative_tensor(part, 1), _derivative_tensor(part, 2))

    def jets(self, theta, phi):
        """Closed-form (y, dy, d2y, d3y) arrays with the node axis first."""
        part = self._derivative_table(theta, phi, 3)
        return (part[0][0],) + tuple(
            np.moveaxis(_derivative_tensor(part, n), range(n), range(-n, 0))
            for n in (1, 2, 3)
        )

    def height(self, theta, phi):
        """Height values only; safe at the chart poles."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        y = np.full(theta.shape, self.rho0)
        x = np.cos(theta)
        s = np.sin(theta)
        for mode in self.modes:
            l, m = mode.degree, mode.order
            plm = assoc_legendre(l, m, x, s)
            y = y + mode.amplitude * _sph_norm(l, m) * plm * np.cos(m * phi)
        return y

    def slope(self, theta, phi):
        """Height y and |grad y|^2 = y_theta^2 + (y_phi / sin theta)^2 on the
        unit sphere, at node arrays; safe at the chart poles."""
        x, s = np.cos(theta), np.sin(theta)
        y, y_theta, y_phi_over_sin = np.full(theta.shape, self.rho0), 0.0, 0.0
        for mode in self.modes:
            l, m = mode.degree, mode.order
            scale = mode.amplitude * _sph_norm(l, m)
            p, dp = _legendre_theta_derivatives(l, m, x, s, 1)
            c, sn = np.cos(m * phi), np.sin(m * phi)
            y, y_theta = y + scale * p * c, y_theta + scale * dp * c
            y_phi_over_sin = y_phi_over_sin - scale * _legendre_m_over_sin(l, m, x, s) * sn
        return y, y_theta**2 + y_phi_over_sin**2

    def reflected(self):
        """Mirror image across the equator, y -> -y; W changes sign."""
        return AnalyticSurface(
            -self.rho0,
            [HarmonicMode(-m.amplitude, m.degree, m.order) for m in self.modes],
        )


def _derivative_tensor(part, n):
    """The n-th derivative tensor of a derivative table, derivative axes first."""
    out = np.empty((2,) * n + np.shape(part[0][0]))
    for idx in np.ndindex(*(2,) * n):
        out[idx] = part[n - sum(idx)][sum(idx)]
    return out


def node_arrays(jet):
    """Jet components as (y, dy, d2y) arrays with the node axis first."""
    return (
        np.asarray(jet.f, dtype=float),
        np.moveaxis(np.asarray(jet.d), 0, -1),
        np.moveaxis(np.asarray(jet.d2), (0, 1), (-2, -1)),
    )


class SampledGridSurface:
    """Heights sampled on a pole-free (theta, phi) grid; jets by stencils.

    The grid is cell-centered in theta, theta_i = (i + 1/2) pi / n_theta,
    and uniform periodic in phi.  Derivatives use second-order central
    differences; theta rows next to the poles are closed with ghost rows
    obtained by reflecting across the pole (phi shifted by pi), which
    keeps every stencil central.  Requires n_phi even.
    """

    def __init__(self, values, n_theta=None, n_phi=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("expected a 2-d grid of heights")
        if n_theta is not None and values.shape != (n_theta, n_phi):
            raise ValueError("grid shape does not match declared resolution")
        if values.shape[1] % 2 != 0:
            raise ValueError("n_phi must be even for pole reflection")
        self.values = values
        self.n_theta, self.n_phi = values.shape
        self.theta_grid = (np.arange(self.n_theta) + 0.5) * math.pi / self.n_theta
        self.phi_grid = np.arange(self.n_phi) * 2.0 * math.pi / self.n_phi
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"non-finite height {values[i, j]} at grid index [{i}, {j}] "
                f"(theta={self.theta_grid[i]:.4f}, phi={self.phi_grid[j]:.4f})"
            )

    @classmethod
    def from_height(cls, surface, n_theta, n_phi):
        """Sample another surface's heights on the standard grid."""
        grid = cls(np.zeros((n_theta, n_phi)))
        tt, pp = np.meshgrid(grid.theta_grid, grid.phi_grid, indexing="ij")
        return cls(surface.height(tt, pp))

    def nodes(self):
        tt, pp = np.meshgrid(self.theta_grid, self.phi_grid, indexing="ij")
        return tt.ravel(), pp.ravel()

    def grid_jets(self):
        """Jets (y, dy, d2y, d3y) at every grid node, flattened theta-major."""
        return grid_scalar_jets(self.values)

    def reflected(self):
        """Mirror image across the equator, y -> -y; W changes sign."""
        return SampledGridSurface(-self.values)


def pole_extend(values, pad):
    """Ghost rows across both poles for a scalar field on the sphere.

    A smooth scalar satisfies F(-theta, phi) = F(theta, phi + pi), so the
    extension is a reversed block with a half-turn in phi; every theta
    stencil then stays central.
    """
    shift = values.shape[1] // 2
    top = np.roll(values[:pad][::-1], shift, axis=1)
    bot = np.roll(values[-pad:][::-1], shift, axis=1)
    return np.concatenate([top, values, bot], axis=0)


def grid_scalar_derivatives(values, order=2):
    """Central-difference derivatives of a scalar grid field.

    Returns a dict with keys 't', 'p', 'tt', 'tp', 'pp' (plus the third
    derivatives 'ttt', 'ttp', 'tpp', 'ppp' when order = 3), every array
    shaped like ``values``.  Second-order accurate everywhere.
    """
    n_theta, n_phi = values.shape
    pad = 3
    ext = pole_extend(values, pad)
    ht = math.pi / n_theta
    hp = 2.0 * math.pi / n_phi

    def d_theta(arr):
        return (arr[pad + 1 : pad + 1 + n_theta] - arr[pad - 1 : pad - 1 + n_theta]) / (2 * ht)

    def d2_theta(arr):
        core = arr[pad : pad + n_theta]
        return (
            arr[pad + 1 : pad + 1 + n_theta]
            - 2 * core
            + arr[pad - 1 : pad - 1 + n_theta]
        ) / ht**2

    def d3_theta(arr):
        return (
            arr[pad + 2 : pad + 2 + n_theta]
            - 2 * arr[pad + 1 : pad + 1 + n_theta]
            + 2 * arr[pad - 1 : pad - 1 + n_theta]
            - arr[pad - 2 : pad - 2 + n_theta]
        ) / (2 * ht**3)

    def d_phi(arr):
        return (np.roll(arr, -1, axis=1) - np.roll(arr, 1, axis=1)) / (2 * hp)

    def d2_phi(arr):
        return (np.roll(arr, -1, axis=1) - 2 * arr + np.roll(arr, 1, axis=1)) / hp**2

    def d3_phi(arr):
        return (
            np.roll(arr, -2, axis=1)
            - 2 * np.roll(arr, -1, axis=1)
            + 2 * np.roll(arr, 1, axis=1)
            - np.roll(arr, 2, axis=1)
        ) / (2 * hp**3)

    out = {
        "t": d_theta(ext),
        "p": d_phi(values),
        "tt": d2_theta(ext),
        "tp": d_phi(d_theta(ext)),
        "pp": d2_phi(values),
    }
    if order >= 3:
        out["ttt"] = d3_theta(ext)
        out["ttp"] = d_phi(d2_theta(ext))
        out["tpp"] = d2_phi(d_theta(ext))
        out["ppp"] = d3_phi(values)
    return out


def grid_scalar_jets(values, order=3):
    """Node-major jet arrays (y, dy, d2y[, d3y]) for a sampled scalar field;
    d3y only when order = 3."""
    d = grid_scalar_derivatives(values, order)
    n = values.size
    dy = np.stack([d["t"], d["p"]], axis=-1).reshape(n, 2)
    d2y = np.empty((n, 2, 2))
    d2y[:, 0, 0] = d["tt"].ravel()
    d2y[:, 0, 1] = d2y[:, 1, 0] = d["tp"].ravel()
    d2y[:, 1, 1] = d["pp"].ravel()
    y = np.ascontiguousarray(values.ravel(), dtype=float)
    if order < 3:
        return y, dy, d2y
    d3y = np.empty((n, 2, 2, 2))
    d3y[:, 0, 0, 0] = d["ttt"].ravel()
    d3y[:, 0, 0, 1] = d3y[:, 0, 1, 0] = d3y[:, 1, 0, 0] = d["ttp"].ravel()
    d3y[:, 0, 1, 1] = d3y[:, 1, 0, 1] = d3y[:, 1, 1, 0] = d["tpp"].ravel()
    d3y[:, 1, 1, 1] = d["ppp"].ravel()
    return y, dy, d2y, d3y
