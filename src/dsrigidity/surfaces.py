"""Spacelike graph surfaces over the sphere: height descriptors and jets.

A surface is a height function y(theta, phi) over the unit sphere; the
numerical engine needs its chart jets at arbitrary nodes (analytic
surfaces) or at the nodes of a fixed sampling grid (sampled surfaces),
through second order for every suite: the curvature checks of the
single-surface suite read third derivatives of the height only in totally
symmetric combinations that cancel.  Heights are built from constant slices
plus real spherical harmonic perturbations; each harmonic is a product of a
theta factor and a phi factor, so every jet entry is a product of
closed-form derivatives.

Jets are stored derivative axes first and the node axis last: ``dy`` is
``(2, n)`` and ``d2y`` ``(2, 2, n)``, each C-contiguous, so ``d2y[i, j]`` is
the node array of one component.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ambient import check_off_poles
from .errors import ConfigError
from .quadrature import ProductGrid


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
    out = [p[m]]
    for _ in range(order):
        step = {}
        for mu, c in coeffs.items():
            step[mu + 1] = step.get(mu + 1, 0.0) + 0.5 * c
            step[mu - 1] = step.get(mu - 1, 0.0) - 0.5 * c * (l + mu) * (l - mu + 1)
        coeffs = step
        out.append(sum(c * p[mu] for mu, c in coeffs.items()))
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

    def height_bound(self):
        """A bound B >= |y| on the whole sphere: |Re Y_l^m| <= sqrt((2l + 1) / (4 pi)),
        so B = |rho0| + sum_k |eps_k| sqrt((2 l_k + 1) / (4 pi))."""
        return abs(self.rho0) + sum(
            abs(m.amplitude) * math.sqrt((2 * m.degree + 1) / (4.0 * math.pi)) for m in self.modes
        )

    def _derivative_table(self, x, s, phi, order):
        """part[k][j]: the height with k theta and j phi derivatives, k + j <=
        order, from x = cos(theta) and s = sin(theta).  Each mode is separable,
        so an entry is (d/dtheta)^k P_l^m times (d/dphi)^j cos(m phi).  The
        angles broadcast: (n,) arrays of scattered nodes, or a grid's (n_theta, 1)
        column and (1, n_phi) row, whose factors are then evaluated once per row
        or column and give the bits of the flat nodes.  Also returns each mode's
        sin(m phi), or None at order 0, where no phi derivative is formed."""
        phi = np.asarray(phi, dtype=float)
        shape = np.broadcast_shapes(np.shape(x), phi.shape)
        part = [[np.zeros(shape) for _ in range(order + 1 - k)] for k in range(order + 1)]
        part[0][0] += self.rho0
        sines = []
        for mode in self.modes:
            l, m = mode.degree, mode.order
            scale = mode.amplitude * _sph_norm(l, m)
            p_theta = _legendre_theta_derivatives(l, m, x, s, order)
            c, sn = np.cos(m * phi), np.sin(m * phi) if order else None
            sines.append(sn)
            p_phi = [c, *(a * f for a, f in zip((-m, -m * m)[:order], (sn, c)))]
            for k in range(order + 1):
                for j in range(order + 1 - k):
                    part[k][j] = part[k][j] + scale * p_theta[k] * p_phi[j]
        return part, sines

    def height_jet(self, theta, phi):
        """Closed-form second-order jet (y, dy, d2y) of the height, derivative
        axes first and the nodes, theta-major, on one last axis."""
        shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
        check_off_poles(theta, shape)
        part, _ = self._derivative_table(np.cos(theta), np.sin(theta), phi, 2)
        part = [[entry.reshape(-1) for entry in row] for row in part]
        return part[0][0], _derivative_tensor(part, 1), _derivative_tensor(part, 2)

    def height(self, theta, phi):
        """Height values, shaped as theta and phi broadcast; safe at the chart poles."""
        return self._derivative_table(np.cos(theta), np.sin(theta), phi, 0)[0][0][0]

    def slope(self, theta, phi):
        """Height y and |grad y|^2 = y_theta^2 + (y_phi / sin theta)^2 on the
        unit sphere, at node arrays; safe at the chart poles."""
        x, s = np.cos(theta), np.sin(theta)
        part, sines = self._derivative_table(x, s, phi, 1)
        y_phi_over_sin = 0.0  # pole-safe, unlike part[0][1] / s
        for mode, sn in zip(self.modes, sines):
            l, m = mode.degree, mode.order
            scale = mode.amplitude * _sph_norm(l, m)
            y_phi_over_sin -= scale * _legendre_m_over_sin(l, m, x, s) * sn
        return part[0][0], part[1][0] ** 2 + y_phi_over_sin**2

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


class SampledGridSurface:
    """Heights sampled on a pole-free (theta, phi) grid; jets by stencils.

    The grid is ``sampled_grid``'s: cell-centered in theta, theta_i =
    (i + 1/2) pi / n_theta, and uniform periodic in phi.  Derivatives use
    second-order central differences; theta rows next to the poles are
    closed with ghost rows obtained by reflecting across the pole (phi
    shifted by pi), which keeps every stencil central.  The grid must pass
    ``check_grid``.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("expected a 2-d grid of heights")
        check_grid("sampled grid", *values.shape)
        self.values = values
        self.grid = sampled_grid(*values.shape)
        self.theta_grid, self.phi_grid = self.grid.theta_axis, self.grid.phi_axis
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
        return cls(surface.height(*sampled_grid(n_theta, n_phi).mesh))

    def grid_jets(self):
        """Jets (y, dy, d2y) at every grid node, flattened theta-major."""
        return grid_scalar_jets(self.values)


def check_grid(where, n_theta, n_phi):
    """ConfigError naming ``where`` unless the grid's checks run: the pole
    reflection turns phi by pi, and ``geometry.sampled_newton_residual``
    differences in theta at the rows between the two pole rows."""
    if n_theta < 3 or n_phi < 2 or n_phi % 2:
        raise ConfigError(f"{where}: '{n_theta}x{n_phi}' needs n_theta >= 3 "
                          "and an even n_phi >= 2")


@functools.lru_cache(maxsize=8)
def sampled_grid(n_theta, n_phi) -> ProductGrid:
    """The cell-centred theta axis and the periodic phi axis of a sampled grid."""
    return ProductGrid((np.arange(n_theta) + 0.5) * math.pi / n_theta,
                       np.arange(n_phi) * 2.0 * math.pi / n_phi)


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


#: central differences, second-order accurate: for k = 1, 2 the (offset,
#: weight) terms, summed in this order from the first, and the factor c of
#: the divisor c h^k
STENCILS = {1: (((1, 1), (-1, -1)), 2), 2: (((1, 1), (0, -2), (-1, 1)), 1)}


def central(arr, axis, k, h):
    """The k-th central difference with step h along ``axis`` of ``arr``, at
    the entries that have a neighbour on each side: one fewer at each end of
    that axis."""
    terms, c = STENCILS[k]
    n = arr.shape[axis] - 2
    index = [slice(None)] * arr.ndim
    out = None
    for offset, weight in terms:
        index[axis] = slice(1 + offset, 1 + offset + n)
        # adding or subtracting |weight| times the term spends no product
        # on a unit weight and keeps the bits of the written-out formula
        term = arr[tuple(index)] if abs(weight) == 1 else abs(weight) * arr[tuple(index)]
        out = term if out is None else (out + term if weight > 0 else out - term)
    return out / (c * h**k)


def grid_steps(n_theta, n_phi):
    """The theta and phi steps of ``sampled_grid(n_theta, n_phi)``."""
    return math.pi / n_theta, 2.0 * math.pi / n_phi


def grid_scalar_jets(values, order=2):
    """Jets (y, dy[, d2y]) of a sampled scalar field through the given order
    (1 or 2), by ``central`` differences, second-order accurate everywhere;
    the nodes are flattened theta-major onto the last axis.
    """
    ht, hp = grid_steps(*values.shape)
    # one periodic copy: 1 pole-extended row and 1 wrapped column on each
    # side, so every stencil is a slice; part[k][j] has k theta and j phi
    # derivatives, as in ``AnalyticSurface._derivative_table``
    ext = pole_extend(values, 1)
    ext = np.concatenate([ext[:, -1:], ext, ext[:, :1]], axis=1)
    rows = [ext[1:-1]] + [central(ext, 0, k, ht) for k in range(1, order + 1)]
    part = [[row[:, 1:-1]] + [central(row, 1, j, hp) for j in range(1, order + 1 - k)]
            for k, row in enumerate(rows)]
    y = np.ascontiguousarray(values.ravel(), dtype=float)
    return (y, *(_derivative_tensor(part, n).reshape((2,) * n + (values.size,))
                 for n in range(1, order + 1)))
