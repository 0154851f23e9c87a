"""Product node grids on the sphere and the quadrature rule on one:
Gauss-Legendre in cos(theta), uniform trapezoid in phi.

Nodes never touch the chart poles.  Weights are stored against the
chart measure d theta d phi, so integrating a function F over the round
sphere is sum(w * F * sin theta) and over a graph surface
sum(w * F * sqrt(det g)).  ``reduce_sum`` returns ``math.fsum``'s
correctly rounded double: an error-free vector extraction, certified
against the rounding of its result, and ``math.fsum`` itself where no
certificate comes.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

#: extraction passes before ``reduce_sum`` falls back to ``math.fsum``
MAX_PASSES = 4


@dataclass(frozen=True, eq=False)
class ProductGrid:
    """The nodes (theta_axis[i], phi_axis[j]) in theta-major order, node
    i n_phi + j; ``theta``, ``phi`` and, on a quadrature rule, ``weights``
    are the flat node arrays, all read-only."""

    theta_axis: np.ndarray
    phi_axis: np.ndarray
    weights: np.ndarray = None
    theta: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)

    def __post_init__(self):
        n_theta, n_phi = self.theta_axis.size, self.phi_axis.size
        object.__setattr__(self, "theta", np.repeat(self.theta_axis, n_phi))
        object.__setattr__(self, "phi", np.tile(self.phi_axis, n_theta))
        for array in (self.theta_axis, self.phi_axis, self.theta, self.phi, self.weights):
            if array is not None:
                array.setflags(write=False)

    @property
    def mesh(self):
        """The axes as an (n_theta, 1) column and a (1, n_phi) row, which
        broadcast to the grid."""
        return self.theta_axis[:, None], self.phi_axis[None, :]

    @functools.cached_property
    def trig(self):
        """sin and cos of theta and of phi at the nodes, read-only: each
        evaluated once per row or column, with the bits of evaluating it at
        every node, and once per grid."""
        n_theta, n_phi = self.theta_axis.size, self.phi_axis.size
        out = (np.repeat(np.sin(self.theta_axis), n_phi), np.repeat(np.cos(self.theta_axis), n_phi),
               np.tile(np.sin(self.phi_axis), n_theta), np.tile(np.cos(self.phi_axis), n_theta))
        for array in out:
            array.setflags(write=False)
        return out


@functools.lru_cache(maxsize=8)
def gauss_sphere_rule(n_theta: int, n_phi: int) -> ProductGrid:
    """The (n_theta x n_phi) product rule.

    Built once per process and size; its arrays are read-only, so no
    caller can alter a rule that others share.
    """
    if n_theta < 2 or n_phi < 2:
        raise ConfigError("quadrature degrees must be at least 2 in each angle")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # theta increasing
    x, w = x[order], w[order]
    theta_nodes = np.arccos(x)
    phi_nodes = np.arange(n_phi) * 2.0 * math.pi / n_phi
    wphi = 2.0 * math.pi / n_phi
    # chart-measure weights: GL weight is against d cos(theta)
    weights = np.repeat(w / np.sin(theta_nodes), n_phi) * wphi
    return ProductGrid(theta_nodes, phi_nodes, weights)


def reduce_sum(values) -> float:
    """``math.fsum(values)``, without boxing every value into a Python float.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008): with m = bit_length(n + 1)
    and sigma = 2^(m + e) > 2^m max|p|, each pass splits p into the
    multiples q = (sigma + p) - sigma of ulp(sigma) / 2, whose sum is exact
    in any order, and the remainder p - q, exact too, with |p - q| at most
    ulp(sigma) / 2, the next pass's 2^e.  The exact total is the sum of the
    pass sums plus the remainder; r = fsum(pass sums) is returned once the
    error of r, bounded from d = fsum(pass sums - r) and n ulp(sigma) / 2,
    stays below half the gap from r to its nearer neighbour, so r is the
    correctly rounded total that ``math.fsum`` returns.  Empty, all-zero,
    non-finite or huge (2^900 and up) input, an exact zero r (whose sign
    fsum decides) and a total still uncertified after ``MAX_PASSES`` go to
    ``math.fsum``.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    big = float(np.abs(values).max()) if n else 0.0
    if 0.0 < big < 2.0**900:
        m = (n + 1).bit_length()
        sigma = math.ldexp(1.0, m + math.frexp(big)[1])
        p, sums = values.copy(), []
        for _ in range(MAX_PASSES):
            q = p + sigma
            q -= sigma
            sums.append(float(q.sum()))
            p -= q
            bound = math.ldexp(sigma, -53)  # |p| <= ulp(sigma) / 2
            r = math.fsum(sums)
            if r == 0.0:
                break
            d = math.fsum(sums + [-r])
            gap = min(math.nextafter(r, math.inf) - r, r - math.nextafter(r, -math.inf))
            if abs(d) * (1.0 + 2.0**-50) + n * bound < 0.5 * gap:
                return r
            sigma = math.ldexp(bound, m)
    return math.fsum(values.tolist())
